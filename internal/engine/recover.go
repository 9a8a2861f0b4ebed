// Checkpointed FUDJ execution: durable phase barriers and partial
// recovery. runFUDJ's pipeline crosses two barriers — after SUMMARIZE
// (the partitioning plan is broadcast) and after PARTITION (every
// record sits in its destination partition's post-shuffle input). When
// a query's fault config can kill at a barrier, the state at each
// barrier is made durable, so a node killed there replays only the
// work downstream of it: a plan-barrier loss re-reads the durable
// plan, a shuffle-barrier loss reloads the lost partitions' bucket
// inputs and re-runs only their COMBINE. Every layout — hash, naive
// theta and smart theta — crosses the same shuffle barrier.
package engine

import (
	"fmt"

	"fudj/internal/cluster"
	"fudj/internal/types"
)

// stepRecovery carries one join step's barrier state: the shared
// recovery manager plus the step ordinal namespacing its checkpoint
// keys. A nil *stepRecovery disables all barrier logic (fault-free
// queries run with no checkpoint writes and no barrier spans).
type stepRecovery struct {
	rm   *cluster.RecoveryManager
	step int
}

// markDone records per-partition phase completion on the recovery
// manager; safe on a nil receiver and from concurrent partition tasks.
func (r *stepRecovery) markDone(phase string, part int) {
	if r != nil {
		r.rm.MarkDone(phase, part)
	}
}

// planKey names the step's durable plan checkpoint.
func (r *stepRecovery) planKey() string { return fmt.Sprintf("s%d-plan", r.step) }

// shuffleKey names one partition's post-shuffle input checkpoint for
// one side.
func (r *stepRecovery) shuffleKey(side string, part int) string {
	return fmt.Sprintf("s%d-shuffle-%s-p%d", r.step, side, part)
}

// planBarrier crosses the plan barrier: the broadcast plan blob is
// checkpointed, injected node deaths fire, and lost nodes recover by
// re-reading the durable plan (healing a damaged checkpoint with a
// re-broadcast of the coordinator's copy). Returns the plan bytes
// every node should decode.
func planBarrier(clus *cluster.Cluster, rec *stepRecovery, planBuf []byte) ([]byte, error) {
	if rec == nil {
		return planBuf, nil
	}
	rm := rec.rm
	if err := rm.CheckpointBlob(rec.planKey(), planBuf); err != nil {
		return nil, err
	}
	lost := rm.CrossBarrier(cluster.BarrierPlan)
	if len(lost) == 0 {
		return planBuf, nil
	}
	return rm.RecoverBlob(rec.planKey(), lost, func() ([]byte, error) {
		// Corrupt/torn plan checkpoint: the coordinator still holds the
		// plan, so healing is a re-broadcast (charged as such).
		clus.Broadcast(planBuf)
		return planBuf, nil
	})
}

// route is one shuffle layout's routing function: it appends the
// destination partitions of record i of source partition src to dst.
// A layout's exchange and its shuffle-barrier recompute share one
// route, so each layout's routing is written once.
type route func(src, i int, r types.Record, dst []int) []int

// hashRoute sends each record to the partition its key hashes to.
func hashRoute(p int, key func(types.Record) uint64) route {
	return func(_, _ int, r types.Record, dst []int) []int {
		return append(dst, int(key(r)%uint64(p)))
	}
}

// randomRoute deals record i of source src to partition (src+i) mod p:
// round-robin as a pure function of the record's position.
func randomRoute(p int) route {
	return func(src, i int, _ types.Record, dst []int) []int {
		return append(dst, (src+i)%p)
	}
}

// replicateRoute sends every record to every partition;
// cluster.Replicate is its zero-copy exchange.
func replicateRoute(p int) route {
	return func(_, _ int, _ types.Record, dst []int) []int {
		for d := 0; d < p; d++ {
			dst = append(dst, d)
		}
		return dst
	}
}

// replayRoute rebuilds one partition's post-shuffle input from the
// surviving pre-shuffle data: sources are walked in partition order
// and each record is kept once per time rt routes it to part — the
// exact order the shuffle's sequential delivery produced.
func replayRoute(pre cluster.Data, rt route, part int) []types.Record {
	var out []types.Record
	var dsts []int
	for src, recs := range pre {
		for i, r := range recs {
			dsts = rt(src, i, r, dsts[:0])
			for _, d := range dsts {
				if d == part {
					out = append(out, r)
				}
			}
		}
	}
	return out
}

// shuffleSide is one input side at the shuffle barrier: its
// post-shuffle partitions (mutated in place on recovery), and the
// pre-shuffle data and route that produced them, so a single lost
// partition's input can be rebuilt without re-running the exchange.
type shuffleSide struct {
	name  string
	data  cluster.Data
	pre   cluster.Data
	route route
}

// shuffleBarrier crosses the shuffle barrier: every partition's
// post-shuffle input (both sides) is checkpointed, injected node
// deaths fire, and each lost partition is restored from its checkpoint
// — or recomputed when the checkpoint is damaged — so only the lost
// partitions' COMBINE re-runs. Restored inputs then go through the
// same (budgeted) COMBINE as in a fault-free run.
func shuffleBarrier(rec *stepRecovery, sides ...shuffleSide) error {
	if rec == nil {
		return nil
	}
	rm := rec.rm
	for _, s := range sides {
		for part := range s.data {
			if err := rm.CheckpointRecords(rec.shuffleKey(s.name, part), s.data[part]); err != nil {
				return err
			}
		}
	}
	for _, part := range rm.CrossBarrier(cluster.BarrierShuffle) {
		for _, s := range sides {
			s.data[part] = nil // wiped with the node
			recs, err := rm.RecoverRecords(rec.shuffleKey(s.name, part), part, func() ([]types.Record, error) {
				return replayRoute(s.pre, s.route, part), nil
			})
			if err != nil {
				return err
			}
			s.data[part] = recs
		}
	}
	return nil
}
