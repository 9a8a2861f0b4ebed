// Recovery manager: durable phase barriers and partial recovery. The
// FUDJ pipeline has two natural barriers — after SUMMARIZE (the
// partitioning plan is broadcast) and after PARTITION (every record
// sits in its destination partition's bucket input) — and a node lost
// *at* a barrier only needs the work downstream of it replayed. The
// manager fires injected barrier kills and reloads the lost
// partitions' checkpointed state. The engine attaches one exactly when
// a query's fault config can kill at a barrier.
//
// Corruption healing: a checkpoint that fails its integrity check on
// reopen (torn write, bit flip) is discarded and the partition's state
// is recomputed from the surviving upstream inputs — recovery may cost
// more, but it never produces different results.
package cluster

import (
	"errors"
	"fmt"
	"os"
	"sort"
	"sync"

	"fudj/internal/storage"
	"fudj/internal/types"
)

// Barrier names a durable phase barrier of the FUDJ pipeline.
type Barrier int

const (
	// BarrierPlan is crossed after SUMMARIZE: the partitioning plan has
	// been broadcast, so a node lost here re-reads the durable plan
	// instead of re-running SUMMARIZE.
	BarrierPlan Barrier = iota + 1
	// BarrierShuffle is crossed after PARTITION: every partition's
	// post-shuffle bucket inputs are durable, so a node lost here
	// reloads its partitions' inputs and re-runs only their COMBINE.
	BarrierShuffle
)

// String implements fmt.Stringer.
func (b Barrier) String() string {
	switch b {
	case BarrierPlan:
		return "plan"
	case BarrierShuffle:
		return "shuffle"
	}
	return fmt.Sprintf("barrier(%d)", int(b))
}

// RecoveryManager tracks per-partition phase completion for one query
// and drives barrier-scoped recovery from its checkpoint store.
type RecoveryManager struct {
	c     *Cluster
	store *storage.CheckpointStore

	mu   sync.Mutex
	done map[string]map[int]bool // phase name -> completed partitions
}

// NewRecoveryManager attaches a recovery manager backed by store to
// the cluster.
func (c *Cluster) NewRecoveryManager(store *storage.CheckpointStore) *RecoveryManager {
	return &RecoveryManager{c: c, store: store, done: make(map[string]map[int]bool)}
}

// MarkDone records that phase completed for partition part. Marking is
// idempotent, so retried task attempts are safe.
func (rm *RecoveryManager) MarkDone(phase string, part int) {
	rm.mu.Lock()
	m := rm.done[phase]
	if m == nil {
		m = make(map[int]bool)
		rm.done[phase] = m
	}
	m[part] = true
	rm.mu.Unlock()
}

// DoneCount returns how many partitions completed the phase.
func (rm *RecoveryManager) DoneCount(phase string) int {
	rm.mu.Lock()
	defer rm.mu.Unlock()
	return len(rm.done[phase])
}

// PhaseDone reports whether the phase completed for partition part.
func (rm *RecoveryManager) PhaseDone(phase string, part int) bool {
	rm.mu.Lock()
	defer rm.mu.Unlock()
	return rm.done[phase][part]
}

// CheckpointBlob persists one opaque blob (e.g. the encoded PPlan)
// under key, charging checkpoint.bytes and then applying any injected
// damage to the published file.
func (rm *RecoveryManager) CheckpointBlob(key string, blob []byte) error {
	n, err := rm.store.SaveBlob(key, blob)
	if err != nil {
		return err
	}
	rm.c.metrics.addCheckpointBytes(n)
	return rm.applyDamage(key)
}

// CheckpointRecords persists one partition's record batch under key.
func (rm *RecoveryManager) CheckpointRecords(key string, recs []types.Record) error {
	n, err := rm.store.SaveRecords(key, recs)
	if err != nil {
		return err
	}
	rm.c.metrics.addCheckpointBytes(n)
	return rm.applyDamage(key)
}

// applyDamage asks the fault injector whether the just-published
// checkpoint suffers a torn write (tail truncated, terminator lost) or
// a bit flip, and damages the file accordingly. The damage is real —
// the reopen path must detect it through the format's own checks.
func (rm *RecoveryManager) applyDamage(key string) error {
	fi := rm.c.faults
	if fi == nil {
		return nil
	}
	switch fi.checkpointDamage(key) {
	case damageTorn:
		path := rm.store.Path(key)
		info, err := os.Stat(path)
		if err != nil {
			return err
		}
		return os.Truncate(path, info.Size()/2)
	case damageCorrupt:
		path := rm.store.Path(key)
		info, err := os.Stat(path)
		if err != nil {
			return err
		}
		f, err := os.OpenFile(path, os.O_RDWR, 0)
		if err != nil {
			return err
		}
		defer f.Close()
		off := fi.damageOffset(key, info.Size(), 8)
		var b [1]byte
		if _, err := f.ReadAt(b[:], off); err != nil {
			return err
		}
		b[0] ^= 0x10
		_, err = f.WriteAt(b[:], off)
		return err
	}
	return nil
}

// CrossBarrier marks execution crossing barrier b and returns the
// partitions wiped by injected node deaths, sorted ascending. When
// the trace is on, the crossing emits a "barrier <name>" span carrying
// the loss so recovery shows up in the query tree.
func (rm *RecoveryManager) CrossBarrier(b Barrier) (lostParts []int) {
	nodes := rm.c.faults.killAtBarrier(rm.c.nextEpoch(), b, rm.c.cfg.Nodes)
	if len(nodes) == 0 {
		return nil
	}
	for _, n := range nodes {
		for core := 0; core < rm.c.cfg.CoresPerNode; core++ {
			lostParts = append(lostParts, n*rm.c.cfg.CoresPerNode+core)
		}
	}
	sort.Ints(lostParts)
	rm.c.metrics.addBarrierKills(int64(len(nodes)))
	sp := rm.c.span.Child("barrier " + b.String())
	sp.Add("nodes.lost", int64(len(nodes)))
	sp.Add("parts.lost", int64(len(lostParts)))
	sp.End()
	return lostParts
}

// RecoverRecords restores one lost partition's record batch: from the
// checkpoint under key when it reopens cleanly, or by calling
// recompute when the checkpoint is missing or fails its integrity
// check (which discards it). The reloaded bytes are charged against
// the budget-tracked memory gauge so recovery registers in PeakMemory.
// Each recovery emits a "recover" span under the current phase span.
func (rm *RecoveryManager) RecoverRecords(key string, part int, recompute func() ([]types.Record, error)) ([]types.Record, error) {
	sp := rm.c.span.Child("recover")
	defer sp.End()
	sp.Add("part", int64(part))
	recs, err := rm.store.LoadRecords(key)
	if err == nil {
		rm.c.metrics.addCheckpointRecovered()
		sp.Add("from.checkpoint", 1)
		n := types.RecordsMemSize(recs)
		rm.c.metrics.ReserveMemory(n)
		rm.c.metrics.ReleaseMemory(n)
		return recs, nil
	}
	if err := rm.discardDamaged(key, err); err != nil {
		return nil, err
	}
	sp.Add("from.recompute", 1)
	return recompute()
}

// RecoverBlob restores a lost blob checkpoint (the broadcast plan) for
// the given lost partitions, falling back to fallback when the
// checkpoint is missing or corrupt. Every lost partition counts as
// recovered-from-checkpoint when the reload succeeds.
func (rm *RecoveryManager) RecoverBlob(key string, parts []int, fallback func() ([]byte, error)) ([]byte, error) {
	sp := rm.c.span.Child("recover")
	defer sp.End()
	sp.Add("parts", int64(len(parts)))
	blob, err := rm.store.LoadBlob(key)
	if err == nil {
		for range parts {
			rm.c.metrics.addCheckpointRecovered()
		}
		sp.Add("from.checkpoint", 1)
		return blob, nil
	}
	if err := rm.discardDamaged(key, err); err != nil {
		return nil, err
	}
	sp.Add("from.recompute", 1)
	return fallback()
}

// discardDamaged handles a failed checkpoint load: corruption is
// counted, the damaged file removed, and nil returned so the caller
// recomputes; a missing checkpoint silently recomputes; any other
// error propagates.
func (rm *RecoveryManager) discardDamaged(key string, err error) error {
	var ce *storage.CorruptError
	switch {
	case errors.As(err, &ce):
		rm.c.metrics.addCheckpointDiscarded()
		return rm.store.Remove(key)
	case errors.Is(err, os.ErrNotExist):
		return nil
	default:
		return err
	}
}

// Sweep removes the checkpoint directory; called at query teardown so
// no checkpoint files outlive their query.
func (rm *RecoveryManager) Sweep() error {
	return rm.store.Sweep()
}
