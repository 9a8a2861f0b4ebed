package intervaljoin

import (
	"testing"

	"fudj/internal/cluster"
	"fudj/internal/engine"
)

// TestCheckpointRecovery is the checkpointed-execution acceptance for
// this join: a node killed at either phase barrier, with durable
// checkpoints on, must converge to the multiset-identical fault-free
// answer with the lost partitions restored from checkpoint — and with
// every checkpoint write damaged, the corruption must be detected and
// healed by recomputation instead.
func TestCheckpointRecovery(t *testing.T) {
	db := chaosDB(t)
	clean, err := db.Execute(chaosQuery)
	if err != nil {
		t.Fatal(err)
	}
	if len(clean.Rows) == 0 {
		t.Fatal("fault-free run produced no rows")
	}

	for _, kill := range []struct {
		name string
		b    cluster.Barrier
	}{
		{"plan", cluster.BarrierPlan},
		{"shuffle", cluster.BarrierShuffle},
	} {
		t.Run(kill.name, func(t *testing.T) {
			db.MustConfigure(engine.WithFaults(&cluster.FaultConfig{
				Seed:         6,
				BarrierKills: []cluster.BarrierKill{{Barrier: kill.b, Node: 1}},
			}))
			res, err := db.Execute(chaosQuery)
			if err != nil {
				t.Fatalf("barrier-kill run failed: %v", err)
			}
			sameMultiset(t, clean.Rows, res.Rows)
			if res.Faults.BarrierKills == 0 {
				t.Error("no barrier kill fired")
			}
			if res.Faults.PartitionsRecovered == 0 {
				t.Error("no partitions recovered from checkpoint")
			}
			if res.Faults.CheckpointBytes == 0 {
				t.Error("no checkpoint bytes written")
			}
		})
	}

	t.Run("damaged", func(t *testing.T) {
		db.MustConfigure(engine.WithFaults(&cluster.FaultConfig{
			Seed:          6,
			BarrierKills:  []cluster.BarrierKill{{Barrier: cluster.BarrierShuffle, Node: 1}},
			TornWriteProb: 1,
		}))
		res, err := db.Execute(chaosQuery)
		if err != nil {
			t.Fatalf("damaged-checkpoint run failed: %v", err)
		}
		sameMultiset(t, clean.Rows, res.Rows)
		if res.Faults.CheckpointsDiscarded == 0 {
			t.Error("no damaged checkpoints discarded at torn-write p=1")
		}
	})
}
