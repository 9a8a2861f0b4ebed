package engine

import (
	"context"
	"fmt"
	"os"
	"testing"
	"time"

	"fudj/internal/cluster"
	"fudj/internal/trace"
)

func barrierKillConfig(b cluster.Barrier, node int) *cluster.FaultConfig {
	return &cluster.FaultConfig{
		Seed:         1,
		BarrierKills: []cluster.BarrierKill{{Barrier: b, Node: node}},
	}
}

// countSpans walks a trace counting spans with the given name.
func countSpans(root *trace.Span, name string) int {
	n := 0
	root.Walk(func(_ int, sp *trace.Span) {
		if sp.Name() == name {
			n++
		}
	})
	return n
}

// summarizeTasks counts partition task executions under every
// SUMMARIZE span — the "did SUMMARIZE re-run" probe.
func summarizeTasks(root *trace.Span) int {
	n := 0
	root.Walk(func(_ int, sp *trace.Span) {
		if sp.Name() != "SUMMARIZE" {
			return
		}
		for _, c := range sp.Children() {
			if c.Name() == "task" {
				n++
			}
		}
	})
	return n
}

// TestCheckpointRecoveryAtShuffleBarrier is the headline acceptance
// property: a node killed right after the shuffle barrier, with
// checkpointing on, yields multiset-identical results, recovers its
// partitions from checkpoint, and never re-runs SUMMARIZE for the
// surviving partitions (task spans equal to a fault-free run).
func TestCheckpointRecoveryAtShuffleBarrier(t *testing.T) {
	plain := newTestDB(t)
	db := newTestDB(t)
	for _, q := range chaosQueries {
		t.Run(q.name, func(t *testing.T) {
			base, err := plain.Execute(q.sql, Trace())
			if err != nil {
				t.Fatal(err)
			}
			if len(base.Rows) == 0 {
				t.Fatal("baseline produced no rows")
			}
			baseTasks := summarizeTasks(base.Trace)
			if baseTasks == 0 {
				t.Fatal("baseline trace has no SUMMARIZE tasks — probe broken")
			}

			db.MustConfigure(WithFaults(barrierKillConfig(cluster.BarrierShuffle, 1)))
			res, err := db.Execute(q.sql, Trace())
			if err != nil {
				t.Fatal(err)
			}
			sameRows(t, q.name+" after barrier kill", res.Rows, base.Rows)
			if res.Faults.BarrierKills == 0 {
				t.Error("no barrier kill fired — injection not wired through")
			}
			if res.Faults.PartitionsRecovered == 0 {
				t.Error("no partitions recovered from checkpoint")
			}
			if res.Faults.CheckpointBytes == 0 {
				t.Error("CheckpointBytes = 0 — nothing was made durable")
			}
			if got := summarizeTasks(res.Trace); got != baseTasks {
				t.Errorf("SUMMARIZE task spans = %d, want %d — surviving partitions must not re-run SUMMARIZE", got, baseTasks)
			}
			if got, want := countSpans(res.Trace, "SUMMARIZE"), countSpans(base.Trace, "SUMMARIZE"); got != want {
				t.Errorf("SUMMARIZE phase spans = %d, want %d — step must not abort-and-rerun", got, want)
			}
			if countSpans(res.Trace, "recover") == 0 {
				t.Error("no recover spans — recovery invisible to tracing")
			}
			if countSpans(res.Trace, "barrier shuffle") == 0 {
				t.Error("no shuffle barrier span")
			}
		})
	}
}

// TestCheckpointRecoveryHealsDamage pins corruption healing: with
// every checkpoint write torn (or bit-flipped), a barrier kill still
// converges to the fault-free answer — the damaged checkpoints are
// detected by checksum, discarded, and the partitions recomputed.
func TestCheckpointRecoveryHealsDamage(t *testing.T) {
	db := newTestDB(t)
	base := mustQuery(t, db, chaosQueries[0].sql)
	for _, tc := range []struct {
		name string
		arm  func(cfg *cluster.FaultConfig)
	}{
		{"torn-write", func(cfg *cluster.FaultConfig) { cfg.TornWriteProb = 1 }},
		{"checkpoint-corrupt", func(cfg *cluster.FaultConfig) { cfg.CheckpointCorruptProb = 1 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := barrierKillConfig(cluster.BarrierShuffle, 1)
			tc.arm(cfg)
			db.MustConfigure(WithFaults(cfg))
			res := mustQuery(t, db, chaosQueries[0].sql)
			sameRows(t, tc.name, res.Rows, base.Rows)
			if res.Faults.CheckpointsDiscarded == 0 {
				t.Error("no damaged checkpoints discarded at p=1")
			}
			if res.Faults.PartitionsRecovered != 0 {
				t.Errorf("PartitionsRecovered = %d, want 0 — every checkpoint was damaged", res.Faults.PartitionsRecovered)
			}
		})
	}
}

// TestKillAtBarrierMatrix sweeps barrier × node: every combination
// must recover in place — no step retry — and agree with the
// fault-free answer. Smart theta is one more input: its stateless
// split routing lets it cross the same shuffle barrier.
func TestKillAtBarrierMatrix(t *testing.T) {
	type input struct {
		name, sql  string
		smartTheta bool
	}
	var inputs []input
	for _, q := range chaosQueries {
		inputs = append(inputs, input{name: q.name, sql: q.sql})
	}
	inputs = append(inputs, input{name: "smart-theta", sql: thetaSQL, smartTheta: true})
	plain := newTestDB(t)
	db := newTestDB(t)
	for _, q := range inputs {
		plain.MustConfigure(WithSmartTheta(q.smartTheta))
		db.MustConfigure(WithSmartTheta(q.smartTheta))
		base := mustQuery(t, plain, q.sql)
		for _, b := range []cluster.Barrier{cluster.BarrierPlan, cluster.BarrierShuffle} {
			for node := 0; node < 2; node++ {
				name := fmt.Sprintf("%s/%s-node%d", q.name, b, node)
				db.MustConfigure(WithFaults(barrierKillConfig(b, node)))
				res := mustQuery(t, db, q.sql)
				sameRows(t, name, res.Rows, base.Rows)
				if res.Faults.BarrierKills != 1 {
					t.Errorf("%s: BarrierKills = %d, want 1", name, res.Faults.BarrierKills)
				}
				if res.Faults.PartitionsRecovered == 0 {
					t.Errorf("%s: no partitions recovered", name)
				}
				if res.Faults.Retries != 0 {
					t.Errorf("%s: Retries = %d, want 0 — recovery must not re-run the step", name, res.Faults.Retries)
				}
			}
		}
	}
}

// TestCheckpointRecoverySweepsTempFiles asserts query teardown leaves
// no checkpoint or spill file behind, even under a full chaos mix with
// barrier kills and damaged checkpoint writes.
func TestCheckpointRecoverySweepsTempFiles(t *testing.T) {
	tmp := t.TempDir()
	t.Setenv("TMPDIR", tmp)
	db := newTestDB(t)
	db.MustConfigure(WithMemoryBudget(64 << 20))
	cfg := chaosConfig(5)
	cfg.BarrierKills = []cluster.BarrierKill{{Barrier: cluster.BarrierShuffle, Node: 0}}
	cfg.TornWriteProb = 0.2
	db.MustConfigure(WithFaults(cfg))
	db.MustConfigure(WithRetryPolicy(chaosRetry()))
	for _, q := range chaosQueries {
		mustQuery(t, db, q.sql)
	}
	entries, err := os.ReadDir(tmp)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		t.Errorf("orphaned temp entry after teardown: %s", e.Name())
	}
}

// TestRecoveryCancelledQuerySweepsTempFiles covers the abandoned-query
// path: a query cancelled mid-flight (both nodes straggling) must
// still tear down its spill and checkpoint directories. The armed
// barrier kill is what gives the query a checkpoint store.
func TestRecoveryCancelledQuerySweepsTempFiles(t *testing.T) {
	tmp := t.TempDir()
	t.Setenv("TMPDIR", tmp)
	db := newTestDB(t)
	db.MustConfigure(WithMemoryBudget(64 << 20))
	db.MustConfigure(WithFaults(&cluster.FaultConfig{
		Seed:           1,
		StragglerNodes: []int{0, 1},
		StragglerDelay: 400 * time.Millisecond,
		BarrierKills:   []cluster.BarrierKill{{Barrier: cluster.BarrierShuffle, Node: 0}},
	}))
	ctx, cancel := context.WithTimeout(context.Background(), 25*time.Millisecond)
	defer cancel()
	if _, err := db.ExecuteContext(ctx, chaosQueries[0].sql); err == nil {
		t.Fatal("cancelled query succeeded")
	}
	entries, err := os.ReadDir(tmp)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		t.Errorf("orphaned temp entry after cancelled query: %s", e.Name())
	}
}
