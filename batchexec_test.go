// Batched-execution acceptance: the columnar hot path must be
// invisible to query semantics. Each example join runs with default
// batching and with WithBatchSize(1) — record-at-a-time framing, the
// pre-batching baseline — under chaos faults and a tiny memory budget
// (so shuffle, retry-resend, spill, and checkpoint paths all carry
// batch frames), and the result multisets must be identical.
package fudj_test

import (
	"fmt"
	"sort"
	"testing"
	"time"

	"fudj"
	"fudj/internal/shell"
)

// batchChaosQueries projects ids (not COUNT) so multiset comparison
// sees every joined pair.
var batchChaosQueries = []struct {
	name string
	sql  string
}{
	{"spatial", `SELECT p.id, w.id FROM parks p, wildfires w WHERE spatial_join(p.boundary, w.location, 8)`},
	{"interval", `SELECT n1.id, n2.id FROM nyctaxi n1, nyctaxi n2
		WHERE n1.vendor = 1 AND n2.vendor = 2
		AND overlapping_interval(n1.ride_interval, n2.ride_interval, 1000)`},
	{"textsim", `SELECT r1.id, r2.id FROM amazonreview r1, amazonreview r2
		WHERE r1.overall = 5 AND r2.overall = 4
		AND text_similarity_join(r1.review, r2.review, 0.7)`},
}

// rowKeys renders id-pair rows into sortable strings.
func rowKeys(t *testing.T, rows []fudj.Record) []string {
	t.Helper()
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = fmt.Sprintf("%d|%d", r[0].Int64(), r[1].Int64())
	}
	sort.Strings(out)
	return out
}

func TestBatchedExecutionIdentity(t *testing.T) {
	db, err := shell.Setup(shell.Config{Nodes: 3, Cores: 2, Records: 150, LoadDemo: true})
	if err != nil {
		t.Fatal(err)
	}
	// Chaos + a tiny budget: crashes re-run tasks, corruption re-sends
	// batch frames, the budget forces COMBINE spills, and the armed
	// barrier kill writes and restores checkpoint frames — every
	// batch-framed surface is exercised on both arms.
	db.MustConfigure(
		fudj.WithFaults(&fudj.FaultConfig{
			Seed: 7, CrashProb: 0.15, CorruptProb: 0.05,
			BarrierKills: []fudj.BarrierKill{{Barrier: fudj.BarrierShuffle, Node: 1}},
		}),
		fudj.WithRetryPolicy(fudj.RetryPolicy{
			MaxAttempts: 8,
			BaseBackoff: 50 * time.Microsecond,
			MaxBackoff:  time.Millisecond,
		}),
		fudj.WithMemoryBudget(48<<10),
	)
	for _, q := range batchChaosQueries {
		t.Run(q.name, func(t *testing.T) {
			db.MustConfigure(fudj.WithBatchSize(0)) // default batching
			batched, err := db.Execute(q.sql)
			if err != nil {
				t.Fatalf("batched run: %v", err)
			}
			if len(batched.Rows) == 0 {
				t.Fatal("batched run produced no rows")
			}
			if batched.Join.Batches == 0 {
				t.Error("batched run encoded no columnar frames")
			}

			db.MustConfigure(fudj.WithBatchSize(1)) // record-at-a-time baseline
			baseline, err := db.Execute(q.sql)
			if err != nil {
				t.Fatalf("record-at-a-time run: %v", err)
			}
			got, want := rowKeys(t, batched.Rows), rowKeys(t, baseline.Rows)
			if len(got) != len(want) {
				t.Fatalf("batched %d rows, record-at-a-time %d rows", len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("row %d: batched %q, record-at-a-time %q", i, got[i], want[i])
				}
			}
		})
	}
}

func TestBatchMetricsSurfaced(t *testing.T) {
	db, err := shell.Setup(shell.Config{Nodes: 2, Cores: 2, Records: 80, LoadDemo: true})
	if err != nil {
		t.Fatal(err)
	}
	res, err := db.Execute(batchChaosQueries[0].sql)
	if err != nil {
		t.Fatal(err)
	}
	j := res.Join
	if j.Batches == 0 || j.BatchRows == 0 {
		t.Fatalf("batch counters empty: batches=%d rows=%d", j.Batches, j.BatchRows)
	}
	if j.BatchRows < j.Batches {
		t.Errorf("BatchRows %d < Batches %d: frames cannot be emptier than one row", j.BatchRows, j.Batches)
	}
	if rpb := j.RowsPerBatch(); rpb < 1 || rpb > 1024 {
		t.Errorf("RowsPerBatch() = %v, want within [1, 1024]", rpb)
	}
	if j.BatchPoolGets == 0 {
		t.Error("no scratch batches requested from the pool")
	}
	if pr := j.PoolReuse(); pr < 0 || pr > 1 {
		t.Errorf("PoolReuse() = %v, want within [0, 1]", pr)
	}
	// The registry view carries the same counters under batch.* names.
	if res.Metrics["batch.count"] != j.Batches {
		t.Errorf("metrics batch.count = %d, Join.Batches = %d", res.Metrics["batch.count"], j.Batches)
	}
	if res.Metrics["batch.rows"] != j.BatchRows {
		t.Errorf("metrics batch.rows = %d, Join.BatchRows = %d", res.Metrics["batch.rows"], j.BatchRows)
	}
}

func TestConfigureRejectsOpenOnlyOptions(t *testing.T) {
	db := fudj.MustOpen(fudj.WithCluster(2, 1))
	for _, opt := range []fudj.Option{
		fudj.WithConcurrencyLimit(2),
		fudj.WithQueueDepth(4),
		fudj.WithMemoryPool(1 << 20),
		fudj.WithTracing(),
		fudj.WithClock(nil),
	} {
		if err := db.Configure(opt); err == nil {
			t.Errorf("Configure accepted an open-only option: %#v", opt)
		}
	}
	// Runtime-settable options still apply.
	if err := db.Configure(fudj.WithBatchSize(16), fudj.WithMemoryBudget(1<<20), fudj.WithFaults(nil)); err != nil {
		t.Fatalf("Configure rejected runtime options: %v", err)
	}
}
