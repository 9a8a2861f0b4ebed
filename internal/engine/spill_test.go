package engine

import (
	"errors"
	"strings"
	"testing"

	"fudj/internal/cluster"
	"fudj/internal/core"
	"fudj/internal/types"
)

// tinyBudget is small enough that every example join's COMBINE working
// set exceeds its partition share (forcing spill) while any single
// extended record stays below the hard cap.
const tinyBudget = 8192

// TestBoundedEquivalence is the headline memory-bounding property:
// with a budget far below the working set, every example join spills
// yet produces exactly the unbounded results, and the tracked peak
// never exceeds the budget.
func TestBoundedEquivalence(t *testing.T) {
	db := newTestDB(t)
	baseline := make(map[string][]types.Record)
	for _, q := range chaosQueries {
		baseline[q.name] = mustQuery(t, db, q.sql).Rows
	}

	db.MustConfigure(WithMemoryBudget(tinyBudget))
	for _, q := range chaosQueries {
		res := mustQuery(t, db, q.sql)
		sameRows(t, q.name+" under budget", res.Rows, baseline[q.name])
		if res.Memory.BytesSpilled == 0 || res.Memory.SpillRuns == 0 {
			t.Errorf("%s: budget %d forced no spilling (spilled=%d runs=%d)",
				q.name, tinyBudget, res.Memory.BytesSpilled, res.Memory.SpillRuns)
		}
		if res.Memory.Peak <= 0 {
			t.Errorf("%s: PeakMemory not tracked", q.name)
		}
		if res.Memory.Peak > tinyBudget {
			t.Errorf("%s: PeakMemory %d exceeds budget %d", q.name, res.Memory.Peak, tinyBudget)
		}
		if res.Memory.Backpressure == 0 {
			t.Errorf("%s: bounded inboxes reported no backpressure", q.name)
		}
		t.Logf("%s: peak=%d input=%d spilled=%d runs=%d split=%d bp=%d",
			q.name, res.Memory.Peak, res.Memory.PeakInput, res.Memory.BytesSpilled,
			res.Memory.SpillRuns, res.Memory.BucketsSplit, res.Memory.Backpressure)
	}
}

// TestBoundedSmartThetaEquivalence covers the third COMBINE path: the
// coordinator-scheduled theta operator under a budget.
func TestBoundedSmartThetaEquivalence(t *testing.T) {
	db := newTestDB(t)
	sql := chaosQueries[2].sql // interval join exercises the theta path
	baseline := mustQuery(t, db, sql).Rows

	db.MustConfigure(WithSmartTheta(true))
	db.MustConfigure(WithMemoryBudget(tinyBudget))
	res := mustQuery(t, db, sql)
	sameRows(t, "smart theta under budget", res.Rows, baseline)
	if res.Memory.BytesSpilled == 0 {
		t.Error("smart theta under budget did not spill")
	}
	if res.Memory.Peak > tinyBudget {
		t.Errorf("PeakMemory %d exceeds budget %d", res.Memory.Peak, tinyBudget)
	}
}

// TestBoundedWithFaults composes the budget with PR 1's fault
// injection: spilled, crashed, and retried execution must still match
// the fault-free unbounded baseline.
func TestBoundedWithFaults(t *testing.T) {
	db := newTestDB(t)
	baseline := make(map[string][]types.Record)
	for _, q := range chaosQueries {
		baseline[q.name] = mustQuery(t, db, q.sql).Rows
	}

	db.MustConfigure(WithMemoryBudget(tinyBudget))
	db.MustConfigure(WithFaults(chaosConfig(42)))
	db.MustConfigure(WithRetryPolicy(chaosRetry()))
	for _, q := range chaosQueries {
		res := mustQuery(t, db, q.sql)
		sameRows(t, q.name+" under budget+chaos", res.Rows, baseline[q.name])
		if res.Faults.Retries == 0 {
			t.Errorf("%s: no retries at crash p=0.2", q.name)
		}
		if res.Memory.BytesSpilled == 0 {
			t.Errorf("%s: no spilling under budget", q.name)
		}
		if res.Memory.Peak > tinyBudget {
			t.Errorf("%s: PeakMemory %d exceeds budget %d", q.name, res.Memory.Peak, tinyBudget)
		}
	}
}

// TestUnboundedUnchanged pins the zero-overhead contract: without a
// budget every memory counter is zero and results are unaffected.
func TestUnboundedUnchanged(t *testing.T) {
	db := newTestDB(t)
	res := mustQuery(t, db, chaosQueries[0].sql)
	if res.Memory.Peak != 0 || res.Memory.PeakInput != 0 || res.Memory.BytesSpilled != 0 ||
		res.Memory.SpillRuns != 0 || res.Memory.BucketsSplit != 0 || res.Memory.Backpressure != 0 {
		t.Errorf("unbounded run reported memory counters: %+v", res)
	}
	db.MustConfigure(WithMemoryBudget(-5)) // negative clamps to unbounded
	if db.MemoryBudget() != 0 {
		t.Error("negative budget should clamp to 0")
	}
}

// TestBucketSplitOnSkew forces the skew path: every record of a
// self-joining dataset lands in the same buckets, so one bucket's
// build side alone exceeds the partition share and must be chunked.
func TestBucketSplitOnSkew(t *testing.T) {
	db := newTestDB(t)
	schema := types.NewSchema(
		types.Field{Name: "id", Kind: types.KindInt64},
		types.Field{Name: "grp", Kind: types.KindInt64},
		types.Field{Name: "body", Kind: types.KindString},
	)
	body := strings.Repeat("alpha beta gamma delta ", 4)
	var recs []types.Record
	for i := 0; i < 40; i++ {
		recs = append(recs, types.Record{
			types.NewInt64(int64(i)),
			types.NewInt64(int64(i % 2)),
			types.NewString(body), // identical text: one hot bucket
		})
	}
	if err := db.CreateDataset("skewdocs", schema, recs); err != nil {
		t.Fatal(err)
	}
	sql := `
		SELECT a.id, b.id FROM skewdocs a, skewdocs b
		WHERE a.grp = 0 AND b.grp = 1
		  AND text_similarity_join(a.body, b.body, 0.8)`
	baseline := mustQuery(t, db, sql)
	if len(baseline.Rows) != 20*20 {
		t.Fatalf("baseline rows = %d, want 400", len(baseline.Rows))
	}
	db.MustConfigure(WithMemoryBudget(tinyBudget))
	res := mustQuery(t, db, sql)
	sameRows(t, "skew split", res.Rows, baseline.Rows)
	if res.Memory.BucketsSplit == 0 {
		t.Error("hot bucket was not skew-split")
	}
	if res.Memory.Peak > tinyBudget {
		t.Errorf("PeakMemory %d exceeds budget %d", res.Memory.Peak, tinyBudget)
	}
}

// TestResourceErrorOnMonsterRecord pins the irreducible case: a single
// record larger than the per-partition hard cap fails the query with a
// structured, non-retryable ResourceError instead of an OOM.
func TestResourceErrorOnMonsterRecord(t *testing.T) {
	db := newTestDB(t)
	schema := types.NewSchema(
		types.Field{Name: "id", Kind: types.KindInt64},
		types.Field{Name: "body", Kind: types.KindString},
	)
	recs := []types.Record{
		{types.NewInt64(0), types.NewString("river trail lake")},
		{types.NewInt64(1), types.NewString("river trail lake " + strings.Repeat("x", 64<<10))},
	}
	if err := db.CreateDataset("monster", schema, recs); err != nil {
		t.Fatal(err)
	}
	db.MustConfigure(WithMemoryBudget(tinyBudget)) // hard cap = 2 * 8192/4 = 4096 bytes
	_, err := db.Execute(`
		SELECT a.id, b.id FROM monster a, monster b
		WHERE text_similarity_join(a.body, b.body, 0.5)`)
	if err == nil {
		t.Fatal("monster record joined within a 4KB hard cap")
	}
	var re *core.ResourceError
	if !errors.As(err, &re) {
		t.Fatalf("error is not a ResourceError: %v", err)
	}
	if re.Phase != "combine" || re.Bytes <= re.Budget {
		t.Errorf("ResourceError fields: %+v", re)
	}
	if cluster.IsRetryable(err) {
		t.Error("ResourceError must not be retryable")
	}
}
