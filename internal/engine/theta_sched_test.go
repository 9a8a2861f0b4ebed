package engine

import (
	"sync"
	"testing"

	"fudj/internal/cluster"
)

// thetaSQL exercises the balanced theta operator (smart theta): a
// multi-join interval FUDJ whose MATCH accepts non-identical bucket
// pairs, so with WithSmartTheta(true) it takes the coordinator-scheduled
// bucket-pair path. Its multicast routing is a pure function of each
// record's position, so a lost partition's input is replayable and the
// operator crosses the durable shuffle barrier like every layout.
const thetaSQL = `SELECT a.id, b.id FROM rides a, rides b WHERE a.vendor = 1 AND b.vendor = 2
	AND overlapping_interval(a.ride_interval, b.ride_interval, 50)`

// TestSmartThetaConcurrentWithCheckpointedQueries span-verifies
// barrier recovery under concurrency: with a kill-at-shuffle-barrier
// fault armed, hash-partitioned queries (spatial: DefaultMatch) and
// the smart-theta queries scheduled alongside them all cross the
// durable shuffle barrier — the kill fires, the barrier span appears,
// partitions recover in place without re-running SUMMARIZE.
// Everyone's multiset answer matches its serial baseline.
func TestSmartThetaConcurrentWithCheckpointedQueries(t *testing.T) {
	db := newTestDB(t, WithConcurrencyLimit(4))
	db.MustConfigure(WithSmartTheta(true))
	hashSQL := chaosQueries[0].sql // spatial: DefaultMatch, hash-partitioned COMBINE

	thetaBase, err := db.Execute(thetaSQL, Trace())
	if err != nil {
		t.Fatal(err)
	}
	hashBase := mustQuery(t, db, hashSQL)
	if len(thetaBase.Rows) == 0 || len(hashBase.Rows) == 0 {
		t.Fatal("baselines produced no rows")
	}
	db.MustConfigure(WithFaults(barrierKillConfig(cluster.BarrierShuffle, 1)))

	type outcome struct {
		name string
		res  *Result
		err  error
	}
	const rounds = 3
	results := make(chan outcome, 2*rounds)
	var wg sync.WaitGroup
	for i := 0; i < rounds; i++ {
		for _, q := range []struct{ name, sql string }{{"theta", thetaSQL}, {"hash", hashSQL}} {
			wg.Add(1)
			go func(name, sql string) {
				defer wg.Done()
				res, err := db.Execute(sql, Trace())
				results <- outcome{name, res, err}
			}(q.name, q.sql)
		}
	}
	wg.Wait()
	close(results)

	for o := range results {
		if o.err != nil {
			t.Fatalf("%s query failed: %v", o.name, o.err)
		}
		shuffleBarriers := countSpans(o.res.Trace, "barrier shuffle")
		switch o.name {
		case "theta":
			sameRows(t, "concurrent theta", o.res.Rows, thetaBase.Rows)
			if shuffleBarriers == 0 {
				t.Error("smart-theta query crossed no shuffle barrier")
			}
			if o.res.Faults.BarrierKills == 0 {
				t.Error("smart-theta query: armed shuffle-barrier kill never fired")
			}
			if o.res.Faults.PartitionsRecovered == 0 {
				t.Error("smart-theta query: no partitions recovered from checkpoint")
			}
			if got, want := countSpans(o.res.Trace, "SUMMARIZE"), countSpans(thetaBase.Trace, "SUMMARIZE"); got != want {
				t.Errorf("smart-theta SUMMARIZE phase spans = %d, want %d — step must not abort-and-rerun", got, want)
			}
		case "hash":
			sameRows(t, "concurrent hash", o.res.Rows, hashBase.Rows)
			if shuffleBarriers == 0 {
				t.Error("checkpointed hash query crossed no shuffle barrier")
			}
			if o.res.Faults.BarrierKills == 0 {
				t.Error("hash query: armed shuffle-barrier kill never fired")
			}
			if o.res.Faults.PartitionsRecovered == 0 {
				t.Error("hash query: no partitions recovered from checkpoint")
			}
		}
	}
}
