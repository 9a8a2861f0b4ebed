package engine

import (
	"context"
	"errors"
	"fmt"
	"os"
	"sync"
	"testing"
	"time"

	"fudj/internal/cluster"
	"fudj/internal/expr"
	"fudj/internal/sched"
	"fudj/internal/types"
)

// blockingBuiltin registers a hand-built spatial_join operator that
// parks until release is closed (or the query's context ends), giving
// admission tests a query whose lifetime they fully control.
func blockingBuiltin(db *Database, release <-chan struct{}) {
	db.RegisterBuiltinJoin("spatial_join", func(c *cluster.Cluster, left cluster.Data, _ expr.Evaluator,
		_ cluster.Data, _ expr.Evaluator, _ []types.Value) (cluster.Data, error) {
		for {
			select {
			case <-release:
				return left, nil
			case <-time.After(time.Millisecond):
				if err := c.Err(); err != nil {
					return nil, err
				}
			}
		}
	})
	db.MustConfigure(WithJoinMode(ModeBuiltin))
}

const blockableQuery = `SELECT count(*) FROM parks p, wildfires w WHERE spatial_join(p.boundary, w.location, 8)`

func waitStats(t *testing.T, db *Database, cond func(sched.Stats) bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond(db.SchedulerStats()) {
		if time.Now().After(deadline) {
			t.Fatalf("scheduler never reached expected state: %+v", db.SchedulerStats())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestAdmissionShedsOnQueueFull pins the load-shedding contract: with
// one execution slot and one queue slot occupied, the next arrival is
// refused with a retryable *sched.AdmissionError instead of waiting
// without bound.
func TestAdmissionShedsOnQueueFull(t *testing.T) {
	db := newTestDB(t, WithConcurrencyLimit(1), WithQueueDepth(1))
	release := make(chan struct{})
	blockingBuiltin(db, release)

	var wg sync.WaitGroup
	results := make([]error, 2)
	var queuedRes *Result
	wg.Add(1)
	go func() { // occupies the execution slot
		defer wg.Done()
		_, results[0] = db.Execute(blockableQuery)
	}()
	waitStats(t, db, func(st sched.Stats) bool { return st.Running == 1 })

	wg.Add(1)
	go func() { // occupies the queue slot
		defer wg.Done()
		queuedRes, results[1] = db.Execute(blockableQuery)
	}()
	waitStats(t, db, func(st sched.Stats) bool { return st.Waiting == 1 })

	// Third arrival: shed.
	_, err := db.Execute(blockableQuery)
	var adm *sched.AdmissionError
	if !errors.As(err, &adm) {
		t.Fatalf("overflow query returned %v, want *sched.AdmissionError", err)
	}
	if adm.Reason != sched.ReasonQueueFull {
		t.Errorf("Reason = %v, want queue full", adm.Reason)
	}
	if !cluster.IsRetryable(err) {
		t.Error("load-shed admission error must be retryable")
	}

	close(release)
	wg.Wait()
	for i, err := range results {
		if err != nil {
			t.Fatalf("query %d failed: %v", i, err)
		}
	}
	if queuedRes.Sched.QueueWait <= 0 {
		t.Error("queued query recorded no queue wait")
	}
	if queuedRes.Metrics[MetricSchedQueued] != 1 {
		t.Errorf("sched.queued = %d, want 1", queuedRes.Metrics[MetricSchedQueued])
	}
	st := db.SchedulerStats()
	if st.Admitted != 2 || st.Shed != 1 || st.Running != 0 {
		t.Errorf("scheduler stats = %+v, want 2 admitted, 1 shed, quiescent", st)
	}
}

// TestAdmissionQueuedQueryKeepsSubmittedSettings pins when a query
// reads its settings: once, as it is submitted. A query queued behind
// a blocked one must run with the settings it was submitted under, not
// with a Configure call made while it waited for its slot.
func TestAdmissionQueuedQueryKeepsSubmittedSettings(t *testing.T) {
	db := newTestDB(t, WithConcurrencyLimit(1))
	release := make(chan struct{})
	blockingBuiltin(db, release)
	// The reference run: smart theta off, default frame size.
	want := mustQuery(t, db, thetaSQL)

	var wg sync.WaitGroup
	var blockedErr, queuedErr error
	var queued *Result
	wg.Add(1)
	go func() { // occupies the execution slot
		defer wg.Done()
		_, blockedErr = db.Execute(blockableQuery)
	}()
	waitStats(t, db, func(st sched.Stats) bool { return st.Running == 1 })
	wg.Add(1)
	go func() {
		defer wg.Done()
		queued, queuedErr = db.Execute(thetaSQL)
	}()
	waitStats(t, db, func(st sched.Stats) bool { return st.Waiting == 1 })
	db.MustConfigure(WithSmartTheta(true), WithBatchSize(1))
	close(release)
	wg.Wait()
	if blockedErr != nil || queuedErr != nil {
		t.Fatalf("blocked query: %v; queued query: %v", blockedErr, queuedErr)
	}

	sameRows(t, "queued query", queued.Rows, want.Rows)
	if queued.Join.Batches != want.Join.Batches {
		t.Errorf("queued query encoded %d frames, want %d: it ran with the batch size configured after submission",
			queued.Join.Batches, want.Join.Batches)
	}
	if queued.Cluster.RecordsShuffled != want.Cluster.RecordsShuffled {
		t.Errorf("queued query shuffled %d records, want %d: it ran with smart theta configured after submission",
			queued.Cluster.RecordsShuffled, want.Cluster.RecordsShuffled)
	}

	// The same query submitted now does see both settings, so the
	// assertions above can tell the snapshots apart.
	after := mustQuery(t, db, thetaSQL)
	if after.Join.Batches == want.Join.Batches || after.Cluster.RecordsShuffled == want.Cluster.RecordsShuffled {
		t.Fatalf("settings are not observable: frames %d vs %d, records shuffled %d vs %d",
			after.Join.Batches, want.Join.Batches, after.Cluster.RecordsShuffled, want.Cluster.RecordsShuffled)
	}
}

// TestMemoryLeaseBecomesBudget pins the lease lifecycle: under a
// shared pool the admitted query's budget IS its lease — Result.Sched
// reports it, the metric registry gauges it, and the memory subsystem's
// peak stays under it.
func TestMemoryLeaseBecomesBudget(t *testing.T) {
	const pool = 64 << 20
	db := newTestDB(t, WithMemoryPool(pool), WithConcurrencyLimit(4))
	res := mustQuery(t, db, chaosQueries[0].sql)
	wantLease := int64(pool / 4)
	if res.Sched.LeaseBytes != wantLease {
		t.Fatalf("lease = %d, want pool share %d", res.Sched.LeaseBytes, wantLease)
	}
	if res.Memory.Peak == 0 {
		t.Error("no peak memory recorded — lease did not become the budget")
	}
	if res.Memory.Peak > res.Sched.LeaseBytes {
		t.Errorf("peak memory %d exceeds lease %d", res.Memory.Peak, res.Sched.LeaseBytes)
	}
	if got := res.Metrics[MetricSchedLease+".peak"]; got != wantLease {
		t.Errorf("metric %s.peak = %d, want %d", MetricSchedLease, got, wantLease)
	}
	if st := db.SchedulerStats(); st.LeaseBytes != 0 || st.LeasePeak != wantLease {
		t.Errorf("pool accounting after release = %+v", st)
	}
}

// TestExplicitBudgetIsTheLeaseRequest pins WithMemoryBudget as the
// request size under a pool.
func TestExplicitBudgetIsTheLeaseRequest(t *testing.T) {
	db := newTestDB(t, WithMemoryPool(64<<20), WithMemoryBudget(8<<20))
	res := mustQuery(t, db, chaosQueries[0].sql)
	if res.Sched.LeaseBytes != 8<<20 {
		t.Fatalf("lease = %d, want requested budget %d", res.Sched.LeaseBytes, 8<<20)
	}
}

// TestQueryTimeoutStructuredError pins the timeout contract: a query
// past its per-statement deadline returns a *TimeoutError that wraps
// context.DeadlineExceeded and is NOT retryable (re-running would time
// out again), and its temp state is swept.
func TestQueryTimeoutStructuredError(t *testing.T) {
	tmp := t.TempDir()
	t.Setenv("TMPDIR", tmp)
	db := newTestDB(t, WithMemoryBudget(64<<20))
	db.MustConfigure(WithFaults(&cluster.FaultConfig{
		Seed:           1,
		StragglerNodes: []int{0, 1},
		StragglerDelay: 400 * time.Millisecond,
	}))
	_, err := db.Execute(chaosQueries[0].sql, Timeout(25*time.Millisecond))
	var te *TimeoutError
	if !errors.As(err, &te) {
		t.Fatalf("err = %v, want *TimeoutError", err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Error("TimeoutError must wrap context.DeadlineExceeded")
	}
	if cluster.IsRetryable(err) {
		t.Error("timeout must NOT be retryable")
	}
	entries, err := os.ReadDir(tmp)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		t.Errorf("orphaned temp entry after timeout: %s", e.Name())
	}
}

// TestDrainGraceful pins the clean-drain path: in-flight queries
// finish, late arrivals shed with a NON-retryable draining error, and
// the TMPDIR holds no spill or checkpoint remains once Drain returns.
// The armed barrier kill gives every query a checkpoint store to sweep.
func TestDrainGraceful(t *testing.T) {
	tmp := t.TempDir()
	t.Setenv("TMPDIR", tmp)
	db := newTestDB(t, WithMemoryBudget(64<<20), WithFaults(barrierKillConfig(cluster.BarrierShuffle, 1)))
	release := make(chan struct{})
	blockingBuiltin(db, release)

	var inflightErr error
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, inflightErr = db.Execute(blockableQuery)
	}()
	waitStats(t, db, func(st sched.Stats) bool { return st.Running == 1 })

	drained := make(chan error, 1)
	go func() { drained <- db.Drain(context.Background()) }()
	waitStats(t, db, func(st sched.Stats) bool { return st.Draining })

	// Late arrival: shed, not retryable (the DB never admits again).
	_, err := db.Execute(blockableQuery)
	var adm *sched.AdmissionError
	if !errors.As(err, &adm) || adm.Reason != sched.ReasonDraining {
		t.Fatalf("late arrival got %v, want draining AdmissionError", err)
	}
	if cluster.IsRetryable(err) {
		t.Error("draining shed must NOT be retryable")
	}

	// Drain waits for the in-flight query, then returns clean.
	select {
	case err := <-drained:
		t.Fatalf("Drain returned %v while a query was still running", err)
	case <-time.After(20 * time.Millisecond):
	}
	close(release)
	if err := <-drained; err != nil {
		t.Fatalf("clean drain returned %v", err)
	}
	wg.Wait()
	if inflightErr != nil {
		t.Fatalf("in-flight query failed during drain: %v", inflightErr)
	}
	entries, err := os.ReadDir(tmp)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		t.Errorf("orphaned temp entry after drain: %s", e.Name())
	}
}

// TestDrainCancelsPastDeadline pins the forced-drain path: a query
// that will not finish is cancelled at the drain deadline, its lease
// and temp state reclaimed, and Drain reports the deadline error.
func TestDrainCancelsPastDeadline(t *testing.T) {
	tmp := t.TempDir()
	t.Setenv("TMPDIR", tmp)
	db := newTestDB(t, WithMemoryBudget(64<<20))
	release := make(chan struct{}) // never closed: only cancellation ends the query
	blockingBuiltin(db, release)

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if _, err := db.Execute(blockableQuery); err == nil {
			t.Error("cancelled query reported success")
		}
	}()
	waitStats(t, db, func(st sched.Stats) bool { return st.Running == 1 })

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := db.Drain(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("forced drain returned %v, want deadline exceeded", err)
	}
	wg.Wait()
	if st := db.SchedulerStats(); st.Running != 0 || st.LeaseBytes != 0 {
		t.Fatalf("drain returned with work outstanding: %+v", st)
	}
	entries, err := os.ReadDir(tmp)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		t.Errorf("orphaned temp entry after forced drain: %s", e.Name())
	}
}

// TestConcurrentExecuteWithMutatorsIsRaceFree is the concurrent-safety
// audit: 8-way concurrent example joins on one Database while another
// goroutine flips every mutable setting mid-flight. Every query must
// return the serial answer (each runs on a point-in-time settings
// snapshot), and under -race this doubles as the data-race sweep over
// catalog, metrics, and fault-injector shared state.
func TestConcurrentExecuteWithMutatorsIsRaceFree(t *testing.T) {
	db := newTestDB(t)
	baseline := make(map[string][]types.Record)
	for _, q := range chaosQueries {
		baseline[q.name] = mustQuery(t, db, q.sql).Rows
	}

	stop := make(chan struct{})
	var mutators sync.WaitGroup
	mutators.Add(1)
	go func() {
		defer mutators.Done()
		// Flip settings that never change query answers: memory budget,
		// smart theta (these queries are equality-bucketed), and a
		// zero-probability fault config.
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			db.MustConfigure(WithMemoryBudget(int64(i%2) * (64 << 20)))
			db.MustConfigure(WithSmartTheta(i%2 == 0))
			if i%2 == 0 {
				db.MustConfigure(WithFaults(&cluster.FaultConfig{Seed: int64(i)}))
			} else {
				db.MustConfigure(WithFaults(nil))
			}
			db.MustConfigure(WithRetryPolicy(chaosRetry()))
			time.Sleep(200 * time.Microsecond)
		}
	}()

	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 3; i++ {
				q := chaosQueries[(w+i)%len(chaosQueries)]
				res, err := db.Execute(q.sql)
				if err != nil {
					t.Errorf("worker %d %s: %v", w, q.name, err)
					return
				}
				sameRows(t, fmt.Sprintf("worker %d %s", w, q.name), res.Rows, baseline[q.name])
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	mutators.Wait()
}
