package engine

import (
	"context"
	"errors"
	"os"
	"testing"
	"time"

	"fudj/internal/cluster"
	"fudj/internal/sched"
)

// waitRunning polls until the scheduler reports at least one running
// query, failing the test if none shows up within the budget.
func waitRunning(t *testing.T, db *Database) {
	t.Helper()
	for i := 0; i < 2000; i++ {
		if db.SchedulerStats().Running >= 1 {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("query never started running")
}

// TestDrainRacesCheckpointRecovery races DB.Drain against a query that
// is mid-recovery: a kill-at-barrier fault fires, checkpointed recovery
// begins (slowed by a straggler so the race window is real), and then
// drain starts while the query is still in flight. The in-flight query
// must either finish with the fault-free answer — having actually
// recovered partitions from checkpoint — or abort retryably; either
// way the drain completes, no memory lease leaks, LeasePeak stays
// within the pool, late arrivals are shed with the non-retryable
// in-process drain error, and TMPDIR is swept clean.
func TestDrainRacesCheckpointRecovery(t *testing.T) {
	tmp := t.TempDir()
	t.Setenv("TMPDIR", tmp)
	db := newTestDB(t)
	base := mustQuery(t, db, chaosQueries[0].sql)

	cfg := barrierKillConfig(cluster.BarrierShuffle, 1)
	cfg.StragglerNodes = []int{0}
	cfg.StragglerDelay = 30 * time.Millisecond
	db.MustConfigure(WithFaults(cfg))
	db.MustConfigure(WithRetryPolicy(chaosRetry()))

	type outcome struct {
		res *Result
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		res, err := db.Execute(chaosQueries[0].sql)
		done <- outcome{res, err}
	}()

	// Start the drain once the query is admitted; the straggler delay
	// keeps it in flight (and its recovery in progress) past this point.
	waitRunning(t, db)
	drainErr := make(chan error, 1)
	go func() { drainErr <- db.Drain(context.Background()) }()

	o := <-done
	if o.err != nil {
		// Acceptable only if the abort is retryable — a client could
		// resubmit elsewhere. A non-retryable abort would turn a drain
		// into data-dependent query failure.
		if !cluster.IsRetryable(o.err) {
			t.Fatalf("in-flight query aborted non-retryably during drain: %v", o.err)
		}
		t.Logf("query aborted retryably during drain: %v", o.err)
	} else {
		sameRows(t, "drain-raced recovery", o.res.Rows, base.Rows)
		if o.res.Faults.BarrierKills == 0 {
			t.Error("no barrier kill fired — the race never exercised recovery")
		}
		if o.res.Faults.PartitionsRecovered == 0 {
			t.Error("no partitions recovered from checkpoint during the drain race")
		}
	}
	if err := <-drainErr; err != nil {
		t.Fatalf("drain did not complete cleanly: %v", err)
	}

	st := db.SchedulerStats()
	if !st.Draining {
		t.Error("scheduler not marked draining after Drain returned")
	}
	if st.Running != 0 {
		t.Errorf("Running = %d after drain, want 0", st.Running)
	}
	if st.LeaseBytes != 0 {
		t.Errorf("leaked memory lease: LeaseBytes = %d after drain", st.LeaseBytes)
	}
	if st.LeasePeak > st.Pool {
		t.Errorf("LeasePeak %d exceeds pool %d", st.LeasePeak, st.Pool)
	}

	// Late arrivals shed with the in-process drain error — which,
	// unlike its wire counterpart, is non-retryable: this scheduler
	// will never admit again.
	_, err := db.Execute(chaosQueries[0].sql)
	var adm *sched.AdmissionError
	if !errors.As(err, &adm) || adm.Reason != sched.ReasonDraining {
		t.Fatalf("late arrival got %v, want draining AdmissionError", err)
	}
	if cluster.IsRetryable(err) {
		t.Error("in-process drain shed must be non-retryable")
	}

	entries, err := os.ReadDir(tmp)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		t.Errorf("orphaned temp entry after drain: %s", e.Name())
	}
}

// TestDrainCancelsStuckRecovery pins the deadline path: when the
// drain's context expires before the in-flight recovery finishes, the
// query is cancelled rather than waited on forever, Drain reports the
// context error, and teardown still sweeps TMPDIR and releases leases.
func TestDrainCancelsStuckRecovery(t *testing.T) {
	tmp := t.TempDir()
	t.Setenv("TMPDIR", tmp)
	db := newTestDB(t)
	cfg := barrierKillConfig(cluster.BarrierShuffle, 1)
	cfg.StragglerNodes = []int{0, 1}
	cfg.StragglerDelay = 2 * time.Second
	db.MustConfigure(WithFaults(cfg))
	// No speculation: with every node straggling, a speculative copy is
	// the only thing that could rescue the query, and this test needs
	// it genuinely stuck so the drain deadline is the decider.
	db.MustConfigure(WithRetryPolicy(cluster.RetryPolicy{
		MaxAttempts: 8,
		BaseBackoff: 50 * time.Microsecond,
		MaxBackoff:  time.Millisecond,
	}))

	done := make(chan error, 1)
	go func() {
		_, err := db.Execute(chaosQueries[0].sql)
		done <- err
	}()
	waitRunning(t, db)

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := db.Drain(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Drain = %v, want DeadlineExceeded after cancelling stragglers", err)
	}
	if err := <-done; err == nil {
		t.Fatal("straggling query survived a forced drain")
	}

	st := db.SchedulerStats()
	if st.Running != 0 || st.LeaseBytes != 0 {
		t.Errorf("after forced drain: Running = %d, LeaseBytes = %d, want 0/0", st.Running, st.LeaseBytes)
	}
	if st.LeasePeak > st.Pool {
		t.Errorf("LeasePeak %d exceeds pool %d", st.LeasePeak, st.Pool)
	}
	entries, err := os.ReadDir(tmp)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		t.Errorf("orphaned temp entry after forced drain: %s", e.Name())
	}
}
