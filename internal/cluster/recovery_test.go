package cluster

import (
	"testing"

	"fudj/internal/storage"
	"fudj/internal/types"
)

func testStore(t *testing.T) *storage.CheckpointStore {
	t.Helper()
	t.Setenv("TMPDIR", t.TempDir())
	s, err := storage.NewCheckpointStore()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Sweep() })
	return s
}

func recoveryRecords(n int) []types.Record {
	recs := make([]types.Record, n)
	for i := range recs {
		recs[i] = types.Record{types.NewInt64(int64(i)), types.NewString("payload")}
	}
	return recs
}

func TestKillAtBarrierTargetedFiresOnce(t *testing.T) {
	c := New(Config{Nodes: 3, CoresPerNode: 2})
	c.SetFaults(NewFaultInjector(FaultConfig{
		BarrierKills: []BarrierKill{{Barrier: BarrierShuffle, Node: 1}},
	}))
	rm := c.NewRecoveryManager(testStore(t))

	if lost := rm.CrossBarrier(BarrierPlan); lost != nil {
		t.Errorf("plan barrier lost %v, want none (kill targets shuffle)", lost)
	}
	lost := rm.CrossBarrier(BarrierShuffle)
	want := []int{2, 3} // node 1 × 2 cores
	if len(lost) != len(want) || lost[0] != want[0] || lost[1] != want[1] {
		t.Errorf("shuffle barrier lost %v, want %v", lost, want)
	}
	if again := rm.CrossBarrier(BarrierShuffle); again != nil {
		t.Errorf("second crossing lost %v, want none (fire-once)", again)
	}
	if got := c.Metrics().BarrierKillCount(); got != 1 {
		t.Errorf("BarrierKillCount = %d, want 1", got)
	}
}

func TestKillAtBarrierProbabilisticDeterminism(t *testing.T) {
	run := func() [][]int {
		c := New(Config{Nodes: 4, CoresPerNode: 2})
		c.SetFaults(NewFaultInjector(FaultConfig{Seed: 7, BarrierKillProb: 0.5}))
		rm := c.NewRecoveryManager(testStore(t))
		var out [][]int
		for i := 0; i < 6; i++ {
			out = append(out, rm.CrossBarrier(BarrierShuffle))
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if len(a[i]) != len(b[i]) {
			t.Fatalf("crossing %d: %v vs %v — kills not deterministic", i, a[i], b[i])
		}
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				t.Fatalf("crossing %d: %v vs %v — kills not deterministic", i, a[i], b[i])
			}
		}
	}
}

func TestRecoverRecordsFromCheckpoint(t *testing.T) {
	c := New(Config{Nodes: 2, CoresPerNode: 2})
	rm := c.NewRecoveryManager(testStore(t))
	recs := recoveryRecords(50)
	if err := rm.CheckpointRecords("s0-left-p1", recs); err != nil {
		t.Fatal(err)
	}
	got, err := rm.RecoverRecords("s0-left-p1", 1, func() ([]types.Record, error) {
		t.Fatal("recompute called despite a healthy checkpoint")
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(recs) {
		t.Fatalf("recovered %d records, want %d", len(got), len(recs))
	}
	m := c.Metrics().Snapshot()
	if m.CheckpointRecovered != 1 {
		t.Errorf("CheckpointRecovered = %d, want 1", m.CheckpointRecovered)
	}
	if m.CheckpointBytes <= 0 {
		t.Errorf("CheckpointBytes = %d, want > 0", m.CheckpointBytes)
	}
	if m.PeakMemory <= 0 {
		t.Errorf("PeakMemory = %d, want > 0 (reload must register)", m.PeakMemory)
	}
}

func TestRecoverRecordsHealsTornWrite(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  FaultConfig
	}{
		{"torn", FaultConfig{Seed: 3, TornWriteProb: 1}},
		{"bitflip", FaultConfig{Seed: 3, CheckpointCorruptProb: 1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := New(Config{Nodes: 2, CoresPerNode: 2})
			c.SetFaults(NewFaultInjector(tc.cfg))
			rm := c.NewRecoveryManager(testStore(t))
			recs := recoveryRecords(50)
			if err := rm.CheckpointRecords("s0-left-p0", recs); err != nil {
				t.Fatal(err)
			}
			recomputed := false
			got, err := rm.RecoverRecords("s0-left-p0", 0, func() ([]types.Record, error) {
				recomputed = true
				return recs, nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if !recomputed {
				t.Error("damaged checkpoint was not healed by recompute")
			}
			if len(got) != len(recs) {
				t.Errorf("recovered %d records, want %d", len(got), len(recs))
			}
			m := c.Metrics().Snapshot()
			if m.CheckpointDiscarded != 1 {
				t.Errorf("CheckpointDiscarded = %d, want 1", m.CheckpointDiscarded)
			}
			if m.CheckpointRecovered != 0 {
				t.Errorf("CheckpointRecovered = %d, want 0", m.CheckpointRecovered)
			}
		})
	}
}

func TestRecoverMissingCheckpointRecomputes(t *testing.T) {
	c := New(Config{Nodes: 2, CoresPerNode: 2})
	rm := c.NewRecoveryManager(testStore(t))
	recs := recoveryRecords(5)
	got, err := rm.RecoverRecords("never-saved", 0, func() ([]types.Record, error) {
		return recs, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(recs) {
		t.Errorf("recovered %d records, want %d from recompute", len(got), len(recs))
	}
	if d := c.Metrics().CheckpointsDiscarded(); d != 0 {
		t.Errorf("CheckpointsDiscarded = %d, want 0 (missing is not corrupt)", d)
	}
}

func TestMarkDoneTracking(t *testing.T) {
	c := New(Config{Nodes: 2, CoresPerNode: 2})
	rm := c.NewRecoveryManager(testStore(t))
	rm.MarkDone("summarize", 0)
	rm.MarkDone("summarize", 0) // idempotent
	rm.MarkDone("summarize", 2)
	if got := rm.DoneCount("summarize"); got != 2 {
		t.Errorf("DoneCount = %d, want 2", got)
	}
	if !rm.PhaseDone("summarize", 2) || rm.PhaseDone("summarize", 1) {
		t.Error("PhaseDone tracking wrong")
	}
	if rm.DoneCount("combine") != 0 {
		t.Error("unmarked phase should count 0")
	}
}
