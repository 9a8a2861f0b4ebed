package cluster

import (
	"errors"
	"sort"
	"testing"
	"testing/quick"

	"fudj/internal/types"
)

func intRecords(n int) []types.Record {
	recs := make([]types.Record, n)
	for i := range recs {
		recs[i] = types.Record{types.NewInt64(int64(i))}
	}
	return recs
}

func recordInts(recs []types.Record) []int64 {
	out := make([]int64, len(recs))
	for i, r := range recs {
		out[i] = r[0].Int64()
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func TestConfigValidate(t *testing.T) {
	if err := (Config{Nodes: 2, CoresPerNode: 3}).Validate(); err != nil {
		t.Error(err)
	}
	if err := (Config{Nodes: 0, CoresPerNode: 1}).Validate(); err == nil {
		t.Error("0 nodes should be invalid")
	}
	if (Config{Nodes: 3, CoresPerNode: 4}).Partitions() != 12 {
		t.Error("Partitions")
	}
}

func TestNewPanicsOnBadConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("want panic")
		}
	}()
	New(Config{})
}

func TestScatterAndFlatten(t *testing.T) {
	c := New(Config{Nodes: 2, CoresPerNode: 2})
	recs := intRecords(10)
	data := c.Scatter(recs)
	if len(data) != 4 {
		t.Fatalf("partitions = %d", len(data))
	}
	if data.Rows() != 10 {
		t.Errorf("Rows = %d", data.Rows())
	}
	got := recordInts(data.Flatten())
	for i, v := range got {
		if v != int64(i) {
			t.Fatalf("Flatten lost records: %v", got)
		}
	}
	// Round-robin balance: no partition differs by more than 1.
	for _, p := range data {
		if len(p) < 2 || len(p) > 3 {
			t.Errorf("unbalanced partition of size %d", len(p))
		}
	}
}

func TestNodeOf(t *testing.T) {
	c := New(Config{Nodes: 3, CoresPerNode: 2})
	wants := []int{0, 0, 1, 1, 2, 2}
	for part, want := range wants {
		if got := c.NodeOf(part); got != want {
			t.Errorf("NodeOf(%d) = %d, want %d", part, got, want)
		}
	}
}

func TestRunTransforms(t *testing.T) {
	c := New(Config{Nodes: 2, CoresPerNode: 2})
	data := c.Scatter(intRecords(8))
	out, err := c.Run(data, func(part int, in []types.Record) ([]types.Record, error) {
		var res []types.Record
		for _, r := range in {
			res = append(res, types.Record{types.NewInt64(r[0].Int64() * 10)})
		}
		return res, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	got := recordInts(out.Flatten())
	for i, v := range got {
		if v != int64(i*10) {
			t.Fatalf("Run output %v", got)
		}
	}
	if c.Metrics().Tasks() != 4 {
		t.Errorf("Tasks = %d, want 4", c.Metrics().Tasks())
	}
}

func TestRunPropagatesError(t *testing.T) {
	c := New(Config{Nodes: 2, CoresPerNode: 1})
	boom := errors.New("boom")
	_, err := c.Run(c.Scatter(intRecords(4)), func(part int, in []types.Record) ([]types.Record, error) {
		if part == 1 {
			return nil, boom
		}
		return in, nil
	})
	if !errors.Is(err, boom) {
		t.Errorf("err = %v, want boom", err)
	}
}

func TestRunRejectsWrongPartitionCount(t *testing.T) {
	c := New(Config{Nodes: 2, CoresPerNode: 1})
	if _, err := c.Run(make(Data, 5), nil); err == nil {
		t.Error("want partition count mismatch error")
	}
	if _, err := c.Exchange(make(Data, 5), nil); err == nil {
		t.Error("Exchange: want partition count mismatch error")
	}
	if _, err := c.Replicate(make(Data, 5)); err == nil {
		t.Error("Replicate: want partition count mismatch error")
	}
}

func TestRunValues(t *testing.T) {
	c := New(Config{Nodes: 2, CoresPerNode: 2})
	data := c.Scatter(intRecords(10))
	sums, err := RunValues(c, data, func(part int, in []types.Record) (int64, error) {
		var s int64
		for _, r := range in {
			s += r[0].Int64()
		}
		return s, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, s := range sums {
		total += s
	}
	if total != 45 {
		t.Errorf("sum = %d, want 45", total)
	}
}

func TestExchangeHashGroupsKeys(t *testing.T) {
	c := New(Config{Nodes: 2, CoresPerNode: 2})
	data := c.Scatter(intRecords(100))
	out, err := c.ExchangeHash(data, func(r types.Record) uint64 { return r[0].Hash() })
	if err != nil {
		t.Fatal(err)
	}
	if out.Rows() != 100 {
		t.Fatalf("lost records: %d", out.Rows())
	}
	// Determinism: same key always lands in the same partition.
	whereIs := map[int64]int{}
	for part, recs := range out {
		for _, r := range recs {
			whereIs[r[0].Int64()] = part
		}
	}
	out2, err := c.ExchangeHash(c.Scatter(intRecords(100)), func(r types.Record) uint64 { return r[0].Hash() })
	if err != nil {
		t.Fatal(err)
	}
	for part, recs := range out2 {
		for _, r := range recs {
			if whereIs[r[0].Int64()] != part {
				t.Fatalf("key %d moved between runs", r[0].Int64())
			}
		}
	}
	if c.Metrics().BytesShuffled() == 0 {
		t.Error("cross-node exchange should count bytes")
	}
	if c.Metrics().RecordsShuffled() == 0 {
		t.Error("cross-node exchange should count records")
	}
}

func TestExchangeRouteOutOfRange(t *testing.T) {
	c := New(Config{Nodes: 2, CoresPerNode: 1})
	_, err := c.Exchange(c.Scatter(intRecords(3)), func(int, types.Record) int { return 99 })
	if err == nil {
		t.Error("out-of-range route should error")
	}
}

func TestExchangeMulti(t *testing.T) {
	c := New(Config{Nodes: 2, CoresPerNode: 2})
	data := c.Scatter(intRecords(12))
	// Even keys go to partitions 0 and 3; odd keys are dropped.
	out, err := c.ExchangeMulti(data, func(_, _ int, r types.Record, dst []int) []int {
		if r[0].Int64()%2 == 0 {
			return append(dst, 0, 3)
		}
		return dst
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(out[0]) != 6 || len(out[3]) != 6 {
		t.Errorf("multicast sizes = %d, %d, want 6, 6", len(out[0]), len(out[3]))
	}
	if len(out[1]) != 0 || len(out[2]) != 0 {
		t.Error("untargeted partitions received records")
	}
	// Out-of-range destinations error.
	if _, err := c.ExchangeMulti(data, func(_, _ int, _ types.Record, dst []int) []int { return append(dst, 99) }); err == nil {
		t.Error("out-of-range destination should error")
	}
	if _, err := c.ExchangeMulti(make(Data, 3), nil); err == nil {
		t.Error("wrong partition count should error")
	}
}

func TestReplicate(t *testing.T) {
	c := New(Config{Nodes: 2, CoresPerNode: 2})
	data := c.Scatter(intRecords(5))
	out, err := c.Replicate(data)
	if err != nil {
		t.Fatal(err)
	}
	for part, recs := range out {
		if len(recs) != 5 {
			t.Errorf("partition %d has %d records, want all 5", part, len(recs))
		}
	}
}

func TestExchangeRandomBalances(t *testing.T) {
	c := New(Config{Nodes: 2, CoresPerNode: 2})
	out, err := c.ExchangeRandom(c.Scatter(intRecords(40)))
	if err != nil {
		t.Fatal(err)
	}
	if out.Rows() != 40 {
		t.Fatalf("lost records: %d", out.Rows())
	}
	for part, recs := range out {
		if len(recs) != 10 {
			t.Errorf("partition %d has %d records, want 10", part, len(recs))
		}
	}
}

func TestIntraNodeMovesAreFree(t *testing.T) {
	// Single node: every exchange is intra-node, so no bytes counted.
	c := New(Config{Nodes: 1, CoresPerNode: 4})
	_, err := c.ExchangeHash(c.Scatter(intRecords(50)), func(r types.Record) uint64 { return r[0].Hash() })
	if err != nil {
		t.Fatal(err)
	}
	if c.Metrics().BytesShuffled() != 0 {
		t.Errorf("intra-node shuffle counted %d bytes", c.Metrics().BytesShuffled())
	}
}

func TestBroadcastAccounting(t *testing.T) {
	c := New(Config{Nodes: 3, CoresPerNode: 1})
	c.Broadcast(make([]byte, 100))
	if got := c.Metrics().BytesBroadcast(); got != 300 {
		t.Errorf("BytesBroadcast = %d, want 300", got)
	}
	c.GatherBytes([][]byte{make([]byte, 10), make([]byte, 20)})
	if got := c.Metrics().BytesBroadcast(); got != 330 {
		t.Errorf("after gather = %d, want 330", got)
	}
}

func TestBusyTimeTracking(t *testing.T) {
	c := New(Config{Nodes: 2, CoresPerNode: 1})
	_, err := c.Run(c.Scatter(intRecords(4)), func(part int, in []types.Record) ([]types.Record, error) {
		// Do a little work so busy time is nonzero.
		s := int64(0)
		for i := 0; i < 100000; i++ {
			s += int64(i)
		}
		_ = s
		return in, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if c.Metrics().MaxBusy() <= 0 {
		t.Error("MaxBusy should be positive")
	}
	if c.Metrics().TotalBusy() < c.Metrics().MaxBusy() {
		t.Error("TotalBusy < MaxBusy")
	}
}

// Property: any exchange preserves the multiset of records.
func TestQuickExchangePreservesRecords(t *testing.T) {
	c := New(Config{Nodes: 3, CoresPerNode: 2})
	f := func(keys []int64) bool {
		recs := make([]types.Record, len(keys))
		for i, k := range keys {
			recs[i] = types.Record{types.NewInt64(k)}
		}
		out, err := c.ExchangeHash(c.Scatter(recs), func(r types.Record) uint64 { return r[0].Hash() })
		if err != nil {
			return false
		}
		got := recordInts(out.Flatten())
		want := append([]int64(nil), keys...)
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
