package bench

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"fudj/internal/cluster"
	"fudj/internal/types"
)

// The batch experiment measures the hash-path COMBINE microbench: the
// cost of moving one partition's shuffled rows across a node boundary
// and materializing them on the receive side, with default columnar
// batching against record-at-a-time framing (WithBatchSize(1), the
// pre-batching baseline). Two edges are timed:
//
//   - deliver: the full shuffle hop cluster.deliver pays per cross-node
//     transfer — frame encode, corruption bookkeeping, metrics, decode,
//     and record materialization.
//   - ingest: the receive edge alone — decoding pre-encoded frames into
//     records, the COMBINE side's share of the hop.
//
// Arms are interleaved round-robin (after a discarded warmup round and
// an explicit GC) so the Go heap-growth bias — later arms in a process
// inherit a larger GC target — cannot favor either arm.

func init() {
	register(Experiment{
		ID:    "batch",
		Title: "Batched columnar shuffle vs record-at-a-time framing (hash-path COMBINE edge)",
		Paper: "not a paper figure; validates the batched execution hot path (DESIGN.md §14)",
		Run:   runBatch,
	})
}

// batchBenchRows is the unscaled record count each arm moves per
// measured operation.
const batchBenchRows = 60000

// hashPathRecords builds the row shape ExchangeHash moves on the hash
// path for an equi-join COUNT(*): three int64 columns — bucket id,
// join key, and the row id.
func hashPathRecords(n int) []types.Record {
	recs := make([]types.Record, n)
	for i := range recs {
		recs[i] = types.Record{
			types.NewInt64(int64(i) % 512),
			types.NewInt64(int64(i) % 997),
			types.NewInt64(int64(i)),
		}
	}
	return recs
}

// batchArm measures one framing mode of one edge: op runs the edge
// once over the full record set.
type batchArm struct {
	edge string // "deliver" or "ingest"
	mode string // "batched" or "record"
	op   func() error
	runs []time.Duration // per-round ns for one op
}

func (a *batchArm) key() string { return a.edge + "_" + a.mode }

// medianNs returns the median per-op nanoseconds across rounds.
func (a *batchArm) medianNs() int64 {
	ns := make([]int64, len(a.runs))
	for i, d := range a.runs {
		ns[i] = d.Nanoseconds()
	}
	sort.Slice(ns, func(i, j int) bool { return ns[i] < ns[j] })
	return ns[len(ns)/2]
}

// deliverArm builds a 2-node cluster where every record crosses the
// node boundary, framed at the given batch size (0 = default 1024).
func deliverArm(recs []types.Record, mode string, bs int) *batchArm {
	c := cluster.New(cluster.Config{Nodes: 2, CoresPerNode: 1})
	c.SetBatchSize(bs)
	outbox := make([][][]types.Record, c.Partitions())
	for src := range outbox {
		outbox[src] = make([][]types.Record, c.Partitions())
	}
	outbox[0][1] = recs
	return &batchArm{edge: "deliver", mode: mode, op: func() error {
		out, err := c.Deliver(outbox)
		if err != nil {
			return err
		}
		if len(out[1]) != len(recs) {
			return fmt.Errorf("deliver %s: %d rows out, want %d", mode, len(out[1]), len(recs))
		}
		return nil
	}}
}

// ingestArm pre-encodes the record set into frames of the given size
// and times decoding them back into records.
func ingestArm(recs []types.Record, mode string, bs int) *batchArm {
	dec := types.NewBatch(0)
	var frames [][]byte
	for lo := 0; lo < len(recs); lo += bs {
		hi := lo + bs
		if hi > len(recs) {
			hi = len(recs)
		}
		frames = append(frames, types.EncodeBatch(recs[lo:hi]))
	}
	return &batchArm{edge: "ingest", mode: mode, op: func() error {
		total := 0
		for _, f := range frames {
			out, err := types.DecodeBatch(f, dec)
			if err != nil {
				return err
			}
			total += len(out)
		}
		if total != len(recs) {
			return fmt.Errorf("ingest %s: %d rows out, want %d", mode, total, len(recs))
		}
		return nil
	}}
}

// batchRounds is how many interleaved measurement rounds each arm gets
// (after one discarded warmup).
const batchRounds = 5

func runBatch(cfg Config, w io.Writer) error {
	n := cfg.scaled(batchBenchRows)
	recs := hashPathRecords(n)
	arms := []*batchArm{
		deliverArm(recs, "batched", 0),
		deliverArm(recs, "record", 1),
		ingestArm(recs, "batched", cluster.DefaultBatchSize),
		ingestArm(recs, "record", 1),
	}

	// Warmup round (discarded): faults out configuration errors and
	// lets every arm touch its working set once.
	for _, a := range arms {
		if err := a.op(); err != nil {
			return err
		}
	}
	for round := 0; round < batchRounds; round++ {
		for _, a := range arms {
			// Collect before every measured op so each arm starts from
			// the same heap state: without this, allocation-heavy arms
			// grow the GC target and make whichever arm runs next look
			// artificially cheap.
			runtime.GC()
			start := time.Now()
			if err := a.op(); err != nil {
				return err
			}
			a.runs = append(a.runs, time.Since(start))
		}
	}

	med := map[string]int64{}
	for _, a := range arms {
		med[a.key()] = a.medianNs()
	}
	speedup := func(edge string) float64 {
		return float64(med[edge+"_record"]) / float64(med[edge+"_batched"])
	}

	fmt.Fprintf(w, "hash-path COMBINE microbench: %d rows of [bucket_id, join_key, row_id], frames of %d vs 1\n",
		n, cluster.DefaultBatchSize)
	var rows [][]string
	for _, edge := range []string{"deliver", "ingest"} {
		rows = append(rows, []string{
			edge,
			fmtDur(time.Duration(med[edge+"_batched"])),
			fmtDur(time.Duration(med[edge+"_record"])),
			fmt.Sprintf("%.2fx", speedup(edge)),
		})
	}
	printTable(w, []string{"edge", "batched", "record-at-a-time", "speedup"}, rows)

	if cfg.JSONOut != "" {
		if err := writeBatchJSON(cfg, n, arms, med, speedup); err != nil {
			return err
		}
		fmt.Fprintf(w, "  wrote %s\n", cfg.JSONOut)
	}
	// Regression canary, deliberately looser than the 2x target the
	// committed artifact records: trip only on a real collapse of the
	// batched path, not on a noisy CI neighbor.
	if s := speedup("deliver"); s < 1.2 {
		return fmt.Errorf("batch: deliver speedup %.2fx below the 1.2x regression floor", s)
	}
	return nil
}

// writeBatchJSON records the measurement in the style of the other
// results/BENCH_*.json artifacts, with stable field order.
func writeBatchJSON(cfg Config, n int, arms []*batchArm, med map[string]int64, speedup func(string) float64) error {
	runsOf := func(key string) string {
		for _, a := range arms {
			if a.key() == key {
				parts := make([]string, len(a.runs))
				for i, d := range a.runs {
					parts[i] = fmt.Sprintf("%d", d.Nanoseconds())
				}
				return "[" + strings.Join(parts, ", ") + "]"
			}
		}
		return "[]"
	}
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "{\n")
	fmt.Fprintf(&buf, "  %q: %q,\n", "benchmark", "bench experiment 'batch': hash-path COMBINE microbench")
	fmt.Fprintf(&buf, "  %q: %q,\n", "shape", fmt.Sprintf(
		"%d records of [bucket_id, join_key, row_id] int64 — the rows ExchangeHash moves for an equi-join COUNT(*) — crossing one node boundary, framed at %d rows (default) vs 1 row (record-at-a-time baseline, WithBatchSize(1))",
		n, cluster.DefaultBatchSize))
	fmt.Fprintf(&buf, "  %q: {%q: 2, %q: 1},\n", "cluster", "nodes", "cores_per_node")
	fmt.Fprintf(&buf, "  %q: %q,\n", "command", "make bench-batch")
	fmt.Fprintf(&buf, "  %q: %q,\n", "cpu", cpuModel())
	fmt.Fprintf(&buf, "  %q: {\n", "runs_ns_per_op")
	keys := []string{"deliver_batched", "deliver_record", "ingest_batched", "ingest_record"}
	for i, k := range keys {
		comma := ","
		if i == len(keys)-1 {
			comma = ""
		}
		fmt.Fprintf(&buf, "    %q: %s%s\n", k, runsOf(k), comma)
	}
	fmt.Fprintf(&buf, "  },\n")
	fmt.Fprintf(&buf, "  %q: {", "median_ns_per_op")
	for i, k := range keys {
		if i > 0 {
			fmt.Fprintf(&buf, ", ")
		}
		fmt.Fprintf(&buf, "%q: %d", k, med[k])
	}
	fmt.Fprintf(&buf, "},\n")
	fmt.Fprintf(&buf, "  %q: {%q: %.2f, %q: %.2f},\n", "speedup", "deliver", speedup("deliver"), "ingest", speedup("ingest"))
	fmt.Fprintf(&buf, "  %q: %q\n", "guard",
		"the batched deliver edge must stay >=2x the record-at-a-time baseline at the committed shape; arms interleave after a discarded warmup and an explicit GC so heap-growth ordering cannot favor either arm; the experiment itself fails below a looser 1.2x floor as a regression canary")
	fmt.Fprintf(&buf, "}\n")
	// Guarantee the hand-ordered output is well-formed JSON.
	var check any
	if err := json.Unmarshal(buf.Bytes(), &check); err != nil {
		return fmt.Errorf("batch: malformed artifact: %w", err)
	}
	return os.WriteFile(cfg.JSONOut, buf.Bytes(), 0o644)
}

// cpuModel reports the processor model for the artifact, best-effort.
func cpuModel() string {
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if name, ok := strings.CutPrefix(line, "model name"); ok {
				return strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
			}
		}
	}
	return fmt.Sprintf("unknown (%s/%s, %d cpus)", runtime.GOOS, runtime.GOARCH, runtime.NumCPU())
}
