package main

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"os"
	"strings"
	"testing"
	"time"

	"fudj"
)

func TestTailKeepsTenSamplesBeyond(t *testing.T) {
	for _, n := range []int{11, 12, 57, 100, 1000} {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		rand.New(rand.NewSource(int64(n))).Shuffle(n, func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
		v, pct, ok := tail(xs)
		if !ok {
			t.Fatalf("n=%d: rule reported unmet", n)
		}
		beyond := 0
		for _, x := range xs {
			if x > v {
				beyond++
			}
		}
		if beyond != tailMinBeyond {
			t.Errorf("n=%d: %d samples beyond the tail, want %d", n, beyond, tailMinBeyond)
		}
		if want := 100 * float64(n-tailMinBeyond) / float64(n); pct != want {
			t.Errorf("n=%d: percentile %v, want %v", n, pct, want)
		}
	}
	if v, pct, ok := tail([]float64{3, 1, 2}); ok || v != 3 || pct != 100 {
		t.Errorf("too few samples: got %v at p%v ok=%v, want the max at p100, ok=false", v, pct, ok)
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{5, 1, 3}); m != 3 {
		t.Errorf("odd median %v, want 3", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("even median %v, want 2.5", m)
	}
	if m := median(nil); m != 0 {
		t.Errorf("empty median %v, want 0", m)
	}
}

func TestSelfTimeSubtractsCoveredChildren(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	root := &span{name: "root", layer: layerNone, start: 0, end: ms(100)}
	a := root.child("a", layerEngine, ms(10), ms(40))
	root.child("b", layerEngine, ms(30), ms(60)) // overlaps a, as parallel tasks do
	root.child("c", layerCluster, ms(90), ms(120))
	a.child("a1", layerCore, ms(15), ms(25))

	// Children cover [10,60] and [90,100] of the root: 60 of 100 ms.
	if got := root.self(); got != ms(40) {
		t.Errorf("root self %v, want 40ms", got)
	}
	if got := a.self(); got != ms(20) {
		t.Errorf("a self %v, want 20ms", got)
	}
	by := root.selfByLayer()
	want := map[string]time.Duration{layerNone: ms(40), layerEngine: ms(20 + 30), layerCore: ms(10), layerCluster: ms(30)}
	for l, d := range want {
		if by[l] != d {
			t.Errorf("layer %s self %v, want %v", l, by[l], d)
		}
	}
}

func TestEngineLayerMapping(t *testing.T) {
	cases := []struct {
		name    string
		inPhase bool
		want    string
	}{
		{"task", true, layerCore},
		{"task", false, layerCluster},
		{"exchange", true, layerCluster},
		{"barrier plan", false, layerCluster},
		{"sched", false, layerSched},
		{"COMBINE", false, layerEngine},
		{"scan parks_0", false, layerEngine},
	}
	for _, c := range cases {
		if got := engineLayer(c.name, c.inPhase); got != c.want {
			t.Errorf("engineLayer(%q, %v) = %s, want %s", c.name, c.inPhase, got, c.want)
		}
	}
}

func TestDigestIsOrderIndependent(t *testing.T) {
	pairs := [][2]int64{{1, 2}, {1, 3}, {2, 2}, {7, 1}, {1, 2}}
	var a, b digest
	for _, p := range pairs {
		a.addN(p[0], p[1], 1)
	}
	for i := len(pairs) - 1; i >= 0; i-- {
		b.addN(pairs[i][0], pairs[i][1], 1)
	}
	if a != b {
		t.Fatalf("reordered rows changed the digest: %+v vs %+v", a, b)
	}
	var c digest
	c.addN(1, 2, 2)
	c.addN(1, 3, 1)
	c.addN(2, 2, 1)
	c.addN(7, 1, 1)
	if a != c {
		t.Errorf("addN(n) differs from n single adds: %+v vs %+v", a, c)
	}
	var swapped digest
	for _, p := range pairs {
		swapped.addN(p[1], p[0], 1)
	}
	if swapped == a {
		t.Error("swapping pair sides left the digest unchanged")
	}
	var lost digest
	for _, p := range pairs[1:] {
		lost.addN(p[0], p[1], 1)
	}
	lost.addN(1, 4, 1) // same count, one pair altered
	if lost == a {
		t.Error("altering a pair left the digest unchanged")
	}
}

func TestCheckRejectsWrongResults(t *testing.T) {
	count := []fudj.Record{{fudj.NewInt64(42)}}
	if err := check(spatialQuery, expected{count: 42}, count); err != nil {
		t.Errorf("matching count rejected: %v", err)
	}
	if err := check(spatialQuery, expected{count: 43}, count); err == nil {
		t.Error("wrong COUNT(*) accepted")
	}
	rows := []fudj.Record{{fudj.NewInt64(1), fudj.NewInt64(2)}, {fudj.NewInt64(3), fudj.NewInt64(4)}}
	var want digest
	want.addN(3, 4, 1)
	want.addN(1, 2, 1)
	if err := check(intervalQuery, expected{pairs: want}, rows); err != nil {
		t.Errorf("matching pairs rejected: %v", err)
	}
	want.addN(5, 6, 1)
	if err := check(intervalQuery, expected{pairs: want}, rows); err == nil {
		t.Error("wrong id-pair multiset accepted")
	}
}

// A deliberately wrong reference must stop the measuring loop and be
// reported, not counted as a failed query.
func TestOracleRejectsWrongExpected(t *testing.T) {
	t.Setenv("TMPDIR", t.TempDir())
	w, err := findWorkload("spatial-inmem")
	if err != nil {
		t.Fatal(err)
	}
	e, err := setup(w, 7, 0.02)
	if err != nil {
		t.Fatal(err)
	}
	defer e.close()
	for _, tk := range e.tasks {
		tk.want.count++
	}
	ph := measure(e, time.Second, false, time.Now())
	if ph.wrong == nil {
		t.Fatal("a wrong reference result went unnoticed")
	}
	if ph.failed != 0 {
		t.Errorf("a wrong result was counted as %d failed queries", ph.failed)
	}
}

// Each workload runs end to end at a tiny scale, untraced and traced,
// and reports exactly the metrics BENCHMARK.json declares.
func TestSmokeEveryWorkload(t *testing.T) {
	t.Setenv("TMPDIR", t.TempDir())
	for _, w := range workloads {
		for _, tr := range []string{"0", "1"} {
			var stdout, stderr bytes.Buffer
			cfg, err := parseFlags([]string{"--workload", w.name, "--seed", "3", "--seconds", "0.4", "--trace", tr,
				"--trace-dir", t.TempDir()}, &stderr)
			if err != nil {
				t.Fatal(err)
			}
			cfg.scale, cfg.setups = 0.02, 1
			if code := report(cfg, &stdout, &stderr); code != 0 {
				t.Fatalf("%s trace=%s: exit %d: %s", w.name, tr, code, stderr.String())
			}
			lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s: last line is not a result: %v", w.name, err)
			}
			if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
				t.Errorf("%s trace=%s: correct=%v attempted=%d failed=%d", w.name, tr, res.Correct, res.Attempted, res.Failed)
			}
			defs := endToEndDefs
			if tr == "1" {
				defs = perLayerDefs
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s trace=%s: %d metrics, want %d", w.name, tr, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				if m, ok := res.Metrics[d.name]; !ok || m.Unit != d.unit {
					t.Errorf("%s trace=%s: metric %s missing or unit %q", w.name, tr, d.name, m.Unit)
				}
			}
			if tr == "1" {
				var meta struct{ Meta metadata }
				if err := json.Unmarshal([]byte(lines[len(lines)-2]), &meta); err != nil {
					t.Fatal(err)
				}
				if _, err := os.Stat(meta.Meta.TraceFile); err != nil {
					t.Errorf("%s: no trace file: %v", w.name, err)
				}
				if f := res.Metrics["trace.attributed_frac"].Value; f <= 0 || f > 1 {
					t.Errorf("%s: trace.attributed_frac %v outside (0, 1]", w.name, f)
				}
			}
		}
	}
}

// BENCHMARK.json at the repository root must declare the workloads and
// metrics this program runs and reports.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type jsonMetric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var spec struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []jsonMetric `json:"end_to_end"`
		PerLayer  []jsonMetric `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name || w.Why == "" {
			t.Errorf("workload %d: %q (why %q), program has %q", i, w.Name, w.Why, workloads[i].name)
		}
	}
	compare := func(kind string, got []jsonMetric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the program %d", kind, len(got), len(want))
			return
		}
		for i, m := range got {
			d := want[i]
			if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
				t.Errorf("%s %d: BENCHMARK.json %+v, program %+v", kind, i, m, d)
			}
			if bounded != (m.Bound != nil) || (bounded && (*m.Bound <= 0 || *m.Bound > 0.25)) {
				t.Errorf("%s %s: bad bound %v", kind, m.Name, m.Bound)
			}
		}
	}
	compare("end_to_end", spec.EndToEnd, endToEndDefs, true)
	compare("per_layer", spec.PerLayer, perLayerDefs, false)
}
