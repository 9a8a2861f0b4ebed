// Command perfbench is FUDJ's end-to-end benchmark. It runs one named
// workload against the public entry points — sqlparse.Parse and
// DB.ExecuteStmt in process, or serve.Server and serve/client over
// loopback — checks every result against fudj.RunStandalone, and
// prints the metrics as the last line of standard output:
//
//	bash perfbench/run.sh --workload spatial-inmem --seed 1 --seconds 30 --trace 0
//
// --trace 0 measures untraced and reports the end-to-end metrics;
// --trace 1 reports the per-layer metrics, spending half the window
// untraced and half traced, and writes the traced queries as a Chrome
// trace_event file. README.md maps every layer metric to the
// end-to-end metric and workload it should move.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"maps"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// config is one invocation.
type config struct {
	w        *workload
	seed     int64
	seconds  float64
	trace    bool
	scale    float64 // dataset size factor; 1 except in tests
	setups   int     // set-ups per run; setup_s is their median
	traceDir string
}

// setupRuns is how many times a run sets its workload up; setup_s is
// the median.
const setupRuns = 5

// planRuns is how often each query's EXPLAIN form is timed.
const planRuns = 30

// maxTracedQueries bounds how many traced queries the trace file keeps.
const maxTracedQueries = 200

func parseFlags(args []string, stderr io.Writer) (config, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: spatial-inmem, spatial-spill or served-mix")
	seed := fs.Int64("seed", 1, "seed for the generated datasets")
	seconds := fs.Float64("seconds", 10, "measured window in seconds")
	tr := fs.Int("trace", 0, "0 reports end-to-end metrics, 1 per-layer metrics from a traced run")
	traceDir := fs.String("trace-dir", filepath.Join(".bench_build", "trace"), "directory for Chrome trace files")
	if err := fs.Parse(args); err != nil {
		return config{}, err
	}
	w, err := findWorkload(*name)
	if err != nil {
		return config{}, err
	}
	if *tr != 0 && *tr != 1 {
		return config{}, fmt.Errorf("--trace must be 0 or 1, got %d", *tr)
	}
	if *seconds <= 0 {
		return config{}, errors.New("--seconds must be positive")
	}
	return config{w: w, seed: *seed, seconds: *seconds, trace: *tr == 1, scale: 1, setups: setupRuns, traceDir: *traceDir}, nil
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer) int {
	cfg, err := parseFlags(args, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	return report(cfg, stdout, stderr)
}

// report runs the benchmark and prints the metrics table to stderr,
// then the meta line and the result line to stdout.
func report(cfg config, stdout, stderr io.Writer) int {
	res, meta, err := bench(cfg)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	for _, name := range slices.Sorted(maps.Keys(res.Metrics)) {
		fmt.Fprintf(stderr, "%-32s %14.6g %s\n", name, res.Metrics[name].Value, res.Metrics[name].Unit)
	}
	enc := json.NewEncoder(stdout)
	if err := enc.Encode(map[string]any{"meta": meta}); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if err := enc.Encode(res); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if !res.Correct {
		return 1
	}
	return 0
}

// bench sets the workload up cfg.setups times (keeping the last),
// measures it, and assembles the metrics.
func bench(cfg config) (*result, *metadata, error) {
	var (
		e      *env
		setups []float64
	)
	for i := 0; i < cfg.setups; i++ {
		if e != nil {
			if err := e.close(); err != nil {
				return nil, nil, err
			}
		}
		runtime.GC()
		t0 := time.Now()
		var err error
		if e, err = setup(cfg.w, cfg.seed, cfg.scale); err != nil {
			return nil, nil, fmt.Errorf("setup %s: %w", cfg.w.name, err)
		}
		setups = append(setups, sec(time.Since(t0)))
	}
	res, meta, err := measureRun(cfg, e, setups)
	if cerr := e.close(); err == nil {
		err = cerr
	}
	return res, meta, err
}

func measureRun(cfg config, e *env, setups []float64) (*result, *metadata, error) {
	meta := newMetadata(cfg)
	meta.Setups = setups
	window := time.Duration(cfg.seconds * float64(time.Second))
	runtime.GC()
	base := time.Now()
	var (
		values map[string]float64
		defs   []metricDef
		phases []*phase
	)
	if !cfg.trace {
		ph := measure(e, window, false, base)
		phases = []*phase{ph}
		rss, err := peakRSSMB()
		if err != nil {
			return nil, nil, err
		}
		values, meta.Tail = endToEnd(ph, setups, rss)
		defs = endToEndDefs
	} else {
		plain := measure(e, window/2, false, base)
		traced := measure(e, window/2, true, base)
		phases = []*phase{plain, traced}
		plans, err := planTimes(e, planRuns)
		if err != nil {
			return nil, nil, err
		}
		var srv serverStats
		if len(e.clients) > 0 {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			snap, err := e.clients[0].Metrics(ctx)
			cancel()
			if err != nil {
				return nil, nil, fmt.Errorf("server metrics: %w", err)
			}
			srv = serverStats{queries: snap.Server.Queries, evictions: snap.Replay.Evictions}
		}
		values = perLayer(plain, traced, plans, srv, e.w.served())
		defs = perLayerDefs
		var roots []*span
		for _, s := range traced.samples {
			if len(roots) == maxTracedQueries {
				break
			}
			roots = append(roots, s.spans)
		}
		meta.TraceFile = filepath.Join(cfg.traceDir, fmt.Sprintf("%s-seed%d.json", cfg.w.name, cfg.seed))
		if err := writeChromeTrace(meta.TraceFile, roots); err != nil {
			return nil, nil, err
		}
	}
	res := &result{Correct: true, Metrics: make(map[string]metric, len(defs))}
	for _, ph := range phases {
		res.Attempted += ph.attempted
		res.Failed += ph.failed
		meta.Window += sec(ph.wall)
		if ph.wrong != nil {
			res.Correct = false
			meta.Wrong = ph.wrong.Error()
		}
	}
	if res.Attempted == 0 {
		return nil, nil, errors.New("no query was attempted")
	}
	for _, d := range defs {
		res.Metrics[d.name] = metric{Value: values[d.name], Unit: d.unit}
	}
	return res, meta, nil
}

// metadata describes the run and the machine it ran on; it is printed
// on the line before the result.
type metadata struct {
	Workload   string         `json:"workload"`
	Seed       int64          `json:"seed"`
	Seconds    float64        `json:"seconds"`
	Window     float64        `json:"window_s"`
	Traced     bool           `json:"traced"`
	CPU        string         `json:"cpu"`
	NumCPU     int            `json:"nproc"`
	GOMAXPROCS int            `json:"gomaxprocs"`
	GoVersion  string         `json:"go"`
	Cluster    string         `json:"cluster"`
	Datasets   map[string]int `json:"datasets"`
	Instances  int            `json:"instances"`
	Budget     int64          `json:"memory_budget_bytes"`
	Clients    int            `json:"clients"`
	Mix        []string       `json:"query_mix"`
	Setups     []float64      `json:"setup_s_each"`
	Tail       tailInfo       `json:"latency_tail,omitempty"`
	TraceFile  string         `json:"trace_file,omitempty"`
	Wrong      string         `json:"wrong_result,omitempty"`
}

func newMetadata(cfg config) *metadata {
	mix := make([]string, len(cfg.w.mix))
	for i, q := range cfg.w.mix {
		mix[i] = q.name
	}
	return &metadata{
		Workload: cfg.w.name, Seed: cfg.seed, Seconds: cfg.seconds, Traced: cfg.trace,
		CPU: cpuModel(), NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(),
		Cluster:   fmt.Sprintf("%d nodes x %d cores", clusterNodes, clusterCores),
		Datasets:  cfg.w.sizes(cfg.scale), Instances: instances, Budget: cfg.w.budget,
		Clients: max(cfg.w.clients, 1), Mix: mix,
	}
}

// cpuModel reads the first "model name" of /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// peakRSSMB reads the process's resident-set high-water mark (VmHWM).
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak rss: %w", err)
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("peak rss: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("peak rss: no VmHWM in /proc/self/status")
}
