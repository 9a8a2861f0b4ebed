package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"fudj"
)

// sample is one completed query, reduced to what the metrics need so
// large results are not kept alive.
type sample struct {
	q         *query
	parse     time.Duration
	latency   time.Duration
	exec      time.Duration
	queueWait time.Duration
	attempts  int
	respBytes int64
	rows      int64
	join      fudj.JoinStats
	clus      fudj.ClusterStats
	mem       fudj.MemoryStats
	spans     *span // traced queries only
}

// phase is the outcome of one closed-loop measuring window.
type phase struct {
	samples   []*sample
	attempted int
	failed    int
	wall      time.Duration
	alloc     uint64 // runtime TotalAlloc delta
	mallocs   uint64
	gcs       uint32
	gcPause   time.Duration
	wrong     error // first result that disagreed with the reference
}

// measure runs every caller closed-loop for d: each sends its next
// query only when the previous one returned. Every result is checked
// against the reference; a mismatch stops all callers.
func measure(e *env, d time.Duration, traced bool, base time.Time) *phase {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	deadline := start.Add(d)
	var (
		mu   sync.Mutex
		ph   = &phase{}
		stop = make(chan struct{})
		once sync.Once
		wg   sync.WaitGroup
	)
	for ci, c := range e.callers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// The rotation is a sequence of blocks, one per data
			// instance, each holding the mix once. A caller walks the
			// blocks from its own offset and shuffles each block with
			// its own seeded stream, so concurrent callers keep the mix
			// ratio exactly but never lock into a fixed phase.
			n := len(e.w.mix)
			blocks := len(e.tasks) / n
			first := ci * blocks / len(e.callers)
			rng := rand.New(rand.NewSource(e.seed*int64(len(e.callers)) + int64(ci)))
			var order []int
			for i := 0; time.Now().Before(deadline); i++ {
				select {
				case <-stop:
					return
				default:
				}
				if i%n == 0 {
					order = rng.Perm(n)
				}
				t := e.tasks[((first+i/n)%blocks)*n+order[i%n]]
				out, err := c.do(t.sql, traced)
				var s *sample
				if err == nil {
					if err = check(t.q, t.want, out.res.Rows); err != nil {
						mu.Lock()
						if ph.wrong == nil {
							ph.wrong = err
						}
						mu.Unlock()
						once.Do(func() { close(stop) })
						return
					}
					s = newSample(t.q, out, traced, ci, base)
				}
				mu.Lock()
				ph.attempted++
				if err != nil {
					ph.failed++
				} else {
					ph.samples = append(ph.samples, s)
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	ph.wall = time.Since(start)
	runtime.ReadMemStats(&after)
	ph.alloc = after.TotalAlloc - before.TotalAlloc
	ph.mallocs = after.Mallocs - before.Mallocs
	ph.gcs = after.NumGC - before.NumGC
	ph.gcPause = time.Duration(after.PauseTotalNs - before.PauseTotalNs)
	return ph
}

// newSample extracts the counters of one result and, when traced,
// builds its span tree on the benchmark timeline.
func newSample(q *query, out *outcome, traced bool, track int, base time.Time) *sample {
	r := out.res
	s := &sample{
		q: q, parse: out.parse, latency: out.latency, exec: out.exec,
		queueWait: r.Sched.QueueWait, attempts: out.attempts, respBytes: out.respBytes,
		rows: int64(len(r.Rows)), join: r.Join, clus: r.Cluster, mem: r.Memory,
	}
	if traced {
		s.spans = querySpans(s, out, track, base)
	}
	return s
}

// querySpans builds one traced query's tree. In process the root is
// the benchmark's call, with Parse and ExecuteStmt under it and the
// engine's own span tree under ExecuteStmt. Served, only rendered
// trace lines cross the wire, so the root is client.Query and the
// server's queue wait, Elapsed and phase times become its children,
// placed mid-call; whatever they do not cover is wire time.
func querySpans(s *sample, out *outcome, track int, base time.Time) *span {
	t0 := out.start.Sub(base)
	if !out.served {
		root := &span{name: "perfbench.query " + s.q.name, layer: layerNone, track: track, start: t0, end: t0 + s.latency}
		root.child("sqlparse.Parse", layerSqlparse, t0, t0+s.parse)
		// ExecuteStmt time outside the engine's own root span (planning,
		// admission, result assembly) is left unattributed.
		ex := root.child("engine.ExecuteStmt", layerNone, t0+s.parse, t0+s.latency)
		graftEngine(ex, out.res.Trace, base, false)
		return root
	}
	root := &span{name: "client.Query " + s.q.name, layer: layerServe, track: track, start: t0, end: t0 + s.latency}
	server := s.queueWait + s.exec
	at := t0 + max(0, s.latency-server)/2
	root.child("sched.queue", layerSched, at, at+s.queueWait)
	at += s.queueWait
	ex := root.child("engine.exec", layerEngine, at, at+s.exec)
	phases := []time.Duration{s.join.SummarizeTime, s.join.PartitionTime, s.join.CombineTime}
	for i, name := range []string{"SUMMARIZE", "PARTITION", "COMBINE"} {
		end := min(at+phases[i], ex.end)
		ex.child(name, layerEngine, at, end)
		at = end
	}
	return root
}

// planTimes runs the EXPLAIN form of each query of the mix n times
// through ExecuteStmt and returns the wall times: planning alone.
func planTimes(e *env, n int) ([]float64, error) {
	c := &inProcess{db: e.db}
	var out []float64
	for _, q := range e.w.distinct() {
		sql := "EXPLAIN " + instSQL(q, 0)
		for i := 0; i < n; i++ {
			o, err := c.do(sql, false)
			if err != nil {
				return nil, fmt.Errorf("explain %s: %w", q.name, err)
			}
			out = append(out, us(o.exec))
		}
	}
	return out, nil
}
