package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"fudj"
)

// Layer names a span's self time is charged to. Spans the benchmark
// cannot place in a layer carry layerNone and count as unattributed.
const (
	layerSqlparse = "sqlparse"
	layerEngine   = "engine"
	layerSched    = "sched"
	layerCore     = "core"
	layerCluster  = "cluster"
	layerServe    = "serve"
	layerNone     = "unattributed"
)

// traceLayers lists every layer reported as trace.self_ms.<layer>.
// types, storage and runtime have no span boundary in the program, so
// their time shows inside the spans that call them.
var traceLayers = []string{layerSqlparse, layerEngine, layerSched, layerCore, layerCluster, layerServe, layerNone}

// span is one timed interval of a traced query. Times are offsets from
// the run's trace base, so spans from the benchmark's clock and the
// engine's share one timeline.
type span struct {
	name       string
	layer      string
	track      int // Chrome thread id: caller, or caller×100+partition for task spans
	start, end time.Duration
	kids       []*span
}

// child appends a sub-span and returns it.
func (s *span) child(name, layer string, start, end time.Duration) *span {
	c := &span{name: name, layer: layer, track: s.track, start: start, end: end}
	s.kids = append(s.kids, c)
	return c
}

// self is the span's duration minus the part of its interval that its
// children cover (children may overlap, as parallel tasks do).
func (s *span) self() time.Duration {
	type iv struct{ a, b time.Duration }
	ivs := make([]iv, 0, len(s.kids))
	for _, k := range s.kids {
		a, b := max(k.start, s.start), min(k.end, s.end)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var covered time.Duration
	var curA, curB time.Duration
	open := false
	for _, v := range ivs {
		switch {
		case !open:
			curA, curB, open = v.a, v.b, true
		case v.a > curB:
			covered += curB - curA
			curA, curB = v.a, v.b
		case v.b > curB:
			curB = v.b
		}
	}
	if open {
		covered += curB - curA
	}
	return s.end - s.start - covered
}

// selfByLayer sums self time per layer over the whole tree.
func (s *span) selfByLayer() map[string]time.Duration {
	out := make(map[string]time.Duration)
	var walk func(*span)
	walk = func(n *span) {
		out[n.layer] += n.self()
		for _, k := range n.kids {
			walk(k)
		}
	}
	walk(s)
	return out
}

// isPhase reports whether an engine span is one of the paper's three
// FUDJ phases.
func isPhase(name string) bool {
	return name == "SUMMARIZE" || name == "PARTITION" || name == "COMBINE"
}

// engineLayer maps an engine span name to its layer. Partition tasks
// inside a FUDJ phase run the join library's UDFs (assign, verify,
// dedup), so their self time is core; tasks elsewhere (scan filters,
// projection) are plain cluster work.
func engineLayer(name string, inPhase bool) string {
	switch {
	case name == "sched":
		return layerSched
	case name == "exchange", name == "recover", strings.HasPrefix(name, "barrier"):
		return layerCluster
	case name == "task" && inPhase:
		return layerCore
	case name == "task":
		return layerCluster
	default:
		return layerEngine
	}
}

// graftEngine copies the engine's returned span tree under parent,
// re-basing its instants onto the benchmark timeline.
func graftEngine(parent *span, es *fudj.Span, base time.Time, inPhase bool) {
	if es == nil {
		return
	}
	start := es.Start().Sub(base)
	c := parent.child(es.Name(), engineLayer(es.Name(), inPhase), start, start+es.Duration())
	if p := es.Part(); p >= 0 {
		c.track = parent.track*100 + p + 1
	}
	for _, k := range es.Children() {
		graftEngine(c, k, base, inPhase || isPhase(es.Name()))
	}
}

// chromeEvent is one trace_event "X" (complete) entry; Perfetto and
// chrome://tracing load an object holding a list of them.
type chromeEvent struct {
	Name string  `json:"name"`
	Cat  string  `json:"cat"`
	Ph   string  `json:"ph"`
	Ts   float64 `json:"ts"`  // microseconds from the trace base
	Dur  float64 `json:"dur"` // microseconds
	Pid  int     `json:"pid"`
	Tid  int     `json:"tid"`
}

// chromeEvents flattens query trees into trace_event entries, parents
// before children.
func chromeEvents(roots []*span) []chromeEvent {
	var evs []chromeEvent
	var walk func(*span)
	walk = func(s *span) {
		evs = append(evs, chromeEvent{
			Name: s.name, Cat: s.layer, Ph: "X",
			Ts: us(s.start), Dur: us(s.end - s.start),
			Pid: 1, Tid: s.track,
		})
		for _, k := range s.kids {
			walk(k)
		}
	}
	for _, r := range roots {
		walk(r)
	}
	return evs
}

// writeChromeTrace writes the query trees as a Chrome trace_event file.
func writeChromeTrace(path string, roots []*span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("trace dir: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace file: %w", err)
	}
	evs := chromeEvents(roots)
	if evs == nil {
		evs = []chromeEvent{}
	}
	err = json.NewEncoder(f).Encode(struct {
		TraceEvents     []chromeEvent `json:"traceEvents"`
		DisplayTimeUnit string        `json:"displayTimeUnit"`
	}{evs, "ms"})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("write %s: %w", path, err)
	}
	return nil
}
