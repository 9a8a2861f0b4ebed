package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"strings"
	"sync/atomic"
	"time"

	"fudj"
	"fudj/internal/serve"
	"fudj/internal/serve/client"
	"fudj/internal/sqlparse"
)

// Cluster shape of every workload: the smallest with both cross-node
// shuffle and intra-node parallelism.
const (
	clusterNodes = 2
	clusterCores = 2
)

// Dataset sizes at scale 1.
const (
	parksN   = 4000
	firesN   = 16000
	ridesN   = 4000
	reviewsN = 4000
)

// spillBudget is spatial-spill's per-query memory budget (7.25 MiB):
// every seed tried spills a few buckets, while spill-file creation,
// whose cost swings widely with the host's recent file churn, stays a
// small share of the query. README.md records the deeper budgets tried.
const spillBudget = 7<<20 + 1<<18

// side is one join input as the reference oracle reads it: a key
// column, optionally filtered on an int64 column.
type side struct {
	dataset   string
	key       string
	filterCol string
	filterVal int64
}

// query is one statement of a workload mix and what the oracle needs
// to reproduce it standalone.
type query struct {
	name   string
	sql    string // {L} and {R} stand for the two sides' dataset names
	ddl    string // the CREATE JOIN it needs
	pairs  bool   // result is (id, id) rows, checked by digest; else COUNT(*)
	lib    func() *fudj.Library
	class  string
	left   side
	right  side
	params []any
}

var (
	spatialQuery = &query{
		name:   "spatial",
		sql:    `SELECT COUNT(*) FROM {L} p, {R} w WHERE spatial_join(p.boundary, w.location, 32)`,
		ddl:    `CREATE JOIN spatial_join(a: geometry, b: geometry, n: int) RETURNS boolean AS "pbsm.SpatialJoin" AT spatialjoins`,
		lib:    fudj.SpatialLibrary,
		class:  "pbsm.SpatialJoin",
		left:   side{dataset: "parks", key: "boundary"},
		right:  side{dataset: "wildfires", key: "location"},
		params: []any{int64(32)},
	}
	textsimQuery = &query{
		name: "textsim",
		sql: `SELECT COUNT(*) FROM {L} r1, {R} r2
			WHERE r1.overall = 5 AND r2.overall = 4
			AND text_similarity_join(r1.review, r2.review, 0.9)`,
		ddl:    `CREATE JOIN text_similarity_join(a: string, b: string, t: double) RETURNS boolean AS "setsimilarity.SetSimilarityJoin" AT flexiblejoins`,
		lib:    fudj.TextSimilarityLibrary,
		class:  "setsimilarity.SetSimilarityJoin",
		left:   side{dataset: "amazonreview", key: "review", filterCol: "overall", filterVal: 5},
		right:  side{dataset: "amazonreview", key: "review", filterCol: "overall", filterVal: 4},
		params: []any{0.9},
	}
	intervalQuery = &query{
		name: "interval",
		sql: `SELECT a.id, b.id FROM {L} a, {R} b
			WHERE a.vendor = 1 AND b.vendor = 2
			AND overlapping_interval_auto(a.ride_interval, b.ride_interval, 0)`,
		ddl:    `CREATE JOIN overlapping_interval_auto(a: interval, b: interval, n: int) RETURNS boolean AS "oip.IntervalJoinAuto" AT intervaljoins`,
		pairs:  true,
		lib:    fudj.IntervalLibrary,
		class:  "oip.IntervalJoinAuto",
		left:   side{dataset: "nyctaxi", key: "ride_interval", filterCol: "vendor", filterVal: 1},
		right:  side{dataset: "nyctaxi", key: "ride_interval", filterCol: "vendor", filterVal: 2},
		params: []any{int64(0)},
	}
)

// workload is one named benchmark configuration.
type workload struct {
	name    string
	budget  int64 // per-query memory budget; 0 = unbounded
	clients int   // closed-loop served clients; 0 = one in-process caller
	mix     []*query
}

var workloads = []*workload{
	{name: "spatial-inmem", mix: []*query{spatialQuery}},
	{name: "spatial-spill", budget: spillBudget, mix: []*query{spatialQuery}},
	{name: "served-mix", clients: 2, mix: []*query{textsimQuery, textsimQuery, textsimQuery, intervalQuery}},
}

func findWorkload(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

func (w *workload) served() bool { return w.clients > 0 }

// distinct returns the mix's queries once each, in mix order.
func (w *workload) distinct() []*query {
	var out []*query
	seen := map[*query]bool{}
	for _, q := range w.mix {
		if !seen[q] {
			seen[q] = true
			out = append(out, q)
		}
	}
	return out
}

// instances is how many independently seeded copies of its datasets a
// run loads. Callers rotate over them, so one run measures several
// data draws and its figures do not hang on one draw's skew.
const instances = 4

// sizes returns the dataset sizes the workload loads per instance at a
// scale.
func (w *workload) sizes(scale float64) map[string]int {
	n := func(base int) int { return max(1, int(math.Round(float64(base)*scale))) }
	out := map[string]int{}
	for _, q := range w.distinct() {
		for _, ds := range []string{q.left.dataset, q.right.dataset} {
			switch ds {
			case "parks":
				out[ds] = n(parksN)
			case "wildfires":
				out[ds] = n(firesN)
			case "nyctaxi":
				out[ds] = n(ridesN)
			case "amazonreview":
				out[ds] = n(reviewsN)
			}
		}
	}
	return out
}

// generate builds one dataset of one instance. Instance seeds are
// hashed from the run seed, so different runs share no instance; each
// dataset then offsets it so the four generators never share a stream.
func generate(name string, seed int64, inst, n int) *fudj.GeneratedDataset {
	s := int64(mix64(uint64(seed)*instances+uint64(inst)) >> 1)
	switch name {
	case "parks":
		return fudj.GenParks(s, n)
	case "wildfires":
		return fudj.GenWildfires(s+1, n)
	case "nyctaxi":
		return fudj.GenNYCTaxi(s+2, n)
	default:
		return fudj.GenAmazonReview(s+3, n)
	}
}

// instName is a dataset's name in the engine for one instance.
func instName(dataset string, inst int) string { return fmt.Sprintf("%s_%d", dataset, inst) }

// task is one query of the mix bound to one data instance, with its
// reference result.
type task struct {
	q    *query
	sql  string
	want expected
}

// caller issues one statement through the workload's public entry point.
type caller interface {
	do(sql string, traced bool) (*outcome, error)
}

// outcome is what one completed query leaves behind.
type outcome struct {
	res       *fudj.Result
	parse     time.Duration // sqlparse.Parse; in process it is part of latency
	latency   time.Duration // the public call as the user sees it
	exec      time.Duration // ExecuteStmt wall time, or the server's Elapsed
	attempts  int
	respBytes int64
	start     time.Time
	served    bool
}

// env is one set-up workload: a loaded engine, the rotation of tasks
// with their reference results, and for served workloads a running
// server with one client per caller.
type env struct {
	w       *workload
	seed    int64
	db      *fudj.DB
	tasks   []*task // the rotation: the mix on instance 0, then on 1, ...
	callers []caller

	srv       *serve.Server
	serveDone chan error
	clients   []*client.Client
}

// setup does everything before the first timed query: data generation,
// load, library install, CREATE JOIN, the reference results, server
// start and a warmup pass that runs every task once.
func setup(w *workload, seed int64, scale float64) (_ *env, err error) {
	data := map[string]*fudj.GeneratedDataset{}
	for inst := 0; inst < instances; inst++ {
		for name, n := range w.sizes(scale) {
			data[instName(name, inst)] = generate(name, seed, inst, n)
		}
	}
	opts := []fudj.Option{fudj.WithCluster(clusterNodes, clusterCores)}
	if w.budget > 0 {
		opts = append(opts, fudj.WithMemoryBudget(w.budget))
	}
	db, err := fudj.Open(opts...)
	if err != nil {
		return nil, fmt.Errorf("open: %w", err)
	}
	for name, ds := range data {
		if err := fudj.LoadGenerated(db, name, ds); err != nil {
			return nil, fmt.Errorf("load %s: %w", name, err)
		}
	}
	e := &env{w: w, seed: seed, db: db}
	defer func() {
		if err != nil {
			e.close()
		}
	}()
	for _, q := range w.distinct() {
		if err := db.InstallLibrary(q.lib()); err != nil {
			return nil, fmt.Errorf("install %s: %w", q.class, err)
		}
		if _, err := db.Execute(q.ddl); err != nil {
			return nil, fmt.Errorf("%s: %w", q.ddl, err)
		}
	}
	var unique []*task
	for inst := 0; inst < instances; inst++ {
		byQuery := map[*query]*task{}
		for _, q := range w.distinct() {
			t := &task{q: q, sql: instSQL(q, inst)}
			if t.want, err = reference(q, data, inst); err != nil {
				return nil, err
			}
			byQuery[q] = t
			unique = append(unique, t)
		}
		for _, q := range w.mix {
			e.tasks = append(e.tasks, byQuery[q])
		}
	}
	if w.served() {
		if err := e.startServer(seed); err != nil {
			return nil, err
		}
	} else {
		e.callers = []caller{&inProcess{db: db}}
	}
	for i, t := range unique {
		out, err := e.callers[i%len(e.callers)].do(t.sql, false)
		if err != nil {
			return nil, fmt.Errorf("warmup %s: %w", t.q.name, err)
		}
		if err := check(t.q, t.want, out.res.Rows); err != nil {
			return nil, fmt.Errorf("warmup: %w", err)
		}
	}
	return e, nil
}

// instSQL names instance inst's datasets in q's statement.
func instSQL(q *query, inst int) string {
	return strings.NewReplacer("{L}", instName(q.left.dataset, inst), "{R}", instName(q.right.dataset, inst)).Replace(q.sql)
}

// startServer serves the engine on loopback with fudjd's default
// configuration and opens one client per caller, each with its own
// session and query-ID prefix.
func (e *env) startServer(seed int64) error {
	srv, err := serve.New(serve.Config{
		DB:           e.db,
		MaxConns:     256,
		MaxQueryTime: 5 * time.Minute,
		SessionIdle:  serve.DefaultSessionIdle,
		ReplayBytes:  serve.DefaultReplayBytes,
		RetryAfter:   250 * time.Millisecond,
	})
	if err != nil {
		return fmt.Errorf("serve: %w", err)
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fmt.Errorf("listen: %w", err)
	}
	e.srv, e.serveDone = srv, make(chan error, 1)
	go func() { e.serveDone <- srv.Serve(lis) }()
	for i := 0; i < e.w.clients; i++ {
		counted := &countingTransport{base: http.DefaultTransport.(*http.Transport).Clone()}
		cli, err := client.New(client.Config{
			BaseURL:     "http://" + lis.Addr().String(),
			Session:     fmt.Sprintf("perfbench-%d", i),
			QueryPrefix: fmt.Sprintf("c%d", i),
			Seed:        seed + int64(i),
			HTTPClient:  &http.Client{Transport: counted},
		})
		if err != nil {
			return fmt.Errorf("client: %w", err)
		}
		e.clients = append(e.clients, cli)
		e.callers = append(e.callers, &served{cli: cli, bytes: counted})
	}
	return nil
}

// close stops the server and waits for it; an in-process env holds
// nothing to release beyond memory.
func (e *env) close() error {
	for _, c := range e.clients {
		c.Close()
	}
	if e.srv == nil {
		return nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := e.srv.Shutdown(ctx)
	if serr := <-e.serveDone; serr != nil && !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	if err != nil {
		return fmt.Errorf("server shutdown: %w", err)
	}
	return nil
}

// inProcess calls sqlparse.Parse and DB.ExecuteStmt directly.
type inProcess struct{ db *fudj.DB }

func (c *inProcess) do(sql string, traced bool) (*outcome, error) {
	var opts []fudj.ExecOption
	if traced {
		opts = append(opts, fudj.Trace())
	}
	t0 := time.Now()
	stmt, err := sqlparse.Parse(sql)
	t1 := time.Now()
	if err != nil {
		return nil, err
	}
	res, err := c.db.ExecuteStmt(stmt, opts...)
	t2 := time.Now()
	if err != nil {
		return nil, err
	}
	return &outcome{res: res, parse: t1.Sub(t0), latency: t2.Sub(t0), exec: t2.Sub(t1), attempts: 1, start: t0}, nil
}

// served sends the query through serve/client over loopback HTTP. The
// benchmark parses the text itself first, outside the timed call, so
// sqlparse is measured on this workload too (the server parses again).
type served struct {
	cli   *client.Client
	bytes *countingTransport
}

func (c *served) do(sql string, traced bool) (*outcome, error) {
	var opts []client.QueryOption
	if traced {
		opts = append(opts, client.WithTrace())
	}
	p0 := time.Now()
	if _, err := sqlparse.Parse(sql); err != nil {
		return nil, err
	}
	parse := time.Since(p0)
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	b0 := c.bytes.n.Load()
	t0 := time.Now()
	res, err := c.cli.Query(ctx, sql, opts...)
	lat := time.Since(t0)
	if err != nil {
		return nil, err
	}
	return &outcome{
		res: res.Result, parse: parse, latency: lat, exec: res.Elapsed,
		attempts: res.Attempts, respBytes: c.bytes.n.Load() - b0, start: t0, served: true,
	}, nil
}

// countingTransport counts response body bytes read by one client.
type countingTransport struct {
	base *http.Transport
	n    atomic.Int64
}

func (t *countingTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	resp, err := t.base.RoundTrip(r)
	if err != nil {
		return nil, err
	}
	resp.Body = &countingBody{ReadCloser: resp.Body, n: &t.n}
	return resp, nil
}

// CloseIdleConnections lets client.Close release pooled connections.
func (t *countingTransport) CloseIdleConnections() { t.base.CloseIdleConnections() }

type countingBody struct {
	io.ReadCloser
	n *atomic.Int64
}

func (b *countingBody) Read(p []byte) (int, error) {
	k, err := b.ReadCloser.Read(p)
	b.n.Add(int64(k))
	return k, err
}
