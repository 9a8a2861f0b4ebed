// Integration and network-chaos suite: a real fudjd server on a real
// loopback listener, exercised through the retrying client. External
// test package so it can reuse the shell's demo environment.
package serve_test

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"fudj"
	"fudj/internal/serve"
	"fudj/internal/serve/client"
	"fudj/internal/shell"
	"fudj/internal/types"
)

const demoJoinSQL = `SELECT p.id, w.id FROM parks p, wildfires w WHERE spatial_join(p.boundary, w.location, 8)`

// testServer is one loopback fudjd with its database.
type testServer struct {
	db    *fudj.DB
	srv   *serve.Server
	lis   net.Listener
	chaos *serve.ChaosListener
	base  string
}

// startServer boots a demo database and serves it on 127.0.0.1:0,
// optionally through a chaos listener.
func startServer(t *testing.T, cfg serve.Config, chaos *serve.ChaosConfig) *testServer {
	t.Helper()
	t.Setenv("TMPDIR", t.TempDir())
	db, err := shell.Setup(shell.Config{Nodes: 2, Cores: 2, Records: 80, LoadDemo: true})
	if err != nil {
		t.Fatal(err)
	}
	cfg.DB = db
	srv, err := serve.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ts := &testServer{db: db, srv: srv, lis: lis, base: "http://" + lis.Addr().String()}
	serveLis := lis
	if chaos != nil {
		ts.chaos = serve.NewChaosListener(lis, *chaos)
		serveLis = ts.chaos
	}
	go srv.Serve(serveLis)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	})
	return ts
}

// newClient dials the test server with fast test backoff.
func newClient(t *testing.T, ts *testServer, tweak func(*client.Config)) *client.Client {
	t.Helper()
	cfg := client.Config{
		BaseURL:     ts.base,
		QueryPrefix: "t",
		Seed:        7,
		BackoffBase: 2 * time.Millisecond,
		BackoffMax:  50 * time.Millisecond,
	}
	if tweak != nil {
		tweak(&cfg)
	}
	c, err := client.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

// decodeFrames drains one raw HTTP response's frame stream into a
// result and its trailer, or the decoded error.
func decodeFrames(resp *http.Response) (*fudj.Result, serve.Trailer, error) {
	fr := serve.NewFrameReader(resp.Body)
	res := &fudj.Result{}
	for {
		typ, payload, err := fr.Next()
		if err != nil {
			return nil, serve.Trailer{}, err
		}
		switch typ {
		case serve.FrameSchema:
			if res.Schema, err = serve.DecodeSchemaFrame(payload); err != nil {
				return nil, serve.Trailer{}, err
			}
		case serve.FrameBatch:
			recs, err := types.DecodeBatch(payload, nil)
			if err != nil {
				return nil, serve.Trailer{}, err
			}
			res.Rows = append(res.Rows, recs...)
		case serve.FrameError:
			var env serve.Envelope
			if err := json.Unmarshal(payload, &env); err != nil {
				return nil, serve.Trailer{}, err
			}
			return nil, serve.Trailer{}, serve.DecodeError(env)
		case serve.FrameTrailer:
			t, err := serve.DecodeTrailerFrame(payload)
			return res, t, err
		}
	}
}

// rowKeys renders a result's rows into a sortable multiset.
func rowKeys(res *fudj.Result) []string {
	keys := make([]string, len(res.Rows))
	for i, row := range res.Rows {
		cells := make([]string, len(row))
		for j, v := range row {
			cells[j] = v.String()
		}
		keys[i] = strings.Join(cells, "|")
	}
	sort.Strings(keys)
	return keys
}

func sameMultiset(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// assertTmpEmpty fails if any temp files survived.
func assertTmpEmpty(t *testing.T) {
	t.Helper()
	var leaked []string
	filepath.Walk(os.TempDir(), func(path string, info os.FileInfo, err error) error {
		if err == nil && info != nil && !info.IsDir() {
			leaked = append(leaked, path)
		}
		return nil
	})
	if len(leaked) > 0 {
		t.Fatalf("temp files leaked: %v", leaked)
	}
}

func TestServeQueryMatchesInProcess(t *testing.T) {
	ts := startServer(t, serve.Config{}, nil)
	c := newClient(t, ts, nil)

	want, err := ts.db.Execute(demoJoinSQL)
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.Query(context.Background(), demoJoinSQL)
	if err != nil {
		t.Fatal(err)
	}
	if !sameMultiset(rowKeys(want), rowKeys(got.Result)) {
		t.Fatalf("remote result diverged: %d vs %d rows", len(got.Rows), len(want.Rows))
	}
	if got.Schema.Len() != want.Schema.Len() {
		t.Fatalf("schema diverged: %d vs %d fields", got.Schema.Len(), want.Schema.Len())
	}
	if got.Attempts != 1 {
		t.Fatalf("clean network took %d attempts", got.Attempts)
	}
	// The trailer carries execution stats, not zero values.
	if got.Elapsed <= 0 || got.Cluster.BytesShuffled <= 0 {
		t.Fatalf("stats lost in trailer: elapsed=%v shuffled=%d", got.Elapsed, got.Cluster.BytesShuffled)
	}
	if got.Metrics == nil {
		t.Fatal("metrics snapshot lost in trailer")
	}
}

func TestServeTraceLines(t *testing.T) {
	ts := startServer(t, serve.Config{}, nil)
	c := newClient(t, ts, nil)
	res, err := c.Query(context.Background(), demoJoinSQL, client.WithTrace())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.TraceLines) == 0 {
		t.Fatal("no trace lines came back")
	}
	joined := strings.Join(res.TraceLines, "\n")
	if !strings.Contains(joined, "query") {
		t.Fatalf("trace render looks wrong:\n%s", joined)
	}
}

func TestServeParseErrorNotRetried(t *testing.T) {
	ts := startServer(t, serve.Config{}, nil)
	c := newClient(t, ts, func(cfg *client.Config) { cfg.MaxAttempts = 5 })
	_, err := c.Query(context.Background(), "SELECT FROM WHERE nonsense")
	if err == nil {
		t.Fatal("garbage SQL must error")
	}
	if fudj.IsRetryable(err) {
		t.Fatalf("parse errors must be non-retryable, got %v", err)
	}
	if got := ts.srv.Counters().Queries; got != 1 {
		t.Fatalf("server saw %d attempts for a non-retryable error, want 1", got)
	}
}

func TestServeDeadlinePropagation(t *testing.T) {
	ts := startServer(t, serve.Config{}, nil)
	// Straggle both nodes far past the deadline so even the batched
	// hot path cannot finish the demo join before it expires.
	ts.db.MustConfigure(fudj.WithFaults(&fudj.FaultConfig{
		Seed:           1,
		StragglerNodes: []int{0, 1},
		StragglerDelay: 300 * time.Millisecond,
	}))
	// Raw request with a 1ms budget and no client-side deadline: only
	// the server can enforce it, proving the header actually derives
	// the query context.
	req, err := http.NewRequest(http.MethodPost, ts.base+"/v1/query", strings.NewReader(demoJoinSQL))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(serve.HeaderDeadlineMs, "1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	fr := serve.NewFrameReader(resp.Body)
	typ, payload, err := fr.Next()
	if err != nil {
		t.Fatal(err)
	}
	if typ != serve.FrameError {
		t.Fatalf("got frame type %d, want error frame", typ)
	}
	var env serve.Envelope
	if err := json.Unmarshal(payload, &env); err != nil {
		t.Fatal(err)
	}
	decoded := serve.DecodeError(env)
	var tmo *fudj.TimeoutError
	if !errors.As(decoded, &tmo) {
		t.Fatalf("decoded %T (%v), want TimeoutError", decoded, decoded)
	}
	if fudj.IsRetryable(decoded) {
		t.Fatal("timeouts must not be retryable")
	}
}

func TestServeIdempotentReplay(t *testing.T) {
	ts := startServer(t, serve.Config{}, nil)
	c := newClient(t, ts, nil)
	res, err := c.Query(context.Background(), demoJoinSQL)
	if err != nil {
		t.Fatal(err)
	}
	if res.Replayed {
		t.Fatal("fresh execution marked replayed")
	}

	// Re-send the same query ID by hand: the response must replay from
	// the record without executing again, and say so in the trailer.
	req, err := http.NewRequest(http.MethodPost, ts.base+"/v1/query", strings.NewReader(demoJoinSQL))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(serve.HeaderQueryID, "t-1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	replayedRes, trailer, err := decodeFrames(resp)
	if err != nil {
		t.Fatal(err)
	}
	if !sameMultiset(rowKeys(res.Result), rowKeys(replayedRes)) {
		t.Fatal("replayed response diverged from the original")
	}
	if !trailer.Replayed {
		t.Fatal("replayed response's trailer does not say Replayed")
	}
	if n := ts.srv.ExecCount("", "t-1"); n != 1 {
		t.Fatalf("query executed %d times, want 1", n)
	}
	if ctrs := ts.srv.Counters(); ctrs.Replayed != 1 {
		t.Fatalf("replayed counter = %d, want 1", ctrs.Replayed)
	}
	// The exec-count probe is a pure read: no session springs into
	// being for an unknown name.
	before := ts.srv.ExecCount("ghost-session", "t-1")
	snap, err := c.Metrics(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if before != 0 || snap.Sessions != 1 {
		t.Fatalf("ExecCount probe mutated state: count=%d sessions=%d", before, snap.Sessions)
	}
}

// TestServeRetryableRefusalNotCached pins the retry contract against
// the replay cache: a retryable refusal (here a drain shed) must NOT
// be recorded under the query ID, or the client's retry — which reuses
// the ID by design — would replay the cached failure forever instead
// of re-executing.
func TestServeRetryableRefusalNotCached(t *testing.T) {
	ts := startServer(t, serve.Config{}, nil)
	drainCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := ts.srv.Drain(drainCtx); err != nil {
		t.Fatal(err)
	}

	send := func() error {
		req, err := http.NewRequest(http.MethodPost, ts.base+"/v1/query", strings.NewReader(demoJoinSQL))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set(serve.HeaderQueryID, "r-1")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		_, _, decErr := decodeFrames(resp)
		return decErr
	}

	for attempt := 0; attempt < 2; attempt++ {
		prevBytes := ts.srv.Counters().BytesOut
		err := send()
		var sherr *serve.ShedError
		if !errors.As(err, &sherr) {
			t.Fatalf("attempt %d decoded to %T (%v), want ShedError", attempt, err, err)
		}
		if !fudj.IsRetryable(err) {
			t.Fatalf("attempt %d refusal not retryable", attempt)
		}
		// The handler's deferred bookkeeping (which forgets the record)
		// may still be running when the client has the error frame in
		// hand; wait for it so the next attempt races nothing. A real
		// retry's backoff dwarfs this window.
		deadline := time.Now().Add(5 * time.Second)
		for ts.srv.Counters().BytesOut == prevBytes {
			if time.Now().After(deadline) {
				t.Fatal("handler bookkeeping never finished")
			}
			time.Sleep(time.Millisecond)
		}
	}
	// Both attempts were refused afresh — neither was served back out
	// of the replay cache, and no execution record lingers for the ID.
	ctrs := ts.srv.Counters()
	if ctrs.Refused != 2 || ctrs.Replayed != 0 {
		t.Fatalf("refused=%d replayed=%d, want 2 fresh refusals", ctrs.Refused, ctrs.Replayed)
	}
	if n := ts.srv.ExecCount("", "r-1"); n != 0 {
		t.Fatalf("refused query left an execution record (%d)", n)
	}
}

// decodeRows drains one response body into sorted row keys.
func decodeRows(resp *http.Response) ([]string, error) {
	res, _, err := decodeFrames(resp)
	if err != nil {
		return nil, err
	}
	return rowKeys(res), nil
}

func TestServeSessionExpirySweepsCatalog(t *testing.T) {
	ts := startServer(t, serve.Config{}, nil)
	c := newClient(t, ts, func(cfg *client.Config) { cfg.Session = "ephemeral" })
	if _, err := c.Query(context.Background(), `SELECT p.id INTO scratch FROM parks p`); err != nil {
		t.Fatal(err)
	}
	if _, err := ts.db.Catalog().Dataset("scratch"); err != nil {
		t.Fatal("SELECT INTO did not materialize:", err)
	}
	// Idle past the horizon: the session and its objects go away. The
	// client can return once the trailer is flushed, before the server's
	// deferred finishQuery settles the query's replay record, and the
	// sweep rightly skips a session with a record in flight. So sweep
	// again until the record settles, within a bounded wait.
	expired := 0
	for deadline := time.Now().Add(5 * time.Second); expired == 0 && time.Now().Before(deadline); {
		if expired = ts.srv.ExpireIdle(time.Now().Add(2 * serve.DefaultSessionIdle)); expired == 0 {
			time.Sleep(time.Millisecond)
		}
	}
	if expired == 0 {
		t.Fatal("no session expired")
	}
	if _, err := ts.db.Catalog().Dataset("scratch"); err == nil {
		t.Fatal("expired session's dataset survived the sweep")
	}
}

func TestServeMetricsAndQueriesEndpoints(t *testing.T) {
	ts := startServer(t, serve.Config{}, nil)
	c := newClient(t, ts, nil)
	if _, err := c.Query(context.Background(), demoJoinSQL); err != nil {
		t.Fatal(err)
	}
	snap, err := c.Metrics(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if snap.Proto != serve.ProtoVersion || snap.Server.Completed < 1 || snap.Scheduler.Admitted < 1 {
		t.Fatalf("metrics snapshot incomplete: %+v", snap)
	}
	ds, joins, err := c.Catalog(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(ds) == 0 || len(joins) == 0 {
		t.Fatalf("catalog listing empty: %v %v", ds, joins)
	}
}

func TestServeProtocolVersionRefused(t *testing.T) {
	ts := startServer(t, serve.Config{}, nil)
	// "1" is the generation whose batch frames were row-wise records.
	for _, v := range []string{"1", "99"} {
		req, err := http.NewRequest(http.MethodPost, ts.base+"/v1/query", strings.NewReader("SELECT 1"))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set(serve.HeaderProto, v)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		_, _, decErr := decodeFrames(resp)
		resp.Body.Close()
		if decErr == nil {
			t.Fatalf("protocol %s must be refused", v)
		}
		if fudj.IsRetryable(decErr) {
			t.Fatalf("protocol %s mismatch must not be retryable", v)
		}
	}
}

// TestServeChaosConvergence is the headline chaos assertion: with
// accept-refusals, mid-response resets, corrupt bytes, and stalls all
// injected, the retrying client's results stay multiset-identical to
// in-process execution, and no idempotent resubmission ever
// double-executes.
func TestServeChaosConvergence(t *testing.T) {
	chaos := serve.ChaosConfig{
		Seed:             42,
		AcceptRefuseProb: 0.10,
		ResetProb:        0.03,
		CorruptProb:      0.03,
		StallProb:        0.05,
		Stall:            5 * time.Millisecond,
	}
	ts := startServer(t, serve.Config{}, &chaos)
	c := newClient(t, ts, func(cfg *client.Config) {
		cfg.MaxAttempts = 10
		cfg.AttemptTimeout = 5 * time.Second
	})

	want, err := ts.db.Execute(demoJoinSQL)
	if err != nil {
		t.Fatal(err)
	}
	wantKeys := rowKeys(want)

	const queries = 25
	totalAttempts := 0
	for i := 0; i < queries; i++ {
		res, err := c.Query(context.Background(), demoJoinSQL)
		if err != nil {
			t.Fatalf("query %d failed through chaos: %v", i, err)
		}
		if !sameMultiset(wantKeys, rowKeys(res.Result)) {
			t.Fatalf("query %d diverged under chaos", i)
		}
		totalAttempts += res.Attempts
	}
	// Idempotency invariant: whatever the retry count, nothing ran twice.
	for i := 1; i <= queries; i++ {
		if n := ts.srv.ExecCount("", fmt.Sprintf("t-%d", i)); n > 1 {
			t.Fatalf("query t-%d executed %d times", i, n)
		}
	}
	if totalAttempts <= queries {
		t.Fatalf("chaos injected no retries (%d attempts for %d queries); the suite proved nothing", totalAttempts, queries)
	}
	cs := ts.chaos.Stats()
	t.Logf("chaos: %d accepts, %d refused, %d resets, %d corrupts, %d stalls; %d attempts for %d queries",
		cs.Accepts, cs.Refused, cs.Resets, cs.Corrupts, cs.Stalls, totalAttempts, queries)
	if cs.Refused+cs.Resets+cs.Corrupts == 0 {
		t.Fatal("no faults were actually injected")
	}
}

// TestServeDrainUnderLoad: drain with work in flight. In-flight
// queries complete, new arrivals are refused with a retryable
// ShedError carrying the retry-after hint, /metrics stays reachable
// while draining, and no temp files survive.
func TestServeDrainUnderLoad(t *testing.T) {
	ts := startServer(t, serve.Config{RetryAfter: 123 * time.Millisecond}, nil)
	c := newClient(t, ts, func(cfg *client.Config) { cfg.MaxAttempts = 1 })

	// Open-loop submitters keep queries in flight.
	var wg sync.WaitGroup
	var mu sync.Mutex
	var completed, shed int
	stop := make(chan struct{})
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				_, err := c.Query(context.Background(), demoJoinSQL)
				mu.Lock()
				if err == nil {
					completed++
				} else {
					var sherr *serve.ShedError
					if errors.As(err, &sherr) {
						shed++
					}
				}
				mu.Unlock()
			}
		}()
	}

	// Wait until the storm is actually executing, then drain.
	deadline := time.Now().Add(5 * time.Second)
	for ts.srv.Counters().Completed < 2 {
		if time.Now().After(deadline) {
			t.Fatal("load never started")
		}
		time.Sleep(time.Millisecond)
	}
	drainCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	drainDone := make(chan error, 1)
	go func() { drainDone <- ts.srv.Drain(drainCtx) }()

	// While draining, /metrics stays reachable and reports it.
	for !ts.srv.Draining() {
		time.Sleep(time.Millisecond)
	}
	snap, err := c.Metrics(context.Background())
	if err != nil {
		t.Fatal("metrics unreachable during drain:", err)
	}
	if !snap.Draining {
		t.Fatal("metrics does not report draining")
	}

	// A fresh query during the drain is refused retryably, with hint.
	_, qerr := c.Query(context.Background(), demoJoinSQL)
	if qerr == nil {
		t.Fatal("draining server admitted a query")
	}
	var sherr *serve.ShedError
	if !errors.As(qerr, &sherr) {
		t.Fatalf("drain refusal decoded to %T (%v), want ShedError", qerr, qerr)
	}
	if !fudj.IsRetryable(qerr) {
		t.Fatal("drain refusal must be retryable at the network boundary")
	}
	if d, ok := serve.RetryAfter(qerr); !ok || d != 123*time.Millisecond {
		t.Fatalf("retry-after hint = %v, %v; want 123ms", d, ok)
	}

	if err := <-drainDone; err != nil {
		t.Fatal("drain:", err)
	}
	close(stop)
	wg.Wait()

	mu.Lock()
	t.Logf("drain under load: %d completed, %d shed", completed, shed)
	if completed == 0 {
		mu.Unlock()
		t.Fatal("no query completed before the drain")
	}
	mu.Unlock()

	// Scheduler invariants survived the storm; nothing leaked.
	stats := ts.db.SchedulerStats()
	if stats.LeaseBytes != 0 {
		t.Fatalf("leases leaked: %d bytes", stats.LeaseBytes)
	}
	if stats.Pool > 0 && stats.LeasePeak > stats.Pool {
		t.Fatalf("LeasePeak %d exceeded Pool %d", stats.LeasePeak, stats.Pool)
	}
	ctx, cancel2 := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel2()
	if err := ts.srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	assertTmpEmpty(t)
}

// TestServeClientCancellation: a canceled context surfaces
// context.Canceled, not a retry storm.
func TestServeClientCancellation(t *testing.T) {
	ts := startServer(t, serve.Config{}, nil)
	c := newClient(t, ts, func(cfg *client.Config) { cfg.MaxAttempts = 5 })
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := c.Query(ctx, demoJoinSQL)
	if err == nil {
		t.Fatal("canceled context must error")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled in chain", err)
	}
	if n := ts.srv.Counters().Queries; n > 1 {
		t.Fatalf("canceled query was retried %d times", n)
	}
}
