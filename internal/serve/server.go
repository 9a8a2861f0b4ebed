// The fudjd HTTP daemon: query execution over the frame protocol,
// observability endpoints, per-connection limits, session expiry, and
// graceful drain. See protocol.go for the wire format and envelope.go
// for error fidelity.
package serve

import (
	"context"
	cryptorand "crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"fudj/internal/engine"
	"fudj/internal/sched"
	"fudj/internal/sqlparse"
	"fudj/internal/trace"
)

// Config shapes one Server.
type Config struct {
	// DB is the engine instance to serve. Required.
	DB *engine.Database
	// Clock supplies timestamps (tests inject a fake). Default wall.
	Clock trace.Clock
	// MaxConns caps concurrently served connections; excess accepts
	// block in the listener. <=0 selects 256.
	MaxConns int
	// ReadHeaderTimeout bounds header reads on each request (slowloris
	// protection). <=0 selects 5s.
	ReadHeaderTimeout time.Duration
	// IdleTimeout closes keep-alive connections after inactivity.
	// <=0 selects 60s.
	IdleTimeout time.Duration
	// MaxSQLBytes bounds one request's statement text. <=0 selects 1MiB.
	MaxSQLBytes int64
	// MaxQueryTime is the server-side ceiling on any query's execution
	// time, whatever deadline the client sent. <=0 means no ceiling.
	MaxQueryTime time.Duration
	// SessionIdle is the idle expiry for sessions. <=0 selects
	// DefaultSessionIdle.
	SessionIdle time.Duration
	// ReplayCap bounds per-session idempotent replay records. <=0
	// selects DefaultReplayCap.
	ReplayCap int
	// ReplayBytes bounds per-session recorded response bytes retained
	// for replay. <=0 selects DefaultReplayBytes.
	ReplayBytes int64
	// RetryAfter is the hint attached to shed refusals. <=0 selects
	// 250ms.
	RetryAfter time.Duration
	// InstanceID is the stable identity stamped on every response
	// (HeaderInstance). Replay records and session catalogs live and
	// die with one instance, so the ID tells clients which replay
	// scope they are talking to. Empty mints a random ID at startup —
	// exactly what a restart wants, since the restarted process shares
	// nothing with its predecessor. Tests set it for determinism.
	InstanceID string
	// ErrorLog receives http.Server internals; nil discards them (chaos
	// runs make the default stderr log very noisy).
	ErrorLog *log.Logger
}

// Counters is the server's own activity snapshot, published under
// "server" in /metrics.
type Counters struct {
	Queries   int64 `json:"queries"`   // query requests accepted
	Executed  int64 `json:"executed"`  // fresh executions started
	Replayed  int64 `json:"replayed"`  // responses served from the replay cache
	Completed int64 `json:"completed"` // executions that produced a result
	Failed    int64 `json:"failed"`    // executions that produced an error frame
	Refused   int64 `json:"refused"`   // requests refused while draining
	Canceled  int64 `json:"canceled"`  // queries canceled via /v1/cancel
	BytesOut  int64 `json:"bytes_out"` // response frame bytes written
}

// liveQuery is one in-flight query's row in the live view.
type liveQuery struct {
	id      int64
	session string
	queryID string
	sql     string
	prio    sched.Priority
	started time.Time
	cancel  context.CancelFunc
}

// Server serves one Database over the fudj wire protocol.
type Server struct {
	cfg      Config
	db       *engine.Database
	clock    trace.Clock
	sessions *sessions
	instance string
	mux      *http.ServeMux
	hs       *http.Server

	mu       sync.Mutex
	draining bool
	stopped  bool
	fresh    map[net.Conn]struct{}
	nextID   int64
	live     map[int64]*liveQuery
	counters Counters
	stopOnce sync.Once
	stopCh   chan struct{}
}

// New builds a server around cfg.DB.
func New(cfg Config) (*Server, error) {
	if cfg.DB == nil {
		return nil, errors.New("serve: Config.DB is required")
	}
	if cfg.Clock == nil {
		cfg.Clock = trace.WallClock{}
	}
	if cfg.MaxConns <= 0 {
		cfg.MaxConns = 256
	}
	if cfg.ReadHeaderTimeout <= 0 {
		cfg.ReadHeaderTimeout = 5 * time.Second
	}
	if cfg.IdleTimeout <= 0 {
		cfg.IdleTimeout = 60 * time.Second
	}
	if cfg.MaxSQLBytes <= 0 {
		cfg.MaxSQLBytes = 1 << 20
	}
	if cfg.RetryAfter <= 0 {
		cfg.RetryAfter = 250 * time.Millisecond
	}
	if cfg.InstanceID == "" {
		cfg.InstanceID = mintInstanceID()
	}
	s := &Server{
		cfg:      cfg,
		db:       cfg.DB,
		clock:    cfg.Clock,
		sessions: newSessions(cfg.SessionIdle, cfg.ReplayCap, cfg.ReplayBytes),
		instance: cfg.InstanceID,
		mux:      http.NewServeMux(),
		fresh:    make(map[net.Conn]struct{}),
		live:     make(map[int64]*liveQuery),
		stopCh:   make(chan struct{}),
	}
	s.mux.HandleFunc("/v1/query", s.handleQuery)
	s.mux.HandleFunc("/v1/cancel", s.handleCancel)
	s.mux.HandleFunc("/v1/queries", s.handleQueries)
	s.mux.HandleFunc("/v1/catalog", s.handleCatalog)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	s.mux.HandleFunc("/v1/health", s.handleHealth)
	s.mux.HandleFunc("/v1/ready", s.handleReady)
	errorLog := cfg.ErrorLog
	if errorLog == nil {
		errorLog = log.New(io.Discard, "", 0)
	}
	s.hs = &http.Server{
		Handler:           s.stampInstance(s.mux),
		ReadHeaderTimeout: cfg.ReadHeaderTimeout,
		IdleTimeout:       cfg.IdleTimeout,
		MaxHeaderBytes:    64 << 10,
		ErrorLog:          errorLog,
		ConnState:         s.trackConn,
	}
	return s, nil
}

// mintInstanceID draws a fresh 8-byte random identity. crypto/rand is
// deliberate (not the engine's seeded streams): the whole point is
// that two instances — including one process restarted in place —
// never collide, whatever seeds they were configured with.
func mintInstanceID() string {
	var b [8]byte
	if _, err := cryptorand.Read(b[:]); err != nil {
		// crypto/rand failing is a broken platform; a fixed fallback
		// still beats an empty ID (mismatch detection degrades, the
		// server itself keeps working).
		return "fudjd-0"
	}
	return "fudjd-" + hex.EncodeToString(b[:])
}

// InstanceID reports the stable identity this server stamps on every
// response.
func (s *Server) InstanceID() string { return s.instance }

// stampInstance wraps the mux so every response — query frames, JSON
// endpoints, even method-not-allowed errors — carries HeaderInstance.
func (s *Server) stampInstance(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set(HeaderInstance, s.instance)
		next.ServeHTTP(w, r)
	})
}

// trackConn watches connection state transitions so Shutdown can reap
// connections that never carried a request. Client transports dial
// spare keep-alive connections and park them unused; net/http's
// Shutdown gives such a StateNew connection a five-second grace before
// treating it as idle, so without this a daemon stop stalls on
// connections with nothing to lose.
func (s *Server) trackConn(c net.Conn, st http.ConnState) {
	switch st {
	case http.StateNew:
		s.mu.Lock()
		if s.stopped {
			s.mu.Unlock()
			c.Close()
			return
		}
		s.fresh[c] = struct{}{}
		s.mu.Unlock()
	case http.StateActive, http.StateIdle, http.StateHijacked, http.StateClosed:
		s.mu.Lock()
		delete(s.fresh, c)
		s.mu.Unlock()
	}
}

// Serve accepts connections on l (bounded by MaxConns) until Shutdown.
// It always returns a non-nil error, http.ErrServerClosed after a
// clean Shutdown — the same contract as http.Server.Serve.
//
//fudjvet:ignore ctxplumb -- mirrors http.Server.Serve: cancellation arrives via Shutdown/stopCh, not a ctx parameter
func (s *Server) Serve(l net.Listener) error {
	go s.janitor()
	return s.hs.Serve(&limitListener{Listener: l, sem: make(chan struct{}, s.cfg.MaxConns)})
}

// janitor periodically expires idle sessions until Shutdown.
func (s *Server) janitor() {
	interval := s.sessions.idle / 4
	if interval < time.Second {
		interval = time.Second
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-s.stopCh:
			return
		case <-t.C:
			s.ExpireIdle(s.clock.Now())
		}
	}
}

// ExpireIdle sweeps sessions idle at `now`: their SELECT INTO datasets
// and CREATE JOIN definitions are dropped from the shared catalog and
// their replay records released. Returns the number of sessions
// expired. The janitor calls this on a timer; tests call it directly
// with a future instant.
func (s *Server) ExpireIdle(now time.Time) int {
	expired := s.sessions.expired(now)
	for _, sess := range expired {
		for _, name := range sess.datasets {
			// Best effort: the dataset may have been dropped or renamed
			// by a later statement.
			_ = s.db.Catalog().DropDataset(name)
		}
		for _, name := range sess.joins {
			_ = s.db.Catalog().DropJoin(name)
		}
	}
	return len(expired)
}

// Draining reports whether Drain has begun.
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// Drain gracefully stops query admission: new /v1/query requests are
// refused with a retryable envelope carrying the retry-after hint,
// queued queries are shed the same way, and in-flight queries run to
// completion (past ctx's deadline they are cancelled instead). The
// observability endpoints stay reachable throughout — call Shutdown
// after Drain returns to close the listener. Returns nil on a clean
// drain, or ctx's error when queries had to be cancelled.
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
	return s.db.Drain(ctx)
}

// Shutdown closes the listener and waits for active requests, then
// stops the session janitor. Connections that never carried a request
// (a client pool's unused spares) are closed immediately rather than
// waiting out net/http's grace period for them.
func (s *Server) Shutdown(ctx context.Context) error {
	s.stopOnce.Do(func() { close(s.stopCh) })
	s.mu.Lock()
	s.stopped = true
	for c := range s.fresh {
		c.Close()
	}
	s.fresh = make(map[net.Conn]struct{})
	s.mu.Unlock()
	return s.hs.Shutdown(ctx)
}

// Counters returns the server activity snapshot.
func (s *Server) Counters() Counters {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.counters
}

// ExecCount reports how many times the given idempotency key actually
// executed (0 = unknown session or key) — the invariant the chaos
// suite asserts stays at 1 however many times the client retried. A
// pure read: it never creates a session or refreshes its idle stamp.
func (s *Server) ExecCount(session, queryID string) int {
	return s.sessions.execCount(session, queryID)
}

// ExecCounts reports every tracked query ID's execution count under a
// session — the HA chaos suite's per-(instance, query-id) invariant
// sweep. A pure read like ExecCount.
func (s *Server) ExecCounts(session string) map[string]int {
	return s.sessions.execCounts(session)
}

// registerLive adds an in-flight query to the live view.
func (s *Server) registerLive(sessID, queryID, sql string, prio sched.Priority, cancel context.CancelFunc) int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.nextID++
	id := s.nextID
	s.live[id] = &liveQuery{
		id: id, session: sessID, queryID: queryID, sql: sql,
		prio: prio, started: s.clock.Now(), cancel: cancel,
	}
	return id
}

func (s *Server) unregisterLive(id int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.live, id)
}

func (s *Server) count(f func(*Counters)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	f(&s.counters)
}

// frameSink accumulates the full response stream for the replay cache
// while forwarding frames to the client as long as the connection
// lives. A client write failure stops forwarding but never recording:
// the finished record is what makes the lost response retryable.
type frameSink struct {
	buf      []byte
	w        http.ResponseWriter
	flush    func()
	clientOK bool
}

func newFrameSink(w http.ResponseWriter) *frameSink {
	fs := &frameSink{w: w, clientOK: true, flush: func() {}}
	if f, ok := w.(http.Flusher); ok {
		fs.flush = f.Flush
	}
	return fs
}

// emit records one or more concatenated frames and forwards them.
func (fs *frameSink) emit(frames []byte) {
	if len(frames) == 0 {
		return
	}
	fs.buf = append(fs.buf, frames...)
	if fs.clientOK {
		if _, err := fs.w.Write(frames); err != nil {
			fs.clientOK = false
			return
		}
		fs.flush()
	}
}

// handleQuery is POST /v1/query: the whole query lifecycle.
func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST required", http.StatusMethodNotAllowed)
		return
	}
	w.Header().Set(HeaderProto, strconv.Itoa(ProtoVersion))
	w.Header().Set("Content-Type", "application/x-fudj-frames")

	writeErr := func(env Envelope) {
		w.Write(EncodeErrorFrame(env))
	}
	if v := r.Header.Get(HeaderProto); v != "" && v != strconv.Itoa(ProtoVersion) {
		writeErr(Envelope{
			Code:      CodeProto,
			Message:   fmt.Sprintf("protocol version %s not supported (server speaks %d)", v, ProtoVersion),
			Retryable: false,
		})
		return
	}
	// Instance check, before any session or replay-cache state is
	// touched: a client that expected a different instance is carrying
	// idempotency keys and session DDL that mean nothing here. The
	// refusal is retryable — the client re-keys, replays its session
	// journal, and resubmits.
	if want := r.Header.Get(HeaderExpectInstance); want != "" && want != s.instance {
		writeErr(EncodeError(&InstanceMismatchError{Want: want, Got: s.instance}, 0))
		return
	}
	body, err := io.ReadAll(io.LimitReader(r.Body, s.cfg.MaxSQLBytes+1))
	if err != nil {
		writeErr(Envelope{Code: CodeProto, Message: "read request: " + err.Error(), Retryable: true})
		return
	}
	if int64(len(body)) > s.cfg.MaxSQLBytes {
		writeErr(Envelope{Code: CodeProto, Message: "statement exceeds size limit", Retryable: false})
		return
	}
	sql := strings.TrimSpace(string(body))

	now := s.clock.Now()
	sessID := r.Header.Get(HeaderSession)
	sess := s.sessions.touch(sessID, now)
	queryID := r.Header.Get(HeaderQueryID)
	s.count(func(c *Counters) { c.Queries++ })

	rec, first := s.sessions.beginQuery(sess, queryID)
	if !first {
		// Idempotent resubmission: the query already ran (or is still
		// running). Wait for its recorded response and replay it — the
		// retry must never execute the statement a second time. The
		// trailer is rewritten with Replayed=true so the client can see
		// it got recorded bytes, not a fresh execution.
		select {
		case <-rec.done:
		case <-r.Context().Done():
			return
		}
		frames := MarkReplayed(rec.frames)
		s.count(func(c *Counters) { c.Replayed++; c.BytesOut += int64(len(frames)) })
		w.Write(frames)
		return
	}

	sink := newFrameSink(w)
	// Only settled outcomes belong in the replay cache: a success or a
	// non-retryable error. Recording a *retryable* failure (a drain
	// shed, a barrier loss) would hand every retry of this query ID the
	// same cached failure back, so the query could never succeed against
	// this server — the record is forgotten instead, and the retry
	// re-executes. Replayers already waiting on the record still get
	// the (retryable) error frames and retry afresh.
	retryableFailure := false
	emitError := func(env Envelope) {
		retryableFailure = env.Retryable
		sink.emit(EncodeErrorFrame(env))
	}
	defer func() {
		if retryableFailure {
			s.sessions.forget(sess, queryID, rec)
		}
		s.sessions.finishQuery(sess, queryID, rec, sink.buf)
		s.count(func(c *Counters) { c.BytesOut += int64(len(sink.buf)) })
	}()

	// Drain refusal: retryable at the network boundary, with the
	// server's retry-after hint (clients back off and resubmit against
	// a restarted server or a failover target).
	if s.Draining() {
		s.count(func(c *Counters) { c.Refused++ })
		refusal := &sched.AdmissionError{Reason: sched.ReasonDraining}
		emitError(EncodeError(refusal, s.cfg.RetryAfter))
		return
	}

	stmt, err := sqlparse.Parse(sql)
	if err != nil {
		env := EncodeError(err, 0)
		env.Code = CodeParse
		env.Retryable = false
		emitError(env)
		return
	}

	// Build the execution options: client deadline budget (capped by
	// the server ceiling), priority, tracing.
	var opts []engine.ExecOption
	timeout := s.cfg.MaxQueryTime
	if v := r.Header.Get(HeaderDeadlineMs); v != "" {
		ms, err := strconv.ParseInt(v, 10, 64)
		if err != nil || ms <= 0 {
			emitError(Envelope{
				Code: CodeProto, Message: fmt.Sprintf("bad %s header %q", HeaderDeadlineMs, v),
			})
			return
		}
		d := time.Duration(ms) * time.Millisecond
		if timeout <= 0 || d < timeout {
			timeout = d
		}
	}
	if timeout > 0 {
		opts = append(opts, engine.Timeout(timeout))
	}
	prio := sched.PriorityNormal
	switch strings.ToLower(r.Header.Get(HeaderPriority)) {
	case "", "normal":
	case "low":
		prio = sched.PriorityLow
	case "high":
		prio = sched.PriorityHigh
	default:
		emitError(Envelope{
			Code: CodeProto, Message: fmt.Sprintf("bad %s header %q", HeaderPriority, r.Header.Get(HeaderPriority)),
		})
		return
	}
	opts = append(opts, engine.Priority(prio))
	traced := r.Header.Get(HeaderTrace) == "1"
	if traced {
		opts = append(opts, engine.Trace())
	}

	// Execution context. With an idempotency key the query is decoupled
	// from the connection: a client that vanishes mid-response does not
	// abort the execution, so the recorded result is there for the
	// retry to replay (cancellation goes through /v1/cancel instead).
	// Without a key, the connection is the query's lifetime.
	parent := context.Background()
	if queryID == "" {
		parent = r.Context()
	}
	runCtx, cancel := context.WithCancel(parent)
	defer cancel()
	liveID := s.registerLive(sess.id, queryID, sql, prio, cancel)
	defer s.unregisterLive(liveID)
	s.count(func(c *Counters) { c.Executed++ })
	s.sessions.mu.Lock()
	rec.execs++
	s.sessions.mu.Unlock()

	res, err := s.db.ExecuteStmtContext(runCtx, stmt, opts...)
	if err != nil {
		s.count(func(c *Counters) { c.Failed++ })
		emitError(EncodeError(err, s.cfg.RetryAfter))
		return
	}
	s.count(func(c *Counters) { c.Completed++ })

	// Session-scoped catalog tracking: objects this statement created
	// belong to the session and are swept at expiry.
	switch st := stmt.(type) {
	case *sqlparse.Select:
		if st.Into != "" {
			s.sessions.trackDataset(sess, st.Into)
		}
	case *sqlparse.CreateJoin:
		s.sessions.trackJoin(sess, st.Name)
	case *sqlparse.DropJoin:
		s.sessions.untrackJoin(st.Name)
	}

	sink.emit(EncodeSchemaFrame(res.Schema))
	sink.emit(EncodeBatchFrames(res.Rows))
	trailer := Trailer{
		Rows:      len(res.Rows),
		ElapsedNs: int64(res.Elapsed),
		Plan:      res.Plan,
		Join:      res.Join,
		Cluster:   res.Cluster,
		Faults:    res.Faults,
		Memory:    res.Memory,
		Sched:     res.Sched,
		Metrics:   res.Metrics,
	}
	if traced && res.Trace != nil {
		trailer.Trace = trace.RenderLines(res.Trace, trace.RenderOptions{CollapseTasks: true})
	}
	sink.emit(EncodeTrailerFrame(trailer))
}

// handleCancel is POST /v1/cancel?session=S&query=Q: cancels the
// matching in-flight query's context. Idempotent; 404 when nothing
// matches (already finished, or never arrived).
func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST required", http.StatusMethodNotAllowed)
		return
	}
	sessID := r.URL.Query().Get("session")
	if sessID == "" {
		sessID = "default"
	}
	queryID := r.URL.Query().Get("query")
	var cancel context.CancelFunc
	s.mu.Lock()
	for _, lq := range s.live {
		if lq.session == sessID && lq.queryID != "" && lq.queryID == queryID {
			cancel = lq.cancel
			break
		}
	}
	if cancel != nil {
		s.counters.Canceled++
	}
	s.mu.Unlock()
	if cancel == nil {
		http.Error(w, "no matching in-flight query", http.StatusNotFound)
		return
	}
	cancel()
	w.WriteHeader(http.StatusOK)
	io.WriteString(w, "canceled\n")
}

// queryRow is one /v1/queries row.
type queryRow struct {
	ID        int64  `json:"id"`
	Session   string `json:"session"`
	QueryID   string `json:"query_id,omitempty"`
	SQL       string `json:"sql"`
	Priority  string `json:"priority"`
	ElapsedMs int64  `json:"elapsed_ms"`
}

// handleQueries is GET /v1/queries: the live in-flight view.
func (s *Server) handleQueries(w http.ResponseWriter, r *http.Request) {
	now := s.clock.Now()
	s.mu.Lock()
	rows := make([]queryRow, 0, len(s.live))
	for _, lq := range s.live {
		sql := lq.sql
		if len(sql) > 200 {
			sql = sql[:200] + "..."
		}
		rows = append(rows, queryRow{
			ID: lq.id, Session: lq.session, QueryID: lq.queryID, SQL: sql,
			Priority: lq.prio.String(), ElapsedMs: now.Sub(lq.started).Milliseconds(),
		})
	}
	s.mu.Unlock()
	sort.Slice(rows, func(i, j int) bool { return rows[i].ID < rows[j].ID })
	writeJSON(w, map[string]any{"queries": rows})
}

// MetricsSnapshot is the /metrics payload.
type MetricsSnapshot struct {
	Proto     int         `json:"proto"`
	Instance  string      `json:"instance"`
	Draining  bool        `json:"draining"`
	Sessions  int         `json:"sessions"`
	Live      int         `json:"live_queries"`
	Server    Counters    `json:"server"`
	Replay    ReplayStats `json:"replay"`
	Scheduler sched.Stats `json:"scheduler"`
}

// handleMetrics is GET /metrics: scheduler + server counters in one
// JSON snapshot. It stays reachable through a drain, until Shutdown.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	snap := MetricsSnapshot{
		Proto:    ProtoVersion,
		Instance: s.instance,
		Draining: s.draining,
		Live:     len(s.live),
		Server:   s.counters,
	}
	s.mu.Unlock()
	snap.Sessions = s.sessions.count()
	snap.Replay = s.sessions.replayStats()
	snap.Scheduler = s.db.SchedulerStats()
	writeJSON(w, snap)
}

// handleCatalog is GET /v1/catalog: dataset and join listings for
// remote shells.
func (s *Server) handleCatalog(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, map[string][]string{
		"datasets": s.db.Catalog().Datasets(),
		"joins":    s.db.Catalog().Joins(),
	})
}

// handleHealth is GET /v1/health: pure liveness. It answers 200 as
// long as the process can serve HTTP at all — through drain, until
// Shutdown closes the listener. "Alive but not ready" is exactly the
// drain window, and conflating the two is how balancers kill
// instances that are finishing in-flight work.
func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, map[string]any{"ok": true, "instance": s.instance})
}

// handleReady is GET /v1/ready: readiness for new queries. It flips to
// 503 the moment Drain begins — before the listener closes — so
// balancers and failover clients stop routing here while in-flight
// work finishes. A half-open circuit breaker probes this endpoint: a
// 200 means the instance (possibly a restarted successor) is taking
// queries again.
func (s *Server) handleReady(w http.ResponseWriter, r *http.Request) {
	draining := s.Draining()
	w.Header().Set("Content-Type", "application/json")
	if draining {
		w.WriteHeader(http.StatusServiceUnavailable)
	}
	writeJSON(w, map[string]any{"ready": !draining, "draining": draining, "instance": s.instance})
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// limitListener bounds concurrently served connections with a
// semaphore (the stdlib-only analogue of x/net/netutil.LimitListener).
type limitListener struct {
	net.Listener
	sem chan struct{}
}

type limitConn struct {
	net.Conn
	release func()
}

func (l *limitListener) Accept() (net.Conn, error) {
	l.sem <- struct{}{}
	c, err := l.Listener.Accept()
	if err != nil {
		<-l.sem
		return nil, err
	}
	var once sync.Once
	return &limitConn{Conn: c, release: func() { once.Do(func() { <-l.sem }) }}, nil
}

func (c *limitConn) Close() error {
	defer c.release()
	return c.Conn.Close()
}
