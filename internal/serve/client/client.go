// Package client is the retrying fudj network client. It speaks the
// internal/serve frame protocol against a fudjd server and restores
// the in-process programming model on the far side of the socket:
// queries return *engine.Result, failures decode to the same concrete
// error taxonomy, and fudj.IsRetryable classifies them identically.
//
// Robustness contract:
//
//   - Deadline propagation: each attempt forwards the context's
//     remaining budget in X-Fudj-Deadline-Ms, so the server derives its
//     query context from the client's deadline rather than guessing.
//   - Retry: retryable failures (transport faults, corrupt frames,
//     admission sheds, barrier losses) are retried with jittered
//     exponential backoff; a server-supplied retry-after hint is
//     honored as the floor of the wait. Non-retryable errors
//     (timeouts, resource overruns, UDF panics, parse errors) are
//     returned on the first attempt, never retried.
//   - Idempotency: every logical query carries a client-chosen query
//     ID; all attempts reuse it, so a retry whose original response
//     was lost replays the server's recorded response instead of
//     executing the statement twice.
//   - Cancellation: when the caller's context is canceled mid-query
//     the client aborts the attempt, sends a best-effort /v1/cancel so
//     the server-side execution stops too, and surfaces an error
//     wrapping context.Canceled.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"time"

	"fudj/internal/cluster"
	"fudj/internal/engine"
	"fudj/internal/sched"
	"fudj/internal/serve"
	"fudj/internal/types"
)

// Config shapes one Client.
type Config struct {
	// BaseURL locates the server, e.g. "http://127.0.0.1:7531".
	// Required.
	BaseURL string
	// Session names the server-side session. Empty selects "default".
	Session string
	// QueryPrefix namespaces this client's idempotency keys inside the
	// session. Two concurrent clients sharing a session MUST use
	// distinct prefixes or their replay records collide. Empty selects
	// "q<Seed>".
	QueryPrefix string
	// MaxAttempts bounds tries per query (first attempt included).
	// <=0 selects 4. 1 disables retry.
	MaxAttempts int
	// BackoffBase seeds the exponential backoff. <=0 selects 50ms.
	BackoffBase time.Duration
	// BackoffMax caps one backoff wait. <=0 selects 2s.
	BackoffMax time.Duration
	// AttemptTimeout bounds a single attempt end-to-end, so a stalled
	// connection turns into a retryable transport error instead of a
	// hang. 0 means the caller's context is the only bound.
	AttemptTimeout time.Duration
	// Seed feeds the backoff jitter PRNG (deterministic tests).
	// 0 selects 1.
	Seed int64
	// HTTPClient overrides the transport (tests inject a chaos one).
	HTTPClient *http.Client
}

// Result is one successful query's outcome.
type Result struct {
	*engine.Result
	// TraceLines is the server-rendered span tree (WithTrace only).
	TraceLines []string
	// Attempts is how many tries this query took.
	Attempts int
	// Replayed reports that the server answered from its idempotent
	// replay cache (an earlier attempt's recorded response) rather
	// than a fresh execution.
	Replayed bool
	// Instance is the serving instance's stable ID (HeaderInstance) —
	// the scope of this query's idempotency key and session state.
	Instance string
	// Endpoint is the base URL that answered (pool queries only; a
	// single-endpoint client leaves it empty).
	Endpoint string
}

// QueryOption tweaks one Query call.
type QueryOption func(*queryOpts)

type queryOpts struct {
	priority sched.Priority
	hasPrio  bool
	traced   bool
}

// WithPriority sets the admission priority for this query.
func WithPriority(p sched.Priority) QueryOption {
	return func(o *queryOpts) { o.priority = p; o.hasPrio = true }
}

// WithTrace asks the server to render the execution span tree into the
// result's TraceLines.
func WithTrace() QueryOption {
	return func(o *queryOpts) { o.traced = true }
}

// Client is a retrying connection to one fudjd server. Safe for
// concurrent use.
type Client struct {
	cfg  Config
	base string
	hc   *http.Client

	mu     sync.Mutex
	rng    *rand.Rand
	nextID int64
}

// New builds a client. It does not dial; the first Query does.
func New(cfg Config) (*Client, error) {
	if cfg.BaseURL == "" {
		return nil, errors.New("client: Config.BaseURL is required")
	}
	u, err := url.Parse(cfg.BaseURL)
	if err != nil || (u.Scheme != "http" && u.Scheme != "https") {
		return nil, fmt.Errorf("client: bad BaseURL %q", cfg.BaseURL)
	}
	if cfg.MaxAttempts <= 0 {
		cfg.MaxAttempts = 4
	}
	if cfg.BackoffBase <= 0 {
		cfg.BackoffBase = 50 * time.Millisecond
	}
	if cfg.BackoffMax <= 0 {
		cfg.BackoffMax = 2 * time.Second
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.QueryPrefix == "" {
		cfg.QueryPrefix = "q" + strconv.FormatInt(cfg.Seed, 10)
	}
	hc := cfg.HTTPClient
	if hc == nil {
		hc = &http.Client{}
	}
	return &Client{
		cfg:  cfg,
		base: strings.TrimRight(cfg.BaseURL, "/"),
		hc:   hc,
		rng:  rand.New(rand.NewSource(cfg.Seed)),
	}, nil
}

// Close releases idle connections.
func (c *Client) Close() { c.hc.CloseIdleConnections() }

// Query executes one statement, retrying retryable failures until ctx
// or the attempt budget runs out. The returned error decodes to the
// same concrete taxonomy type the in-process engine would return.
func (c *Client) Query(ctx context.Context, sql string, opts ...QueryOption) (*Result, error) {
	var qo queryOpts
	for _, o := range opts {
		o(&qo)
	}
	c.mu.Lock()
	c.nextID++
	queryID := fmt.Sprintf("%s-%d", c.cfg.QueryPrefix, c.nextID)
	c.mu.Unlock()

	var lastErr error
	for attempt := 1; ; attempt++ {
		res, err := c.attempt(ctx, sql, queryID, "", qo)
		if err == nil {
			res.Attempts = attempt
			return res, nil
		}
		lastErr = err

		// The caller gave up: stop the server-side execution too, and
		// surface the cancellation rather than the attempt's wreckage.
		// The attempt error is deliberately flattened to text — wrapping
		// a retryable transport error here would reclassify the caller's
		// own cancellation as retryable.
		if ctx.Err() != nil {
			c.cancelRemote(queryID)
			return nil, fmt.Errorf("client: query %s: %w (last attempt: %s)", queryID, ctx.Err(), err.Error())
		}
		if !cluster.IsRetryable(err) || attempt >= c.cfg.MaxAttempts {
			return nil, err
		}
		if err := c.backoff(ctx, attempt, err); err != nil {
			c.cancelRemote(queryID)
			return nil, fmt.Errorf("client: query %s: %w (last attempt: %s)", queryID, ctx.Err(), lastErr.Error())
		}
	}
}

// backoff sleeps the wait backoffWait computes for `attempt`. Returns
// ctx's error if the context dies first.
func (c *Client) backoff(ctx context.Context, attempt int, err error) error {
	t := time.NewTimer(c.backoffWait(attempt, err))
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// backoffWait computes the wait before retrying `attempt`. Without a
// server hint it is jittered exponential backoff on [d/2, d] where d
// is the capped exponential for this attempt. A server retry-after
// hint riding on err is the *exact minimum* whenever present: the wait
// is hint plus jitter on [0, d/2] — never below the hint (the server
// knows when it will take work again; sleeping less just buys another
// refusal) and never stripped of jitter (a fleet of clients all
// sleeping exactly the hint would resubmit in lockstep).
func (c *Client) backoffWait(attempt int, err error) time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return backoffWaitLocked(c.rng, c.cfg.BackoffBase, c.cfg.BackoffMax, attempt, err)
}

// backoffWaitLocked is the shared wait computation for Client and Pool
// (each passes its own seeded rng, which the caller's lock guards).
func backoffWaitLocked(rng *rand.Rand, base, max time.Duration, attempt int, err error) time.Duration {
	d := max
	if attempt <= 32 {
		d = base << (attempt - 1)
		if d > max || d <= 0 {
			d = max
		}
	}
	jitter := time.Duration(rng.Int63n(int64(d/2) + 1))
	if hint, ok := serve.RetryAfter(err); ok {
		return hint + jitter
	}
	return d/2 + jitter
}

// attempt runs one try of one query. A non-empty expect ships
// HeaderExpectInstance, so a server that is not the named instance
// refuses before touching its replay cache (the pool's failover
// handshake).
func (c *Client) attempt(parent context.Context, sql, queryID, expect string, qo queryOpts) (*Result, error) {
	ctx := parent
	if c.cfg.AttemptTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(parent, c.cfg.AttemptTimeout)
		defer cancel()
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+"/v1/query", strings.NewReader(sql))
	if err != nil {
		return nil, &serve.TransportError{Op: "build request", Err: err}
	}
	req.Header.Set(serve.HeaderProto, strconv.Itoa(serve.ProtoVersion))
	if c.cfg.Session != "" {
		req.Header.Set(serve.HeaderSession, c.cfg.Session)
	}
	req.Header.Set(serve.HeaderQueryID, queryID)
	if expect != "" {
		req.Header.Set(serve.HeaderExpectInstance, expect)
	}
	// Deadline propagation: ship the remaining budget, not the
	// absolute instant, so client/server clock skew cannot distort it.
	if dl, ok := parent.Deadline(); ok {
		ms := time.Until(dl).Milliseconds()
		if ms < 1 {
			ms = 1
		}
		req.Header.Set(serve.HeaderDeadlineMs, strconv.FormatInt(ms, 10))
	}
	if qo.hasPrio {
		req.Header.Set(serve.HeaderPriority, qo.priority.String())
	}
	if qo.traced {
		req.Header.Set(serve.HeaderTrace, "1")
	}

	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, &serve.TransportError{Op: "send query", Err: err}
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 4<<10))
		return nil, &serve.TransportError{
			Op:  "send query",
			Err: fmt.Errorf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(body)),
		}
	}
	if v := resp.Header.Get(serve.HeaderProto); v != "" && v != strconv.Itoa(serve.ProtoVersion) {
		return nil, &serve.RemoteError{
			Code:    serve.CodeProto,
			Message: fmt.Sprintf("server speaks protocol %s, client %d", v, serve.ProtoVersion),
		}
	}
	res, err := decodeResponse(resp.Body)
	if err != nil {
		return nil, err
	}
	res.Instance = resp.Header.Get(serve.HeaderInstance)
	return res, nil
}

// Ready probes the server's /v1/ready readiness endpoint. It reports
// whether the server is accepting new queries and which instance
// answered; err is non-nil only when no well-formed answer came back
// at all (a draining server's 503 is a valid "not ready", not an
// error). The pool's circuit breaker half-open probe calls this.
func (c *Client) Ready(ctx context.Context) (ready bool, instance string, err error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/v1/ready", nil)
	if err != nil {
		return false, "", &serve.TransportError{Op: "build request", Err: err}
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return false, "", &serve.TransportError{Op: "get /v1/ready", Err: err}
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusServiceUnavailable {
		return false, "", &serve.TransportError{Op: "get /v1/ready", Err: fmt.Errorf("HTTP %d", resp.StatusCode)}
	}
	var out struct {
		Ready    bool   `json:"ready"`
		Instance string `json:"instance"`
	}
	body, err := io.ReadAll(io.LimitReader(resp.Body, 4<<10))
	if err != nil {
		return false, "", &serve.TransportError{Op: "get /v1/ready", Err: err}
	}
	if err := json.Unmarshal(body, &out); err != nil {
		return false, "", &serve.TransportError{Op: "decode /v1/ready", Err: err}
	}
	return out.Ready, out.Instance, nil
}

// decodeResponse consumes a frame stream into a Result, or the decoded
// query error.
func decodeResponse(r io.Reader) (*Result, error) {
	fr := serve.NewFrameReader(r)
	var (
		schema *types.Schema
		rows   []types.Record
	)
	scratch := types.NewBatch(0) // decode scratch shared by the response's batch frames
	for {
		typ, payload, err := fr.Next()
		if err != nil {
			if err == io.EOF || err == io.ErrUnexpectedEOF {
				// The stream ended before a trailer or error frame: the
				// connection died mid-response.
				return nil, &serve.TransportError{Op: "read response", Err: io.ErrUnexpectedEOF}
			}
			var corrupt *serve.CorruptFrameError
			if errors.As(err, &corrupt) {
				return nil, corrupt
			}
			return nil, &serve.TransportError{Op: "read response", Err: err}
		}
		switch typ {
		case serve.FrameSchema:
			schema, err = serve.DecodeSchemaFrame(payload)
			if err != nil {
				return nil, &serve.TransportError{Op: "decode schema", Err: err}
			}
		case serve.FrameBatch:
			recs, err := types.DecodeBatch(payload, scratch)
			if err != nil {
				return nil, &serve.TransportError{Op: "decode batch", Err: err}
			}
			rows = append(rows, recs...)
		case serve.FrameError:
			var env serve.Envelope
			if err := json.Unmarshal(payload, &env); err != nil {
				return nil, &serve.TransportError{Op: "decode error envelope", Err: err}
			}
			return nil, serve.DecodeError(env)
		case serve.FrameTrailer:
			t, err := serve.DecodeTrailerFrame(payload)
			if err != nil {
				return nil, &serve.TransportError{Op: "decode trailer", Err: err}
			}
			if schema == nil {
				return nil, &serve.TransportError{Op: "read response", Err: errors.New("trailer before schema")}
			}
			if t.Rows != len(rows) {
				return nil, &serve.CorruptFrameError{
					Type: serve.FrameTrailer, Length: len(payload),
					Reason: fmt.Sprintf("trailer row count %d != %d received", t.Rows, len(rows)),
				}
			}
			return &Result{
				Result: &engine.Result{
					Schema:  schema,
					Rows:    rows,
					Plan:    t.Plan,
					Elapsed: time.Duration(t.ElapsedNs),
					Join:    t.Join,
					Cluster: t.Cluster,
					Faults:  t.Faults,
					Memory:  t.Memory,
					Sched:   t.Sched,
					Metrics: t.Metrics,
				},
				TraceLines: t.Trace,
				Replayed:   t.Replayed,
			}, nil
		}
	}
}

// cancelRemote tells the server to cancel queryID's execution. Best
// effort with its own short budget; the caller is already on the way
// out.
func (c *Client) cancelRemote(queryID string) {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	sess := c.cfg.Session
	if sess == "" {
		sess = "default"
	}
	u := fmt.Sprintf("%s/v1/cancel?session=%s&query=%s", c.base, url.QueryEscape(sess), url.QueryEscape(queryID))
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, u, nil)
	if err != nil {
		return
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
}

// Metrics fetches the server's /metrics snapshot.
func (c *Client) Metrics(ctx context.Context) (serve.MetricsSnapshot, error) {
	var snap serve.MetricsSnapshot
	err := c.getJSON(ctx, "/metrics", &snap)
	return snap, err
}

// Catalog fetches the server's dataset and join listings.
func (c *Client) Catalog(ctx context.Context) (datasets, joins []string, err error) {
	var out struct {
		Datasets []string `json:"datasets"`
		Joins    []string `json:"joins"`
	}
	if err := c.getJSON(ctx, "/v1/catalog", &out); err != nil {
		return nil, nil, err
	}
	return out.Datasets, out.Joins, nil
}

func (c *Client) getJSON(ctx context.Context, path string, v any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+path, nil)
	if err != nil {
		return &serve.TransportError{Op: "build request", Err: err}
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return &serve.TransportError{Op: "get " + path, Err: err}
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return &serve.TransportError{Op: "get " + path, Err: fmt.Errorf("HTTP %d", resp.StatusCode)}
	}
	body, err := io.ReadAll(io.LimitReader(resp.Body, 4<<20))
	if err != nil {
		return &serve.TransportError{Op: "get " + path, Err: err}
	}
	if err := json.Unmarshal(body, v); err != nil {
		return &serve.TransportError{Op: "decode " + path, Err: err}
	}
	return nil
}
