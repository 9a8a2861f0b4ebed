// Command fudjd is the FUDJ network daemon: it opens an engine
// database (optionally preloaded with the demo datasets and reference
// join libraries) and serves it over the versioned frame protocol.
//
//	fudjd -listen 127.0.0.1:7531
//	fudjsh -connect http://127.0.0.1:7531
//
// Endpoints: POST /v1/query (frame stream), POST /v1/cancel,
// GET /v1/queries (live view), GET /v1/catalog, GET /metrics,
// GET /v1/health (liveness), GET /v1/ready (readiness — 503 from the
// start of a drain).
//
// Every response carries the daemon's stable instance ID
// (X-Fudj-Instance), minted at startup (or fixed with -instance-id):
// idempotent replay records and session catalogs are scoped to one
// instance, and the header is how clients see that scope change. Run
// several fudjd instances and point `fudjsh -connect a,b,...` at them
// for client-side failover.
//
// On SIGTERM or SIGINT the daemon drains: new and queued queries are
// refused with retryable envelopes carrying a retry-after hint,
// in-flight queries run to completion (bounded by -drain-timeout), and
// /metrics stays reachable until the last query finishes; only then
// does the listener close. A second signal aborts immediately.
package main

import (
	"context"
	"flag"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"fudj/internal/serve"
	"fudj/internal/shell"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		listen       = flag.String("listen", "127.0.0.1:7531", "address to listen on")
		records      = flag.Int("records", 2000, "records per demo dataset")
		nodes        = flag.Int("nodes", 4, "simulated cluster nodes")
		cores        = flag.Int("cores", 2, "cores per node")
		noData       = flag.Bool("empty", false, "start with no demo datasets")
		maxConns     = flag.Int("max-conns", 256, "maximum concurrently served connections")
		maxQueryTime = flag.Duration("max-query-time", 5*time.Minute, "server-side ceiling on one query's execution time (0 = none)")
		sessionIdle  = flag.Duration("session-idle", serve.DefaultSessionIdle, "idle time before a session's catalog objects are swept")
		replayBytes  = flag.Int64("replay-bytes", serve.DefaultReplayBytes, "per-session byte budget for recorded replay responses")
		retryAfter   = flag.Duration("retry-after", 250*time.Millisecond, "retry-after hint attached to shed refusals")
		drainTimeout = flag.Duration("drain-timeout", 30*time.Second, "how long a drain waits for in-flight queries before cancelling them")
		instanceID   = flag.String("instance-id", "", "stable instance identity stamped on every response (default: random, minted at startup)")
	)
	flag.Parse()

	logger := log.New(os.Stderr, "fudjd: ", log.LstdFlags)
	db, err := shell.Setup(shell.Config{
		Nodes: *nodes, Cores: *cores, Records: *records, LoadDemo: !*noData,
	})
	if err != nil {
		logger.Println(err)
		return 1
	}
	srv, err := serve.New(serve.Config{
		DB:           db,
		MaxConns:     *maxConns,
		MaxQueryTime: *maxQueryTime,
		SessionIdle:  *sessionIdle,
		ReplayBytes:  *replayBytes,
		RetryAfter:   *retryAfter,
		InstanceID:   *instanceID,
		ErrorLog:     logger,
	})
	if err != nil {
		logger.Println(err)
		return 1
	}
	lis, err := net.Listen("tcp", *listen)
	if err != nil {
		logger.Println(err)
		return 1
	}
	logger.Printf("serving on http://%s (protocol v%d, instance %s)", lis.Addr(), serve.ProtoVersion, srv.InstanceID())

	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(lis) }()

	sigc := make(chan os.Signal, 2)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-serveErr:
		logger.Println("serve:", err)
		return 1
	case sig := <-sigc:
		logger.Printf("%s: draining (in-flight queries finish, new work refused)", sig)
	}

	// A second signal during the drain aborts immediately.
	drainCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	go func() {
		<-sigc
		logger.Println("second signal: aborting drain")
		cancel()
	}()
	if err := srv.Drain(drainCtx); err != nil {
		logger.Println("drain:", err)
	}
	shCtx, shCancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer shCancel()
	if err := srv.Shutdown(shCtx); err != nil {
		logger.Println("shutdown:", err)
		return 1
	}
	if err := <-serveErr; err != nil && err != http.ErrServerClosed {
		logger.Println("serve:", err)
		return 1
	}
	logger.Println("drained cleanly")
	return 0
}
