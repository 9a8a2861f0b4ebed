package fudj

import (
	"time"

	"fudj/internal/cluster"
	"fudj/internal/core"
	"fudj/internal/engine"
	"fudj/internal/sched"
	"fudj/internal/trace"
)

// DB is a database instance: catalog, optimizer, and the simulated
// shared-nothing cluster queries execute on.
type DB = engine.Database

// Option configures a DB. Options are applied in order; the first
// error aborts. Pass them to Open, or to DB.Configure to reconfigure a
// live database between queries (open-only options — the admission
// scheduler, clock, and always-on tracing — are rejected there).
type Option = engine.Option

// ClusterConfig sizes the simulated cluster (nodes × cores per node).
type ClusterConfig = cluster.Config

// Result is the outcome of one executed statement. Counters are
// grouped: Result.Join (operator counters), Result.Cluster (data
// movement and makespan), Result.Faults (injected-fault recovery),
// Result.Memory (budget accounting), and Result.Trace (the span tree
// when tracing was enabled).
type Result = engine.Result

// JoinStats carries operator-level counters for one execution.
type JoinStats = engine.JoinStats

// ClusterStats carries data-movement and makespan counters.
type ClusterStats = engine.ClusterStats

// FaultStats counts fault-injection recoveries.
type FaultStats = engine.FaultStats

// MemoryStats reports memory-budget accounting.
type MemoryStats = engine.MemoryStats

// SchedStats reports one query's admission outcome: time spent in the
// admission queue, the memory lease it ran under, and its priority.
type SchedStats = engine.SchedStats

// SchedulerStats snapshots the whole admission controller (running,
// waiting, totals, lease high-water mark); read it with
// DB.SchedulerStats.
type SchedulerStats = sched.Stats

// Span is one node of an execution trace; Result.Trace is the root.
type Span = trace.Span

// Clock supplies timestamps to the engine; inject a fake for
// deterministic tests via WithClock.
type Clock = trace.Clock

// ExecOption adjusts a single Execute/ExecuteContext call.
type ExecOption = engine.ExecOption

// JoinMode selects how FUDJ predicates execute.
type JoinMode = engine.JoinMode

// Join execution modes.
const (
	// ModeFUDJ generates the FUDJ distributed plan (default).
	ModeFUDJ = engine.ModeFUDJ
	// ModeBuiltin routes FUDJ predicates to hand-built operators
	// registered with DB.RegisterBuiltinJoin.
	ModeBuiltin = engine.ModeBuiltin
)

// BuiltinJoinFunc is the signature of a hand-built distributed join
// operator, the paper's "built-in" comparison arm.
type BuiltinJoinFunc = engine.BuiltinJoinFunc

// FaultConfig describes faults to inject into query executions
// (deterministic and seedable); arm it with WithFaults.
type FaultConfig = cluster.FaultConfig

// RetryPolicy governs task retry, backoff, and straggler speculation;
// override the default with WithRetryPolicy.
type RetryPolicy = cluster.RetryPolicy

// Barrier names a durable phase boundary in the FUDJ pipeline:
// BarrierPlan (after SUMMARIZE broadcasts the plan) or BarrierShuffle
// (after PARTITION delivers every record). Target one with
// FaultConfig.BarrierKills. A query whose faults can kill at a barrier
// checkpoints both barriers and recovers the lost node's partitions in
// place; no option turns this on or off.
type Barrier = cluster.Barrier

// Durable phase barriers.
const (
	BarrierPlan    = cluster.BarrierPlan
	BarrierShuffle = cluster.BarrierShuffle
)

// BarrierKill targets a kill-at-barrier fault at one node.
type BarrierKill = cluster.BarrierKill

// FaultError is an injected infrastructure failure (retryable).
type FaultError = cluster.FaultError

// PartitionError tags a task failure with its partition id.
type PartitionError = cluster.PartitionError

// ResourceError reports a query that cannot run within its memory
// budget even after spilling (a single record exceeded the hard cap).
// It is deterministic, so the retry machinery does not re-run it.
type ResourceError = core.ResourceError

// AdmissionError reports a query shed by the admission controller
// instead of executed (queue full, memory pool exhausted, or the DB
// draining). Shedding under load is transient, so the error is
// retryable except when the DB is draining; check the Reason field.
type AdmissionError = sched.AdmissionError

// TimeoutError reports a query aborted by WithQueryTimeout; it wraps
// context.DeadlineExceeded and is not retryable.
type TimeoutError = engine.TimeoutError

// AdmissionReason classifies why the admission controller shed a query.
type AdmissionReason = sched.Reason

// Admission shed reasons (AdmissionError.Reason).
const (
	ReasonQueueFull     = sched.ReasonQueueFull
	ReasonPoolExhausted = sched.ReasonPoolExhausted
	ReasonDraining      = sched.ReasonDraining
	ReasonCanceled      = sched.ReasonCanceled
)

// Priority ranks a query for admission under concurrent load.
type Priority = sched.Priority

// Admission priorities: higher classes get a proportionally larger
// share of admission slots under contention (weighted round-robin
// 4:2:1), never exclusive access.
const (
	PriorityLow    = sched.PriorityLow
	PriorityNormal = sched.PriorityNormal
	PriorityHigh   = sched.PriorityHigh
)

// IsRetryable reports whether an error is transient: re-running the
// same query could succeed. Injected faults, barrier losses, and
// load-shed admissions are retryable; planner errors, timeouts,
// resource errors, and drain refusals are not.
func IsRetryable(err error) bool { return cluster.IsRetryable(err) }

// Open creates a database. With no options it simulates a 4-node ×
// 2-core cluster. Example:
//
//	db, err := fudj.Open(fudj.WithCluster(8, 4), fudj.WithTracing())
func Open(opts ...Option) (*DB, error) { return engine.Open(opts...) }

// MustOpen is Open that panics on error.
func MustOpen(opts ...Option) *DB { return engine.MustOpen(opts...) }

// WithCluster sizes the simulated cluster (nodes × cores per node).
func WithCluster(nodes, coresPerNode int) Option {
	return engine.WithCluster(nodes, coresPerNode)
}

// WithClusterConfig applies a full cluster configuration.
func WithClusterConfig(cfg ClusterConfig) Option { return engine.WithClusterConfig(cfg) }

// WithJoinMode selects how FUDJ predicates execute.
func WithJoinMode(m JoinMode) Option { return engine.WithJoinMode(m) }

// WithSmartTheta toggles the optimizer's theta-join rewrite.
func WithSmartTheta(on bool) Option { return engine.WithSmartTheta(on) }

// WithMemoryBudget caps per-query memory; queries spill past it.
// Zero means unbounded.
func WithMemoryBudget(bytes int64) Option { return engine.WithMemoryBudget(bytes) }

// WithBatchSize caps the rows per columnar frame on the execution hot
// path (shuffle, spill, checkpoints). The default (n <= 0) is 1024
// rows; WithBatchSize(1) selects record-at-a-time framing, the
// pre-batching baseline. Batch counters come back on Result.Join
// (Batches, BatchRows, RowsPerBatch(), PoolReuse()).
func WithBatchSize(n int) Option { return engine.WithBatchSize(n) }

// WithFaults arms deterministic fault injection; nil disables it.
// Arming a barrier kill (BarrierKills or BarrierKillProb) also arms
// checkpointed barrier recovery for each query.
func WithFaults(cfg *FaultConfig) Option { return engine.WithFaults(cfg) }

// WithRetryPolicy overrides task retry, backoff, and speculation.
func WithRetryPolicy(pol RetryPolicy) Option { return engine.WithRetryPolicy(pol) }

// WithTracing enables span collection for every query; each Result
// then carries a Trace tree.
func WithTracing() Option { return engine.WithTracing() }

// WithClock injects the engine's time source (for deterministic
// tests; the default is the wall clock).
func WithClock(c Clock) Option { return engine.WithClock(c) }

// WithConcurrencyLimit caps simultaneously executing queries; beyond
// it, arrivals wait in a bounded priority queue and overflow is shed
// with a retryable *AdmissionError. Zero leaves concurrency unbounded.
func WithConcurrencyLimit(n int) Option { return engine.WithConcurrencyLimit(n) }

// WithQueueDepth bounds the admission queue (default 64 when any
// admission limit is configured).
func WithQueueDepth(n int) Option { return engine.WithQueueDepth(n) }

// WithMemoryPool shares one global memory pool across concurrent
// queries: each admitted query leases its budget from the pool and the
// sum of outstanding leases never exceeds it. Combine with
// WithMemoryBudget to set the per-query request size; under
// contention a query may receive a smaller lease and spill instead of
// failing.
func WithMemoryPool(bytes int64) Option { return engine.WithMemoryPool(bytes) }

// Trace enables span collection for one Execute call:
//
//	res, err := db.ExecuteContext(ctx, sql, fudj.Trace())
func Trace() ExecOption { return engine.Trace() }

// WithQueryTimeout bounds one Execute call: past d the query's context
// is cancelled (aborting cluster exchanges and barrier waits) and the
// call returns a *TimeoutError wrapping context.DeadlineExceeded:
//
//	res, err := db.Execute(sql, fudj.WithQueryTimeout(2*time.Second))
func WithQueryTimeout(d time.Duration) ExecOption { return engine.Timeout(d) }

// WithPriority ranks one Execute call for admission under concurrent
// load (default PriorityNormal):
//
//	res, err := db.Execute(sql, fudj.WithPriority(fudj.PriorityHigh))
func WithPriority(p Priority) ExecOption { return engine.Priority(p) }
