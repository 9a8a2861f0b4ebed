// Fault injection and recovery for the simulated cluster. The paper's
// engine runs on a real 12-node deployment where task crashes, slow
// ("straggler") nodes, and corrupt shuffle payloads are facts of life;
// this file gives the simulator the same adversarial conditions — fully
// deterministic and seedable, so a chaos run is reproducible bit for
// bit — plus the recovery machinery (retry with capped exponential
// backoff, speculative re-execution, shuffle resend) that lets queries
// survive them.
package cluster

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// FaultConfig describes the adverse conditions to inject. The zero
// value injects nothing. All decisions derive from Seed and the fault
// site (epoch, partition, attempt), never from wall clock or a shared
// RNG, so a given configuration misbehaves identically on every run.
type FaultConfig struct {
	// Seed drives every probabilistic decision.
	Seed int64
	// CrashProb is the per-task-attempt probability of a simulated
	// crash (the task dies before publishing results and is retried).
	CrashProb float64
	// FailedNodes lists nodes whose tasks always crash on their first
	// attempt — a node failure recovered by rescheduling, since the
	// retry models re-execution after failover.
	FailedNodes []int
	// StragglerNodes lists nodes whose tasks are delayed by
	// StragglerDelay on their first attempt (a slow disk, a busy
	// neighbour). Speculative re-execution sidesteps the delay.
	StragglerNodes []int
	// StragglerDelay is the injected delay on straggler nodes
	// (default 25ms when StragglerNodes is non-empty).
	StragglerDelay time.Duration
	// CorruptProb is the per-cross-node-batch probability that a
	// shuffle payload arrives corrupted and must be resent.
	CorruptProb float64
	// BarrierKills lists nodes that die the first time execution
	// crosses the named phase barrier — the targeted "kill-at-barrier"
	// fault. Each entry fires once per query.
	BarrierKills []BarrierKill
	// BarrierKillProb is the per-node probability of dying at each
	// barrier crossing (the probabilistic counterpart of BarrierKills).
	BarrierKillProb float64
	// TornWriteProb is the per-checkpoint probability that the write is
	// torn: the published file loses its tail, terminator included, as
	// a crash mid-write would leave it.
	TornWriteProb float64
	// CheckpointCorruptProb is the per-checkpoint probability of silent
	// media damage: one bit of the published file is flipped.
	CheckpointCorruptProb float64
}

// BarrierKill names one targeted node death: Node dies the first time
// execution crosses Barrier.
type BarrierKill struct {
	Barrier Barrier
	Node    int
}

// checkpointDamage classifies the injected damage to one published
// checkpoint file.
type checkpointDamage int

const (
	damageNone checkpointDamage = iota
	damageTorn
	damageCorrupt
)

// FaultInjector makes deterministic fault decisions for one query
// execution and counts what it injected. Create a fresh injector per
// query so two queries with the same seed see the same faults.
type FaultInjector struct {
	cfg       FaultConfig
	nodeDown  map[int]bool
	straggler map[int]bool

	// barrierFired tracks which targeted BarrierKills entries have
	// fired (each fires once per query). Guarded by mu; barrier
	// crossings happen on the coordinator, but the lock keeps the
	// injector race-free under -race regardless of caller discipline.
	mu           sync.Mutex
	barrierFired map[BarrierKill]bool

	crashes      atomic.Int64
	delays       atomic.Int64
	corruptions  atomic.Int64
	barrierKills atomic.Int64
	tornWrites   atomic.Int64
	ckptCorrupts atomic.Int64
}

// NewFaultInjector builds an injector, applying defaults (25ms
// straggler delay when stragglers are configured without one).
func NewFaultInjector(cfg FaultConfig) *FaultInjector {
	if cfg.StragglerDelay <= 0 {
		cfg.StragglerDelay = 25 * time.Millisecond
	}
	fi := &FaultInjector{
		cfg:          cfg,
		nodeDown:     make(map[int]bool, len(cfg.FailedNodes)),
		straggler:    make(map[int]bool, len(cfg.StragglerNodes)),
		barrierFired: make(map[BarrierKill]bool, len(cfg.BarrierKills)),
	}
	for _, n := range cfg.FailedNodes {
		fi.nodeDown[n] = true
	}
	for _, n := range cfg.StragglerNodes {
		fi.straggler[n] = true
	}
	return fi
}

// Config returns the injector's configuration.
func (fi *FaultInjector) Config() FaultConfig { return fi.cfg }

// Crashes returns how many task crashes were injected.
func (fi *FaultInjector) Crashes() int64 { return fi.crashes.Load() }

// Delays returns how many straggler delays were injected.
func (fi *FaultInjector) Delays() int64 { return fi.delays.Load() }

// Corruptions returns how many shuffle payloads were corrupted.
func (fi *FaultInjector) Corruptions() int64 { return fi.corruptions.Load() }

// BarrierKills returns how many node deaths were injected at phase
// barriers.
func (fi *FaultInjector) BarrierKills() int64 { return fi.barrierKills.Load() }

// TornWrites returns how many checkpoint writes were torn.
func (fi *FaultInjector) TornWrites() int64 { return fi.tornWrites.Load() }

// CheckpointCorruptions returns how many published checkpoints had a
// bit flipped.
func (fi *FaultInjector) CheckpointCorruptions() int64 { return fi.ckptCorrupts.Load() }

// Decision channels, kept distinct so a crash roll never correlates
// with a corruption roll at the same coordinates.
const (
	rollCrash = iota + 1
	rollCorrupt
	rollBarrier
	rollTorn
	rollCkptCorrupt
)

// mix64 is the SplitMix64 finalizer: a cheap, well-distributed 64-bit
// mixing function.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// roll returns a uniform float in [0, 1) derived purely from the seed,
// the decision channel, and the fault site coordinates.
func (fi *FaultInjector) roll(kind int, coords ...int64) float64 {
	h := mix64(uint64(fi.cfg.Seed) ^ uint64(kind)*0x9e3779b97f4a7c15)
	for _, v := range coords {
		h = mix64(h ^ (uint64(v) + 0x9e3779b97f4a7c15 + (h << 6) + (h >> 2)))
	}
	return float64(h>>11) / float64(uint64(1)<<53)
}

// stragglerDelay returns the injected delay for one task attempt.
// Only first attempts on straggler nodes are delayed: a speculative or
// retried copy models re-execution on a healthy node.
func (fi *FaultInjector) stragglerDelay(node, attempt int) time.Duration {
	if attempt == 0 && fi.straggler[node] {
		fi.delays.Add(1)
		return fi.cfg.StragglerDelay
	}
	return 0
}

// crash decides whether one task attempt dies, returning a retryable
// *FaultError when it does.
func (fi *FaultInjector) crash(epoch int64, node, part, attempt int) error {
	if attempt == 0 && fi.nodeDown[node] {
		fi.crashes.Add(1)
		return &FaultError{Kind: FaultNodeDown, Node: node, Part: part, Attempt: attempt}
	}
	if fi.cfg.CrashProb > 0 && fi.roll(rollCrash, epoch, int64(part), int64(attempt)) < fi.cfg.CrashProb {
		fi.crashes.Add(1)
		return &FaultError{Kind: FaultCrash, Node: node, Part: part, Attempt: attempt}
	}
	return nil
}

// corrupt decides whether one cross-node shuffle batch arrives
// corrupted on this transfer attempt.
func (fi *FaultInjector) corrupt(epoch, src, dst, attempt int64) bool {
	if fi.cfg.CorruptProb <= 0 {
		return false
	}
	if fi.roll(rollCorrupt, epoch, src, dst, attempt) < fi.cfg.CorruptProb {
		fi.corruptions.Add(1)
		return true
	}
	return false
}

// hasBarrierFaults reports whether any kill-at-barrier fault is
// armed, so barrier crossings can skip all bookkeeping otherwise.
func (fi *FaultInjector) hasBarrierFaults() bool {
	return fi != nil && (fi.cfg.BarrierKillProb > 0 || len(fi.cfg.BarrierKills) > 0)
}

// killAtBarrier decides which of the cluster's nodes die as execution
// crosses barrier b in fault epoch epoch. Targeted BarrierKills fire
// once per query; probabilistic kills roll per (epoch, barrier, node).
// The returned node list is sorted and duplicate-free.
func (fi *FaultInjector) killAtBarrier(epoch int64, b Barrier, nodes int) []int {
	if !fi.hasBarrierFaults() {
		return nil
	}
	dead := make(map[int]bool)
	fi.mu.Lock()
	for _, k := range fi.cfg.BarrierKills {
		if k.Barrier == b && k.Node >= 0 && k.Node < nodes && !fi.barrierFired[k] {
			fi.barrierFired[k] = true
			dead[k.Node] = true
		}
	}
	fi.mu.Unlock()
	if fi.cfg.BarrierKillProb > 0 {
		for n := 0; n < nodes; n++ {
			if dead[n] {
				continue
			}
			if fi.roll(rollBarrier, epoch, int64(b), int64(n)) < fi.cfg.BarrierKillProb {
				dead[n] = true
			}
		}
	}
	if len(dead) == 0 {
		return nil
	}
	out := make([]int, 0, len(dead))
	for n := range dead {
		out = append(out, n)
	}
	sort.Ints(out)
	fi.barrierKills.Add(int64(len(out)))
	return out
}

// stringCoord folds a checkpoint key into a deterministic roll
// coordinate, so damage decisions depend on the stable key rather
// than the randomized temp path.
func stringCoord(s string) int64 {
	h := uint64(1469598103934665603) // FNV-1a offset basis
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return int64(mix64(h))
}

// checkpointDamage decides whether the published checkpoint under key
// suffers a torn write or a bit flip. Torn wins when both roll: a
// crash mid-write preempts later media damage.
func (fi *FaultInjector) checkpointDamage(key string) checkpointDamage {
	if fi == nil {
		return damageNone
	}
	coord := stringCoord(key)
	if fi.cfg.TornWriteProb > 0 && fi.roll(rollTorn, coord) < fi.cfg.TornWriteProb {
		fi.tornWrites.Add(1)
		return damageTorn
	}
	if fi.cfg.CheckpointCorruptProb > 0 && fi.roll(rollCkptCorrupt, coord) < fi.cfg.CheckpointCorruptProb {
		fi.ckptCorrupts.Add(1)
		return damageCorrupt
	}
	return damageNone
}

// damageOffset picks the deterministic bit-flip position for a corrupt
// checkpoint of the given size, always past the header region so the
// flip lands in framing or payload bytes.
func (fi *FaultInjector) damageOffset(key string, size, header int64) int64 {
	if size <= header {
		return size - 1
	}
	h := mix64(uint64(fi.cfg.Seed) ^ uint64(stringCoord(key)) ^ uint64(size))
	return header + int64(h%uint64(size-header))
}

// corruptPayload damages an encoded shuffle buffer the way a botched
// transfer would: the tail is lost. DecodeBatch is guaranteed to
// reject the result because the frame header still claims the full
// row count.
func corruptPayload(buf []byte) []byte {
	return buf[:len(buf)/2]
}

// FaultKind classifies an injected fault.
type FaultKind int

// The injected fault kinds.
const (
	FaultCrash             FaultKind = iota // probabilistic task crash
	FaultNodeDown                           // deterministic per-node failure
	FaultBarrierKill                        // node death at a phase barrier
	FaultTornWrite                          // checkpoint write torn by a crash
	FaultCheckpointCorrupt                  // checkpoint bit flip on media
)

// String implements fmt.Stringer.
func (k FaultKind) String() string {
	switch k {
	case FaultCrash:
		return "task crash"
	case FaultNodeDown:
		return "node failure"
	case FaultBarrierKill:
		return "kill-at-barrier"
	case FaultTornWrite:
		return "torn-write"
	case FaultCheckpointCorrupt:
		return "checkpoint-corrupt"
	}
	return fmt.Sprintf("fault(%d)", int(k))
}

// FaultError is a simulated infrastructure failure. It is retryable:
// re-executing the task (on a recovered or different node) may succeed,
// unlike a deterministic error from the task's own logic.
type FaultError struct {
	Kind    FaultKind
	Node    int
	Part    int
	Attempt int
}

// Error implements the error interface.
func (e *FaultError) Error() string {
	return fmt.Sprintf("cluster: injected %v (node %d, partition %d, attempt %d)", e.Kind, e.Node, e.Part, e.Attempt)
}

// Retryable marks the fault as transient.
func (e *FaultError) Retryable() bool { return true }

// IsRetryable reports whether an error is transient, i.e. whether
// re-running the failed task could succeed. Deterministic task errors
// (bad routes, UDF failures) are not; injected infrastructure faults
// are.
func IsRetryable(err error) bool {
	var r interface{ Retryable() bool }
	return errors.As(err, &r) && r.Retryable()
}

// PartitionError tags a task error with the partition it came from, so
// an aggregated query failure names every failing partition.
type PartitionError struct {
	Part int
	Err  error
}

// Error implements the error interface.
func (e *PartitionError) Error() string { return fmt.Sprintf("partition %d: %v", e.Part, e.Err) }

// Unwrap exposes the underlying task error to errors.Is/As.
func (e *PartitionError) Unwrap() error { return e.Err }

// RetryPolicy governs how partition tasks recover from transient
// failures.
type RetryPolicy struct {
	// MaxAttempts bounds executions per task (1 = no retry).
	MaxAttempts int
	// BaseBackoff is the delay before the first retry; each further
	// retry doubles it, capped at MaxBackoff.
	BaseBackoff time.Duration
	// MaxBackoff caps the exponential backoff.
	MaxBackoff time.Duration
	// SpeculativeAfter, when positive, enables straggler mitigation:
	// a task attempt that has not started user work after this delay is
	// abandoned and immediately re-executed (modelling a speculative
	// copy scheduled on a healthy node). Zero disables speculation.
	SpeculativeAfter time.Duration
}

// DefaultRetryPolicy returns the policy clusters start with: a handful
// of fast retries, no speculation.
func DefaultRetryPolicy() RetryPolicy {
	return RetryPolicy{
		MaxAttempts: 6,
		BaseBackoff: 200 * time.Microsecond,
		MaxBackoff:  5 * time.Millisecond,
	}
}

// backoff returns the delay before the given retry attempt (attempt
// numbering starts at 1 for the first retry).
func (p RetryPolicy) backoff(attempt int) time.Duration {
	d := p.BaseBackoff
	for i := 1; i < attempt && d < p.MaxBackoff; i++ {
		d *= 2
	}
	if p.MaxBackoff > 0 && d > p.MaxBackoff {
		d = p.MaxBackoff
	}
	return d
}

// errStragglerAbandoned marks an attempt abandoned by speculation so
// the retry driver re-executes immediately, without backoff.
var errStragglerAbandoned = errors.New("cluster: straggler attempt abandoned")

// sleepCtx sleeps for d unless the context ends first, reporting
// whether the full sleep completed.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	if d <= 0 {
		return ctx.Err() == nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}
