# Build, verify, and chaos-test the FUDJ reproduction.

GO ?= go

# Pinned external linter versions (installed in CI; local runs skip
# them gracefully when the tools are absent).
STATICCHECK_VERSION ?= 2025.1.1
GOVULNCHECK_VERSION ?= v1.1.4

FUDJVET = bin/fudjvet

.PHONY: all vet fudjvet build test race chaos chaos-recovery stress serve-chaos serve-ha bench-batch bench-serve-ha fuzz staticcheck govulncheck lint-fix-check ci

all: build

# vet runs the standard analyzers plus fudjvet, the repo's own
# invariant suite (determinism, UDF isolation, bounded allocation,
# context plumbing, side symmetry) via the go vet -vettool protocol,
# then the standalone driver with the suppression-ratchet budget: live
# //fudjvet:ignore counts may not exceed testdata/fudjvet_budget.txt.
vet: fudjvet
	$(GO) vet ./...
	$(GO) vet -vettool=$(abspath $(FUDJVET)) ./...
	$(FUDJVET) -budget testdata/fudjvet_budget.txt ./...

fudjvet:
	$(GO) build -o $(FUDJVET) ./cmd/fudjvet

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# chaos runs the degraded-execution suite under the race detector:
# deterministic fault injection (crashes, a straggler node, shuffle
# corruption), cancellation/deadline handling, UDF panic isolation,
# and memory-bounded execution (spill, backpressure, skew splits).
chaos:
	$(GO) test -race -run 'Chaos|Fault|Retry|Straggler|Corrupt|Deadline|Cancel|UDFPanic|StandalonePanic|Bounded|Memory|Spill|ResourceError|BucketSplit|Backpressure' \
		./internal/cluster/ ./internal/core/ ./internal/engine/ ./internal/storage/ \
		./internal/joins/spatialjoin/ ./internal/joins/textsim/ ./internal/joins/intervaljoin/

# chaos-recovery runs the checkpointed-execution matrix under the race
# detector: kill-at-barrier over both barriers, every example join and
# smart theta, torn-write and checkpoint-corruption healing, checkpoint
# reopen crash-consistency, and the temp-file sweep — every run
# asserting multiset-identical results against a fault-free baseline.
chaos-recovery:
	$(GO) test -race -run 'CheckpointRecovery|KillAtBarrier|TornWrite|CheckpointCorrupt|Recovery|BarrierMatrix|Checkpoint' \
		./internal/cluster/ ./internal/storage/ ./internal/engine/ \
		./internal/joins/spatialjoin/ ./internal/joins/textsim/ ./internal/joins/intervaljoin/

# stress runs the admission-controlled scheduler suite under the race
# detector: the seeded open-loop storm (hundreds of mixed joins against
# a small shared memory pool, with a panicking-UDF arm and a fault-
# injection arm), the scheduler unit invariants, lease accounting,
# timeout classification, drain semantics, and the concurrent-Execute
# safety audit.
stress:
	$(GO) test -race -run 'Stress|Sched|Admission|Lease|Drain|Timeout|Priority|ConcurrentExecute|SmartThetaConcurrent' \
		./internal/sched/ ./internal/engine/ ./internal/bench/

# serve-chaos runs the network serving suite under the race detector:
# the frame protocol (CRC corruption, truncation, oversize), the error
# envelope taxonomy round-trip, session replay/expiry, the full
# client/server integration tests, the seeded network chaos
# convergence run (accept refusal, mid-response resets, byte
# corruption, stalls), daemon drain under open-loop load, the
# drain-vs-recovery race, and the through-the-wire stress storm.
serve-chaos:
	$(GO) test -race -run 'Serve|Frame|Session|Envelope|Taxonomy|Shed|RemoteError|DrainRaces|DrainCancels|StressOverNetwork' \
		./internal/serve/ ./internal/serve/client/ ./internal/engine/ ./internal/bench/

# serve-ha runs the multi-instance failover suite under the race
# detector: the rolling-restart chaos storm (three restartable fudjd
# instances behind a failover pool, each drained and restarted in turn
# under the seeded fault-injecting listener, then a full-cluster hard
# restart — zero client-visible failures, multiset-identical results,
# exec-at-most-once per instance, breaker open/close, empty TMPDIR),
# the deterministic drain-failover and instance-mismatch re-key tests,
# the health/readiness probes, and the pool/breaker/backoff/journal
# unit suites.
serve-ha:
	$(GO) test -race -run 'ServeHA|Pool|Breaker|Backoff|Ready|Instance|Journal|Replay|Expiry' \
		./internal/serve/ ./internal/serve/client/

# bench-batch runs the hash-path COMBINE microbench — batched columnar
# shuffle frames against record-at-a-time framing — and records the
# measurement in results/BENCH_batch.json. The experiment fails below a
# 1.2x regression floor (the committed artifact records the >=2x
# target; the floor is looser so noisy CI neighbors don't flake it).
bench-batch:
	$(GO) run ./cmd/benchrunner -exp batch -json results/BENCH_batch.json

# bench-serve-ha runs the client-side failover experiment — steady
# closed-loop latency vs the first query after the serving instance
# drains — and records results/BENCH_serve_ha.json. The experiment
# fails if every query did not succeed, or if no drain failover /
# re-key was recorded (i.e. the failover arm measured a healthy pair).
bench-serve-ha:
	$(GO) run ./cmd/benchrunner -exp serve-ha -json results/BENCH_serve_ha.json

# fuzz smoke-runs every native fuzz target briefly. The committed
# corpora under testdata/fuzz/ also run as regression seeds in plain
# `go test`, so CI covers them even without this target.
FUZZTIME ?= 10s
fuzz:
	$(GO) test -run xxx -fuzz FuzzDecodeRecords -fuzztime $(FUZZTIME) ./internal/types/
	$(GO) test -run xxx -fuzz FuzzMemSize -fuzztime $(FUZZTIME) ./internal/types/
	$(GO) test -run xxx -fuzz FuzzDecodeBatch -fuzztime $(FUZZTIME) ./internal/types/
	$(GO) test -run xxx -fuzz FuzzDecoder -fuzztime $(FUZZTIME) ./internal/wire/
	$(GO) test -run xxx -fuzz FuzzUvarintCountBound -fuzztime $(FUZZTIME) ./internal/wire/

# staticcheck and govulncheck are external tools pinned by version in
# CI; locally they run only if already installed (the build environment
# deliberately carries no third-party modules).
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (CI pins $(STATICCHECK_VERSION))"; \
	fi

govulncheck:
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	else \
		echo "govulncheck not installed; skipping (CI pins $(GOVULNCHECK_VERSION))"; \
	fi

# lint-fix-check fails if the tree needs gofmt, or if the fudjvet suite
# reports any finding — the no-drift gate CI runs on a clean checkout.
lint-fix-check: fudjvet
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi
	$(GO) vet -vettool=$(abspath $(FUDJVET)) ./...
	$(FUDJVET) -budget testdata/fudjvet_budget.txt ./...

ci: vet build race chaos chaos-recovery staticcheck govulncheck
