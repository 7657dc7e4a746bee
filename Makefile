GO ?= go

.PHONY: check build vet test race audit perf-smoke fuzz-smoke shard-smoke trace-smoke ci stress

# check is the CI gate: static analysis plus the full suite under the race
# detector (the parallel sweep runner is on by default).
check: vet race

build:
	$(GO) build ./...

# vet fails on any file gofmt would rewrite, and also runs the allocation
# guards: the obs layer's cost must be a fixed setup delta, and the core
# loop's allocations must be per-run setup only — never per-cycle,
# per-branch or per-event work. staticcheck and govulncheck run when
# installed (the build must not require fetching them); install locally for
# the full gate.
vet:
	@unformatted=$$(gofmt -l .); if [ -n "$$unformatted" ]; then \
		echo "vet: gofmt needed on:"; echo "$$unformatted"; exit 1; fi
	$(GO) vet ./...
	$(GO) test -run 'TestObsAllocGuard|TestCoreLoopAllocGuard' -count=1 .
	$(GO) test -race -count=1 ./internal/shard
	@if command -v staticcheck >/dev/null 2>&1; then staticcheck ./...; \
	else echo "vet: staticcheck not installed, skipping"; fi
	@if command -v govulncheck >/dev/null 2>&1; then govulncheck ./...; \
	else echo "vet: govulncheck not installed, skipping"; fi

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# audit reruns the full suite with the integrity auditor and golden-model
# oracle forced on for every simulation (LBP_AUDIT=1): every retirement is
# cross-checked against the in-order model and every invariant is live.
audit:
	LBP_AUDIT=1 $(GO) test ./...

# perf-smoke vets and short-tests the benchmark (perfbench/, its own Go
# module importing this one through the localbp facade and the harness), so
# a change that breaks the benchmark fails here rather than at measurement
# time (< 10 s). The benchmark itself is `python3 perfbench/run.py`.
perf-smoke:
	cd perfbench && $(GO) vet ./... && $(GO) test -short ./...

# fuzz-smoke gives each native fuzz target a short budget; failures minimize
# into testdata/fuzz corpora as usual.
fuzz-smoke:
	$(GO) test -fuzz=FuzzLoopPredictor -fuzztime=10s ./internal/bpu/loop
	$(GO) test -fuzz=FuzzTAGE -fuzztime=10s ./internal/bpu/tage
	$(GO) test -fuzz='FuzzReadTrace$$' -fuzztime=10s ./internal/trace
	$(GO) test -fuzz='FuzzReadTraceLBP2$$' -fuzztime=10s ./internal/trace
	$(GO) test -fuzz=FuzzDecodeFrames -fuzztime=10s ./internal/service
	$(GO) test -fuzz=FuzzCoreConfigValidate -fuzztime=10s ./internal/core

# shard-smoke is the end-to-end sharded-sweep check (< 60 s): a 3-worker
# quick sweep with one worker SIGKILLed mid-shard, its lease expired and the
# shard reassigned, then `-merge` verified bit-identical to a single-process
# sweep of the same experiments — zero lost, zero duplicated results.
shard-smoke:
	$(GO) test -run 'TestShardSweepChaosKillBitIdentical|TestShardWorkerLeaseHeld' -count=1 -v ./cmd/lbpsweep

# trace-smoke is the end-to-end trace-pipeline check (< 30 s): build the real
# lbptrace and lbpsim binaries, generate an LBP2 trace, convert it
# LBP2 -> LBP1 -> LBP2 (byte-identical round trip), and replay both formats
# bit-identically to in-process generation.
trace-smoke:
	$(GO) test -run TestTraceSmoke -count=1 -v ./cmd/lbptrace

# ci is the one-command pipeline: build, static analysis + alloc guards, the
# full suite under the race detector, the benchmark, shard and trace smokes,
# and a fuzz smoke.
ci: build vet race perf-smoke shard-smoke trace-smoke fuzz-smoke

# stress loops the crash-safety subprocess suites under the race detector:
# interrupt a live sweep (checkpoint resume, zero lost/duplicated results)
# and chaos-test the sharded fleet (worker SIGKILL + lease reassignment;
# coordinator SIGKILL with orphaned workers). N controls the iteration
# count.
N ?= 5
stress:
	$(GO) test -race -run TestSweepSIGINTResume -count=$(N) -v ./cmd/lbpsweep
	$(GO) test -race -run 'TestShardSweepChaosKillBitIdentical|TestShardFleetCoordinatorCrash' -count=$(N) -timeout 60m -v ./cmd/lbpsweep
