GO ?= go

.PHONY: check build vet test race audit perf-smoke fuzz-smoke trace-smoke ci stress

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
# -count=1 bypasses the test cache: only the CLI tests' subprocesses read
# LBP_AUDIT, so the cache does not key on it and would replay cmd/...
# results from an unaudited run.
audit:
	LBP_AUDIT=1 $(GO) test -count=1 ./...

# perf-smoke vets and short-tests the benchmark (perfbench/, its own Go
# module importing this one through the localbp facade and the harness), so
# a change that breaks the benchmark fails here rather than at measurement
# time (< 10 s). The benchmark itself is `python3 perfbench/run.py`.
perf-smoke:
	cd perfbench && $(GO) vet ./... && $(GO) test -short ./...

# fuzz-smoke gives each native fuzz target a short budget; failures still
# fail the run and are saved under testdata/fuzz. -fuzzminimizetime=100x
# caps the minimization of each new interesting input at 100 runs (Go's
# default is 60 s), so a target spends its budget fuzzing rather than
# minimizing its first finds.
fuzz-smoke:
	$(GO) test -fuzz=FuzzLoopPredictor -fuzztime=10s -fuzzminimizetime=100x ./internal/bpu/loop
	$(GO) test -fuzz=FuzzTAGE -fuzztime=10s -fuzzminimizetime=100x ./internal/bpu/tage
	$(GO) test -fuzz=FuzzLBP2 -fuzztime=10s -fuzzminimizetime=100x ./internal/trace
	$(GO) test -fuzz=FuzzChampSim -fuzztime=10s -fuzzminimizetime=100x ./internal/trace
	$(GO) test -fuzz=FuzzCheckpointEnvelope -fuzztime=10s -fuzzminimizetime=100x ./internal/harness
	$(GO) test -fuzz=FuzzSpecFor -fuzztime=10s -fuzzminimizetime=100x ./internal/harness
	$(GO) test -fuzz=FuzzCoreConfigValidate -fuzztime=10s -fuzzminimizetime=100x ./internal/core

# trace-smoke is the end-to-end trace-pipeline check (< 30 s): build the real
# lbptrace and lbpsim binaries, generate an LBP2 trace, re-encode it with
# -convert (byte-identical LBP2 -> LBP2 round trip), and replay it
# bit-identically to in-process generation.
trace-smoke:
	$(GO) test -run TestTraceSmoke -count=1 -v ./cmd/lbptrace

# ci is the one-command pipeline: build, static analysis + alloc guards, the
# full suite under the race detector, the benchmark and trace smokes, and a
# fuzz smoke.
ci: build vet race perf-smoke trace-smoke fuzz-smoke

# stress loops the crash-safety subprocess suite under the race detector:
# interrupt a live sweep (checkpoint resume, zero lost/duplicated results).
# It also loops the memory-outcome producer's lifecycle tests: the producer
# is joined on every exit path, and a run at GOMAXPROCS=1 is bit-identical.
# N controls the iteration count.
N ?= 5
stress:
	$(GO) test -race -run TestSweepSIGINTResume -count=$(N) -v ./cmd/lbpsweep
	$(GO) test -race -run 'TestFeedLifecycle|TestFeedGOMAXPROCS1' -count=$(N) -v ./internal/core
