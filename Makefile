GO ?= go

.PHONY: build test lint race bench bench-smoke bench-gp bench-gp-scale bench-multifidelity benchstat fuzz fuzz-journal fuzz-server fault-stress crash-stress crash-stress-campaign load-test

build:
	$(GO) build ./...

# Static analysis: staticcheck when installed (CI installs it),
# otherwise the vet subset that ships with the toolchain. Always ends
# with the architectural boundary gate: nothing outside a backend
# implementation may import internal/sparksim or internal/clustersim
# directly.
lint:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; running go vet only"; \
		$(GO) vet ./...; \
	fi
	$(GO) test -run 'TestArchBoundary' -count 1 ./internal/backend


# Default verification flow: vet plus the full unit/property suite.
test:
	$(GO) vet ./...
	$(GO) test ./...

# Race suite: the full test set (including the root race_stress_test.go
# hostile-concurrency tests and the workers-parity tests) under the Go
# race detector. Any unsynchronized shared access fails the build.
race:
	$(GO) test -race ./...

# Parallelism benchmarks: forest training, permutation importance and
# acquisition multistart at workers=1 vs workers=GOMAXPROCS.
bench:
	$(GO) test -run '^$$' -bench 'BenchmarkForestTrain|BenchmarkPermImportance|BenchmarkMultistart' -benchmem -benchtime 2x .

# Perf-harness smoke test: every bench/ workload at toy scale, plain and
# traced, including its set-up repeatability and traced == plain hash
# checks. bench/ is a Go module of its own (it replaces repro with ..),
# so the root `go test ./...` never reaches it.
bench-smoke:
	cd bench && GOWORK=off $(GO) test -count 1 ./...

# GP fast-path benchmarks: surrogate fit, posterior prediction, and
# engine Suggest across training-set sizes, with allocation counts.
# Reference numbers (seed vs fast path) live in BENCH_gp_fastpath.json.
bench-gp:
	$(GO) test -run '^$$' -bench 'BenchmarkGPFitScale|BenchmarkGPFitARDScale|BenchmarkGPPredict|BenchmarkBOSuggestScale' -benchmem -benchtime 3x .

# Large-n surrogate scaling: exact (blocked Cholesky) vs sparse
# local-subset fit/extend/suggest at n in {500, 1000, 2000}. Set
# ROBOTUNE_BENCH_FULL=1 to add n=5000 and n=10000 (the exact rows take
# minutes). Reference numbers live in BENCH_gp_scale.json.
bench-gp-scale:
	$(GO) test -run '^$$' -bench 'BenchmarkGPScale' -benchmem -benchtime 1x .

# Multi-fidelity cost-to-quality acceptance run: BOHB (fidelity ladder
# + cost-aware acquisition) vs full-fidelity ROBOTune on the paper
# workloads, at a larger budget than the always-on CI gate
# (TestMultiFidelityQualityRegression in `make test`). Results land in
# BENCH_multifidelity.json.
bench-multifidelity:
	ROBOTUNE_BENCH_MF=1 $(GO) test -run 'TestBenchMultiFidelity' -v -count 1 -timeout 1200s ./internal/experiments

# A/B comparison helper: save a baseline, make a change, compare.
# Uses benchstat when installed, otherwise falls back to diff.
#   make benchstat OLD=before.txt NEW=after.txt
benchstat:
	@if command -v benchstat >/dev/null 2>&1; then \
		benchstat $(OLD) $(NEW); \
	else \
		echo "benchstat not installed; falling back to diff"; \
		diff -u $(OLD) $(NEW) || true; \
	fi

# Robustness suite under the race detector: fault injection, session
# retries/deadlines, cancellation and censored-observation handling.
fault-stress:
	$(GO) test -race -count 2 -run 'Fault|Session|Cancel|Censored' ./internal/sparksim ./internal/tuners ./internal/core ./internal/bo

# Kill/resume stress: re-executes the test binary as a journaled
# campaign, SIGKILLs it at escalating depths, resumes each time, and
# checks the stitched result is bit-identical to an uninterrupted run.
# The deterministic in-process sweeps (truncate-at-every-k, graceful
# cancel, replay divergence) run under plain `make test`; this target
# adds the real-process half.
crash-stress:
	ROBOTUNE_CRASH_STRESS=1 $(GO) test -run 'TestKillResumeStress' -v -count 1 -timeout 600s ./internal/core
	ROBOTUNE_CRASH_STRESS=1 $(GO) test -run 'TestWireKillResume' -v -count 1 -timeout 600s ./internal/server
	$(GO) test -run 'Resume|Journal|Truncate|BitFlip|Snapshot' -count 1 ./internal/journal ./internal/core ./internal/tuners

# Campaign-level kill/resume stress: a 4-session concurrent campaign
# (ledger + per-session journals) is SIGKILLed at escalating depths
# and resumed until it finishes; the stitched result must be
# bit-identical to an uninterrupted run, with zero completed sessions
# re-executed (asserted via task-constructor counters). The in-process
# ledger tests (resume, mid-grid, panic containment, budget
# reallocation, grant replay) run under plain `make test`.
crash-stress-campaign:
	ROBOTUNE_CRASH_STRESS=1 $(GO) test -run 'TestCampaignKillResumeStress' -v -count 1 -timeout 600s ./internal/schedule
	$(GO) test -run 'TestCampaign|TestLedger|TestDurable' -count 1 ./internal/schedule ./internal/journal ./internal/experiments

# Seed-splitting fuzz target: distinct worker streams must never alias.
fuzz:
	$(GO) test -run '^$$' -fuzz FuzzSeedSplit -fuzztime 30s ./internal/par

# Journal recovery fuzzing: arbitrary bytes on disk must never panic
# recovery, and a corrupt snapshot must never be partially trusted.
fuzz-journal:
	$(GO) test -run '^$$' -fuzz FuzzOpen -fuzztime 30s ./internal/journal
	$(GO) test -run '^$$' -fuzz FuzzSnapshot -fuzztime 30s ./internal/journal

# Protocol fuzzing against robotuned: hostile session specs and observe
# bodies must 4xx cleanly — never panic, never corrupt a session.
fuzz-server:
	$(GO) test -run '^$$' -fuzz FuzzSessionSpec -fuzztime 30s ./internal/server
	$(GO) test -run '^$$' -fuzz FuzzObserveBody -fuzztime 30s ./internal/server

# robotuned throughput acceptance run: concurrent journaled sessions
# over direct handler dispatch and real loopback TCP. The in-process
# number must clear 10,000 propose/observe round trips per second;
# results land in BENCH_robotuned.json.
load-test:
	ROBOTUNE_LOADTEST=1 $(GO) test -run 'TestLoadFull' -v -count 1 -timeout 300s ./internal/server/loadtest
