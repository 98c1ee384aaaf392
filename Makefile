GO ?= go

.PHONY: build test lint race bench bench-smoke bench-gp-scale benchstat fuzz fuzz-journal fuzz-server fuzz-clustersim fault-stress crash-stress crash-stress-campaign

build:
	$(GO) build ./...

# Static analysis: first a format gate (every tracked .go file must be
# gofmt-clean; untracked build trees such as .bench_build/ never
# count), then staticcheck when installed (CI installs it), otherwise
# the vet subset that ships with the toolchain. Always ends with the
# architectural boundary gate: nothing outside a backend implementation
# may import internal/sparksim or internal/clustersim directly.
lint:
	@unformatted=$$(git ls-files -z '*.go' | xargs -0 gofmt -l); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt -l lists unformatted files:"; echo "$$unformatted"; exit 1; \
	fi
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

# Micro benchmarks: one cluster-simulator trace replay, forest
# training, permutation importance and acquisition multistart at
# workers=1 vs workers=GOMAXPROCS, and the GP
# fast path (surrogate fit, the n=120 Cholesky, posterior prediction
# of one point, one analytic acquisition gradient against the 16
# finite-difference probes it replaced, and engine Suggest across
# training-set sizes, with allocation counts).
bench:
	$(GO) test -run '^$$' -bench 'BenchmarkClusterSimRun|BenchmarkForestTrain|BenchmarkPermImportance|BenchmarkMultistart|BenchmarkGPFitScale|BenchmarkGPPredict|BenchmarkGPPredictBatch|BenchmarkBOSuggestScale|BenchmarkCholesky' -benchmem -benchtime 2x .

# Perf-harness smoke test: every bench/ workload at toy scale, plain and
# traced, including its set-up repeatability and traced == plain hash
# checks. bench/ is a Go module of its own (it replaces repro with ..),
# so the root `go test ./...` never reaches it.
bench-smoke:
	cd bench && GOWORK=off $(GO) test -count 1 ./...

# Large-n surrogate scaling: exact (blocked Cholesky) vs sparse
# local-subset fit/extend/suggest at n in {500, 1000, 2000}.
bench-gp-scale:
	$(GO) test -run '^$$' -bench 'BenchmarkGPScale' -benchmem -benchtime 1x ./internal/bo

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
# retries/deadlines, cancellation and censored-observation handling,
# and the cluster simulator's fault runs and concurrent batch path
# (each replay owns its scratch buffers).
fault-stress:
	$(GO) test -race -count 2 -run 'Fault|Session|Cancel|Censored' ./internal/sparksim ./internal/tuners ./internal/core ./internal/bo
	$(GO) test -race -count 2 -run 'Fault|Batch' ./internal/clustersim

# Kill/resume stress: re-executes the test binary as a journaled
# campaign, SIGKILLs it at escalating depths, resumes each time, and
# checks the stitched result is bit-identical to an uninterrupted run.
# The deterministic in-process sweeps (truncate-at-every-k, graceful
# cancel, replay divergence) run under plain `make test`; this target
# adds the real-process half, then re-runs the resume suites of both
# drivers of the shared session kernel (tuners.Drive and robotuned).
crash-stress:
	ROBOTUNE_CRASH_STRESS=1 $(GO) test -run 'TestKillResumeStress' -v -count 1 -timeout 600s ./internal/core
	ROBOTUNE_CRASH_STRESS=1 $(GO) test -run 'TestWireKillResume' -v -count 1 -timeout 600s ./internal/server
	$(GO) test -run 'Resume|Journal|Truncate|BitFlip' -count 1 ./internal/journal ./internal/core ./internal/tuners
	$(GO) test -run 'Resume|Rehydrat|Finished|Replay' -count 1 ./internal/server

# Campaign-level kill/resume stress: a 4-session concurrent campaign
# (ledger + per-session journals) is SIGKILLed at escalating depths
# and resumed until it finishes; the stitched result must be
# bit-identical to an uninterrupted run, with zero completed sessions
# re-executed (asserted via task-constructor counters). The in-process
# ledger tests (resume, mid-grid, mid-task, panic containment, degraded
# journal reporting, refused policy changes, the accounting invariants)
# run under plain `make test`.
crash-stress-campaign:
	ROBOTUNE_CRASH_STRESS=1 $(GO) test -run 'TestCampaignKillResumeStress' -v -count 1 -timeout 600s ./internal/schedule
	$(GO) test -run 'TestCampaign|TestLedger|TestDurable' -count 1 ./internal/schedule ./internal/journal ./internal/experiments

# Seed-splitting fuzz target: distinct worker streams must never alias.
fuzz:
	$(GO) test -run '^$$' -fuzz FuzzSeedSplit -fuzztime 30s ./internal/par

# Journal recovery fuzzing: arbitrary bytes on disk must never panic
# recovery, and a recovered campaign ledger must never report a record
# for a task outside its manifest.
fuzz-journal:
	$(GO) test -run '^$$' -fuzz FuzzOpen -fuzztime 30s ./internal/journal
	$(GO) test -run '^$$' -fuzz FuzzLedgerOpen -fuzztime 30s ./internal/journal

# Cluster-simulator fuzzing: the scheduling loop that jumps idle ticks
# must reproduce the tick-by-tick reference loop bit for bit.
fuzz-clustersim:
	$(GO) test -run '^$$' -fuzz FuzzSimulateMatchesOracle -fuzztime 30s ./internal/clustersim

# Protocol fuzzing against robotuned: hostile session specs and observe
# bodies must 4xx cleanly — never panic, never corrupt a session.
fuzz-server:
	$(GO) test -run '^$$' -fuzz FuzzSessionSpec -fuzztime 30s ./internal/server
	$(GO) test -run '^$$' -fuzz FuzzObserveBody -fuzztime 30s ./internal/server
