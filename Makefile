# Pre-merge gate: `make check` runs exactly what a PR must keep green —
# tier-1 (build + full test suite), vet, gofmt, the race-sensitive
# packages under the race detector, and the benchmark module.

GO ?= go

.PHONY: all build test vet fmt msebench-check race drift relearn smoke scenario check stress mutants bench benchcmp benchgate clean

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# fmt fails when any Go file in the repository (benchmark module
# included) is not gofmt-clean.
fmt:
	test -z "$$(gofmt -l .)"

# msebench-check vets and tests the benchmark program.  msebench/ is its
# own module, outside ./..., so without this a change to an API it calls
# would break the benchmark unnoticed.
msebench-check:
	cd msebench && $(GO) vet ./... && $(GO) test ./...

# The concurrency-heavy packages — observability, the service layer (with
# the golden extraction digests of the pooled path), the tree-distance
# cache, fingerprinting, the worker pool, the parallel pipeline stages and
# the pooled parse/render/apply fast path — run under the race detector,
# plus the end-to-end differential tests that pin the parallel pipeline
# to the serial one and leased sections across their release.
race:
	$(GO) test -race ./internal/obs ./internal/quality ./internal/relearn \
		./internal/serve \
		./internal/editdist ./internal/dom ./internal/par ./internal/cluster \
		./internal/core ./internal/htmlparse ./internal/layout ./internal/wrapper
	$(GO) test -race -run 'TestDifferential' .

# drift replays the synthetic drift schedule through the full HTTP stack:
# three engines served concurrently, one silently switching to a
# redesigned template, with the detector required to escalate the drifted
# engine (OK -> SUSPECT -> DRIFTED) while the stable engines stay OK.
drift:
	$(GO) test -count=1 -run 'TestDriftScheduleEndToEnd' ./internal/serve

# relearn replays the self-healing loop through the full HTTP stack: an
# engine redesigns its template mid-run, the drift verdict schedules a
# background relearn over the sampled traffic, the canary-validated
# candidate hot-swaps in with zero failed requests, plus the failure path
# (backoff, circuit breaker, manual recovery) under the race detector.
relearn:
	$(GO) test -race -count=1 -run 'TestRelearnHealLoopEndToEnd|TestRelearnFailureBackoffCircuitAndManualRecovery' ./internal/serve

# smoke builds the real mse-serve binary and drives it end to end with
# the JSON access log and wide-event journal on, strict-parsing /metrics,
# /driftz, the journal file and every log line.
smoke:
	$(GO) test -count=1 -run 'TestServeSmoke' ./cmd/mse-serve

# scenario replays the committed drift-heal example scenario twice
# against an in-process mse-serve with self-healing enabled and requires
# byte-identical reports (the determinism contract), then builds the
# real mse-serve and mse-loadgen binaries and replays the same scenario
# over a socket: recall collapses at the scheduled template cutover, the
# relearn hot-swap is observed, recall recovers above threshold, zero
# non-2xx, exit 0.  The in-process replays run ten times over: a relearn
# snapshot that races the reservoir feed made the double run disagree in
# roughly half of all runs, so one run alone would rarely catch its return.
scenario:
	$(GO) test -race -count=10 -run 'TestScenario' ./internal/scenario
	$(GO) test -count=1 -run 'TestLoadgenSmoke' ./cmd/mse-loadgen

check: build vet fmt test msebench-check race drift relearn smoke scenario

# stress storms the extraction service with hundreds of concurrent
# deadline-bearing /extract requests under the race detector: admission
# control, cancellation, panic recovery and the pooled arenas all get
# exercised at once, and the test fails on any leaked arena or scratch.
stress:
	MSE_STRESS_N=300 $(GO) test -race -count=1 -v -run TestStressExtract ./internal/serve

# mutants applies each hand-written mutation of wrapper application
# (internal/wrapper/compile.go) listed in scripts/mutants.sh to a copy of
# the module and runs the wrapper, core and serve tests against it.  It
# fails when a mutation survives or its line no longer occurs in the file.
# About a minute and a half; a CI step of its own, not part of check.
mutants:
	bash scripts/mutants.sh

# bench regenerates the paper-table benchmarks with allocation stats and
# records the raw runs in a dated BENCH_<date>.json for before/after
# comparisons across PRs.  An existing file for today is never clobbered:
# later runs get a .2, .3, ... suffix so a baseline captured earlier in
# the day survives for benchcmp.
bench:
	@out=BENCH_$$(date +%Y-%m-%d).json; n=2; \
	while [ -e $$out ]; do out=BENCH_$$(date +%Y-%m-%d).$$n.json; n=$$((n+1)); done; \
	$(GO) test -run NONE -bench 'BenchmarkTable|BenchmarkWrapper|BenchmarkExtract' \
		-benchmem -json . | tee $$out

# benchcmp diffs the two newest BENCH_*.json files (ns/op, B/op,
# allocs/op per benchmark).
benchcmp:
	$(GO) run ./cmd/mse-benchcmp

# benchgate runs the extraction hot-path benchmarks (raw, cached, batch)
# at a fixed iteration count and fails if allocs/op regresses more than
# 15% against the newest committed BENCH_*.json snapshot by file name (ns/op is
# informational on shared runners; set MSE_BENCHGATE_NS=1 to enforce it
# too).  The -benchmarks allowlist enforces only the deterministic-alloc
# paths: the batch variants ride through HTTP buffers whose alloc counts
# jitter run to run, so they print as informational.  CI smoke.
benchgate:
	$(GO) run ./cmd/mse-benchcmp -gate \
		-bench 'BenchmarkExtractHotPath|BenchmarkExtractCachedHotPath|BenchmarkExtractBatch' \
		-benchmarks 'BenchmarkExtractHotPath|BenchmarkExtractCachedHotPath' \
		-threshold 0.15

clean:
	$(GO) clean ./...
