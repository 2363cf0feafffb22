# Local verification mirrors .github/workflows/ci.yml exactly: `make ci`
# runs the same four checks plus the benchmark smoke step.

GO ?= go

# Benchtime for the benchmark passes: long enough for stable ns/op,
# short enough for CI. Override for local measurement, e.g.
#   make bench-json BENCHTIME=2s
BENCHTIME ?= 0.3s

# Benchmarks the JSON artifact (and therefore the perf ratchet) covers:
# the selection kernel, the conditioning kernel (dist's
# BenchmarkConditionKernel), the sweep scheduler, the serving-path select
# and merge, the weighted merge, the replay that adopts an em session, and
# the worker-model refits (crowd's BenchmarkEstimateEM and
# BenchmarkEstimateDawidSkene), and the file store's load of an em session
# (store's BenchmarkFileGet: the snapshot and log decoding adoption pays
# before replay), and one round of the simulated crowd platform
# (platform's BenchmarkPlatformRound, majority and attributed).
BENCH_PATTERN ?= Kernel|SweepParallelism|ServiceSelect|ServiceMerge|WeightedMerge|ServiceRestore|EstimateEM|EstimateDawidSkene|FileGet|PlatformRound

# Benchmarks bench-diff never fails on: the HTTP and cached-select paths
# are dominated by the net stack and the allocator, the parallelism sweep
# by scheduler jitter, and the /Reference/ oracles exist for differential
# correctness, not speed — their ns/op is trend data, not a gate. The
# production kernels (Butterfly, Fast, PatternCache, the service paths)
# all stay gated.
BENCH_ALLOW ?= ServiceSelectCached|ServiceSelectHTTP|SweepParallelism|/Reference/

# Whole-suite passes for the baseline and the ratchet. benchdiff
# gates on the minimum ns/op per benchmark across all passes, which
# filters the one-sided noise (preemption, cache pollution) a single
# 0.3s shot is exposed to. The repeats are spread as full-suite passes
# rather than `-count` back-to-back runs on purpose: a multi-second
# contention burst hits every consecutive repeat of one benchmark, but
# has to recur in every pass — minutes apart — to survive the min.
BENCH_REPS ?= 3

# Pinned staticcheck version; CI installs exactly this. Locally, `make
# lint` uses a staticcheck on PATH if present and skips otherwise (the
# sandbox may have no network to install one).
STATICCHECK ?= staticcheck
STATICCHECK_VERSION ?= 2025.1.1

.PHONY: build test test-cover fuzz-smoke loadgen-test lint cover bench bench-fresh bench-json bench-diff smoke ci

# The load generator is its own module, so `./...` does not reach it; it is
# built too (its binary discarded) so an API change it compiles against
# fails here. The arm64 cross-build keeps the portable fallbacks of
# amd64-only code (info's log2) compiling.
build:
	$(GO) build ./...
	$(GO) -C cmd/loadgen build -o /dev/null ./...
	GOARCH=arm64 $(GO) build ./...

# Tests run in shuffled order (-shuffle=on), so a test that depends on
# another running first fails; the failing run prints its seed, and
# `go test -shuffle=<seed>` replays that order.
test:
	$(GO) test -race -shuffle=on ./...

# Race detector + coverage in ONE pass (atomic covermode is the race-safe
# one anyway), so CI never runs the suite twice. Prints the total so the
# trend is visible straight from CI logs; coverage.out is a CI artifact.
test-cover:
	$(GO) test -race -shuffle=on -covermode=atomic -coverprofile=coverage.out ./...
	$(GO) tool cover -func=coverage.out | tail -n 1

# Short native-fuzzing passes, 10 s each. FuzzRestoreRecord: any JSON that
# decodes to a store.Record must fail to restore or restore to a session
# whose record restores to the same state. FuzzFileLoad: any snapshot and
# log pair must load to an error or a record, leave a line-boundary prefix
# of the log, and load again to the same record without touching the
# files. FuzzJournalDecode: the store's direct decoder and json.Unmarshal
# agree on any snapshot or log line, on error and on value. FuzzAnswersRequest: any answers body the handler accepts, submitted
# twice to a session with a committed round and a selection outstanding,
# must spend exactly its committed batches and leave a session whose record
# restores to the same state. FuzzSelectRequest: any select body the
# handler accepts, asked of a fresh, a ledger-open and a done session,
# stays within k, budget and fact count, answers an open ledger's pinned
# batch, repeats from cache, and leaves a record that restores to the same
# state. FuzzCreateRequest: any create body the manager accepts stores a
# record that restores to the created session. FuzzParseTraceparent: an
# accepted header is a valid context that re-renders as the version-00
# form of its ids. FuzzPLogP: info's inline log2 reproduces math.Log2 bit
# for bit on any float. Seed corpora live under testdata/fuzz/ in each
# package.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzRestoreRecord -fuzztime 10s ./internal/service/
	$(GO) test -run '^$$' -fuzz FuzzFileLoad -fuzztime 10s ./internal/store/
	$(GO) test -run '^$$' -fuzz FuzzJournalDecode -fuzztime 10s ./internal/store/
	$(GO) test -run '^$$' -fuzz FuzzAnswersRequest -fuzztime 10s ./internal/service/
	$(GO) test -run '^$$' -fuzz FuzzSelectRequest -fuzztime 10s ./internal/service/
	$(GO) test -run '^$$' -fuzz FuzzCreateRequest -fuzztime 10s ./internal/service/
	$(GO) test -run '^$$' -fuzz FuzzParseTraceparent -fuzztime 10s ./internal/trace/
	$(GO) test -run '^$$' -fuzz FuzzPLogP -fuzztime 10s ./internal/info/

# The end-to-end load generator is its own module (cmd/loadgen/go.mod), so
# the root `go test ./...` never reaches its tests: it scrapes /metrics
# and reads trace spans, so a renamed metric family or span breaks it.
loadgen-test:
	$(GO) -C cmd/loadgen test -race ./...

# Besides vet (the second pass covers the smoke-tagged harness, which
# `go vet ./...` skips), gofmt, staticcheck and tidy, lint enforces a
# dependency rule: the daemon serves sessions over priors its clients send, so
# cmd/crowdfusiond must not depend on the offline evaluation stack (the
# paper's experiments and their synthetic book data). A second rule keeps
# the worker model in one place: non-test internal/service code must not
# name crowd.EstimateEM, crowd.EstimateDawidSkene or EMOptions, so sessions
# fit their workers only through crowd.WorkerModel. A third keeps the
# refinement loop in one place: non-test internal/eval and internal/service
# code must not call .Condition(, .ConditionWeighted( or core.MergeAnswers,
# so the harness and the sessions condition and charge only through core.Run.
lint:
	$(GO) vet ./...
	$(GO) vet -tags smoke ./cmd/crowdfusiond/
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:" >&2; \
		echo "$$unformatted" >&2; \
		exit 1; \
	fi
	@if command -v $(STATICCHECK) >/dev/null 2>&1; then \
		$(STATICCHECK) ./...; \
	else \
		echo "staticcheck not on PATH; skipping (CI runs it pinned at $(STATICCHECK_VERSION))"; \
	fi
	$(GO) mod tidy -diff
	@offline=$$($(GO) list -deps ./cmd/crowdfusiond | grep -E '^crowdfusion/internal/(eval|worlds|bookdata|fusion)$$'); \
	if [ -n "$$offline" ]; then \
		echo "cmd/crowdfusiond must not depend on the offline evaluation stack:" >&2; \
		echo "$$offline" >&2; \
		exit 1; \
	fi
	@direct=$$(grep -nE 'crowd\.(EstimateEM|EstimateDawidSkene)|EMOptions' $$(ls internal/service/*.go | grep -v '_test\.go$$')); \
	if [ -n "$$direct" ]; then \
		echo "internal/service must reach the worker-model estimators only through crowd.WorkerModel:" >&2; \
		echo "$$direct" >&2; \
		exit 1; \
	fi
	@bypass=$$(grep -nE '\.(Condition|ConditionWeighted)\(|core\.MergeAnswers' $$(ls internal/eval/*.go internal/service/*.go | grep -v '_test\.go$$')); \
	if [ -n "$$bypass" ]; then \
		echo "internal/eval and internal/service must condition only through core.Run:" >&2; \
		echo "$$bypass" >&2; \
		exit 1; \
	fi

cover: test-cover

# Run every benchmark for one iteration: a compile-and-smoke check.
# For real measurements use: go test -bench=. -benchmem ./...
bench:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

# Run BENCH_REPS whole-suite passes of the BENCH_PATTERN benchmarks (the
# selection and conditioning kernels, sweep parallelism, the service paths,
# the worker-model refits, the file store's load, the platform's round)
# and write their machine-readable form to BENCH_fresh.json. Fails if the
# benchmarks stop compiling or running. bench-json and bench-diff both read
# this one run, so `make bench-json bench-diff` measures once.
# (Two steps, not a pipeline, so a benchmark failure fails the target.)
bench-fresh:
	@rm -f bench.out
	@for i in $$(seq $(BENCH_REPS)); do \
		echo "bench pass $$i/$(BENCH_REPS)"; \
		$(GO) test -run '^$$' -bench '$(BENCH_PATTERN)' -benchmem \
			-benchtime $(BENCHTIME) ./internal/core/ ./internal/dist/ ./internal/crowd/ ./internal/service/ ./internal/store/ ./internal/platform/ . >> bench.out || exit 1; \
	done
	$(GO) run ./cmd/benchjson < bench.out > BENCH_fresh.json
	@rm -f bench.out

# Refresh the committed baseline BENCH_selection.json from a fresh run.
bench-json: bench-fresh
	cp BENCH_fresh.json BENCH_selection.json
	@echo "wrote BENCH_selection.json"

# Perf ratchet: run the benchmarks fresh, diff against the committed
# baseline, and fail on any >10% ns/op regression (or a baseline
# benchmark that vanished). BENCH_diff.txt also prints each benchmark's
# own spread over the passes, max/min - 1, on both sides; the spread is
# reported, never gated. The baseline is BENCH_selection.json at HEAD;
# if the working copy is ahead of HEAD (e.g. you just refreshed it), the
# on-disk file is used instead. -lenient-cpu keeps the gate honest across
# machines: a committed baseline measured on different hardware warns
# rather than fails. To refresh the baseline after a deliberate change:
#   make bench-json && git add BENCH_selection.json
bench-diff: bench-fresh
	@git show HEAD:BENCH_selection.json > BENCH_baseline.json 2>/dev/null \
		|| cp BENCH_selection.json BENCH_baseline.json
	$(GO) run ./cmd/benchdiff -baseline BENCH_baseline.json -current BENCH_fresh.json \
		-allow '$(BENCH_ALLOW)' -lenient-cpu -out BENCH_diff.txt

# End-to-end smoke harness over the real crowdfusiond binary, one OS
# process per node (cmd/crowdfusiond/smoke_test.go, build tag smoke):
#   daemon   one round over HTTP, idempotent replay, an incremental round
#            under a live event stream, metrics, leases, tracing, the debug
#            listener, a learned worker-accuracy gap, and a SIGTERM drain;
#   restart  SIGKILL after a merge, restart over the same -data-dir, and a
#            byte-identical session with no double-spent retry;
#   cluster  3 nodes on one file store: not_owner routing, one trace id in
#            both hops' logs, SIGKILL the owner, byte-identical adoption;
#   chaos    3 leased nodes behind in-process fault proxies: netsplit the
#            owner (a lease steal) and again with its clock skewed (an
#            expiry takeover); the deposed owner's write is refused fenced,
#            the history never forks, and the healed posterior is bit-identical
#            to an unfaulted baseline.
# The OS picks every port. CI runs this on every push.
smoke:
	$(GO) test -tags smoke -count=1 ./cmd/crowdfusiond/

ci: build lint test-cover fuzz-smoke loadgen-test bench bench-diff smoke
