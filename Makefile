# Local verification mirrors .github/workflows/ci.yml exactly: `make ci`
# runs the same four checks plus the benchmark smoke step.

GO ?= go

# Benchtime for the bench-json artifact: long enough for stable ns/op,
# short enough for CI. Override for local measurement, e.g.
#   make bench-json BENCHTIME=2s
BENCHTIME ?= 0.3s

# Benchmarks the JSON artifact (and therefore the perf ratchet) covers:
# the selection kernel, the sweep scheduler, the serving-path select and
# merge, and the weighted merge.
BENCH_PATTERN ?= Kernel|SweepParallelism|ServiceSelect|ServiceMerge|WeightedMerge

# Benchmarks bench-diff never fails on: the HTTP and cached-select paths
# are dominated by the net stack and the allocator, the parallelism sweep
# by scheduler jitter, and the /Reference/ oracles exist for differential
# correctness, not speed — their ns/op is trend data, not a gate. The
# production kernels (Butterfly, Fast, PatternCache, the service paths)
# all stay gated.
BENCH_ALLOW ?= ServiceSelectCached|ServiceSelectHTTP|SweepParallelism|/Reference/

# Whole-suite passes for the JSON artifact and the ratchet. benchdiff
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

.PHONY: build test test-cover fuzz-smoke loadgen-test lint cover bench bench-json bench-diff smoke smoke-restart smoke-cluster smoke-chaos ci

build:
	$(GO) build ./...

test:
	$(GO) test -race ./...

# Race detector + coverage in ONE pass (atomic covermode is the race-safe
# one anyway), so CI never runs the suite twice. Prints the total so the
# trend is visible straight from CI logs; coverage.out is a CI artifact.
test-cover:
	$(GO) test -race -covermode=atomic -coverprofile=coverage.out ./...
	$(GO) tool cover -func=coverage.out | tail -n 1

# Short native-fuzzing pass over record restore: any JSON that decodes to
# a store.Record must fail to restore or restore to a usable session. The
# seed corpus lives in internal/service/testdata/fuzz/FuzzRestoreRecord.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzRestoreRecord -fuzztime 10s ./internal/service/

# The end-to-end load generator is its own module (cmd/loadgen/go.mod), so
# the root `go test ./...` never reaches its tests: it scrapes /metrics
# and reads trace spans, so a renamed metric family or span breaks it.
loadgen-test:
	$(GO) -C cmd/loadgen test -race ./...

lint:
	$(GO) vet ./...
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

cover: test-cover

# Run every benchmark for one iteration: a compile-and-smoke check.
# For real measurements use: go test -bench=. -benchmem ./...
bench:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

# Run the selection-kernel benchmarks (butterfly vs reference, preprocess
# strategies, greedy selector, sweep parallelism) and emit a
# machine-readable BENCH_selection.json — the artifact CI uploads. Fails if
# the benchmarks stop compiling or running.
# (Two steps, not a pipeline, so a benchmark failure fails the target.)
bench-json:
	@rm -f bench.out
	@for i in $$(seq $(BENCH_REPS)); do \
		echo "bench pass $$i/$(BENCH_REPS)"; \
		$(GO) test -run '^$$' -bench '$(BENCH_PATTERN)' -benchmem \
			-benchtime $(BENCHTIME) ./internal/core/ ./internal/service/ . >> bench.out || exit 1; \
	done
	$(GO) run ./cmd/benchjson < bench.out > BENCH_selection.json
	@rm -f bench.out
	@echo "wrote BENCH_selection.json"

# Perf ratchet: run the benchmarks fresh, diff against the committed
# baseline, and fail on any >10% ns/op regression (or a baseline
# benchmark that vanished). The baseline is BENCH_selection.json at HEAD;
# if the working copy is ahead of HEAD (e.g. you just refreshed it), the
# on-disk file is used instead. -lenient-cpu keeps the gate honest across
# machines: a committed baseline measured on different hardware warns
# rather than fails. To refresh the baseline after a deliberate change:
#   make bench-json && git add BENCH_selection.json
bench-diff:
	@rm -f bench.out
	@for i in $$(seq $(BENCH_REPS)); do \
		echo "bench pass $$i/$(BENCH_REPS)"; \
		$(GO) test -run '^$$' -bench '$(BENCH_PATTERN)' -benchmem \
			-benchtime $(BENCHTIME) ./internal/core/ ./internal/service/ . >> bench.out || exit 1; \
	done
	$(GO) run ./cmd/benchjson < bench.out > BENCH_fresh.json
	@rm -f bench.out
	@git show HEAD:BENCH_selection.json > BENCH_baseline.json 2>/dev/null \
		|| cp BENCH_selection.json BENCH_baseline.json
	$(GO) run ./cmd/benchdiff -baseline BENCH_baseline.json -current BENCH_fresh.json \
		-allow '$(BENCH_ALLOW)' -lenient-cpu -out BENCH_diff.txt

# End-to-end smoke test of the crowdfusiond daemon binary: start it, drive
# one refinement round over HTTP with curl, verify idempotent replay and
# metrics, and shut down cleanly. CI runs this on every push.
smoke:
	$(GO) build -o bin/crowdfusiond ./cmd/crowdfusiond
	./scripts/daemon_smoke.sh ./bin/crowdfusiond

# Crash-recovery smoke: merge an answer set, SIGKILL the daemon, restart
# it over the same -data-dir, and assert the recovered posterior, version
# and budget are bit-identical (and that replaying the merged answer set
# still doesn't double-spend). CI runs this on every push.
smoke-restart:
	$(GO) build -o bin/crowdfusiond ./cmd/crowdfusiond
	./scripts/restart_smoke.sh ./bin/crowdfusiond

# Sharding smoke: boot a 3-node cluster over one shared file store, verify
# not_owner routing, SIGKILL the node owning a mid-refinement session, and
# assert the survivors adopt it by record replay (byte-identical GET,
# idempotent answer replay, loop finishes). CI runs this on every push.
smoke-cluster:
	$(GO) build -o bin/crowdfusiond ./cmd/crowdfusiond
	./scripts/cluster_smoke.sh ./bin/crowdfusiond

# Chaos smoke: boot a 3-node cluster with every node behind a
# fault-injecting TCP proxy, netsplit the owner mid-refinement, and assert
# the lease fence refuses the deposed owner's write (HTTP 421 "fenced"),
# the history never forks, and the healed cluster converges on a posterior
# bit-identical to an unfaulted run — under both a lease steal and a
# clock-skewed expiry takeover. CI runs this on every push.
smoke-chaos:
	$(GO) build -o bin/crowdfusiond ./cmd/crowdfusiond
	$(GO) build -o bin/chaosproxy ./cmd/chaosproxy
	./scripts/chaos_smoke.sh ./bin/crowdfusiond ./bin/chaosproxy

ci: build lint test-cover fuzz-smoke loadgen-test bench bench-json bench-diff smoke smoke-restart smoke-cluster smoke-chaos
