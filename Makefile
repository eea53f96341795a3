GO ?= go

.PHONY: check build test vet race race-obs race-pipeline race-prefetch race-serve race-join crash guard-obs fuzz bench bench-obs bench-planner bench-planner-smoke bench-pipeline bench-scale bench-serve bench-tpch bench-tpch-smoke serve-demo

# check is the tier-1 verification gate: everything must compile, pass
# vet, and pass the full test suite under the race detector, with the
# observability-layer, morsel-executor, prefetch, serving-layer, and
# relational-executor race tests called out explicitly, the crash-point
# matrix for the durable write path, the observability overhead guards,
# plus one iteration of the planner pipeline and engine-vs-legacy-plan
# benchmarks as smoke tests.
check: vet build race race-obs race-pipeline race-prefetch race-serve race-join crash guard-obs bench-planner-smoke bench-tpch-smoke

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# race-obs focuses the race detector on the observability surfaces: the
# metrics registry and tracer, the flight recorder (concurrent
# begin/progress/finish vs snapshot readers), the pool counters, and the
# atomic reader stats with concurrent Stats/ResetStats.
race-obs:
	$(GO) test -race -count=1 ./internal/obs/ ./internal/exec/ ./internal/colstore/
	$(GO) test -race -count=1 -run 'TestRecorder' .

# guard-obs runs the observability overhead guards outside the race
# detector (alloc counts change under -race): the tracer's zero-alloc
# guard on the ops.ApplyFilter seam (an internal test of internal/ops,
# since it compares against the unexported prepared sweep) and the
# flight recorder's constant-per-query alloc guard (recorder on vs off;
# the constant must not scale with morsel count).
guard-obs:
	$(GO) test -count=1 -run 'TestApplyFilterNoTracerAddsZeroAllocs' ./internal/ops/
	$(GO) test -count=1 -run 'TestQueryRecorderConstantAllocOverhead' .

# race-pipeline focuses the race detector on the morsel executor: the
# worker-local-state scheduler tests, the pipeline-vs-naive-full-scan
# reference property, and the IO/trace acceptance tests.
race-pipeline:
	$(GO) test -race -count=1 -run TestParallelMorsels ./internal/exec/
	$(GO) test -race -count=1 -run 'TestPipeline|TestExplainAnalyze|TestTracedGatherSpans' .

# race-prefetch focuses the race detector on the async page fetcher:
# concurrent queries with mid-scan cancellation sharing the prefetch
# machinery, the prefetch-on ≡ prefetch-off equivalence property, and
# the fetcher's fault-injection fallback test.
race-prefetch:
	$(GO) test -race -count=1 -run 'TestPrefetch' .
	$(GO) test -race -count=1 -run 'TestPrefetch' ./internal/colstore/

# race-serve focuses the race detector on the serving layer: admission
# control (concurrent acquire/release/timeout/cancel against the
# round-robin dispatcher), the wave batcher (concurrent clients group-
# committing onto shared scans), the result cache, and the root wave /
# exec-options / page-cache API tests.
race-serve:
	$(GO) test -race -count=1 ./internal/serve/
	$(GO) test -race -count=1 -run 'TestWave|TestEpoch|TestWithExec|TestPageCacheOption' .

# race-join focuses the race detector on the relational executor: the
# join/group/sort kernels and their oracle property tests, the
# engine-compiled ≡ legacy equivalence suites for TPC-H and SSB, and
# the public relational Query API (joins, order-by/limit, trace spans).
race-join:
	$(GO) test -race -count=1 -run 'TestHashJoin|TestRel|TestExternalSort|TestSortRows|TestTopN' ./internal/ops/
	$(GO) test -race -count=1 -run 'TestEngineMatchesLegacy' ./internal/tpch/ ./internal/ssb/
	$(GO) test -race -count=1 -run 'TestQueryJoin|TestQuerySemiAnti|TestQueryRows|TestExplainAnalyzeRel|TestTracedTopK|TestRelDict' .

# crash runs the write-path fault-injection suite under the race
# detector: the crash-point matrix (every write-side filesystem
# operation fails in turn; recovery must restore exactly the acked
# state), the double-crash variant (a second crash during the recovery
# flush), and the shard-layer WAL/manifest/quarantine tests.
crash:
	$(GO) test -race -count=1 -run 'TestCrashPointMatrix|TestCrashMatrixDoubleCrash|TestIngest' .
	$(GO) test -race -count=1 ./internal/shard/ ./internal/wal/ ./internal/memtable/

# bench refreshes the "current" section of BENCH_PR2.json with the scan
# hot-path benchmarks (ns/op, B/op, allocs/op, pages pruned/read/skipped
# per op); the checked-in "baseline" section is preserved.
BENCHOUT ?= BENCH_PR2.json
bench:
	$(GO) test -run xxx -bench 'BenchmarkAblationDataSkipping|BenchmarkSBoostScanVsScalar|BenchmarkFig7TPCH|BenchmarkFilterHotPath$$' \
		-benchmem . | $(GO) run ./cmd/benchjson -o $(BENCHOUT) -section current

# bench-obs writes BENCH_PR3.json: the filter hot path through the
# instrumented ApplyFilter seam, tracer off (bare context) vs tracer on
# (span per op), plus the end-to-end count with the flight recorder off
# vs on, so the observability overhead stays visible across PRs.
OBSBENCHOUT ?= BENCH_PR3.json
bench-obs:
	$(GO) test -run xxx -bench 'BenchmarkFilterHotPathTraced/.*/Off' -benchmem . \
		| $(GO) run ./cmd/benchjson -o $(OBSBENCHOUT) -section tracer-off
	$(GO) test -run xxx -bench 'BenchmarkFilterHotPathTraced/.*/On' -benchmem . \
		| $(GO) run ./cmd/benchjson -o $(OBSBENCHOUT) -section tracer-on
	$(GO) test -run xxx -bench 'BenchmarkQueryRecorder/Off' -benchmem . \
		| $(GO) run ./cmd/benchjson -o $(OBSBENCHOUT) -section recorder-off
	$(GO) test -run xxx -bench 'BenchmarkQueryRecorder/On' -benchmem . \
		| $(GO) run ./cmd/benchjson -o $(OBSBENCHOUT) -section recorder-on

# bench-planner writes BENCH_PR4.json: the selection-threaded planned
# pipeline with the selective conjunct written first vs last (the planner
# normalizes both to the same page IO), the filter-at-a-time baseline
# (every filter scans the full table), and an AND+OR mix — pagesRead/op
# makes the pushdown visible.
PLANNERBENCHOUT ?= BENCH_PR4.json
bench-planner:
	$(GO) test -run xxx -bench BenchmarkPlannerPipeline -benchmem . \
		| $(GO) run ./cmd/benchjson -o $(PLANNERBENCHOUT) -section current

# bench-pipeline writes BENCH_PR5.json: the same two-conjunct query on
# an 8+ row-group table through the morsel pipeline, for Count,
# SumFloat, and GroupCount — wall time, allocs/op, and pagesRead/op.
# The checked-in "current" section is the last run that also measured
# the operator-at-a-time barrier engine, the evidence for deleting it;
# reruns write the pipelined variants to their own "pipeline" section so
# that evidence survives. The clustered variant still asserts that its
# zone maps prune pages.
PIPELINEBENCHOUT ?= BENCH_PR5.json
bench-pipeline:
	$(GO) test -run xxx -bench BenchmarkPipelineVsBarrier -benchmem . \
		| $(GO) run ./cmd/benchjson -o $(PIPELINEBENCHOUT) -section pipeline

# bench-scale writes BENCH_PR7.json: the SF 1→10 full-scan sweep with
# the async page prefetcher on vs off (ns/row, query-phase peak RSS,
# max bytes-in-flight), the cold-I/O variant charging seek-scale
# latency per read request (where coalescing + overlap dominate), and
# the two-lane vs one-lane SWAR kernel micro-benchmark. benchjson
# surfaces the section's peak RSS as a synthetic "_peakRSS" entry.
SCALEBENCHOUT ?= BENCH_PR7.json
bench-scale:
	$(GO) test -run xxx -bench 'BenchmarkScaleScan/SF' -benchtime 5x -timeout 1800s . \
		| $(GO) run ./cmd/benchjson -o $(SCALEBENCHOUT) -section scale
	$(GO) test -run xxx -bench BenchmarkScaleScanColdIO -benchtime 3x -timeout 1800s . \
		| $(GO) run ./cmd/benchjson -o $(SCALEBENCHOUT) -section cold-io
	$(GO) test -run xxx -bench BenchmarkScanLanes ./internal/sboost/ \
		| $(GO) run ./cmd/benchjson -o $(SCALEBENCHOUT) -section swar-lanes
	$(GO) test -run xxx -bench BenchmarkParallelDictReaders -cpu 1,4 ./internal/colstore/ \
		| $(GO) run ./cmd/benchjson -o $(SCALEBENCHOUT) -section dict-readers

# bench-serve writes BENCH_PR9.json: K=1/8/64 concurrent clients
# looping mixed terminals through the full serving path (admission,
# wave batching, page cache), reporting p50/p99 latency, the shed
# rate, and pages read per request — the sharing signal is
# pagesRead/req falling as K grows while each wave stays one scan.
SERVEBENCHOUT ?= BENCH_PR9.json
bench-serve:
	$(GO) test -run xxx -bench BenchmarkServeConcurrency -benchtime 50x ./internal/serve/ \
		| $(GO) run ./cmd/benchjson -o $(SERVEBENCHOUT) -section current

# bench-tpch writes BENCH_PR10.json: every TPC-H query and SSB flight
# through the engine-compiled relational plan (relq + morsel pipeline)
# vs the legacy hand-coded operator-at-a-time plan — ns/op, allocs/op,
# and pagesRead/op side by side. The engine must match or beat legacy
# on pages read for the filter-heavy queries.
TPCHBENCHOUT ?= BENCH_PR10.json
bench-tpch:
	$(GO) test -run xxx -bench BenchmarkTPCHEngineVsLegacy -benchmem -benchtime 10x -timeout 1800s ./internal/tpch/ \
		| $(GO) run ./cmd/benchjson -o $(TPCHBENCHOUT) -section tpch
	$(GO) test -run xxx -bench BenchmarkSSBEngineVsLegacy -benchmem -benchtime 10x -timeout 1800s ./internal/ssb/ \
		| $(GO) run ./cmd/benchjson -o $(TPCHBENCHOUT) -section ssb

# bench-tpch-smoke runs one iteration of every engine-vs-legacy pair
# (each plan self-checks by executing end to end, so this doubles as a
# correctness gate in check).
bench-tpch-smoke:
	$(GO) test -run xxx -bench BenchmarkTPCHEngineVsLegacy -benchtime 1x ./internal/tpch/
	$(GO) test -run xxx -bench BenchmarkSSBEngineVsLegacy -benchtime 1x ./internal/ssb/

# bench-planner-smoke runs one iteration of each planner pipeline
# benchmark (they self-check counts, so this doubles as a correctness
# gate in check).
bench-planner-smoke:
	$(GO) test -run xxx -bench BenchmarkPlannerPipeline -benchtime 1x .

# serve-demo loads a TPC-H sample into ./demodb and serves /metrics,
# /debug/vars, and /debug/pprof on :8080 until interrupted.
serve-demo:
	$(GO) run ./cmd/datagen -kind tpch -sf 0.01 -out ./demodb
	$(GO) run ./cmd/codecdb serve -db ./demodb -metrics :8080 -warm

# fuzz gives the colstore Open fuzzer a short budget; extend FUZZTIME for
# longer campaigns.
FUZZTIME ?= 30s
fuzz:
	$(GO) test ./internal/colstore/ -run xxx -fuzz FuzzOpen -fuzztime $(FUZZTIME)
