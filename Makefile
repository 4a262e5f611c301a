# Convenience wrappers around dune.

.PHONY: all test check bench ci clean fuzz lint \
  domain-smoke serve-smoke bench-lint stats-golden bench-check \
  bench-baseline bench-speed bench-speed-report bench-serve \
  bench-serve-report trace-golden cond-smoke metrics-check \
  metrics-baseline metrics-smoke perfbench layers-check layers-baseline \
  perf-ab opaque-check perfbench-smoke score-memo

all:
	dune build

test:
	dune runtest

# Build + tests + `lslpc analyze` (with the legality validator) over every
# example kernel.  The commit gate.
check:
	dune build @check

# What CI runs (see .github/workflows/ci.yml): build, test suites, then
# the analyze/legality gate over the example kernels.
ci:
	dune build
	dune runtest
	dune build @check
	$(MAKE) opaque-check
	$(MAKE) lint
	$(MAKE) domain-smoke
	$(MAKE) serve-smoke
	$(MAKE) fuzz
	$(MAKE) cond-smoke
	$(MAKE) stats-golden
	$(MAKE) trace-golden
	$(MAKE) bench-check
	$(MAKE) layers-check
	$(MAKE) metrics-check
	$(MAKE) metrics-smoke
	$(MAKE) perfbench-smoke

# The pinned-seed differential fuzz run CI's fuzz-smoke job executes:
# 500 random programs through the pipeline, checked against the scalar
# oracle, with and without injected faults; a case with no fault armed
# fails on any region degraded but for a spent budget.
fuzz:
	dune exec bin/lslpc.exe -- fuzz --cases 500 --seed 42

# Branching gate: the masked-IR fuzz arm — 500 pinned-seed programs of
# guarded stores, selects and masked loads through the pipeline against
# the scalar oracle — plus every cond.* catalog kernel through analyze
# with the legality validator.
cond-smoke:
	dune exec bin/lslpc.exe -- fuzz --cases 500 --seed 42 --config cond
	dune exec bin/lslpc.exe -- analyze --kernel cond.abs
	dune exec bin/lslpc.exe -- analyze --kernel cond.clamp
	dune exec bin/lslpc.exe -- analyze --kernel cond.saxpy-guard
	dune exec bin/lslpc.exe -- analyze --kernel cond.max-mask

# Telemetry gate: the golden counter tables (test/cram/stats.t) plus the
# cache-differential fuzz — 200 random programs whose cached and uncached
# look-ahead scoring must agree on IR, remarks and region outcomes.
stats-golden:
	dune build @test/cram/runtest
	dune exec bin/lslpc.exe -- fuzz --cases 200 --seed 42 --config cache-diff

# Build-profile gate: the default build (dune-workspace selects release,
# what `dune build -p lslp` installs) compiles no lib/ module with
# -opaque, and keeps exactly the dev profile's warnings and errors.
opaque-check:
	python3 bench/opaque_check.py

# The project's own static-analysis pass (lib/lint): R1 global mutable
# state, R2 ambient Random, R3 raising primitives, R4 wall-clock reads.
# Fails on any unwaived finding and on stale entries in lint.waivers.
lint:
	dune exec bin/lint.exe -- --check-waivers lib bin

# Domain-safety proof behind the parallel compile service: the `domains`
# test suite (test/test_domains.ml) compiles the whole catalog 8 times as
# jobs on 8 domains of the service's pool; every copy must reproduce the
# sequential IR, remarks and counters byte for byte, and every output id
# must lie in [1, next id) of its own function.
domain-smoke:
	dune exec test/test_main.exe -- test domains

# Fault-survival gate for the batch compile service: the catalog twice
# through a 4-domain pool with one injected worker crash (job 3, round 1)
# and one cache poisoning (job 30 = kernel 2, round 2).  The batch must
# complete, every undamaged job must match, and the run must record
# EXACTLY two degradations — the crashed job's typed failure and the
# poisoned entry's verified eviction (exit 1 on any other count).  The
# sharded fuzz then proves 4-domain fuzzing is case-by-case identical to
# sequential for the classic, cond and cache-diff arms, and the waiver
# audit covers the new lib/service code.
serve-smoke:
	dune exec bin/lslpc.exe -- batch --jobs 4 --repeat 2 \
	  --inject worker-raise@3 --inject cache-poison@30 \
	  --expect-degradations 2 --stats
	dune exec bin/lslpc.exe -- batch --jobs 4 --deadline-steps 50000 \
	  --inject worker-hang@5 --expect-degradations 1
	dune exec bin/lslpc.exe -- batch --jobs 8 \
	  --inject queue-full@7 --expect-degradations 1
	dune exec bin/lslpc.exe -- fuzz --cases 120 --seed 42 --jobs 4
	dune exec bin/lslpc.exe -- fuzz --cases 120 --seed 42 --config cond \
	  --jobs 4
	dune exec bin/lslpc.exe -- fuzz --cases 120 --seed 42 \
	  --config cache-diff --jobs 4
	dune exec bin/lint.exe -- --check-waivers lib bin

# Refresh the committed lint bench entry (files scanned, findings by
# rule, wall time).
bench-lint:
	dune exec bin/lint.exe -- --check-waivers \
	  --bench-out bench_results/BENCH_lint.json lib bin

# Tracing gate: the golden decision logs (test/cram/trace.t) plus the
# exporter self-check — every catalog kernel traced in all three formats,
# each Chrome stream re-parsed through the project's own JSON reader.
trace-golden:
	dune build @test/cram/runtest
	dune exec bin/lslpc.exe -- trace --all

# Tolerance-free counter regression gate: compare today's deterministic
# pipeline counters (score evals, graph nodes, regions, emitted instrs)
# against the committed snapshot.  After an intended change, regenerate
# with `make bench-baseline` and commit the diff.
bench-check:
	dune exec bench/baseline.exe -- --check
	dune exec bench/baseline.exe -- --selftest

bench-baseline:
	dune exec bench/baseline.exe -- --write

# Tolerance-free per-layer allocation gate: the benchmark's allocation
# probe (perfbench/main.exe --alloc-probe, seed 7: self words and calls per
# traced span plus a digest of the work counters) on catalog, chains and
# batch-mixed, compared with bench_results/LAYERS_baseline.json.  Two fresh
# processes print the same line, so any difference is a real change in a
# layer's allocation.  After an intended change, regenerate with
# `make layers-baseline` and state each layer's change in the commit.
PERFBENCH_EXE = _build/default/perfbench/main.exe
layers-check:
	dune build perfbench/main.exe bench/layers.exe
	dune exec bench/layers.exe -- --check --probe $(PERFBENCH_EXE)

layers-baseline:
	dune build perfbench/main.exe bench/layers.exe
	dune exec bench/layers.exe -- --write --probe $(PERFBENCH_EXE)

# Compile-throughput harness: the whole catalog compiled 1000x per config
# (one-shot wall clock + a bechamel estimate), appended as a dated run to
# bench_results/BENCH_speed.json so the trajectory across PRs is kept.
# Report-only in CI: timings are machine-dependent, so the gate for perf
# work is the counter baseline (bench-check), not this file.
# `make bench-speed NOTE="..."` labels the appended run.
bench-speed:
	dune exec bench/speed.exe -- --reps 1000 --note "$(NOTE)"

bench-speed-report:
	dune exec bench/speed.exe -- --reps 300 --no-write

# Batch-service throughput: catalog x 1000 as one batch through the pool
# (sequential floor, N domains, cache cold vs warm with every hit
# digest-checked), appended to bench_results/BENCH_serve.json.
# The warm-vs-cold speedup is gated at 5x — that ratio measures work
# skipped safely, which unlike wall-clock survives noisy runners.
bench-serve:
	dune exec bench/serve.exe -- --reps 1000 --min-warm-speedup 5 \
	  --note "$(NOTE)"

bench-serve-report:
	dune exec bench/serve.exe -- --reps 100 --no-write --min-warm-speedup 5

# The look-ahead score memo priced per kernel (report-only, not in CI):
# one LSLP graph build of every catalog kernel whose build scores a tie,
# best-of-15 x 300 with the memo on, off and at depth 0, plus its exact
# evals and hits.  Rewrites bench_results/SCORE_MEMO.txt.
score-memo:
	dune build bench/scorememo.exe
	./_build/default/bench/scorememo.exe > bench_results/SCORE_MEMO.txt
	cat bench_results/SCORE_MEMO.txt

# Tolerance-free exposition gate for the observability layer: two
# identical 1-domain batches must dump byte-identical Prometheus metrics
# and flight-recorder JSONL, and the metrics dump must match the
# committed baseline exactly (every value is jobs/ticks/steps, never
# wall-clock, so no tolerances are needed).  After an intended metrics
# change, regenerate with `make metrics-baseline` and commit the diff.
metrics-check:
	dune exec bin/lslpc.exe -- batch --jobs 1 --repeat 2 \
	  --metrics-out _build/metrics_a.prom --flight-out _build/flight_a.jsonl
	dune exec bin/lslpc.exe -- batch --jobs 1 --repeat 2 \
	  --metrics-out _build/metrics_b.prom --flight-out _build/flight_b.jsonl
	cmp _build/metrics_a.prom _build/metrics_b.prom
	cmp _build/flight_a.jsonl _build/flight_b.jsonl
	cmp _build/metrics_a.prom bench_results/METRICS_baseline.prom

metrics-baseline:
	dune exec bin/lslpc.exe -- batch --jobs 1 --repeat 2 \
	  --metrics-out bench_results/METRICS_baseline.prom

# Observability smoke: a faulted multi-domain batch must emit a
# Prometheus dump that lslpc's own parser accepts and whose degradation
# counters (failed + shed + evicted) reconcile with the batch gate's
# count; the JSON exposition must reconcile to the same number.
metrics-smoke:
	dune exec bin/lslpc.exe -- batch --jobs 4 \
	  --inject worker-raise@3 --inject queue-full@7 \
	  --expect-degradations 2 --metrics-out _build/metrics_smoke.prom
	dune exec bin/lslpc.exe -- metrics-verify _build/metrics_smoke.prom \
	  --expect-degradations 2
	dune exec bin/lslpc.exe -- batch --jobs 4 \
	  --inject worker-raise@3 --inject queue-full@7 \
	  --expect-degradations 2 --metrics-out _build/metrics_smoke.json \
	  --metrics-format json
	dune exec bin/lslpc.exe -- metrics-verify _build/metrics_smoke.json \
	  --metrics-format json --expect-degradations 2

# One workload of the one-command benchmark (see BENCHMARK.json and
# README "Benchmark"): W = catalog | chains | batch-mixed, T = 1 for the
# traced per-layer run.
W ?= chains
SEED ?= 1
T ?= 0
perfbench:
	python3 perfbench/run.py --workload $(W) --seed $(SEED) --seconds 10 --trace $(T)

# The benchmark's correctness gate, timings ignored: 2 s of `catalog` (the
# paper's kernels from source, the workload perf claims are made on), of
# `chains` (the only workload with blocks over 256 instructions) and of
# `batch-mixed` (consecutive 2-domain batches through the real service),
# every result checked against Pipeline.run; any divergence fails the
# target.
perfbench-smoke:
	python3 perfbench/run.py --workload catalog --seed 7 --seconds 2 --trace 0
	python3 perfbench/run.py --workload chains --seed 7 --seconds 2 --trace 0
	python3 perfbench/run.py --workload batch-mixed --seed 7 --seconds 2 --trace 0

# A/B comparison of the working tree against BASE (report-only, not in
# CI): clones BASE into $${TMPDIR:-/tmp}/lslp-ab, builds perfbench there
# and here, alternates PAIRS runs of SECONDS each on workload W (`all` runs
# catalog, chains and batch-mixed in turn), and prints per-pair
# throughput, p50/p90 and heap, the median of every end_to_end metric in
# BENCHMARK.json with a WORSE flag past its bound, and pairs won.
W ?= chains
BASE ?= HEAD~
PAIRS ?= 6
SECONDS ?= 10
AB_SEED ?= 7
perf-ab:
	python3 bench/perf_ab.py --workload $(W) --base $(BASE) \
	  --pairs $(PAIRS) --seconds $(SECONDS) --seed $(AB_SEED)

bench:
	dune exec bench/main.exe

clean:
	dune clean
