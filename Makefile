PYTHON ?= python

.PHONY: verify test lint cache-guard chaos fidelity perfbench-test coverage smoke-streaming bench-throughput bench-baseline bench-obs bench-lint bench-lint-floor bench-faults bench-cache bench-streaming bench-streaming-baseline bench-graph bench-graph-baseline bench-scale bench-scale-baseline

## Tier-1 tests + determinism lint + a ~10s smoke run of the executor.
verify:
	bash scripts/verify.sh

## Tier-1 tests only.
test:
	PYTHONPATH=src $(PYTHON) -m pytest -x -q

## Two-phase determinism & contract analyzer over the pipeline sources
## and scripts: per-file rules (DET/MUT/OBS) plus the whole-program
## analyses (XMOD taint, RACE worker writes, CACHE staleness guard).
## Fails on any new finding or unused suppression (empty baseline).
lint:
	PYTHONPATH=src $(PYTHON) -m repro.lint src scripts

## Cache-versions guard only: prove cache-versions.lock.json matches
## HEAD (CACHE001 = forgotten CODE_VERSIONS bump, CACHE002 = stale
## lock). After a reviewed change: `python -m repro.lint --update-lock`.
cache-guard:
	PYTHONPATH=src $(PYTHON) -m repro.lint src --select CACHE

## Fault-injection invariants only (the @pytest.mark.chaos suite).
chaos:
	PYTHONPATH=src $(PYTHON) -m pytest -x -q -m chaos

## Paper-shape assertions: the benchmarks/bench_*.py suites re-derive
## each figure and table and assert the paper's claims on it (timing
## disabled, so this is a correctness gate, not a perf run).
fidelity:
	PYTHONPATH=src $(PYTHON) -m pytest benchmarks -q --benchmark-disable

## The benchmark harness's own tests: tracer self time, metric names
## against BENCHMARK.json, pinned output checks, leftover-file
## counting and steadiness verdicts (a few seconds).
perfbench-test:
	PYTHONPATH=src $(PYTHON) -m pytest perfbench -q

## Statement-coverage gate: repro.graph must stay >= 90% covered.
## Uses pytest-cov when installed (also enforces the repo-wide
## baseline); falls back to a stdlib settrace tracer otherwise.
coverage:
	PYTHONPATH=src $(PYTHON) scripts/coverage_gate.py

## Streaming equivalence smoke: follow == batch byte-identically,
## cold and when resumed from a mid-window checkpoint.
smoke-streaming:
	PYTHONPATH=src $(PYTHON) scripts/streaming_smoke.py

## Throughput floor guard: fail if fresh serial crawl throughput
## regressed more than 20% against the committed BENCH_throughput.json.
bench-throughput:
	PYTHONPATH=src $(PYTHON) benchmarks/record_throughput.py --check

## Re-record the BENCH_throughput.json throughput baseline.
bench-baseline:
	PYTHONPATH=src $(PYTHON) benchmarks/record_throughput.py

## Re-record the BENCH_obs.json observability-overhead baseline.
bench-obs:
	PYTHONPATH=src $(PYTHON) benchmarks/record_obs_overhead.py

## Re-record the BENCH_lint.json analyzer-runtime baseline
## (per-phase timing; asserts the phase-2 floor guard).
bench-lint:
	PYTHONPATH=src $(PYTHON) benchmarks/record_lint.py

## Analyzer floor guard: fail if phase 2 (whole-program) exceeds 2x
## phase-1 wall time on the tree; does not rewrite the baseline.
bench-lint-floor:
	PYTHONPATH=src $(PYTHON) benchmarks/record_lint.py --check

## Re-record the BENCH_faults.json retry-path-overhead baseline.
bench-faults:
	PYTHONPATH=src $(PYTHON) benchmarks/record_faults.py

## Re-record the BENCH_cache.json warm-start speedup baseline
## (default StudyConfig, cold vs warm; asserts byte-identity).
bench-cache:
	PYTHONPATH=src $(PYTHON) benchmarks/record_cache.py

## Streaming ingest floor guard: fail if sustained follow throughput
## regressed more than 20% against the committed BENCH_streaming.json.
bench-streaming:
	PYTHONPATH=src $(PYTHON) benchmarks/record_streaming.py --check

## Re-record the BENCH_streaming.json ingest/query-latency baseline.
bench-streaming-baseline:
	PYTHONPATH=src $(PYTHON) benchmarks/record_streaming.py

## Graph build floor guard: fail if fresh nodes+edges/sec regressed
## more than 20% against the committed BENCH_graph.json.
bench-graph:
	PYTHONPATH=src $(PYTHON) benchmarks/record_graph.py --check

## Re-record the BENCH_graph.json build/query-latency baseline.
bench-graph-baseline:
	PYTHONPATH=src $(PYTHON) benchmarks/record_graph.py

## Flat-RSS guard: re-run the large (3.7M-crawl) spilling study in a
## subprocess and fail if its peak RSS exceeds the spill-budget cap or
## regresses >20% over the committed BENCH_scale.json; also re-checks
## the spill-vs-in-memory digest identity on a small study.
bench-scale:
	PYTHONPATH=src $(PYTHON) benchmarks/record_scale.py --check

## Re-record the BENCH_scale.json small-vs-large RSS baseline.
bench-scale-baseline:
	PYTHONPATH=src $(PYTHON) benchmarks/record_scale.py
