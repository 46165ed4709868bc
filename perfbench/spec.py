"""What the benchmark measures: workloads, metrics and their bounds.

This module is the single source for the names that ``BENCHMARK.json``
lists; ``perfbench/test_perfbench.py`` checks that the two agree. It
imports nothing from ``repro``, so the orchestrating process stays
small and starts without numpy.
"""

from __future__ import annotations

import re
from typing import Dict, List, Tuple

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

#: Study seeds, one pinned digest set each (``perfbench/pins.json``);
#: 7 is the paper-report seed.
STUDY_SEEDS: Tuple[int, ...] = (7, 11, 13, 17, 19, 23, 29, 31)


def study_seeds(seed: int) -> List[int]:
    """The study seeds a run with ``--seed seed`` executes on, in turn.

    A run repeats its workload many times; each repetition takes the
    next study seed, starting at ``STUDY_SEEDS[seed % 8]``. The seeds'
    worlds differ in work (a Tranco-700 toplist crawl varies by up to a
    third between them), so a run that covers all of them reports a
    median that does not hinge on which world its seed picked.
    """
    start = seed % len(STUDY_SEEDS)
    return list(STUDY_SEEDS[start:] + STUDY_SEEDS[:start])

#: How long one run measures; see ``run.py`` for how a run fills it.
RUN_SECONDS = 55

#: (name, why). Each workload stresses layers the others leave idle;
#: README.md has the full reasoning and the layer table.
WORKLOADS: Tuple[Tuple[str, str], ...] = (
    (
        "toplist",
        "20k-domain world, Tranco-700 report sections (Table 1, Fig 5, "
        "4.1/7, 5.2): probing and the object-rendering toplist crawl "
        "dominate",
    ),
    (
        "social",
        "Fig 6/Fig 4 report on a process x2 crawl with an 8k-row memory "
        "budget, then a day-by-day follow with checkpoints, resume and "
        "queries: seeds, queue, crawl, executor, spill, stream, cache",
    ),
)

WORKLOAD_NAMES: Tuple[str, ...] = tuple(name for name, _ in WORKLOADS)

#: Crawl worker processes per workload (1 = serial). Two matches the
#: 2-core machine the sizes were chosen on; fixed, so that the inputs
#: do not depend on the machine.
WORKERS: Dict[str, int] = {"social": 2}

#: End-to-end metrics: (name, unit, bound). All are "lower is better".
#: ``bound`` is the share of the parent's median by which the metric
#: may worsen before a change counts as a regression. On the shared
#: 2-core machine the benchmark was built on, whose speed drifts by a
#: fifth or more within minutes, run medians of the times spread by
#: 10-20% between quartiles, so their bounds are the widest allowed;
#: peak RSS repeats to well under 1%.
END_TO_END: Tuple[Tuple[str, str, float], ...] = (
    ("setup_s", "s", 0.25),
    ("wall_s", "s", 0.25),
    ("peak_rss_mb", "MB", 0.05),
)

#: Per-layer metrics from the traced run: (name, unit, better).
PER_LAYER: Tuple[Tuple[str, str, str], ...] = (
    ("seeds.events", "count", "higher"),
    ("seeds.busy_s", "s", "lower"),
    ("queue.submitted", "count", "higher"),
    ("queue.accepted", "count", "higher"),
    ("queue.accept_ratio", "ratio", "higher"),
    ("queue.busy_s", "s", "lower"),
    ("platform.crawls", "count", "higher"),
    ("platform.failures", "count", "lower"),
    ("serving.visits", "count", "higher"),
    ("serving.visit_busy_s", "s", "lower"),
    ("platform.crawl_self_s", "s", "lower"),
    ("worldgen.cache_hit_ratio", "ratio", "higher"),
    ("worldgen.cache_evictions", "count", "lower"),
    ("detect.rows", "count", "higher"),
    ("detect.busy_s", "s", "lower"),
    ("columnar.rows", "count", "higher"),
    ("columnar.append_busy_s", "s", "lower"),
    ("spill.segments", "count", "lower"),
    ("spill.bytes_written", "bytes", "lower"),
    ("spill.write_busy_s", "s", "lower"),
    ("spill.fold_busy_s", "s", "lower"),
    ("spill.leaked_files", "count", "lower"),
    ("executor.shards", "count", "higher"),
    ("executor.wall_s", "s", "lower"),
    ("executor.busy_s", "s", "lower"),
    ("executor.merge_s", "s", "lower"),
    ("executor.payload_bytes", "bytes", "lower"),
    ("toplist.probes", "count", "higher"),
    ("toplist.reachable_ratio", "ratio", "higher"),
    ("toplist.probe_busy_s", "s", "lower"),
    ("toplist.crawls", "count", "higher"),
    ("toplist.crawl_busy_s", "s", "lower"),
    ("adoption.busy_s", "s", "lower"),
    ("vantage.busy_s", "s", "lower"),
    ("marketshare.busy_s", "s", "lower"),
    ("stream.days", "count", "higher"),
    ("stream.rows", "count", "higher"),
    ("stream.ingest_self_s", "s", "lower"),
    ("stream.query_s", "s", "lower"),
    ("cache.writes", "count", "lower"),
    ("cache.reads", "count", "higher"),
    ("cache.hit_ratio", "ratio", "higher"),
    ("cache.bytes_written", "bytes", "lower"),
    ("cache.write_busy_s", "s", "lower"),
    ("cache.read_busy_s", "s", "lower"),
    ("tranco.build_s", "s", "lower"),
    ("trace.coverage", "ratio", "higher"),
    ("trace.overhead", "ratio", "lower"),
)

UNITS: Dict[str, str] = {
    **{name: unit for name, unit, _ in END_TO_END},
    **{name: unit for name, unit, _ in PER_LAYER},
}


def benchmark_json() -> dict:
    """The ``BENCHMARK.json`` document these definitions imply."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": w} for n, w in WORKLOADS],
        "end_to_end": [
            {"name": n, "unit": u, "better": "lower", "bound": b}
            for n, u, b in END_TO_END
        ],
        "per_layer": [
            {"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER
        ],
    }


def invalid_names() -> List[str]:
    """Metric or workload names, or units, outside the allowed grammar."""
    bad = [n for n in WORKLOAD_NAMES if not NAME_RE.match(n)]
    bad += [n for n in UNITS if not NAME_RE.match(n)]
    bad += [u for u in UNITS.values() if not UNIT_RE.match(u)]
    names = list(WORKLOAD_NAMES)
    names += [n for n, _, _ in END_TO_END] + [n for n, _, _ in PER_LAYER]
    bad += sorted({n for n in names if names.count(n) > 1})
    return bad
