"""Layer wrappers for the traced run, and the per-layer metrics they give.

``install()`` wraps public functions of each ``repro`` layer in
:class:`tracer.Tracer` spans; ``metrics()`` turns the spans, plus the
counters the program already exposes (``PlatformStats``,
``ExecutorStats``, ``World.cache_info()``), into the per-layer metrics
``spec.PER_LAYER`` names. README.md has the layer table: which span
wraps which function, and which end-to-end metric each should move.

Process-pool workers run forked copies of the wrapped functions, but
their spans never reach the parent; for the sharded crawl the
``executor.*`` metrics come from the executor's per-shard counters.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Any, Dict, Iterable, Optional

from tracer import Tracer


def _length(args: tuple, kwargs: dict, result: Any) -> float:
    return float(len(result)) if result is not None else 0.0


def _one(args: tuple, kwargs: dict, result: Any) -> float:
    return 1.0


def _truthy(args: tuple, kwargs: dict, result: Any) -> float:
    return 1.0 if result else 0.0


def _found(args: tuple, kwargs: dict, result: Any) -> float:
    return 1.0 if result is not None else 0.0


def _batch_rows(args: tuple, kwargs: dict, result: Any) -> float:
    # append_batch(self, domains, ...)
    return float(len(args[1]))


def _file_size(args: tuple, kwargs: dict, result: Any) -> float:
    # save_store(store, path)
    try:
        return float(os.path.getsize(args[1]))
    except OSError:
        return 0.0


def install() -> Tracer:
    """Wrap the layer boundaries; ``Tracer.restore()`` undoes it."""
    import repro.cache as cache
    import repro.core.adoption as adoption
    import repro.core.marketshare as marketshare
    import repro.core.pipeline as pipeline
    import repro.core.vantage as vantage
    import repro.crawler.columnar as columnar
    import repro.crawler.executor as executor
    import repro.crawler.platform as platform
    import repro.crawler.queue as queue
    import repro.crawler.seeds as seeds
    import repro.crawler.spill as spill
    import repro.crawler.toplist_crawl as toplist_crawl
    import repro.detect.engine as detect
    import repro.stream.engine as stream

    t = Tracer()
    t.wrap(pipeline, "build_tranco", "tranco.build")
    t.wrap(seeds.SocialShareStream, "events_for_day", "seeds", _length)
    t.wrap(queue.CaptureQueue, "submit_at", "queue.submit", _truthy)
    t.wrap(queue.CaptureQueue, "prune", "queue.prune")
    t.wrap(platform.NetographPlatform, "run", "platform")
    t.wrap(platform.NetographPlatform, "ingest_day", "platform")
    t.wrap(platform, "visit_compact", "serving.visit")
    t.wrap(executor.CrawlExecutor, "map_shards", "executor")
    t.wrap(detect.DetectionEngine, "detect_batch", "detect", _length)
    t.wrap(detect.DetectionEngine, "detect", "detect", _one)
    t.wrap(vantage, "detect_cmp", "detect", _one)
    t.wrap(columnar.CaptureStore, "append_batch", "columnar.append", _batch_rows)
    t.wrap(spill, "save_store", "spill.write", _file_size)
    t.wrap(spill.SpillingCaptureStore, "fold_in", "spill.fold")
    t.wrap(toplist_crawl, "resolve_toplist", "toplist.probe", _length)
    t.wrap(toplist_crawl, "crawl_url", "toplist.crawl", _one)
    t.wrap(adoption.AdoptionSeries, "from_columnar", "adoption")
    t.wrap(adoption.AdoptionAccumulator, "series", "adoption")
    t.wrap(vantage.VantageTable, "from_crawl", "vantage")
    t.wrap(vantage.VantageAccumulator, "table", "vantage")
    t.wrap(pipeline, "marketshare_by_toplist_size", "marketshare")
    t.wrap(marketshare.MarketShareAccumulator, "curve", "marketshare")
    t.wrap(stream.StreamingStudyEngine, "advance_day", "stream.ingest", _one)
    t.wrap(stream.StreamingStudyEngine, "from_checkpoint", "stream.resume")
    for query in ("adoption_series", "vantage_table", "live_marketshare_curve"):
        t.wrap(stream.StreamingStudyEngine, query, "stream.query")
    t.wrap(cache.ArtifactCache, "save_capture_store", "cache.write")
    t.wrap(cache.ArtifactCache, "save_payload", "cache.write")
    t.wrap(cache.ArtifactCache, "load_capture_store", "cache.read", _found)
    t.wrap(cache.ArtifactCache, "load_payload", "cache.read", _found)
    return t


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def tree_bytes(root: Optional[str]) -> int:
    """Total size of the regular files under *root* (0 if absent)."""
    if not root or not os.path.isdir(root):
        return 0
    return sum(
        path.stat().st_size for path in Path(root).rglob("*") if path.is_file()
    )


def _studies(study: Any, outputs: Dict[str, Any]) -> Iterable[Any]:
    """The set-up study and any other study the workload built."""
    yield study
    if "sharded" in outputs:
        yield outputs["sharded"]
    engine = outputs.get("engine")
    if engine is not None and engine.study is not study:
        yield engine.study


def metrics(
    tracer: Tracer,
    study: Any,
    outputs: Dict[str, Any],
    wall_s: float,
    setup_self_s: float,
) -> Dict[str, float]:
    """The per-layer metrics of one traced run (all but the two that
    need other runs: ``trace.overhead`` and ``spill.leaked_files``)."""
    s = tracer.stats
    engine = outputs.get("engine")
    studies = list(_studies(study, outputs))
    crawl_stats = [st.last_crawl_stats for st in studies if st.last_crawl_stats]
    if engine is not None:
        crawl_stats.append(engine.platform.stats)
    executor = next(
        (c.executor for c in crawl_stats if getattr(c, "executor", None)), None
    )
    hits = misses = evictions = 0
    for st in studies:
        for lru in st.world.cache_info().values():
            hits += lru.hits
            misses += lru.misses
            evictions += lru.evictions
    probes = [p for r in getattr(study, "toplist_results", []) for p in r.probes]
    segments = sum(
        getattr(store, "n_segments", 0) for store in study.social_stores
    )
    return {
        "seeds.events": s("seeds").count,
        "seeds.busy_s": s("seeds").total,
        "queue.submitted": float(s("queue.submit").calls),
        "queue.accepted": s("queue.submit").count,
        "queue.accept_ratio": ratio(
            s("queue.submit").count, s("queue.submit").calls
        ),
        "queue.busy_s": s("queue.submit").total + s("queue.prune").total,
        "platform.crawls": float(sum(c.crawls for c in crawl_stats)),
        "platform.failures": float(sum(c.failures for c in crawl_stats)),
        "serving.visits": float(s("serving.visit").calls),
        "serving.visit_busy_s": s("serving.visit").total,
        "platform.crawl_self_s": s("platform").self,
        "worldgen.cache_hit_ratio": ratio(hits, hits + misses),
        "worldgen.cache_evictions": float(evictions),
        "detect.rows": s("detect").count,
        "detect.busy_s": s("detect").total,
        "columnar.rows": s("columnar.append").count,
        "columnar.append_busy_s": s("columnar.append").total,
        "spill.segments": float(segments),
        "spill.bytes_written": s("spill.write").count,
        "spill.write_busy_s": s("spill.write").total,
        "spill.fold_busy_s": s("spill.fold").total,
        "executor.shards": float(executor.n_shards if executor else 0),
        "executor.wall_s": executor.wall_seconds if executor else 0.0,
        "executor.busy_s": executor.busy_seconds if executor else 0.0,
        "executor.merge_s": executor.merge_seconds if executor else 0.0,
        "executor.payload_bytes": float(
            executor.payload_bytes if executor else 0
        ),
        "toplist.probes": float(len(probes)),
        "toplist.reachable_ratio": ratio(
            sum(1 for p in probes if p.reachable), len(probes)
        ),
        "toplist.probe_busy_s": s("toplist.probe").total,
        "toplist.crawls": float(s("toplist.crawl").calls),
        "toplist.crawl_busy_s": s("toplist.crawl").total,
        "adoption.busy_s": s("adoption").total,
        "vantage.busy_s": s("vantage").total,
        "marketshare.busy_s": s("marketshare").total,
        "stream.days": float(s("stream.ingest").calls),
        "stream.rows": float(engine.rows_ingested if engine is not None else 0),
        "stream.ingest_self_s": s("stream.ingest").self,
        "stream.query_s": s("stream.query").total,
        "cache.writes": float(s("cache.write").calls),
        "cache.reads": float(s("cache.read").calls),
        "cache.hit_ratio": ratio(s("cache.read").count, s("cache.read").calls),
        "cache.bytes_written": float(tree_bytes(study.config.cache_dir)),
        "cache.write_busy_s": s("cache.write").total,
        "cache.read_busy_s": s("cache.read").total,
        "tranco.build_s": s("tranco.build").total,
        "trace.coverage": ratio(tracer.self_total() - setup_self_s, wall_s),
    }

