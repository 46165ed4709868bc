"""The toplist-based crawl protocol (Section 3.2).

To compare with related work, the paper crawls the Tranco top 10k with a
dedicated setup:

1. every domain is resolved to a seed URL via the TLS/TCP probe protocol
   (:mod:`repro.net.probe`), retried three times over a week;
2. every URL is crawled six times in immediate succession:

   * from a European university network with the crawler's default
     configuration,
   * again with an extended timeout,
   * with German and with British English as the browser language,
   * and from the US and EU cloud task queues as a control group;

3. unsuccessful captures are retried three times over the span of a
   week.

All toplist crawls additionally store the DOM tree and a full-page
screenshot, which the customization analysis (I3) consumes.
"""

from __future__ import annotations

import dataclasses
import datetime as dt
import pickle
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from repro.crawler.browser import CrawlProfile, crawl_url
from repro.crawler.capture import Capture, Vantage
from repro.crawler.executor import (
    CrawlExecutor,
    ExecutorStats,
    ShardStats,
    partition,
    publish_world,
    resolve_world,
)
from repro.faults import (
    Clock,
    FaultSchedule,
    FaultTally,
    RetryPolicy,
    VirtualClock,
    WorkerCrash,
    run_with_retries,
)
from repro.net import publish_cache_gauges
from repro.net.probe import (
    ProbeResult,
    probe_from_record,
    probe_to_record,
    resolve_toplist,
)
from repro.obs import Observability, resolve_obs
from repro.web.worldgen import World, WorldConfig

if TYPE_CHECKING:  # pragma: no cover - import cycle (cache uses storage)
    from repro.cache import ArtifactCache, Fingerprint

#: The six crawl configurations, in Table 1 column order.
CRAWL_CONFIGS: Tuple[Tuple[str, Vantage, CrawlProfile], ...] = (
    (
        "us-cloud",
        Vantage("US", "cloud"),
        CrawlProfile(name="default", cutoff=10.0, store_dom=True),
    ),
    (
        "eu-cloud",
        Vantage("EU", "cloud"),
        CrawlProfile(name="default", cutoff=10.0, store_dom=True),
    ),
    (
        "eu-univ-default",
        Vantage("EU", "university"),
        CrawlProfile(name="default", cutoff=10.0, store_dom=True,
                     full_page_screenshot=True),
    ),
    (
        "eu-univ-extended",
        Vantage("EU", "university"),
        CrawlProfile(name="extended", cutoff=120.0, store_dom=True,
                     full_page_screenshot=True),
    ),
    (
        "eu-univ-de",
        Vantage("EU", "university"),
        CrawlProfile(name="extended", cutoff=120.0, language="de-DE",
                     store_dom=True, full_page_screenshot=True),
    ),
    (
        "eu-univ-en-gb",
        Vantage("EU", "university"),
        CrawlProfile(name="extended", cutoff=120.0, language="en-GB",
                     store_dom=True, full_page_screenshot=True),
    ),
)

CONFIG_NAMES: Tuple[str, ...] = tuple(name for name, _, _ in CRAWL_CONFIGS)

_CONFIG_BY_NAME: Dict[str, Tuple[Vantage, CrawlProfile]] = {
    name: (vantage, profile) for name, vantage, profile in CRAWL_CONFIGS
}


@dataclass
class ToplistCrawlResult:
    """Everything a toplist crawl produces."""

    #: Probe outcome per toplist domain.
    probes: List[ProbeResult]
    #: Config name -> domain -> final capture (after retries).
    captures: Dict[str, Dict[str, Capture]] = field(default_factory=dict)
    #: Fan-out details when the crawl ran on a parallel executor.
    executor_stats: Optional[ExecutorStats] = None
    #: Fault/retry accounting of the run (empty outside chaos).
    faults: FaultTally = field(default_factory=FaultTally)

    @property
    def reachable_domains(self) -> Tuple[str, ...]:
        return tuple(p.domain for p in self.probes if p.reachable)

    def captures_for(self, config_name: str) -> Dict[str, Capture]:
        if config_name not in self.captures:
            raise KeyError(
                f"unknown config {config_name!r}; ran: {sorted(self.captures)}"
            )
        return self.captures[config_name]


@dataclass(frozen=True)
class ToplistShardTask:
    """One domain-range shard of the toplist protocol."""

    shard_id: int
    world_ref: WorldConfig
    #: Probes with a resolved seed URL, in toplist order.
    probes: Tuple[ProbeResult, ...]
    config_names: Tuple[str, ...]
    when: dt.date
    retries: int
    faults: Optional[FaultSchedule] = None
    retry_policy: Optional[RetryPolicy] = None
    #: Resume bookkeeping (set by :func:`resume_toplist_shard`): skip
    #: flattened ``(config, probe)`` work items below ``start_index``
    #: and seed state from ``checkpoint``.
    start_index: int = 0
    shard_attempt: int = 0
    checkpoint: Optional["ToplistShardResult"] = None


@dataclass(frozen=True)
class ToplistShardResult:
    shard_id: int
    #: Config name -> domain -> final capture, domains in shard order.
    captures: Dict[str, Dict[str, Capture]]
    crawls: int
    failures: int
    faults: FaultTally = field(default_factory=FaultTally)


def crawl_toplist_shard(task: ToplistShardTask) -> ToplistShardResult:
    """Run all requested configs over one probe slice (inside a worker).

    Work items are the flattened ``config x probe`` pairs, visited
    config-major so merged dict insertion order matches the serial path.
    A chaos schedule may kill the worker at a scheduled item index: the
    shard raises :class:`WorkerCrash` carrying its partial result, and
    the executor re-submits a task resumed from that checkpoint.
    """
    crawler = ToplistCrawler(
        resolve_world(task.world_ref),
        task.retries,
        faults=task.faults,
        retry=task.retry_policy,
    )
    captures: Dict[str, Dict[str, Capture]] = {}
    tally = FaultTally()
    crawls = failures = 0
    if task.checkpoint is not None:
        checkpoint = task.checkpoint
        captures = {
            name: dict(per) for name, per in checkpoint.captures.items()
        }
        crawls = checkpoint.crawls
        failures = checkpoint.failures
        tally.merge(checkpoint.faults)
    n_items = len(task.config_names) * len(task.probes)
    crash_at = (
        task.faults.crash_point(task.shard_id, n_items, task.shard_attempt)
        if task.faults is not None
        else None
    )
    clock = VirtualClock()
    index = -1
    for name in task.config_names:
        vantage, profile = _CONFIG_BY_NAME[name]
        per_domain = captures.setdefault(name, {})
        for probe in task.probes:
            index += 1
            if index < task.start_index:
                continue
            if crash_at is not None and index == crash_at:
                raise WorkerCrash(
                    task.shard_id,
                    done=index,
                    checkpoint=ToplistShardResult(
                        shard_id=task.shard_id,
                        captures=captures,
                        crawls=crawls,
                        failures=failures,
                        faults=tally,
                    ),
                )
            capture = crawler._crawl_with_retries(
                probe, task.when, vantage, profile, tally=tally, clock=clock
            )
            per_domain[probe.domain] = capture
            crawls += 1
            if not capture.succeeded:
                failures += 1
    return ToplistShardResult(
        shard_id=task.shard_id,
        captures=captures,
        crawls=crawls,
        failures=failures,
        faults=tally,
    )


def resume_toplist_shard(
    task: ToplistShardTask, crash: WorkerCrash
) -> ToplistShardTask:
    """The task that continues *task* past *crash* (executor callback)."""
    return dataclasses.replace(
        task,
        start_index=crash.done,
        shard_attempt=task.shard_attempt + 1,
        checkpoint=crash.checkpoint,
    )


class ToplistCrawler:
    """Runs the six-configuration protocol over a toplist."""

    def __init__(
        self,
        world: World,
        retries: int = 3,
        obs: Optional[Observability] = None,
        faults: Optional[FaultSchedule] = None,
        retry: Optional[RetryPolicy] = None,
        clock: Optional[Clock] = None,
    ):
        self.world = world
        self.retries = retries
        self.obs = resolve_obs(obs)
        #: Chaos schedule injected into probes and crawls; ``None`` (the
        #: default) keeps the protocol bit-identical to a build without
        #: repro.faults.
        self.faults = faults
        #: Backoff policy for same-date retries of injected faults.
        self.retry = retry
        #: Waits out retry backoff; virtual by default so chaos runs
        #: never sleep for real.
        self.clock: Clock = clock if clock is not None else VirtualClock()
        metrics = self.obs.metrics
        self._m_crawls = metrics.counter(
            "toplist_crawls_total",
            "final toplist captures by config and outcome",
        )
        self._m_probes = metrics.counter(
            "toplist_probes_total", "toplist domains by probe outcome"
        )
        self._h_shard_seconds = metrics.histogram(
            "executor_shard_seconds", "per-shard crawl wall-clock"
        )
        self._m_faults = metrics.counter(
            "crawl_faults_total", "faults injected into crawls, by kind"
        )
        self._m_retries = metrics.counter(
            "crawl_retries_total", "crawl retry attempts by outcome"
        )

    def run(
        self,
        domains: Sequence[str],
        when: dt.date,
        configs: Sequence[str] = CONFIG_NAMES,
        executor: Optional[CrawlExecutor] = None,
        cache: Optional["ArtifactCache"] = None,
        probe_fingerprint: Optional["Fingerprint"] = None,
    ) -> ToplistCrawlResult:
        """Crawl *domains* around date *when* under the given configs.

        With a parallel *executor* the reachable probes are partitioned
        into contiguous domain ranges and each range runs every config on
        a worker; crawls are deterministic per ``(world, url, date,
        config)``, so the result is identical to the serial path.

        With a *cache* and *probe_fingerprint*, the seed-URL resolution
        phase is served from the artifact cache when a fresh entry
        exists (probing is deterministic, so cached probes are
        bit-identical to recomputed ones) and populated on a miss. The
        crawl phase itself is cached one level up, where whole derived
        analyses can be skipped (:mod:`repro.core.pipeline`).
        """
        with self.obs.span(
            "toplist.run", domains=len(domains), configs=len(configs)
        ) as run_span:
            with self.obs.span("toplist.probe") as probe_span:
                probes = self._resolve_probes(
                    domains, cache, probe_fingerprint
                )
            result = ToplistCrawlResult(probes=probes)
            wanted = {
                name: _CONFIG_BY_NAME[name]
                for name in _CONFIG_BY_NAME
                if name in configs
            }
            missing = set(configs) - set(wanted)
            if missing:
                raise KeyError(f"unknown crawl configs: {sorted(missing)}")
            crawlable = tuple(p for p in probes if p.seed_url is not None)
            if self.obs.enabled:
                reachable = sum(1 for p in probes if p.reachable)
                probe_span.set(
                    domains=len(probes), reachable=reachable,
                    crawlable=len(crawlable),
                )
                if reachable:
                    self._m_probes.inc(reachable, outcome="reachable")
                if len(probes) - reachable:
                    self._m_probes.inc(
                        len(probes) - reachable, outcome="unreachable"
                    )
            if executor is not None and executor.config.parallel and crawlable:
                self._run_sharded(executor, crawlable, wanted, when, result)
                self._meter_faults(result.faults)
                publish_cache_gauges(self.obs)
                run_span.set(crawls=result.executor_stats.crawls)
                return result
            for name, (vantage, profile) in wanted.items():
                with self.obs.span("toplist.config", config=name) as cfg_span:
                    per_domain: Dict[str, Capture] = {}
                    for probe in crawlable:
                        capture = self._crawl_with_retries(
                            probe,
                            when,
                            vantage,
                            profile,
                            tally=result.faults,
                            clock=self.clock,
                        )
                        per_domain[probe.domain] = capture
                    cfg_span.set(
                        domains=len(per_domain),
                        failures=self._count_config(name, per_domain),
                    )
                result.captures[name] = per_domain
            self._meter_faults(result.faults)
            publish_cache_gauges(self.obs)
        return result

    def _resolve_probes(
        self,
        domains: Sequence[str],
        cache: Optional["ArtifactCache"],
        fingerprint: Optional["Fingerprint"],
    ) -> List[ProbeResult]:
        """Seed-URL resolution, served from the artifact cache if possible."""
        caching = cache is not None and fingerprint is not None
        if caching:
            payload = cache.load_payload(fingerprint)
            if payload is not None:
                return [probe_from_record(rec) for rec in payload]
        probes = resolve_toplist(
            domains, self.world, attempts=self.retries, faults=self.faults
        )
        if caching:
            cache.save_payload(
                fingerprint, [probe_to_record(p) for p in probes]
            )
        return probes

    def _count_config(
        self, name: str, per_domain: Dict[str, Capture]
    ) -> int:
        """Meter one config's final captures; returns the failure count."""
        if not self.obs.enabled:
            return 0
        failed = sum(1 for c in per_domain.values() if not c.succeeded)
        # A final capture that both failed and carries a fault kind lost
        # its whole retry budget to injected faults; keep it countable
        # separately so ok + failed + retries_exhausted == domains.
        exhausted = sum(
            1
            for c in per_domain.values()
            if not c.succeeded and c.fault is not None
        )
        if len(per_domain) - failed:
            self._m_crawls.inc(
                len(per_domain) - failed, config=name, outcome="ok"
            )
        if failed - exhausted:
            self._m_crawls.inc(
                failed - exhausted, config=name, outcome="failed"
            )
        if exhausted:
            self._m_crawls.inc(
                exhausted, config=name, outcome="retries_exhausted"
            )
        return failed

    def _meter_faults(self, tally: FaultTally) -> None:
        """Publish a run's fault/retry tally to the metrics registry."""
        for kind, count in sorted(tally.by_kind.items()):
            self._m_faults.inc(count, kind=kind)
        if tally.recovered:
            self._m_retries.inc(tally.recovered, outcome="recovered")
        if tally.exhausted:
            self._m_retries.inc(tally.exhausted, outcome="exhausted")

    def _run_sharded(
        self,
        executor: CrawlExecutor,
        crawlable: Tuple[ProbeResult, ...],
        wanted: Dict[str, Tuple[Vantage, CrawlProfile]],
        when: dt.date,
        result: ToplistCrawlResult,
    ) -> None:
        with self.obs.span(
            "executor.derive_shards",
            backend=executor.config.backend,
            workers=executor.config.workers,
        ) as derive_span:
            n_shards = executor.config.n_shards(len(crawlable))
            chunks = partition(crawlable, n_shards)
            world_ref = publish_world(self.world)
            config_names = tuple(wanted)
            tasks = [
                ToplistShardTask(
                    shard_id=i,
                    world_ref=world_ref,
                    probes=tuple(chunk),
                    config_names=config_names,
                    when=when,
                    retries=self.retries,
                    faults=self.faults,
                    retry_policy=self.retry,
                )
                for i, chunk in enumerate(chunks)
            ]
            derive_span.set(tasks=len(crawlable), shards=len(tasks))
        with self.obs.span(
            "executor.crawl", backend=executor.config.backend
        ) as crawl_span:
            shard_results, seconds, wall, resumes = executor.map_shards(
                crawl_toplist_shard, tasks, resume=resume_toplist_shard
            )
            crawl_span.set(shards=len(tasks))
            if self.obs.enabled:
                for task, shard_result, secs in zip(
                    tasks, shard_results, seconds
                ):
                    self.obs.tracer.record_span(
                        "executor.shard",
                        secs,
                        shard=task.shard_id,
                        tasks=len(task.probes),
                        crawls=shard_result.crawls,
                        failures=shard_result.failures,
                    )
                    self._h_shard_seconds.observe(secs, pipeline="toplist")
        # Payload accounting mirrors the social platform.
        payload_sizes = [
            len(pickle.dumps(t, protocol=pickle.HIGHEST_PROTOCOL))
            for t in tasks
        ]
        # Merge-duration stat only, not crawl-visible state.
        merge_start = time.perf_counter()  # repro-lint: disable=DET002
        stats = ExecutorStats(
            backend=executor.config.backend,
            workers=executor.config.workers,
            wall_seconds=wall,
        )
        with self.obs.span("executor.merge", shards=len(tasks)):
            # Config-major merge in shard order reproduces the serial
            # insertion order of every ``captures[name]`` dict.
            for name in config_names:
                merged: Dict[str, Capture] = {}
                for shard_result in shard_results:
                    merged.update(shard_result.captures[name])
                result.captures[name] = merged
                self._count_config(name, merged)
            for task, shard_result, secs, n_resumes, n_bytes in zip(
                tasks, shard_results, seconds, resumes, payload_sizes
            ):
                result.faults.merge(shard_result.faults)
                stats.shards.append(
                    ShardStats(
                        shard_id=task.shard_id,
                        tasks=len(task.probes),
                        crawls=shard_result.crawls,
                        failures=shard_result.failures,
                        seconds=secs,
                        resumes=n_resumes,
                        payload_bytes=n_bytes,
                    )
                )
        stats.merge_seconds = (
            time.perf_counter()  # repro-lint: disable=DET002
            - merge_start
        )
        result.executor_stats = stats

    def _crawl_with_retries(
        self,
        probe: ProbeResult,
        when: dt.date,
        vantage: Vantage,
        profile: CrawlProfile,
        tally: Optional[FaultTally] = None,
        clock: Optional[Clock] = None,
    ) -> Capture:
        assert probe.seed_url is not None
        url = probe.seed_url
        capture: Optional[Capture] = None
        # The fault-schedule attempt counter spans both retry loops, so a
        # transient fault burning the same-date budget stays burnt when
        # the crawl moves on to a later date.
        fault_attempts = [0]
        # Unsuccessful captures are retried over the span of a week; the
        # date offset re-rolls temporary unavailability. Injected faults
        # are retried *within* each date first: backoff runs through the
        # clock, never the crawl timestamp, so a recovered crawl is
        # bit-identical to its fault-free counterpart.
        for attempt in range(self.retries + 1):
            ts = dt.datetime.combine(
                when + dt.timedelta(days=2 * attempt), dt.time(hour=12)
            )

            def attempt_fn(_retry_no: int, ts: dt.datetime = ts) -> Capture:
                n = fault_attempts[0]
                fault_attempts[0] += 1
                return crawl_url(
                    self.world,
                    url,
                    when=ts,
                    vantage=vantage,
                    profile=profile,
                    faults=self.faults,
                    attempt=n,
                )

            if self.faults is None:
                capture = attempt_fn(0)
            else:
                capture = run_with_retries(
                    attempt_fn,
                    key=f"{url}@{ts.isoformat()}",
                    policy=self.retry,
                    clock=clock,
                    tally=tally,
                )
            if capture.succeeded:
                return capture
        assert capture is not None
        return capture
