"""The sharded crawl executor and its determinism contract.

The load-bearing guarantee: for a fixed seed, the platform produces the
*identical* observation sequence no matter the worker count, backend, or
shard layout. This is what makes the parallel substrate trustworthy for
longitudinal analyses -- a re-run on different hardware can never shift a
figure.
"""

import datetime as dt
import tempfile
from pathlib import Path

import pytest

from repro.cache import ArtifactCache, Fingerprint
from repro.core.pipeline import Study, StudyConfig
from repro.crawler.executor import (
    CrawlExecutor,
    ExecutorConfig,
    partition,
    partition_grouped,
)
from repro.crawler.platform import (
    CaptureStore,
    NetographPlatform,
    PlatformConfig,
)
from repro.crawler.capture import EU_CLOUD, US_CLOUD, Observation
from repro.crawler.seeds import SocialShareStream, StreamConfig
from repro.crawler.spill import SpillingCaptureStore, SpillSettings
from repro.crawler.storage import store_digest
from repro.crawler.toplist_crawl import ToplistCrawler

START = dt.date(2020, 4, 1)
END = dt.date(2020, 4, 7)
MAY = dt.date(2020, 5, 15)


def _fresh_platform(study):
    return NetographPlatform(
        study.world,
        stream=SocialShareStream(
            study.world, StreamConfig(seed=11, events_per_day=150)
        ),
        config=PlatformConfig(seed=23),
    )


def _run(study, executor=None):
    platform = _fresh_platform(study)
    store = platform.run(START, END, executor=executor)
    return platform, store


def _keys(store):
    """Fully comparable projection of the observation sequence."""
    return [
        (o.domain, o.date, o.cmp_key, o.vantage.region, o.vantage.address_space)
        for o in store.observations
    ]


@pytest.fixture(scope="module")
def serial_run(study):
    return _run(study)


class TestDeterminism:
    """Serial == processes, observation for observation."""

    @pytest.mark.parametrize("backend", ["process"])
    def test_parallel_matches_serial(self, study, serial_run, backend):
        serial_platform, serial_store = serial_run
        executor = CrawlExecutor(ExecutorConfig(workers=4, backend=backend))
        platform, store = _run(study, executor=executor)

        assert _keys(store) == _keys(serial_store)
        assert store.n_captures == serial_store.n_captures
        assert store.total_requests == serial_store.total_requests
        assert store.unique_domains == serial_store.unique_domains
        assert sorted(store.domains_with_cmp()) == sorted(
            serial_store.domains_with_cmp()
        )
        assert platform.stats.events == serial_platform.stats.events
        assert platform.stats.crawls == serial_platform.stats.crawls
        assert platform.stats.failures == serial_platform.stats.failures
        assert (
            platform.queue.stats.skip_rate
            == serial_platform.queue.stats.skip_rate
        )

    def test_serial_backend_config_stays_serial(self, study, serial_run):
        _, serial_store = serial_run
        executor = CrawlExecutor(ExecutorConfig(workers=4, backend="serial"))
        platform, store = _run(study, executor=executor)
        assert _keys(store) == _keys(serial_store)
        # No fan-out happened, so no executor stats are recorded.
        assert platform.stats.executor is None

    def test_executor_stats_populated(self, study, serial_run):
        executor = CrawlExecutor(ExecutorConfig(workers=4, backend="process"))
        platform, store = _run(study, executor=executor)
        stats = platform.stats.executor
        assert stats is not None
        assert stats.backend == "process"
        assert stats.workers == 4
        assert 1 <= stats.n_shards <= 4 * executor.config.shards_per_worker
        assert stats.crawls == platform.stats.crawls == store.n_captures
        assert stats.failures == platform.stats.failures
        assert sum(s.tasks for s in stats.shards) == store.n_captures
        assert stats.wall_seconds > 0
        assert stats.merge_seconds >= 0
        assert all(s.seconds >= 0 for s in stats.shards)

    def test_store_continuation_across_parallel_runs(self, study):
        executor = CrawlExecutor(ExecutorConfig(workers=2, backend="process"))
        platform = _fresh_platform(study)
        store = platform.run(START, dt.date(2020, 4, 3), executor=executor)
        n_first = store.n_captures
        platform.run(
            dt.date(2020, 4, 3), dt.date(2020, 4, 5),
            store=store, executor=executor,
        )
        assert store.n_captures > n_first

        serial = _fresh_platform(study)
        serial_store = serial.run(START, dt.date(2020, 4, 5))
        assert _keys(store) == _keys(serial_store)

    def test_vantage_independent_of_history(self, study):
        """An event's vantage must not depend on how many crawls ran
        before it: a run over a superset window assigns the same vantage
        to the shared days."""
        short = _fresh_platform(study).run(START, dt.date(2020, 4, 2))
        long = _fresh_platform(study).run(START, dt.date(2020, 4, 4))
        n = len(short.observations)
        assert _keys(short) == _keys(long)[:n]


class TestShardKernel:
    """Shard workers crawl each day through the serial loop's batch
    kernel: process x2 stores are digest-equal to the serial store, with
    and without a spill budget, and no worker spill directory outlives
    the merge."""

    BASE = dict(
        seed=7, n_domains=1_000, toplist_size=100, events_per_day=80,
        study_start=dt.date(2020, 4, 1), study_end=dt.date(2020, 4, 6),
    )

    @pytest.fixture(scope="class")
    def serial_digest(self):
        return store_digest(Study(StudyConfig(**self.BASE)).run_social_crawl())

    @pytest.mark.parametrize("memory_budget", [None, 10])
    def test_process_digest_matches_serial(self, serial_digest, memory_budget):
        study = Study(
            StudyConfig(**self.BASE, parallelism=2, memory_budget=memory_budget)
        )
        store = study.run_social_crawl()
        try:
            assert study.last_crawl_stats.executor.n_shards > 1
            assert store_digest(store) == serial_digest
        finally:
            if isinstance(store, SpillingCaptureStore):
                store.cleanup()

    def test_no_worker_spill_dirs_left(self, tmp_path, monkeypatch):
        monkeypatch.setenv("TMPDIR", str(tmp_path))
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        study = Study(StudyConfig(**self.BASE, parallelism=2, memory_budget=10))
        store = study.run_social_crawl()
        assert isinstance(store, SpillingCaptureStore)
        # Only the parent's own store may still hold a spill directory.
        own = {Path(path).parent.name for path in store.segment_paths()}
        left = {path.name for path in tmp_path.glob("repro-spill-*")}
        assert left == own
        store.cleanup()
        assert list(tmp_path.glob("repro-spill-*")) == []


class TestShardedContinuation:
    """Continuing a plain store on a sharded run whose shard stores
    spill: the shard segments are merged in order (digest equal to the
    serial run) and every worker spill dir is released, also when the
    merge raises."""

    DAYS = (dt.date(2020, 4, 1), dt.date(2020, 4, 4))

    @pytest.fixture(scope="class")
    def world(self):
        return Study(StudyConfig(seed=7, n_domains=1_000)).world

    def _platform(self, world, spill):
        return NetographPlatform(
            world,
            stream=SocialShareStream(
                world, StreamConfig(seed=11, events_per_day=100)
            ),
            config=PlatformConfig(seed=23, spill=spill),
        )

    def _run(self, world, tmp_path, monkeypatch, cache=None):
        monkeypatch.setenv("TMPDIR", str(tmp_path))
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        platform = self._platform(world, SpillSettings(row_budget=10))
        executor = CrawlExecutor(ExecutorConfig(workers=2, backend="process"))
        fingerprint = None
        if cache is not None:
            fingerprint = Fingerprint.build("social-crawl", ("continuation",))
        return platform.run(
            *self.DAYS, store=CaptureStore(), executor=executor,
            cache=cache, fingerprint=fingerprint,
        )

    def test_digest_matches_serial_and_no_dir_left(
        self, world, tmp_path, monkeypatch
    ):
        serial = self._platform(world, None).run(*self.DAYS)
        store = self._run(world, tmp_path, monkeypatch)
        assert isinstance(store, CaptureStore)
        assert store_digest(store) == store_digest(serial)
        assert list(tmp_path.iterdir()) == []

    def test_cached_run_leaves_no_dir(self, world, tmp_path, monkeypatch):
        # The populating run merges its own spilling store into the
        # continuation store; that store is released too.
        spill_dir = tmp_path / "spill"
        spill_dir.mkdir()
        cache = ArtifactCache(tmp_path / "cache")
        serial = self._platform(world, None).run(*self.DAYS)
        store = self._run(world, spill_dir, monkeypatch, cache=cache)
        assert store_digest(store) == store_digest(serial)
        assert list(spill_dir.iterdir()) == []
        warm = self._run(world, spill_dir, monkeypatch, cache=cache)
        assert store_digest(warm) == store_digest(serial)

    def test_failed_merge_leaves_no_dir(self, world, tmp_path, monkeypatch):
        def boom(self, other):
            raise RuntimeError("merge failed")

        monkeypatch.setattr(CaptureStore, "merge", boom)
        with pytest.raises(RuntimeError, match="merge failed"):
            self._run(world, tmp_path, monkeypatch)
        assert list(tmp_path.iterdir()) == []


class TestToplistExecutor:
    @pytest.fixture(scope="class")
    def domains(self, study):
        return study.tranco.top(60)

    def test_parallel_matches_serial(self, study, domains):
        configs = ("us-cloud", "eu-univ-default")
        serial = ToplistCrawler(study.world).run(domains, MAY, configs)
        executor = CrawlExecutor(ExecutorConfig(workers=4, backend="process"))
        parallel = ToplistCrawler(study.world).run(
            domains, MAY, configs, executor=executor
        )
        assert serial.probes == parallel.probes
        assert serial.captures == parallel.captures
        # Insertion order (toplist order) is preserved by the merge.
        for name in configs:
            assert list(serial.captures[name]) == list(parallel.captures[name])
        stats = parallel.executor_stats
        assert stats is not None
        assert stats.crawls >= sum(
            len(caps) for caps in parallel.captures.values()
        )

    def test_process_backend_matches_serial(self, study, domains):
        configs = ("eu-cloud",)
        serial = ToplistCrawler(study.world).run(domains[:20], MAY, configs)
        executor = CrawlExecutor(ExecutorConfig(workers=2, backend="process"))
        parallel = ToplistCrawler(study.world).run(
            domains[:20], MAY, configs, executor=executor
        )
        assert serial.captures == parallel.captures


class TestCaptureStoreMerge:
    def _obs(self, domain, day, cmp_key=None, vantage=EU_CLOUD):
        return Observation(
            domain=domain, date=dt.date(2020, 4, day),
            cmp_key=cmp_key, vantage=vantage,
        )

    def test_merge_combines_counts_and_buckets(self):
        a, b = CaptureStore(), CaptureStore()
        a.add_observation(self._obs("x.com", 1))
        a.add_observation(self._obs("y.com", 2, "onetrust"))
        b.add_observation(self._obs("x.com", 3))
        b.add_observation(self._obs("z.com", 1, "quantcast", US_CLOUD))
        a.total_requests, b.total_requests = 10, 7
        a.n_captures, b.n_captures = 2, 2
        a.merge(b)
        assert a.n_captures == 4
        assert a.total_requests == 17
        assert len(a.observations) == 4
        assert a.unique_domains == 3
        assert [o.date.day for o in a.by_domain()["x.com"]] == [1, 3]
        assert sorted(a.domains_with_cmp()) == ["y.com", "z.com"]

    def test_merge_resorts_out_of_order_dates(self):
        a, b = CaptureStore(), CaptureStore()
        a.add_observation(self._obs("x.com", 5))
        b.add_observation(self._obs("x.com", 2))
        b.add_observation(self._obs("x.com", 9))
        a.merge(b)
        assert [o.date.day for o in a.by_domain()["x.com"]] == [2, 5, 9]

    def test_in_order_appends_keep_insertion_order(self):
        store = CaptureStore()
        for day in (1, 2, 3):
            store.add_observation(self._obs("x.com", day))
        assert [o.date.day for o in store.by_domain()["x.com"]] == [1, 2, 3]

    def test_snapshots_are_immutable(self):
        store = CaptureStore()
        store.add_observation(self._obs("x.com", 1))
        first = store.by_domain()
        store.add_observation(self._obs("x.com", 2))
        store.add_observation(self._obs("y.com", 1))
        second = store.by_domain()
        assert first is not second
        assert len(first["x.com"]) == 1
        assert "y.com" not in first
        assert len(second["x.com"]) == 2
        # Unchanged between queries -> the same snapshot is reused.
        assert store.by_domain() is second

    def test_merge_respects_snapshot_immutability(self):
        a, b = CaptureStore(), CaptureStore()
        a.add_observation(self._obs("x.com", 1))
        snapshot = a.by_domain()
        b.add_observation(self._obs("x.com", 2))
        a.merge(b)
        assert len(snapshot["x.com"]) == 1
        assert len(a.by_domain()["x.com"]) == 2


class TestShardDerivation:
    def test_partition_balanced_and_ordered(self):
        chunks = partition(list(range(10)), 3)
        assert chunks == [[0, 1, 2, 3], [4, 5, 6], [7, 8, 9]]
        assert partition([], 4) == []
        assert partition([1], 5) == [[1]]

    def test_partition_grouped_splits_at_day_edges(self):
        items = [(d, i) for d in range(4) for i in range(5)]
        chunks = partition_grouped(items, 2, key=lambda item: item[0])
        assert [item for chunk in chunks for item in chunk] == items
        assert len(chunks) == 2
        for chunk in chunks:
            days = [d for d, _ in chunk]
            # No day is split across chunks.
            assert days == sorted(days)
        boundary_days = {chunk[0][0] for chunk in chunks[1:]}
        for chunk in chunks[:-1]:
            assert chunk[-1][0] not in boundary_days

    def test_partition_grouped_falls_back_for_few_groups(self):
        items = [(0, i) for i in range(8)]
        chunks = partition_grouped(items, 4, key=lambda item: item[0])
        assert len(chunks) == 4
        assert [item for chunk in chunks for item in chunk] == items


class TestExecutorConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            ExecutorConfig(workers=0)
        with pytest.raises(ValueError):
            ExecutorConfig(backend="quantum")
        with pytest.raises(ValueError):
            ExecutorConfig(backend="thread")
        with pytest.raises(ValueError):
            ExecutorConfig(shards_per_worker=0)

    def test_parallel_property(self):
        assert not ExecutorConfig(workers=1).parallel
        assert not ExecutorConfig(workers=8, backend="serial").parallel
        assert ExecutorConfig(workers=2, backend="process").parallel

    def test_n_shards(self):
        config = ExecutorConfig(workers=4, backend="process",
                                shards_per_worker=4)
        assert config.n_shards(1000) == 16
        assert config.n_shards(5) == 5
        assert config.n_shards(0) == 1
        assert ExecutorConfig(workers=1).n_shards(1000) == 1


class TestStudyWiring:
    def test_parallel_study_matches_serial_study(self):
        base = dict(seed=7, n_domains=1_000, toplist_size=100,
                    events_per_day=80)
        serial = Study(StudyConfig(**base))
        parallel = Study(
            StudyConfig(**base, parallelism=3, backend="process")
        )
        window = (dt.date(2020, 4, 1), dt.date(2020, 4, 5))
        s_store = serial.run_social_crawl(*window)
        p_store = parallel.run_social_crawl(*window)
        assert _keys(p_store) == _keys(s_store)
        assert parallel.last_crawl_stats.executor is not None
        assert serial.last_crawl_stats.executor is None

    @pytest.mark.parametrize("parallelism", [0, -1])
    def test_nonpositive_parallelism_rejected(self, parallelism):
        with pytest.raises(ValueError, match="parallelism must be >= 1"):
            StudyConfig(parallelism=parallelism)

    def test_unknown_backend_rejected_at_config_time(self):
        # Rejected when the config is built, not when a pool would be;
        # the message names the backends that remain.
        with pytest.raises(ValueError, match="serial, process"):
            StudyConfig(backend="thread")
        assert StudyConfig().backend == "process"
        assert StudyConfig(backend="serial", parallelism=4).backend == "serial"

    def test_executor_property(self):
        assert Study(StudyConfig(n_domains=1_000)).executor is None
        study = Study(
            StudyConfig(n_domains=1_000, parallelism=2, backend="process")
        )
        assert study.executor is not None
        assert study.executor.config.workers == 2
        assert study.executor.config.backend == "process"
