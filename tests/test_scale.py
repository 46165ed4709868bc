"""Flat-RSS scale-out invariants: bounded caches, spills, lazy shards.

The scale-out contract has two halves. Correctness: bounding the world
memo caches, spilling full capture segments to disk, and regenerating
shard events lazily are all *bit-invisible* -- every digest and every
resolution is identical to the unbounded in-memory run, across all
executor backends. Capacity: memory actually stays bounded -- the
negative host cache cannot outgrow its cap, and the spilling store's
footprint is set by the row budget, not the row count.
"""

import datetime as dt
import itertools
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.pipeline import Study, StudyConfig
from repro.crawler.columnar import CaptureStore
from repro.crawler.executor import publish_world
from repro.crawler.platform import (
    NetographPlatform,
    PlatformConfig,
    SocialShardSpec,
)
from repro.crawler.seeds import SocialShareStream, StreamConfig
from repro.crawler.spill import SpillSettings, SpillingCaptureStore
from repro.crawler.storage import store_digest
from repro.obs import Observability
from repro.web.lru import MISSING, BoundedLRU
from repro.web.worldgen import (
    UNBOUNDED_CACHE_LIMITS,
    CacheLimits,
    World,
    WorldConfig,
)

WINDOW = (dt.date(2020, 3, 1), dt.date(2020, 3, 8))

#: Small enough to force constant eviction on a 300-domain world.
TINY_LIMITS = CacheLimits(
    sites=8, hosts=8, negative_hosts=4, visit_plans=8, share_urls=8
)


def small_config(**overrides):
    base = dict(
        seed=13,
        n_domains=700,
        toplist_size=60,
        events_per_day=25,
        study_start=WINDOW[0],
        study_end=WINDOW[1],
    )
    base.update(overrides)
    return StudyConfig(**base)


# ----------------------------------------------------------------------
# BoundedLRU: the eviction primitive under everything else
# ----------------------------------------------------------------------
class TestBoundedLRU:
    def test_evicts_least_recently_used(self):
        lru = BoundedLRU(maxsize=2)
        lru["a"] = 1
        lru["b"] = 2
        assert lru.get("a") == 1  # refresh "a"; "b" is now oldest
        lru["c"] = 3
        assert lru.get("b", MISSING) is MISSING
        assert lru.get("a") == 1
        assert lru.evictions == 1

    def test_unbounded_mode_never_evicts(self):
        lru = BoundedLRU(maxsize=None)
        for i in range(1000):
            lru[i] = i
        assert len(lru) == 1000
        assert lru.evictions == 0

    def test_on_evict_callback_sees_evicted_pair(self):
        evicted = []
        lru = BoundedLRU(maxsize=1, on_evict=lambda k, v: evicted.append((k, v)))
        lru["a"] = 1
        lru["b"] = 2
        assert evicted == [("a", 1)]

    def test_resize_trims_oldest(self):
        lru = BoundedLRU(maxsize=None)
        for i in range(10):
            lru[i] = i
        lru.resize(3)
        assert sorted(lru) == [7, 8, 9]
        lru.resize(None)  # back to unbounded keeps survivors
        assert len(lru) == 3

    def test_setdefault_matches_dict_semantics(self):
        lru = BoundedLRU(maxsize=4)
        assert lru.setdefault("a", 1) == 1
        assert lru.setdefault("a", 2) == 1
        assert lru["a"] == 1


# ----------------------------------------------------------------------
# Bounded world caches are bit-invisible
# ----------------------------------------------------------------------
class TestBoundedWorldBitIdentity:
    @settings(max_examples=20, deadline=None)
    @given(
        seed=st.integers(0, 30),
        ranks=st.lists(st.integers(1, 300), min_size=1, max_size=50),
    )
    def test_sites_identical_under_tiny_caches(self, seed, ranks):
        """Eviction + regenerate-on-miss returns value-identical sites."""
        bounded = World(
            WorldConfig(seed=seed, n_domains=300), cache_limits=TINY_LIMITS
        )
        unbounded = World(
            WorldConfig(seed=seed, n_domains=300),
            cache_limits=UNBOUNDED_CACHE_LIMITS,
        )
        # Forward pass populates; the reversed pass revisits ranks the
        # tiny cache has long evicted (Website is a frozen dataclass,
        # so == is full value equality).
        for rank in itertools.chain(ranks, reversed(ranks)):
            assert bounded.site(rank) == unbounded.site(rank)

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 20), hosts=st.data())
    def test_host_resolution_identical_under_tiny_caches(self, seed, hosts):
        bounded = World(
            WorldConfig(seed=seed, n_domains=200), cache_limits=TINY_LIMITS
        )
        unbounded = World(
            WorldConfig(seed=seed, n_domains=200),
            cache_limits=UNBOUNDED_CACHE_LIMITS,
        )
        candidates = [f"www.{bounded.site(r).domain}" for r in (1, 5, 40)]
        candidates += [f"ghost-{i}.external.test" for i in range(6)]
        picks = hosts.draw(
            st.lists(st.sampled_from(candidates), min_size=1, max_size=40)
        )
        for host in picks:
            a = bounded.host_to_site(host)
            b = unbounded.host_to_site(host)
            assert (a is None) == (b is None)
            if a is not None:
                assert a.rank == b.rank

    def test_study_digest_identical_with_bounded_worker_worlds(self):
        baseline = Study(small_config()).run_social_crawl()
        study = Study(small_config())
        limits = CacheLimits(
            sites=64, hosts=64, negative_hosts=16, visit_plans=64,
            share_urls=64,
        )
        # Same platform wiring as Study.run_social_crawl, plus the
        # world-cache bounds knob.
        config = study.config
        platform = NetographPlatform(
            study.world,
            stream=SocialShareStream(
                study.world,
                StreamConfig(
                    seed=config.seed + 1,
                    events_per_day=config.events_per_day,
                ),
            ),
            config=PlatformConfig(
                seed=config.seed + 2, world_cache_limits=limits
            ),
        )
        bounded = platform.run(*WINDOW)
        assert store_digest(bounded) == store_digest(baseline)
        info = study.world.cache_info()
        assert len(info["sites"]) <= 64
        assert info["sites"].evictions > 0


# ----------------------------------------------------------------------
# Spilling store: bit-identical, cacheable, bounded
# ----------------------------------------------------------------------
class TestSpillBitIdentity:
    @pytest.mark.parametrize(
        "backend,parallelism",
        [("serial", 1), ("process", 3), ("process", 2)],
    )
    def test_spill_digest_matches_plain(self, backend, parallelism):
        plain = Study(
            small_config(backend=backend, parallelism=parallelism)
        ).run_social_crawl()
        spilled = Study(
            small_config(
                backend=backend, parallelism=parallelism, memory_budget=40
            )
        ).run_social_crawl()
        try:
            assert isinstance(spilled, SpillingCaptureStore)
            if backend == "serial":
                assert spilled.n_segments > 0
            assert store_digest(spilled) == store_digest(plain)
        finally:
            spilled.cleanup()

    def test_spill_cold_warm_cache_round_trip(self, tmp_path):
        reference = Study(small_config()).run_social_crawl()
        config = small_config(
            cache_dir=str(tmp_path / "cache"), memory_budget=40
        )
        cold = Study(config).run_social_crawl()
        try:
            cold_digest = store_digest(cold)
        finally:
            cold.cleanup()
        warm = Study(config).run_social_crawl()
        assert store_digest(warm) == cold_digest == store_digest(reference)

    def test_spilling_store_peak_is_set_by_budget_not_rows(self, tmp_path):
        """tracemalloc smoke: same feed, ~unbounded vs budgeted peaks."""
        n_rows = 40_000

        def feed(store):
            for i in range(n_rows):
                store.append_row(
                    f"domain-{i % 20_000}.example",
                    730_000 + (i % 90),
                    ("onetrust", "quantcast", None)[i % 3],
                    i % 4,
                    1,
                )

        tracemalloc.start()
        plain = CaptureStore()
        feed(plain)
        plain_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()

        tracemalloc.start()
        spilling = SpillingCaptureStore(
            SpillSettings(row_budget=2_000, directory=str(tmp_path))
        )
        feed(spilling)
        spill_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()

        assert spilling.n_rows == plain.n_rows == n_rows
        assert spilling.n_segments >= n_rows // 2_000 - 1
        assert spill_peak < plain_peak / 2
        # Bounded observation did not corrupt anything: byte-identical.
        assert store_digest(spilling) == store_digest(plain)
        spilling.cleanup()


class TestSpillStoreAPI:
    """The facade's full surface, against plain-store ground truth."""

    def _fill(self, store, n=10):
        for i in range(n):
            store.append_row(
                f"site-{i % 4}.example", 737_000 + i, "onetrust" if i % 2 else None, 0, 2
            )

    def test_row_budget_must_be_positive(self):
        with pytest.raises(ValueError):
            SpillSettings(row_budget=0)

    def test_add_paths_spill_like_append(self, tmp_path):
        import repro.crawler.capture as cap
        from repro.net.url import URL

        store = SpillingCaptureStore(
            SpillSettings(row_budget=2, directory=str(tmp_path))
        )
        when = dt.datetime(2020, 3, 1, 12, 0, 0)
        for i in range(3):
            url = URL(scheme="https", host=f"s{i}.example", path="/")
            store.add(
                cap.Capture(
                    capture_id=i,
                    seed_url=url,
                    final_url=url,
                    captured_at=when,
                    vantage=cap.EU_CLOUD,
                    status=200,
                ),
                "onetrust",
            )
        store.add_observation(
            cap.Observation("s9.example", when.date(), None)
        )
        assert store.n_rows == 4
        assert store.n_captures == 3  # add_observation records no capture
        assert store.n_segments >= 1
        assert store.total_requests == store.fold_in().total_requests

    def test_merge_accepts_plain_and_spilling(self, tmp_path):
        reference = CaptureStore()
        self._fill(reference, 20)

        donor_plain = CaptureStore()
        self._fill(donor_plain, 20)
        donor_spill = SpillingCaptureStore(
            SpillSettings(row_budget=3, directory=str(tmp_path / "donor"))
        )
        self._fill(donor_spill, 20)

        a = SpillingCaptureStore(
            SpillSettings(row_budget=3, directory=str(tmp_path / "a"))
        )
        a.merge(donor_plain)
        b = SpillingCaptureStore(
            SpillSettings(row_budget=3, directory=str(tmp_path / "b"))
        )
        b.merge(donor_spill)
        assert store_digest(a) == store_digest(b) == store_digest(reference)

    def test_streaming_reads_cross_segment_boundaries(self, tmp_path):
        plain = CaptureStore()
        self._fill(plain, 17)
        spilling = SpillingCaptureStore(
            SpillSettings(row_budget=5, directory=str(tmp_path))
        )
        self._fill(spilling, 17)
        assert list(spilling.iter_rows()) == list(plain.iter_rows())
        for cursor in (0, 4, 5, 12, 17):
            assert spilling.rows_since(cursor) == plain.rows_since(cursor)
        with pytest.raises(ValueError):
            spilling.rows_since(-1)

    def test_whole_store_views_delegate_to_fold(self, tmp_path):
        plain = CaptureStore()
        self._fill(plain, 12)
        spilling = SpillingCaptureStore(
            SpillSettings(row_budget=4, directory=str(tmp_path))
        )
        self._fill(spilling, 12)
        assert spilling.captures == []
        assert spilling.unique_domains == plain.unique_domains
        assert spilling.by_domain() == plain.by_domain()
        assert spilling.observations_for("site-1.example") == (
            plain.observations_for("site-1.example")
        )
        assert spilling.domains_with_cmp() == plain.domains_with_cmp()
        assert spilling.domain_day_rows() == plain.domain_day_rows()
        assert spilling.observations == plain.observations

    def test_pickle_round_trip_drops_fold_cache(self, tmp_path):
        import pickle

        spilling = SpillingCaptureStore(
            SpillSettings(row_budget=4, directory=str(tmp_path))
        )
        self._fill(spilling, 12)
        digest = store_digest(spilling)  # populates the fold cache
        clone = pickle.loads(pickle.dumps(spilling))
        assert clone._fold_cache is None
        assert store_digest(clone) == digest

    def test_cleanup_tolerates_missing_files_and_shared_dirs(self, tmp_path):
        import pathlib

        spilling = SpillingCaptureStore(
            SpillSettings(row_budget=2, directory=str(tmp_path))
        )
        self._fill(spilling, 6)
        paths = [pathlib.Path(p) for p in spilling.segment_paths()]
        assert paths and all(p.exists() for p in paths)
        paths[0].unlink()  # already-gone segment must not raise
        (tmp_path / "unrelated.txt").write_text("keep")
        spilling.cleanup()
        assert not any(p.exists() for p in paths)
        assert (tmp_path / "unrelated.txt").exists()  # shared dir kept

    def test_empty_store_never_spills(self, tmp_path):
        spilling = SpillingCaptureStore(
            SpillSettings(row_budget=1, directory=str(tmp_path))
        )
        spilling.merge(CaptureStore())  # triggers the empty-spill check
        assert spilling.n_segments == 0
        assert spilling.n_rows == 0


class TestBoundedLRUSurface:
    """The rest of the dict drop-in surface (worldgen uses it all)."""

    def test_rejects_nonpositive_maxsize(self):
        with pytest.raises(ValueError):
            BoundedLRU(maxsize=0)
        with pytest.raises(ValueError):
            BoundedLRU(maxsize=4).resize(0)

    def test_contains_delete_pop_clear_views(self):
        lru = BoundedLRU(maxsize=4)
        lru["a"] = 1
        lru["b"] = 2
        assert "a" in lru and "z" not in lru
        assert lru.pop("a") == 1
        assert lru.pop("z", "fallback") == "fallback"
        with pytest.raises(KeyError):
            lru.pop("z")
        del lru["b"]
        lru["c"] = 3
        assert list(lru.values()) == [3]
        assert list(lru.items()) == [("c", 3)]
        lru.clear()
        assert len(lru) == 0

    def test_touch_of_concurrently_evicted_key_is_benign(self):
        lru = BoundedLRU(maxsize=2)
        lru._touch("never-inserted")  # the racing-eviction code path

    def test_resize_reports_evictions_through_callback(self):
        evicted = []
        lru = BoundedLRU(
            maxsize=None, on_evict=lambda k, v: evicted.append(k)
        )
        for i in range(5):
            lru[i] = i
        lru.resize(2)
        assert evicted == [0, 1, 2]
        assert lru.evictions == 3


# ----------------------------------------------------------------------
# Negative host cache: bounded, still correct after eviction
# ----------------------------------------------------------------------
class TestNegativeHostCache:
    def test_unknown_hosts_cannot_grow_the_cache_past_its_cap(self):
        world = World(
            WorldConfig(seed=3, n_domains=200),
            cache_limits=CacheLimits(negative_hosts=16),
        )
        misses = [f"gone-{i}.external.test" for i in range(100)]
        for host in misses:
            assert world.host_to_site(host) is None
        negative = world.cache_info()["negative_hosts"]
        assert len(negative) <= 16
        assert negative.evictions >= len(misses) - 16
        # Evicted misses re-resolve to the same answer...
        assert world.host_to_site(misses[0]) is None
        # ...and positive resolution is untouched by the churn.
        site = world.site(7)
        resolved = world.host_to_site(f"www.{site.domain}")
        assert resolved is not None and resolved.rank == 7


# ----------------------------------------------------------------------
# Lazy shard regeneration: same events, same order, same ids
# ----------------------------------------------------------------------
class TestLazyShardEquality:
    def _spec(self, world, stream):
        runs = []
        for offset in range(3):
            day = WINDOW[0] + dt.timedelta(days=offset)
            n = len(stream.events_for_day(day))
            # Every 3rd emitted event, plus one empty day run shape
            # exercised by offset 2 taking nothing early on.
            indices = tuple(range(offset, n, 3))
            runs.append((day.toordinal(), indices))
        return SocialShardSpec(
            shard_id=0,
            world_ref=publish_world(world),
            config=PlatformConfig(),
            stream_config=stream.config,
            runs=tuple(runs),
            first_capture_id=17,
        )

    def test_iter_day_chunks_matches_materialize(self):
        world = World(WorldConfig(seed=5, n_domains=300))
        stream = SocialShareStream(world)
        spec = self._spec(world, stream)
        lazy = tuple(itertools.chain.from_iterable(spec.iter_day_chunks(world)))
        assert lazy == spec.materialize(world)

    def test_iter_events_matches_eager_day_lists(self):
        world = World(WorldConfig(seed=5, n_domains=300))
        stream = SocialShareStream(world)
        start, end = WINDOW[0], WINDOW[0] + dt.timedelta(days=3)
        eager = []
        day = start
        while day < end:
            eager.extend(stream.events_for_day(day))
            day += dt.timedelta(days=1)
        assert list(stream.iter_events(start, end)) == eager


# ----------------------------------------------------------------------
# Gauges: the memory story is observable
# ----------------------------------------------------------------------
class TestScaleGauges:
    def test_platform_run_exports_world_cache_and_rss_gauges(self):
        study = Study(small_config())
        obs = Observability()
        platform = NetographPlatform(study.world, obs=obs)
        platform.run(WINDOW[0], WINDOW[0] + dt.timedelta(days=2))
        names = {record["metric"] for record in obs.metrics.snapshot()}
        assert "world_cache_hits" in names
        assert "world_cache_entries" in names
        assert "world_cache_evictions" in names
        assert "process_peak_rss_mb" in names
