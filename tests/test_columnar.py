"""Columnar CaptureStore invariants (PR 6 tentpole).

Pins the three contracts the columnar rewrite rests on:

* ``from_captures`` -> ``to_captures`` is an exact identity (the
  struct-of-arrays packing loses nothing);
* merging segment stores in order is bit-identical to serial appends --
  rows, interning tables, digests, and query-view ordering all match;
* the batched detection path returns exactly what the per-capture
  ``detect`` loop returns, counters included.

Plus the vectorized key-derivation parity (`numpy` fold/draw vs the
scalar :mod:`repro.det` reference) and the columnar adoption path.
"""

import datetime as dt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.adoption import AdoptionSeries
from repro.crawler.browser import crawl_url
from repro.crawler.capture import Capture, Observation, Vantage
from repro.crawler.columnar import (
    VANTAGE_IDS,
    VANTAGE_TABLE,
    CaptureStore,
    vantage_id,
)
from repro.crawler.browser import CrawlProfile
from repro.crawler.platform import (
    NetographPlatform,
    PlatformConfig,
    _draw_arr,
    _fold64_arr,
    crawl_batch,
    crawl_share_event_compact,
)
from repro.crawler.seeds import SocialShareStream, StreamConfig
from repro.crawler.storage import store_digest
from repro.det import KeyedRand, fold64
from repro.detect.engine import DetectionEngine, hosts_mask
from repro.faults import FaultTally, VirtualClock
from repro.net.url import URL
from repro.web.worldgen import World, WorldConfig

np = pytest.importorskip("numpy")


# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------
_domain = st.from_regex(r"[a-z]{1,8}\.(com|org|de)", fullmatch=True)
_cmp = st.one_of(st.none(), st.sampled_from(["onetrust", "quantcast", "sp"]))
_vantage = st.sampled_from(VANTAGE_TABLE)
_date = st.dates(dt.date(2018, 1, 1), dt.date(2021, 12, 31))


@st.composite
def _captures(draw):
    """Synthetic captures spanning the scalar-packing edge cases."""
    n = draw(st.integers(min_value=0, max_value=12))
    out = []
    for i in range(n):
        host = draw(_domain)
        status = draw(
            st.one_of(st.none(), st.sampled_from([200, 204, 301, 404, 503]))
        )
        out.append(
            Capture(
                capture_id=draw(st.integers(0, 2**40)),
                seed_url=URL.parse(f"https://www.{host}/"),
                final_url=URL.parse(f"https://{host}/landing"),
                captured_at=dt.datetime(2020, 1, 1, 12)
                + dt.timedelta(minutes=i),
                vantage=draw(_vantage),
                status=status,
                page_text=draw(st.text(max_size=20)),
                timed_out=draw(st.booleans()),
                dialog_shown=draw(st.booleans()),
                blocked_by_antibot=draw(st.booleans()),
                fault=draw(st.one_of(st.none(), st.just("net.timeout"))),
            )
        )
    return out


_rows = st.lists(
    st.tuples(
        _domain,
        st.integers(dt.date(2018, 1, 1).toordinal(),
                    dt.date(2021, 12, 31).toordinal()),
        _cmp,
        st.integers(0, len(VANTAGE_TABLE) - 1),
        st.integers(0, 50),
    ),
    max_size=60,
)


def _store_from_rows(rows):
    store = CaptureStore()
    for domain, ordinal, cmp_key, vid, n_req in rows:
        store.append_row(domain, ordinal, cmp_key, vid, n_req)
    return store


# ----------------------------------------------------------------------
# Round-trip identity
# ----------------------------------------------------------------------
class TestRoundTrip:
    @settings(max_examples=60, deadline=None)
    @given(captures=_captures())
    def test_from_captures_to_captures_identity(self, captures):
        store = CaptureStore.from_captures(captures)
        assert store.to_captures() == captures

    def test_real_crawl_captures_roundtrip(self):
        # Browser-produced captures exercise every reference column
        # (transactions, cookies, screenshots, storage records).
        world = World(WorldConfig(seed=11, n_domains=150))
        captures = [
            crawl_url(
                world,
                URL.parse(f"https://www.{world.site(rank).domain}/"),
                when=dt.datetime(2020, 5, 1 + rank % 20, 9),
                vantage=VANTAGE_TABLE[rank % len(VANTAGE_TABLE)],
            )
            for rank in range(1, 13)
        ]
        store = CaptureStore.from_captures(captures)
        assert store.to_captures() == captures
        assert store.n_captures == len(captures)

    @settings(max_examples=60, deadline=None)
    @given(rows=_rows)
    def test_append_batch_equals_append_row(self, rows):
        serial = _store_from_rows(rows)
        batched = CaptureStore()
        batched.append_batch(
            [r[0] for r in rows],
            [r[1] for r in rows],
            [r[2] for r in rows],
            [r[3] for r in rows],
            [r[4] for r in rows],
        )
        assert list(batched.iter_rows()) == list(serial.iter_rows())
        assert batched.observations == serial.observations
        assert batched.n_captures == serial.n_captures
        assert batched.total_requests == serial.total_requests
        assert store_digest(batched) == store_digest(serial)


# ----------------------------------------------------------------------
# Merge-by-concatenation == serial append
# ----------------------------------------------------------------------
class TestMerge:
    @settings(max_examples=60, deadline=None)
    @given(
        rows=_rows,
        cuts=st.lists(st.integers(0, 60), max_size=3),
    )
    def test_merge_segments_equals_serial(self, rows, cuts):
        serial = _store_from_rows(rows)

        bounds = sorted({min(c, len(rows)) for c in cuts})
        segments = []
        prev = 0
        for cut in bounds + [len(rows)]:
            segments.append(_store_from_rows(rows[prev:cut]))
            prev = cut

        merged = CaptureStore()
        for segment in segments:
            merged.merge(segment)

        assert list(merged.iter_rows()) == list(serial.iter_rows())
        assert merged.observations == serial.observations
        # Interning tables are first-appearance ordered either way --
        # the canonical-encoding argument behind digest_parts.
        assert merged._domains == serial._domains
        assert merged._cmp_keys == serial._cmp_keys
        assert list(merged.by_domain()) == list(serial.by_domain())
        assert merged.n_captures == serial.n_captures
        assert merged.total_requests == serial.total_requests
        assert store_digest(merged) == store_digest(serial)

    @settings(max_examples=40, deadline=None)
    @given(rows=_rows)
    def test_digest_parts_canonical(self, rows):
        """Equal rows <-> equal digests, even via different write paths."""
        serial = _store_from_rows(rows)
        via_obs = CaptureStore()
        for obs in serial.observations:
            via_obs.add_observation(obs)
        via_obs.n_captures = serial.n_captures
        via_obs.total_requests = serial.total_requests
        assert store_digest(via_obs) == store_digest(serial)


# ----------------------------------------------------------------------
# Batched detection == per-capture loop
# ----------------------------------------------------------------------
class TestBatchedDetection:
    def _world_captures(self):
        world = World(WorldConfig(seed=13, n_domains=300))
        captures = []
        for rank in range(1, 120):
            when = dt.datetime(2019, 1, 1, 10) + dt.timedelta(
                days=(rank * 7) % 900
            )
            captures.append(
                crawl_url(
                    world,
                    URL.parse(f"https://www.{world.site(rank).domain}/"),
                    when=when,
                    vantage=VANTAGE_TABLE[rank % len(VANTAGE_TABLE)],
                )
            )
        return captures

    def test_detect_batch_matches_per_capture_detect(self):
        captures = self._world_captures()
        loop_engine = DetectionEngine()
        loop_keys = [loop_engine.detect(c).cmp_key for c in captures]

        batch_engine = DetectionEngine()
        masks = [hosts_mask(c.contacted_hosts) for c in captures]
        ordinals = [c.captured_at.date().toordinal() for c in captures]
        batch_keys = batch_engine.detect_batch(masks, ordinals)

        assert batch_keys == loop_keys
        assert batch_engine.captures_seen == loop_engine.captures_seen
        assert batch_engine.overcounted == loop_engine.overcounted

    def test_detect_batch_empty(self):
        engine = DetectionEngine()
        assert engine.detect_batch([], []) == []
        assert engine.captures_seen == 0


# ----------------------------------------------------------------------
# Vectorized key derivation == scalar repro.det reference
# ----------------------------------------------------------------------
class TestVectorizedKeys:
    @settings(max_examples=30, deadline=None)
    @given(
        state=st.integers(0, 2**64 - 1),
        parts=st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=4),
    )
    def test_fold64_arr_matches_fold64(self, state, parts):
        arr = _fold64_arr(
            state, np.array(parts, dtype=np.uint64), *map(int, parts)
        )
        expected = [fold64(state, p, *parts) for p in parts]
        assert arr.tolist() == expected

    @settings(max_examples=30, deadline=None)
    @given(
        keys=st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=8),
        position=st.integers(1, 6),
    )
    def test_draw_arr_matches_keyed_rand(self, keys, position):
        drawn = _draw_arr(np.array(keys, dtype=np.uint64), position)
        for value, key in zip(drawn.tolist(), keys):
            rng = KeyedRand(key)
            rng.skip(position - 1)
            assert value == rng.random()


# ----------------------------------------------------------------------
# The crawl kernel's vectorized batch == the per-event compact crawl
# ----------------------------------------------------------------------
class TestCrawlKernelParity:
    """``crawl_batch`` derives keys for a whole batch in numpy and hands
    each visit its key; the scalar reference derives every key per
    event. Cutoffs outside the structural bands of ``visit_compact``
    (1.0, 12.5) take its draw-exact skeleton path, 25.0 the keep-all
    plan: all must agree row for row."""

    @pytest.fixture(scope="class")
    def batch(self):
        world = World(WorldConfig(seed=7, n_domains=1500))
        stream = SocialShareStream(world, StreamConfig(events_per_day=250))
        events = [
            event
            for offset in range(3)
            for event in stream.events_for_day(
                dt.date(2020, 4, 1) + dt.timedelta(days=offset)
            )
        ]
        return world, [(event, i) for i, event in enumerate(events, 1)]

    @pytest.mark.parametrize("cutoff", [1.0, 12.5, 25.0])
    def test_batch_matches_per_event_compact(self, batch, cutoff):
        world, pairs = batch
        config = PlatformConfig(
            seed=5, profile=CrawlProfile(name="probe", cutoff=cutoff)
        )
        store = CaptureStore()
        counts = crawl_batch(
            world, config, pairs, store, DetectionEngine(),
            VirtualClock(), FaultTally(),
        )

        rows = [
            crawl_share_event_compact(world, event, config, capture_id)
            for event, capture_id in pairs
        ]
        ordinals = [row.date_ordinal for row in rows]
        reference = CaptureStore()
        reference.append_batch(
            [row.domain for row in rows],
            ordinals,
            DetectionEngine().detect_batch([row.mask for row in rows], ordinals),
            [row.vantage_id for row in rows],
            [row.n_requests for row in rows],
        )
        assert store_digest(store) == store_digest(reference)
        assert store.total_requests == reference.total_requests
        assert counts.ok == sum(row.succeeded for row in rows)
        assert counts.crawls == len(pairs)
        assert counts.exhausted == 0

    def test_cutoffs_change_the_kept_requests(self, batch):
        # Guards the parity test above against a cutoff that is ignored.
        world, pairs = batch
        totals = []
        for cutoff in (1.0, 25.0):
            store = CaptureStore()
            crawl_batch(
                world,
                PlatformConfig(
                    seed=5, profile=CrawlProfile(name="probe", cutoff=cutoff)
                ),
                pairs, store, DetectionEngine(), VirtualClock(), FaultTally(),
            )
            totals.append(store.total_requests)
        assert totals[0] < totals[1]


# ----------------------------------------------------------------------
# Columnar adoption path == object path
# ----------------------------------------------------------------------
class TestColumnarAdoption:
    def _store(self):
        world = World(WorldConfig(seed=7, n_domains=1500))
        stream = SocialShareStream(world, StreamConfig(events_per_day=250))
        platform = NetographPlatform(world, stream, PlatformConfig(seed=5))
        return platform.run(dt.date(2020, 4, 1), dt.date(2020, 4, 10))

    def test_from_columnar_matches_from_store(self):
        store = self._store()
        via_objects = AdoptionSeries.from_store(store.by_domain(), None)
        via_columns = AdoptionSeries.from_columnar(store, None)
        assert list(via_columns.timelines) == list(via_objects.timelines)
        assert via_columns.timelines == via_objects.timelines
        assert via_columns.to_payload() == via_objects.to_payload()

    def test_from_columnar_restricted(self):
        store = self._store()
        restrict = list(store.by_domain())[::4]
        via_objects = AdoptionSeries.from_store(store.by_domain(), restrict)
        via_columns = AdoptionSeries.from_columnar(store, restrict)
        assert via_columns.to_payload() == via_objects.to_payload()

    def test_domain_day_rows_matches_by_domain(self):
        store = self._store()
        rows = store.domain_day_rows()
        by_domain = store.by_domain()
        assert list(rows) == list(by_domain)
        for domain, observations in by_domain.items():
            # Same multiset per domain; by_domain is date-sorted while
            # domain_day_rows keeps raw insertion order.
            key = lambda pair: (pair[0], pair[1] or "")
            assert sorted(rows[domain], key=key) == sorted(
                ((o.date.toordinal(), o.cmp_key) for o in observations),
                key=key,
            )


# ----------------------------------------------------------------------
# Vantage table plumbing
# ----------------------------------------------------------------------
class TestVantageTable:
    def test_vantage_id_roundtrip(self):
        for vantage, vid in VANTAGE_IDS.items():
            assert VANTAGE_TABLE[vid] == vantage
            assert vantage_id(vantage.region, vantage.address_space) == vid

    def test_observation_vantages_interned(self):
        store = CaptureStore()
        for vantage in VANTAGE_TABLE:
            store.add_observation(
                Observation("a.com", dt.date(2020, 1, 1), None, vantage)
            )
        assert [o.vantage for o in store.observations] == list(VANTAGE_TABLE)
