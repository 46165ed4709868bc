"""The measurement platform: seed stream -> queue -> crawlers -> store.

Mirrors Figure 3: a realtime stream of URLs shared on social media is
deduplicated by the capture queue and crawled "within a couple of
minutes" from virtual machines in US and EU data centers of a public
cloud provider -- 50% of crawls from each, assigned randomly
(Section 3.2). Every capture is matched against the CMP fingerprints and
stored.

A run has two phases. The *dedup phase* walks the day stream through the
capture queue serially (the 1h/48h cooldown rules are inherently
sequential, but cheap -- dictionary lookups only). The *crawl phase*
visits every accepted URL; it is embarrassingly parallel because each
crawl's randomness is derived from per-event keys, never from shared
sequential state. Passing a parallel
:class:`~repro.crawler.executor.CrawlExecutor` fans the crawl phase out
over day-range shards on a process pool; otherwise the serial loop
crawls each day right after deduplicating it.

Both crawl through one kernel, :func:`crawl_batch`, one day of accepted
events at a time. The kernel picks its path in one place:

* ``retain_captures=True``: full ``Capture`` objects through
  :func:`crawl_share_event`, as the tests need;
* a fault schedule: :func:`crawl_share_event_compact` per event, which
  renders only the visit skeleton and runs the retry loop;
* otherwise: the event keys and vantage/delay draws of the whole batch
  are derived in numpy (:func:`_fold64_arr`, :func:`_draw_arr`), then
  each visit runs through :func:`~repro.web.serving.visit_compact`.

The two compact paths detect the batch with one
:meth:`~repro.detect.engine.DetectionEngine.detect_batch` call and land
interned ids in the columnar
:class:`~repro.crawler.columnar.CaptureStore` with one
:meth:`~repro.crawler.columnar.CaptureStore.append_batch` call. All
three derive every observable from the same keyed draws
(:mod:`repro.web.serving`), so they are bit-identical where they
overlap; ``tests/test_columnar.py`` and ``tests/test_executor.py`` pin
that equivalence.
"""

from __future__ import annotations

import dataclasses
import datetime as dt
import pickle
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (cache -> storage -> platform)
    from repro.cache import ArtifactCache, Fingerprint

from repro.crawler.browser import (
    DEFAULT_PROFILE,
    CrawlProfile,
    _schedule_domain,
    crawl_url,
)
from repro.crawler.capture import Capture, Vantage
from repro.crawler.columnar import (
    VANTAGE_IDS,
    VANTAGE_STRS,
    CaptureStore,
)
from repro.crawler.executor import (
    CrawlExecutor,
    ExecutorStats,
    ShardStats,
    partition_grouped,
    publish_world,
    resolve_world,
)
from repro.crawler.queue import CaptureQueue
from repro.crawler.seeds import ShareEvent, SocialShareStream, StreamConfig
from repro.crawler.spill import SpillSettings, SpillingCaptureStore
from repro.det import KeyedRand, fold64, key64
from repro.detect.engine import DetectionEngine, hosts_mask
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
from repro.net.psl import default_psl
from repro.obs import Observability, resolve_obs
from repro.obs.memory import publish_memory_gauges
from repro.web.serving import visit_compact, visit_key_prefix
from repro.web.worldgen import (
    CacheLimits,
    World,
    WorldConfig,
    publish_world_cache_gauges,
)

__all__ = [
    "CaptureStore",  # re-export: the store moved to repro.crawler.columnar
    "CompactCrawl",
    "CrawlCounts",
    "NetographPlatform",
    "PlatformConfig",
    "PlatformStats",
    "SocialShardSpec",
    "SocialShardResult",
    "crawl_batch",
    "crawl_share_event",
    "crawl_share_event_compact",
    "crawl_social_shard",
    "event_rng",
    "resume_social_shard",
]

_EU_CLOUD_ID = VANTAGE_IDS[Vantage("EU", "cloud")]
_US_CLOUD_ID = VANTAGE_IDS[Vantage("US", "cloud")]

#: date-ordinal -> date memo for the compact paths (a run sees at most a
#: few hundred distinct days).
_DATES: Dict[int, dt.date] = {}


def _date(ordinal: int) -> dt.date:
    """Memoized :meth:`datetime.date.fromordinal`."""
    date = _DATES.get(ordinal)
    if date is None:
        # Per-process memo: fromordinal is pure.
        date = _DATES[ordinal] = dt.date.fromordinal(ordinal)  # repro-lint: disable=RACE001
    return date


@dataclass(frozen=True)
class PlatformConfig:
    """Operational parameters of the platform."""

    seed: int = 23
    #: Fraction of crawls assigned to the EU cloud (the rest go US).
    eu_share: float = 0.5
    #: Keep full captures in memory (tests); otherwise only the compact
    #: observations are retained, like the real platform's database rows.
    retain_captures: bool = False
    profile: CrawlProfile = DEFAULT_PROFILE
    #: Chaos schedule injected into every crawl; ``None`` (the default)
    #: keeps the pipeline bit-identical to a build without repro.faults.
    faults: Optional[FaultSchedule] = None
    #: Backoff policy for retrying injected transient faults; ``None``
    #: records the faulted capture without retrying.
    retry: Optional[RetryPolicy] = None
    #: Spill budget for crawl-phase stores (:mod:`repro.crawler.spill`);
    #: ``None`` keeps every row resident. An execution knob like
    #: ``parallelism`` -- never fingerprinted, cannot change results.
    #: Ignored in ``retain_captures`` mode and under a fault schedule
    #: (crash checkpoints ship whole stores between workers).
    spill: Optional[SpillSettings] = None
    #: World memo-cache bounds applied inside shard workers; ``None``
    #: keeps each worker world's construction-time defaults. Eviction
    #: is bit-invisible (sites regenerate from ``(seed, rank)``).
    world_cache_limits: Optional[CacheLimits] = None


@dataclass
class PlatformStats:
    """Run counters, reported alongside the results."""

    events: int = 0
    crawls: int = 0
    failures: int = 0
    #: Fan-out details of the most recent sharded run, if any.
    executor: Optional[ExecutorStats] = None
    #: Fault/retry accounting across all runs (empty outside chaos).
    faults: FaultTally = field(default_factory=FaultTally)

    @property
    def failure_rate(self) -> float:
        return self.failures / self.crawls if self.crawls else 0.0


# ----------------------------------------------------------------------
# Per-event determinism
# ----------------------------------------------------------------------
def event_rng(seed: int, event: ShareEvent) -> KeyedRand:
    """The RNG driving one crawl's vantage and queue delay.

    Keyed on ``(seed, url, share time)`` instead of drawing from a shared
    sequential stream, so the assignment is identical no matter how many
    crawls ran before it -- the property that makes sharded execution
    bit-identical to the serial loop. Two accepted events can never
    collide on the key: the queue's 48h URL cooldown rejects a second
    submission of the same URL at the same instant.
    """
    at = event.at
    return KeyedRand(
        fold64(
            _event_prefix(seed), event.url.h64, at.toordinal(),
            at.hour * 3600 + at.minute * 60 + at.second,
        )
    )


#: Per-seed event-key prefix (the ``key64(seed, 5)`` fold state).
_EVENT_PREFIX: Dict[int, int] = {}


def _event_prefix(seed: int) -> int:
    prefix = _EVENT_PREFIX.get(seed)
    if prefix is None:
        # Benign race: key64 is pure, racing workers store equal values.
        prefix = _EVENT_PREFIX[seed] = key64(seed, 5)  # repro-lint: disable=RACE001
    return prefix


# ----------------------------------------------------------------------
# Vectorized key derivation (serial day batches)
# ----------------------------------------------------------------------
# uint64 replicas of repro.det's fold/mix: numpy uint64 arithmetic wraps
# mod 2**64 exactly like the Python-int `& _MASK` chain, and the final
# `(x >> 11) * 2**-53` float conversion is exact in both (the shifted
# value fits in 53 bits), so these produce bit-identical keys and draws.
# The per-event path (repro.det.KeyedRand) stays the source of truth --
# faulted crawls use it -- and tests pin the equivalence.
_U64 = np.uint64
_NP_MC = _U64(0xFF51AFD7ED558CCD)
_NP_M1 = _U64(0xBF58476D1CE4E5B9)
_NP_M2 = _U64(0x94D049BB133111EB)
_NP_GOLDEN = _U64(0x9E3779B97F4A7C15)
_S30, _S27, _S31, _S11 = _U64(30), _U64(27), _U64(31), _U64(11)


def _fold64_arr(state: int, *parts) -> "np.ndarray":
    """Vector :func:`repro.det.fold64`: one key per row of *parts*.

    *parts* are uint64 arrays or plain ints (broadcast); at least the
    first part must be an array so every operation stays in array land
    (numpy scalar ops would warn on the intended overflow).
    """
    h = _U64(state & 0xFFFFFFFFFFFFFFFF)
    for part in parts:
        v = part if isinstance(part, np.ndarray) else _U64(part)
        x = (h ^ v) * _NP_MC
        x = (x ^ (x >> _S30)) * _NP_M1
        x = (x ^ (x >> _S27)) * _NP_M2
        h = x ^ (x >> _S31)
    return h


def _draw_arr(keys: "np.ndarray", position: int) -> "np.ndarray":
    """Vector :meth:`repro.det.KeyedRand.random`: draw *position* (1-based)
    of each key's counter stream, as float64 in [0, 1)."""
    x = keys + _U64((position * 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF)
    x = (x ^ (x >> _S30)) * _NP_M1
    x = (x ^ (x >> _S27)) * _NP_M2
    x = x ^ (x >> _S31)
    return (x >> _S11).astype(np.float64) * 1.1102230246251565e-16  # 2**-53


class CompactCrawl:
    """One crawl's outcome on the columnar path: ids and a bitmask.

    Mirrors exactly the fields of the :class:`Capture` -> observation
    compaction: the PSL-resolved final domain, the capture date as an
    ordinal, the vantage table id, the fingerprint mask of the kept
    transactions' hosts, and the fault/failure accounting fields the
    platform meters. ``fault`` doubles as the retry-loop hook
    (:func:`repro.faults.run_with_retries` duck-types on it).
    """

    __slots__ = (
        "capture_id", "domain", "date_ordinal", "vantage_id", "status",
        "mask", "n_requests", "timed_out", "fault",
    )

    def __init__(
        self,
        capture_id: int,
        domain: str,
        date_ordinal: int,
        vantage_id: int,
        status: Optional[int],
        mask: int,
        n_requests: int,
        timed_out: bool,
        fault: Optional[str],
    ):
        self.capture_id = capture_id
        self.domain = domain
        self.date_ordinal = date_ordinal
        self.vantage_id = vantage_id
        self.status = status
        self.mask = mask
        self.n_requests = n_requests
        self.timed_out = timed_out
        self.fault = fault

    @property
    def succeeded(self) -> bool:
        return self.status is not None and 200 <= self.status < 400


#: host -> registrable-domain memo. PSL mapping is world-independent,
#: so one process-wide table serves every run.
_DOMAIN_MEMO: Dict[str, str] = {}


def _final_domain(host: str) -> str:
    """PSL-registrable domain of *host* (the paper's counting unit)."""
    domain = _DOMAIN_MEMO.get(host)
    if domain is None:
        reg = default_psl().registrable_domain(host)
        # Benign race: the PSL mapping is pure, equal values race in.
        domain = _DOMAIN_MEMO[host] = reg if reg is not None else host  # repro-lint: disable=RACE001
    return domain


def crawl_share_event(
    world: World,
    event: ShareEvent,
    config: PlatformConfig,
    capture_id: int,
    clock: Optional[Clock] = None,
    tally: Optional[FaultTally] = None,
) -> Capture:
    """Crawl one accepted share event (pure: no shared mutable state).

    Injected transient faults are retried under ``config.retry`` with
    backoff through *clock*; the crawl timestamp stays fixed across
    retries (backoff is operational delay, not crawl-visible time), so a
    recovered crawl is bit-identical to its fault-free counterpart.
    """
    rng = event_rng(config.seed, event)
    region = "EU" if rng.random() < config.eu_share else "US"
    vantage = Vantage(region=region, address_space="cloud")
    # URLs are visited within a couple of minutes of submission.
    when = event.at + dt.timedelta(seconds=rng.randrange(60, 300))

    def attempt(attempt_no: int) -> Capture:
        return crawl_url(
            world,
            event.url,
            when=when,
            vantage=vantage,
            profile=config.profile,
            capture_id=capture_id,
            faults=config.faults,
            attempt=attempt_no,
        )

    if config.faults is None:
        return attempt(0)
    return run_with_retries(
        attempt,
        key=f"{event.url}@{event.at.isoformat()}",
        policy=config.retry,
        clock=clock,
        tally=tally,
    )


def crawl_share_event_compact(
    world: World,
    event: ShareEvent,
    config: PlatformConfig,
    capture_id: int,
    clock: Optional[Clock] = None,
    tally: Optional[FaultTally] = None,
) -> CompactCrawl:
    """:func:`crawl_share_event` on the columnar path.

    Draws vantage and queue delay from the same keyed stream, renders
    only the visit skeleton, and returns interned scalars instead of a
    ``Capture``. Fault injection and retries behave identically to the
    row path (same schedule key, same retry loop).
    """
    at = event.at
    rng = event_rng(config.seed, event)
    region = "EU" if rng.random() < config.eu_share else "US"
    vantage_id = _EU_CLOUD_ID if region == "EU" else _US_CLOUD_ID
    delay = rng.randrange(60, 300)
    # when = event.at + delay, without building datetime objects.
    seconds = at.hour * 3600 + at.minute * 60 + at.second + delay
    ordinal = at.toordinal() + (1 if seconds >= 86_400 else 0)
    cutoff = config.profile.cutoff

    if config.faults is None:
        return _compact_attempt(
            world, event, region, vantage_id, ordinal, cutoff, capture_id
        )

    schedule_domain = _schedule_domain(event.url)
    vantage_str = VANTAGE_STRS[vantage_id]
    faults = config.faults

    def attempt(attempt_no: int) -> CompactCrawl:
        fault = faults.fault_for(schedule_domain, vantage_str, attempt_no)
        if fault is not None:
            return _faulted_compact(
                schedule_domain, ordinal, vantage_id, capture_id, fault.kind
            )
        return _compact_attempt(
            world, event, region, vantage_id, ordinal, cutoff, capture_id
        )

    return run_with_retries(
        attempt,
        key=f"{event.url}@{event.at.isoformat()}",
        policy=config.retry,
        clock=clock,
        tally=tally,
    )


def _compact_attempt(
    world: World,
    event: ShareEvent,
    region: str,
    vantage_id: int,
    ordinal: int,
    cutoff: float,
    capture_id: int,
) -> CompactCrawl:
    visit = visit_compact(
        world, event.url, _date(ordinal), region, "cloud", cutoff
    )
    return CompactCrawl(
        capture_id=capture_id,
        domain=_final_domain(visit.final_host),
        date_ordinal=ordinal,
        vantage_id=vantage_id,
        status=visit.status,
        mask=hosts_mask(visit.kept_hosts),
        n_requests=len(visit.kept_hosts),
        timed_out=visit.timed_out,
        fault=None,
    )


def _faulted_compact(
    domain: str,
    ordinal: int,
    vantage_id: int,
    capture_id: int,
    kind: str,
) -> CompactCrawl:
    """The compact row an injected fault produces (mirrors
    :func:`repro.crawler.browser._faulted_capture`: conservative
    failure, no transactions, only anti-bot challenges carry a status).
    """
    status: Optional[int] = None
    timed_out = False
    if kind == "slow-response":
        timed_out = True
    elif kind == "antibot-challenge":
        status = 403
    return CompactCrawl(
        capture_id=capture_id,
        domain=domain,
        date_ordinal=ordinal,
        vantage_id=vantage_id,
        status=status,
        mask=0,
        n_requests=0,
        timed_out=timed_out,
        fault=kind,
    )


# ----------------------------------------------------------------------
# The crawl kernel (serial day loop and shard workers alike)
# ----------------------------------------------------------------------
@dataclass
class CrawlCounts:
    """Outcomes of crawled events; ``ok + failed + exhausted == crawls``
    (the Section 3.4 accounting)."""

    ok: int = 0
    failed: int = 0
    #: Failures whose retry budget ran out on an injected fault.
    exhausted: int = 0

    @property
    def crawls(self) -> int:
        return self.ok + self.failed + self.exhausted

    @property
    def failures(self) -> int:
        return self.failed + self.exhausted

    def count(self, succeeded: bool, fault: Optional[str]) -> None:
        if succeeded:
            self.ok += 1
        elif fault is not None:
            self.exhausted += 1
        else:
            self.failed += 1

    def merge(self, other: "CrawlCounts") -> None:
        self.ok += other.ok
        self.failed += other.failed
        self.exhausted += other.exhausted


def crawl_batch(
    world: World,
    config: PlatformConfig,
    batch: Sequence[Tuple[ShareEvent, int]],
    store: Union[CaptureStore, SpillingCaptureStore],
    engine: DetectionEngine,
    clock: Clock,
    tally: FaultTally,
) -> CrawlCounts:
    """Crawl, detect and store *batch*, ``(event, capture_id)`` pairs in
    acceptance order; returns the outcome counts.

    The one social-crawl kernel: the serial loop calls it once per day,
    shard workers once per shard day. The path is chosen here and only
    here (see the module docstring); every path appends the same rows.
    """
    counts = CrawlCounts()
    if not batch:
        return counts
    if config.retain_captures:
        for event, capture_id in batch:
            capture = crawl_share_event(
                world, event, config, capture_id, clock=clock, tally=tally
            )
            counts.count(capture.succeeded, capture.fault)
            store.add(capture, engine.detect(capture).cmp_key)
        return counts
    if config.faults is not None:
        rows = [
            crawl_share_event_compact(
                world, event, config, capture_id, clock=clock, tally=tally
            )
            for event, capture_id in batch
        ]
        for row in rows:
            counts.count(row.succeeded, row.fault)
        domains = [row.domain for row in rows]
        ordinals = [row.date_ordinal for row in rows]
        masks = [row.mask for row in rows]
        vantage_ids = [row.vantage_id for row in rows]
        n_requests = [row.n_requests for row in rows]
    else:
        domains, ordinals, masks, vantage_ids, n_requests, counts.ok = (
            _visit_batch(world, config, batch)
        )
        counts.failed = len(batch) - counts.ok
    cmp_keys = engine.detect_batch(masks, ordinals)
    store.append_batch(domains, ordinals, cmp_keys, vantage_ids, n_requests)
    return counts


def _visit_batch(
    world: World,
    config: PlatformConfig,
    batch: Sequence[Tuple[ShareEvent, int]],
) -> Tuple[List[str], List[int], List[int], List[int], List[int], int]:
    """The fault-free compact columns of *batch*, keys derived vectorized.

    Replicates :func:`crawl_share_event_compact` row by row: the event
    keys and the vantage/delay draws are computed for the whole batch
    with the uint64 replicas of the keyed fold (:func:`_fold64_arr` --
    bit-identical to :mod:`repro.det`), then each visit gets its
    precomputed key. Returns ``(domains, date ordinals, masks, vantage
    ids, request counts, successes)``.
    """
    n = len(batch)
    ats = [event.at for event, _capture_id in batch]
    h64s = np.fromiter(
        (event.url.h64 for event, _capture_id in batch),
        dtype=np.uint64, count=n,
    )
    ords = np.fromiter(
        (at.toordinal() for at in ats), dtype=np.uint64, count=n
    )
    secs = np.fromiter(
        (at.hour * 3600 + at.minute * 60 + at.second for at in ats),
        dtype=np.uint64, count=n,
    )
    ekeys = _fold64_arr(_event_prefix(config.seed), h64s, ords, secs)
    eu = _draw_arr(ekeys, 1) < config.eu_share
    delays = (_draw_arr(ekeys, 2) * 240).astype(np.int64)
    # when = at + 60..300s; crossing midnight rolls the capture date.
    cap_ords = ords.astype(np.int64) + (
        secs.astype(np.int64) + 60 + delays >= 86_400
    )
    vkeys = _fold64_arr(
        visit_key_prefix(world.config.seed),
        h64s, cap_ords.astype(np.uint64), (~eu).astype(np.uint64), 0,
    )
    cutoff = config.profile.cutoff
    ordinals = cap_ords.tolist()
    domains: List[str] = []
    masks: List[int] = []
    n_requests: List[int] = []
    ok = 0
    for (event, _capture_id), in_eu, vkey, ordinal in zip(
        batch, eu.tolist(), vkeys.tolist(), ordinals
    ):
        visit = visit_compact(
            world, event.url, _date(ordinal), "EU" if in_eu else "US",
            "cloud", cutoff, vkey,
        )
        kept = visit.kept_hosts
        domains.append(_final_domain(visit.final_host))
        masks.append(hosts_mask(kept))
        n_requests.append(len(kept))
        status = visit.status
        if status is not None and 200 <= status < 400:
            ok += 1
    vantage_ids = np.where(eu, _EU_CLOUD_ID, _US_CLOUD_ID).tolist()
    return domains, ordinals, masks, vantage_ids, n_requests, ok


def _new_store(
    config: PlatformConfig, shard_id: Optional[int] = None
) -> Union[CaptureStore, SpillingCaptureStore]:
    """An empty crawl-phase store for *config*.

    Spilling stays off under a fault schedule (crash checkpoints ship
    whole stores through :class:`WorkerCrash`) and in
    ``retain_captures`` mode. Shards sharing a configured spill
    directory get disjoint subdirectories so their segment files never
    collide.
    """
    spill = config.spill
    if spill is None or config.faults is not None or config.retain_captures:
        return CaptureStore(retain_captures=config.retain_captures)
    if shard_id is not None and spill.directory is not None:
        spill = dataclasses.replace(
            spill,
            directory=str(Path(spill.directory) / f"shard-{shard_id:04d}"),
        )
    return SpillingCaptureStore(spill)


# ----------------------------------------------------------------------
# Shard tasks (module-level so the process pool can pickle them)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SocialShardSpec:
    """One day-range shard of accepted share events, as a *recipe*.

    Since the seed stream is deterministic per day, a shard is fully
    described by the stream config plus, per day, the indices of the
    accepted events in that day's stream -- a few ints per crawl. The
    worker regenerates the day's events and selects the accepted ones;
    capture ids are the serial acceptance order, contiguous within a
    shard by construction (shards are contiguous slices of the
    acceptance sequence).
    """

    shard_id: int
    world_ref: WorldConfig
    config: PlatformConfig
    stream_config: StreamConfig
    #: ``(day_ordinal, accepted-event indices within that day)`` runs,
    #: in acceptance order.
    runs: Tuple[Tuple[int, Tuple[int, ...]], ...]
    first_capture_id: int
    #: Resume bookkeeping, set by :func:`resume_social_shard` after a
    #: worker crash: skip events below ``start_index`` and seed state
    #: from ``checkpoint``.
    start_index: int = 0
    shard_attempt: int = 0
    checkpoint: Optional["SocialShardResult"] = None

    @property
    def n_events(self) -> int:
        """Number of crawls this shard describes."""
        return sum(len(indices) for _ordinal, indices in self.runs)

    def materialize(self, world: World) -> Tuple[Tuple[ShareEvent, int], ...]:
        """Regenerate this shard's ``(event, capture_id)`` sequence.

        The eager reference path: the crawl loop consumes
        :meth:`iter_day_chunks` instead, and ``tests/test_scale.py``
        pins the two equal element for element.
        """
        stream = SocialShareStream(world, self.stream_config)
        out: List[Tuple[ShareEvent, int]] = []
        capture_id = self.first_capture_id
        for ordinal, indices in self.runs:
            day_events = stream.events_for_day(dt.date.fromordinal(ordinal))
            for index in indices:
                out.append((day_events[index], capture_id))
                capture_id += 1
        return tuple(out)

    def iter_day_chunks(
        self, world: World
    ) -> "Iterator[Tuple[Tuple[ShareEvent, int], ...]]":
        """Per-day ``(event, capture_id)`` chunks, generated lazily.

        Same events, same order, same capture-id assignment as
        :meth:`materialize`, but at most one day's accepted events are
        resident at a time: each day streams through the seed
        generator (:meth:`SocialShareStream.iter_day_events`) and stops
        as soon as the day's last accepted index has been selected.
        ``runs`` indices are ascending within a day by construction
        (acceptance follows chronological event order), which is what
        lets one forward pass select them.
        """
        stream = SocialShareStream(world, self.stream_config)
        capture_id = self.first_capture_id
        for ordinal, indices in self.runs:
            chunk: List[Tuple[ShareEvent, int]] = []
            wanted = iter(indices)
            want = next(wanted, None)
            if want is None:
                yield ()
                continue
            day_events = stream.iter_day_events(dt.date.fromordinal(ordinal))
            for index, event in enumerate(day_events):
                if index == want:
                    chunk.append((event, capture_id))
                    capture_id += 1
                    want = next(wanted, None)
                    if want is None:
                        break
            yield tuple(chunk)


@dataclass(frozen=True)
class SocialShardResult:
    shard_id: int
    store: Union[CaptureStore, SpillingCaptureStore]
    counts: CrawlCounts
    captures_seen: int
    overcounted: int
    faults: FaultTally = field(default_factory=FaultTally)

    @property
    def failures(self) -> int:
        return self.counts.failures


def crawl_social_shard(task: SocialShardSpec) -> SocialShardResult:
    """Crawl one shard into a private store (runs inside a worker).

    Each shard day goes through :func:`crawl_batch`, like a serial day.
    A chaos schedule may kill the worker before a scheduled event index:
    the shard raises :class:`WorkerCrash` carrying its partial result as
    the checkpoint, and the executor re-submits a task resumed from it.
    Because each crawl is keyed independently, the resumed run's final
    result is bit-identical to an uninterrupted one.
    """
    world = resolve_world(task.world_ref)
    config = task.config
    if config.world_cache_limits is not None:
        # Bit-invisible: evicted memos regenerate identically.
        world.set_cache_limits(config.world_cache_limits)
    engine = DetectionEngine()
    store = _new_store(config, task.shard_id)
    counts = CrawlCounts()
    tally = FaultTally()
    base_seen = base_overcounted = 0
    if task.checkpoint is not None:
        checkpoint = task.checkpoint
        store.merge(checkpoint.store)
        counts.merge(checkpoint.counts)
        base_seen = checkpoint.captures_seen
        base_overcounted = checkpoint.overcounted
        tally.merge(checkpoint.faults)

    def result() -> SocialShardResult:
        return SocialShardResult(
            shard_id=task.shard_id,
            store=store,
            counts=counts,
            captures_seen=base_seen + engine.captures_seen,
            overcounted=base_overcounted + engine.overcounted,
            faults=tally,
        )

    clock = VirtualClock()
    schedule = config.faults
    crash_at = (
        schedule.crash_point(task.shard_id, task.n_events, task.shard_attempt)
        if schedule is not None
        else None
    )
    done = 0
    for chunk in task.iter_day_chunks(world):
        first, done = done, done + len(chunk)
        begin = max(first, task.start_index)
        if begin >= done:
            continue
        crashes = crash_at is not None and begin <= crash_at < done
        stop = crash_at if crashes else done
        counts.merge(crawl_batch(
            world, config, chunk[begin - first:stop - first],
            store, engine, clock, tally,
        ))
        if crashes:
            raise WorkerCrash(task.shard_id, done=stop, checkpoint=result())
    return result()


def resume_social_shard(
    task: SocialShardSpec, crash: WorkerCrash
) -> SocialShardSpec:
    """The task that continues *task* past *crash* (executor callback)."""
    return dataclasses.replace(
        task,
        start_index=crash.done,
        shard_attempt=task.shard_attempt + 1,
        checkpoint=crash.checkpoint,
    )


class NetographPlatform:
    """End-to-end social-media measurement pipeline."""

    def __init__(
        self,
        world: World,
        stream: Optional[SocialShareStream] = None,
        config: Optional[PlatformConfig] = None,
        obs: Optional[Observability] = None,
        clock: Optional[Clock] = None,
    ):
        self.world = world
        self.stream = stream or SocialShareStream(world)
        self.config = config or PlatformConfig()
        self.obs = resolve_obs(obs)
        #: Waits out retry backoff; virtual by default so chaos runs
        #: (and their tests) never sleep for real.
        self.clock: Clock = clock if clock is not None else VirtualClock()
        self.queue = CaptureQueue(obs=self.obs)
        self.engine = DetectionEngine(obs=self.obs)
        self.stats = PlatformStats()
        self._capture_id = 0
        metrics = self.obs.metrics
        self._m_events = metrics.counter(
            "platform_events_total", "share events seen by the platform"
        )
        self._m_crawls = metrics.counter(
            "platform_crawls_total", "browser crawls by outcome"
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
        #: Per-shard stores of the most recent sharded run; consumed by
        #: the cache-populate path so warm entries keep shard granularity,
        #: then released by :meth:`_release_shard_stores`.
        self._last_shard_stores: Optional[List[CaptureStore]] = None

    # ------------------------------------------------------------------
    def run(
        self,
        start: dt.date,
        end: dt.date,
        store: Optional[CaptureStore] = None,
        on_day: Optional[Callable[[dt.date], None]] = None,
        executor: Optional[CrawlExecutor] = None,
        cache: Optional["ArtifactCache"] = None,
        fingerprint: Optional["Fingerprint"] = None,
    ) -> CaptureStore:
        """Run the platform over ``[start, end)`` and return the store.

        Passing an existing *store* continues a previous run (the real
        platform ran continuously for 2.5 years). With an *executor*
        whose config is parallel, the crawl phase is sharded by
        share-event days and fanned out over the worker pool; the result
        is identical to the serial path for the same seed.

        With a *cache* and *fingerprint*, the run consults the artifact
        cache first: a hit restores the persisted capture store --
        bit-identical to a cold run, by the exact-round-trip guarantee
        of :mod:`repro.crawler.storage` -- and skips the dedup and crawl
        phases entirely; a miss computes cold and populates the entry
        (per-shard when the run was sharded). Caching is bypassed when
        ``retain_captures`` is set, because full captures are never
        persisted.
        """
        caching = (
            cache is not None
            and fingerprint is not None
            and not self.config.retain_captures
        )
        if caching:
            cached = cache.load_capture_store(fingerprint)
            if cached is not None:
                if store is None:
                    return cached
                store.merge(cached)
                return store
        # Shard stores, and a fresh store that is not handed back, are
        # released on every exit, a failed merge included, so no spill
        # directory outlives the run.
        discard: Optional[CaptureStore] = None
        try:
            if not caching:
                return self._run_cold(start, end, store, on_day, executor)
            fresh = discard = self._run_cold(start, end, None, on_day, executor)
            cache.save_capture_store(
                fingerprint, self._last_shard_stores or fresh
            )
            if store is None:
                discard = None
                return fresh
            store.merge(fresh)
            return store
        finally:
            self._release_shard_stores()
            if isinstance(discard, SpillingCaptureStore):
                discard.cleanup()

    def ingest_day(self, day: dt.date, store: CaptureStore) -> CaptureStore:
        """Crawl one stream day into *store* (the streaming entry point).

        Exactly ``run(day, day + 1 day, store=store)`` on the serial
        path: the queue's cooldown dicts, the capture-id counter and the
        run stats all persist across calls, so a sequence of
        ``ingest_day`` calls over ``[start, end)`` produces a store
        byte-identical to one batch :meth:`run` over the same window --
        the invariant the :mod:`repro.stream` engine's batch-vs-follow
        equivalence rests on (pinned by ``tests/test_stream.py``).
        """
        return self._run_cold(day, day + dt.timedelta(days=1), store)

    # ------------------------------------------------------------------
    # Checkpoint serialization (repro.stream)
    # ------------------------------------------------------------------
    def state_payload(self) -> dict:
        """JSON-serializable mid-run platform state.

        Everything the serial dedup + crawl loop threads from one day to
        the next: the queue's cooldown/stats state, the capture-id
        counter, and the run counters. Crawl *results* are not here --
        they live in the store, checkpointed separately under the batch
        ``social-crawl`` fingerprint of the ingested prefix.
        """
        return {
            "capture_id": self._capture_id,
            "queue": self.queue.state_payload(),
            "stats": {
                "events": self.stats.events,
                "crawls": self.stats.crawls,
                "failures": self.stats.failures,
            },
        }

    def restore_state(self, payload: dict) -> None:
        """Exact inverse of :meth:`state_payload` (fresh platform only)."""
        if self._capture_id:
            raise ValueError("restore_state requires a fresh platform")
        self._capture_id = payload["capture_id"]
        self.queue.restore_state(payload["queue"])
        stats = payload["stats"]
        self.stats.events = stats["events"]
        self.stats.crawls = stats["crawls"]
        self.stats.failures = stats["failures"]

    def _run_cold(
        self,
        start: dt.date,
        end: dt.date,
        store: Optional[CaptureStore] = None,
        on_day: Optional[Callable[[dt.date], None]] = None,
        executor: Optional[CrawlExecutor] = None,
    ) -> CaptureStore:
        """The uncached dedup + crawl pipeline behind :meth:`run`."""
        if self.config.world_cache_limits is not None:
            # Shard workers re-apply this to their resolved worlds; the
            # serial path crawls against self.world directly, so bound
            # it here. Bit-invisible either way.
            self.world.set_cache_limits(self.config.world_cache_limits)
        if store is None:
            store = _new_store(self.config)
        parallel = executor is not None and executor.config.parallel
        timing = self.obs.enabled
        with self.obs.span(
            "platform.run",
            start=start.isoformat(),
            end=end.isoformat(),
            parallel=parallel,
        ) as run_span:
            #: ``(event, capture_id, day_ordinal, index_in_day)`` in
            #: acceptance order, collected for the shard specs.
            pending: List[Tuple[ShareEvent, int, int, int]] = []
            crawl_seconds = 0.0
            run_tally = FaultTally()
            day = start
            while day < end:
                ordinal = day.toordinal()
                events = self.stream.events_for_day(day)
                self.stats.events += len(events)
                self._m_events.inc(len(events))
                submit_at = self.queue.submit_at
                day_base = ordinal * 86_400
                batch: List[Tuple[ShareEvent, int]] = []
                for index, event in enumerate(events):
                    at = event.at
                    secs = at.hour * 3_600 + at.minute * 60 + at.second
                    if not submit_at(event.url, day_base + secs):
                        continue
                    self._capture_id += 1
                    if parallel:
                        pending.append(
                            (event, self._capture_id, ordinal, index)
                        )
                    else:
                        batch.append((event, self._capture_id))
                if not parallel:
                    # Span-duration timing only; never crawl-visible.
                    batch_start = (
                        time.perf_counter()  # repro-lint: disable=DET002
                        if timing
                        else 0.0
                    )
                    self._count(crawl_batch(
                        self.world, self.config, batch, store,
                        self.engine, self.clock, run_tally,
                    ))
                    if timing:
                        crawl_seconds += (
                            time.perf_counter()  # repro-lint: disable=DET002
                            - batch_start
                        )
                self.queue.prune(
                    dt.datetime.combine(day, dt.time()) + dt.timedelta(days=1)
                )
                if on_day is not None:
                    on_day(day)
                day += dt.timedelta(days=1)
            if parallel and pending:
                assert executor is not None
                self._run_sharded(executor, pending, store, run_tally)
            elif timing:
                self.obs.tracer.record_span(
                    "platform.crawl", crawl_seconds, mode="serial"
                )
            self.stats.faults.merge(run_tally)
            self._meter_faults(run_tally)
            publish_cache_gauges(self.obs)
            publish_world_cache_gauges(self.obs, self.world)
            publish_memory_gauges(self.obs)
            run_span.set(
                events=self.stats.events,
                crawls=self.stats.crawls,
                failures=self.stats.failures,
                skip_rate=round(self.queue.stats.skip_rate, 4),
            )
            if run_tally.injected:
                run_span.set(
                    faults_injected=run_tally.injected,
                    retries=run_tally.retries,
                    retries_exhausted=run_tally.exhausted,
                )
        return store

    def _count(self, counts: CrawlCounts) -> None:
        """Fold a crawled batch's outcomes into the run stats and the
        crawl counter (serial days and merged shards alike)."""
        self.stats.crawls += counts.crawls
        self.stats.failures += counts.failures
        for outcome, n in (
            ("ok", counts.ok),
            ("failed", counts.failed),
            # Retry budget ran out on an injected fault; kept visible
            # separately so ok + failed + retries_exhausted == crawls.
            ("retries_exhausted", counts.exhausted),
        ):
            if n:
                self._m_crawls.inc(n, outcome=outcome)

    # ------------------------------------------------------------------
    def _shard_specs(
        self,
        executor: CrawlExecutor,
        accepted: List[Tuple[ShareEvent, int, int, int]],
    ) -> List[SocialShardSpec]:
        """Partition the acceptance sequence into shard recipes.

        The worker holds the world already (``resolve_world``), so each
        payload shrinks to the per-day accepted indices.
        """
        n_shards = executor.config.n_shards(len(accepted))
        chunks = partition_grouped(accepted, n_shards, key=lambda item: item[2])
        world_ref = publish_world(self.world)
        specs: List[SocialShardSpec] = []
        for i, chunk in enumerate(chunks):
            runs: List[Tuple[int, Tuple[int, ...]]] = []
            day_ordinal: Optional[int] = None
            indices: List[int] = []
            for _event, _capture_id, ordinal, index in chunk:
                if ordinal != day_ordinal:
                    if indices:
                        assert day_ordinal is not None
                        runs.append((day_ordinal, tuple(indices)))
                    day_ordinal = ordinal
                    indices = []
                indices.append(index)
            if indices:
                assert day_ordinal is not None
                runs.append((day_ordinal, tuple(indices)))
            specs.append(
                SocialShardSpec(
                    shard_id=i,
                    world_ref=world_ref,
                    config=self.config,
                    stream_config=self.stream.config,
                    runs=tuple(runs),
                    first_capture_id=chunk[0][1],
                )
            )
        return specs

    def _run_sharded(
        self,
        executor: CrawlExecutor,
        accepted: List[Tuple[ShareEvent, int, int, int]],
        store: CaptureStore,
        run_tally: FaultTally,
    ) -> None:
        with self.obs.span(
            "executor.derive_shards",
            backend=executor.config.backend,
            workers=executor.config.workers,
        ) as derive_span:
            specs = self._shard_specs(executor, accepted)
            derive_span.set(tasks=len(accepted), shards=len(specs))
        with self.obs.span(
            "executor.crawl", backend=executor.config.backend
        ) as crawl_span:
            results, seconds, wall, resumes = executor.map_shards(
                crawl_social_shard, specs, resume=resume_social_shard
            )
            crawl_span.set(shards=len(specs))
            self._last_shard_stores = [result.store for result in results]
            if self.obs.enabled:
                for spec, result, secs in zip(specs, results, seconds):
                    self.obs.tracer.record_span(
                        "executor.shard",
                        secs,
                        shard=spec.shard_id,
                        tasks=spec.n_events,
                        crawls=result.counts.crawls,
                        failures=result.failures,
                    )
                    self._h_shard_seconds.observe(secs, pipeline="social")

        # Payload accounting: measuring the spec pickles is cheap (a few
        # ints per crawl) and keeps worker-transfer regressions
        # attributable.
        payload_sizes = [
            len(pickle.dumps(spec, protocol=pickle.HIGHEST_PROTOCOL))
            for spec in specs
        ]
        # Merge-duration stat only, not crawl-visible state.
        merge_start = time.perf_counter()  # repro-lint: disable=DET002
        exec_stats = ExecutorStats(
            backend=executor.config.backend,
            workers=executor.config.workers,
            wall_seconds=wall,
        )
        with self.obs.span("executor.merge", shards=len(specs)):
            for spec, result, secs, n_resumes, n_bytes in zip(
                specs, results, seconds, resumes, payload_sizes
            ):
                store.merge(result.store)
                self._count(result.counts)
                run_tally.merge(result.faults)
                self._absorb_detection(result)
                exec_stats.shards.append(
                    ShardStats(
                        shard_id=spec.shard_id,
                        tasks=spec.n_events,
                        crawls=result.counts.crawls,
                        failures=result.failures,
                        seconds=secs,
                        resumes=n_resumes,
                        payload_bytes=n_bytes,
                    )
                )
        exec_stats.merge_seconds = (
            time.perf_counter()  # repro-lint: disable=DET002
            - merge_start
        )
        self.stats.executor = exec_stats

    def _release_shard_stores(self) -> None:
        """Delete the spill segments of the last sharded run's shard
        stores, once they are merged (and persisted, when caching)."""
        for shard_store in self._last_shard_stores or ():
            if isinstance(shard_store, SpillingCaptureStore):
                shard_store.cleanup()
        self._last_shard_stores = None

    def _meter_faults(self, tally: FaultTally) -> None:
        """Publish a run's fault/retry tally to the metrics registry."""
        for kind, count in sorted(tally.by_kind.items()):
            self._m_faults.inc(count, kind=kind)
        if tally.recovered:
            self._m_retries.inc(tally.recovered, outcome="recovered")
        if tally.exhausted:
            self._m_retries.inc(tally.exhausted, outcome="exhausted")

    def _absorb_detection(self, result: SocialShardResult) -> None:
        """Fold a shard's detection accounting into this process's engine
        (detection itself ran inside the worker)."""
        matches: Dict[str, int] = {}
        if self.obs.enabled:
            for _domain, _ordinal, cmp_key, _vid in result.store.iter_rows():
                if cmp_key is not None:
                    matches[cmp_key] = matches.get(cmp_key, 0) + 1
        self.engine.absorb(
            result.captures_seen, result.overcounted, matches
        )
