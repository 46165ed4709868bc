"""Sharded parallel crawl executor.

The real platform performed 161M crawls over 2.5 years (Section 3.2) --
a workload that only makes sense spread over many machines. This module
is the reproduction's equivalent substrate: it partitions a crawl
workload into independent *shards*, runs them on a worker pool, and
merges the per-shard results back into one queryable store.

The key enabler is **order-independent determinism**. Every source of
randomness in a crawl is derived from stable keys -- the page render from
``(world seed, url, date, visitor)``, the vantage/delay assignment from
``(platform seed, url, share time)`` -- so a crawl's outcome never
depends on how many crawls ran before it. Serial and parallel runs of
the same seed therefore produce *identical* observation sets, for any
worker count, backend, or shard layout. ``tests/test_executor.py``
enforces this contract.

Two backends are supported:

* ``"serial"`` -- run shards inline (also used when ``workers == 1``);
* ``"process"`` -- a :class:`~concurrent.futures.ProcessPoolExecutor`.
  Shard tasks carry the :class:`~repro.web.worldgen.WorldConfig` instead
  of the world itself; each worker process lazily regenerates (and
  caches) its own world, which is cheap because generation is lazy and
  per-site deterministic.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import (
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
    TypeVar,
    Union,
)

from repro.faults.inject import WorkerCrash
from repro.web.lru import BoundedLRU
from repro.web.worldgen import World, WorldConfig

T = TypeVar("T")
R = TypeVar("R")

#: A shard crashing more often than this is a bug, not chaos.
MAX_RESUMES = 8

#: Supported worker-pool backends.
BACKENDS = ("serial", "process")


@dataclass(frozen=True)
class ExecutorConfig:
    """How a crawl workload is parallelized.

    ``workers=1`` (the default) always takes the plain serial path, so an
    executor-aware call site degrades to exactly today's single-loop
    behaviour when parallelism is not requested.
    """

    workers: int = 1
    backend: str = "process"
    #: Shards per worker; >1 lets the pool balance uneven shard costs.
    shards_per_worker: int = 4

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.backend not in BACKENDS:
            raise ValueError(
                f"unknown backend {self.backend!r}; expected one of {BACKENDS}"
            )
        if self.shards_per_worker < 1:
            raise ValueError("shards_per_worker must be >= 1")

    @property
    def parallel(self) -> bool:
        """True if this config actually fans out to a worker pool."""
        return self.workers > 1 and self.backend != "serial"

    def n_shards(self, n_tasks: int) -> int:
        """How many shards to derive for a workload of *n_tasks* items."""
        if not self.parallel or n_tasks <= 1:
            return 1
        return max(1, min(n_tasks, self.workers * self.shards_per_worker))


@dataclass(frozen=True)
class ShardStats:
    """Counters for one executed shard."""

    shard_id: int
    #: Work items (events / probed domains) assigned to the shard.
    tasks: int
    #: Browser crawls performed (includes per-config and retry crawls).
    crawls: int
    failures: int
    #: Wall-clock seconds spent inside the shard function.
    seconds: float
    #: Times the shard's worker crashed and was resumed from its
    #: checkpoint (0 outside chaos runs).
    resumes: int = 0
    #: Pickled size of the shard's payload in bytes. Shards ship
    #: ``(world config, shard spec)`` recipes, so this stays a few ints
    #: per crawl -- the throughput benchmark reports it per shard to
    #: keep serialization regressions attributable.
    payload_bytes: int = 0


@dataclass
class ExecutorStats:
    """What a sharded run did, surfaced next to the platform counters."""

    backend: str
    workers: int
    shards: List[ShardStats] = field(default_factory=list)
    #: Wall-clock of the whole fan-out (pool setup + shards + collection).
    wall_seconds: float = 0.0
    #: Time spent merging per-shard stores into the caller's store.
    merge_seconds: float = 0.0

    @property
    def n_shards(self) -> int:
        return len(self.shards)

    @property
    def crawls(self) -> int:
        return sum(s.crawls for s in self.shards)

    @property
    def failures(self) -> int:
        return sum(s.failures for s in self.shards)

    @property
    def resumes(self) -> int:
        """Worker crashes recovered by checkpoint/resume."""
        return sum(s.resumes for s in self.shards)

    @property
    def busy_seconds(self) -> float:
        """Summed per-shard compute time (> wall_seconds when parallel)."""
        return sum(s.seconds for s in self.shards)

    @property
    def payload_bytes(self) -> int:
        """Total serialized payload shipped to workers."""
        return sum(s.payload_bytes for s in self.shards)

    def summary(self) -> str:
        return (
            f"{self.n_shards} shards on {self.workers} {self.backend} "
            f"worker(s): {self.crawls} crawls ({self.failures} failed), "
            f"{self.wall_seconds:.2f}s wall, {self.busy_seconds:.2f}s busy, "
            f"{self.merge_seconds:.3f}s merge"
        )


# ----------------------------------------------------------------------
# Shard derivation
# ----------------------------------------------------------------------
def partition(items: Sequence[T], n_shards: int) -> List[List[T]]:
    """Split *items* into at most *n_shards* contiguous, balanced runs.

    Chunk sizes differ by at most one and order is preserved, so merging
    shard results in shard order reproduces the serial iteration order.
    """
    n = len(items)
    if n == 0:
        return []
    n_shards = max(1, min(n_shards, n))
    base, extra = divmod(n, n_shards)
    chunks: List[List[T]] = []
    start = 0
    for shard in range(n_shards):
        size = base + (1 if shard < extra else 0)
        chunks.append(list(items[start : start + size]))
        start += size
    return chunks


def partition_grouped(
    items: Sequence[T], n_shards: int, key: Callable[[T], object]
) -> List[List[T]]:
    """Partition *items* contiguously, preferring splits at *key* edges.

    This is how the social pipeline derives shards from share-event days:
    consecutive items with equal keys (events of the same day) stay in
    the same shard whenever there are at least as many groups as shards.
    With fewer groups than shards the split falls back to a plain even
    partition -- valid because crawl outcomes are order-independent.
    """
    n = len(items)
    if n == 0:
        return []
    if n_shards <= 1:
        return [list(items)]

    groups: List[List[T]] = []
    last_key: object = object()
    for item in items:
        k = key(item)
        if not groups or k != last_key:
            groups.append([item])
            last_key = k
        else:
            groups[-1].append(item)

    if len(groups) < n_shards:
        return partition(items, n_shards)

    # Greedy contiguous packing towards equal item counts per shard.
    shards: List[List[T]] = []
    current: List[T] = []
    placed = 0
    for index, group in enumerate(groups):
        groups_left = len(groups) - index - 1
        current.extend(group)
        threshold = (len(shards) + 1) * n / n_shards
        must_keep_open = groups_left < (n_shards - len(shards) - 1)
        if (
            len(shards) < n_shards - 1
            and not must_keep_open
            and placed + len(current) >= threshold
        ):
            shards.append(current)
            placed += len(current)
            current = []
    if current:
        shards.append(current)
    return shards


# ----------------------------------------------------------------------
# World transfer to workers
# ----------------------------------------------------------------------
#: Per-process cache of regenerated worlds, keyed by their config. A
#: long-lived worker process serving studies with many distinct configs
#: (e.g. a test session, or a benchmark sweeping scales) used to pin
#: every world it ever built; a small LRU bound keeps the handful of
#: live configs warm while letting abandoned worlds be collected.
#: Eviction is bit-invisible: worlds regenerate from their config.
_WORLD_CACHE: BoundedLRU = BoundedLRU(maxsize=4)


def resolve_world(ref: WorldConfig) -> World:
    """Materialize a world reference inside a worker.

    Shards receive the :class:`WorldConfig` and regenerate the world
    once per process (or find the parent's, inherited through fork).
    """
    world = _WORLD_CACHE.get(ref)
    if world is None:
        # First materialization in this process (a spawn-started worker
        # arrives with every memoization cache cold): compile the
        # process-global PSL now, so its one-time rule-compile cost
        # lands in worker setup rather than inside the first shard's
        # crawl timing.
        from repro.net.psl import default_psl

        default_psl()
        world = World(ref)
        # Per-process memo: worlds are a deterministic function of
        # their config, so every process stores an equal value.
        _WORLD_CACHE[ref] = world  # repro-lint: disable=RACE001
    return world


def publish_world(world: World) -> WorldConfig:
    """The handle shard payloads carry for *world*: its config.

    The world is also registered in the resolver cache: with a
    fork-based start method the child processes inherit the parent's
    (lazily warmed) world via copy-on-write instead of regenerating
    their own.
    """
    _WORLD_CACHE.setdefault(world.config, world)
    return world.config


# ----------------------------------------------------------------------
# The executor
# ----------------------------------------------------------------------
# Wall-duration measurement only: the values feed ShardStats/benchmark
# reporting, never a crawl decision or a deterministic artifact.
# A WorkerCrash is returned instead of raised so the timing of the
# partial execution survives and the caller can resume the slot.
def _timed_call(
    fn: Callable[[T], R], payload: T
) -> Tuple[Union[R, WorkerCrash], float]:
    start = time.perf_counter()  # repro-lint: disable=DET002
    try:
        result: Union[R, WorkerCrash] = fn(payload)
    except WorkerCrash as crash:
        result = crash
    return result, time.perf_counter() - start  # repro-lint: disable=DET002


#: Builds the payload that resumes a crashed shard from its checkpoint.
ResumeFn = Callable[[T, WorkerCrash], T]


class CrawlExecutor:
    """Runs shard functions on the configured worker pool.

    The executor is generic over the shard payload: the social platform
    submits day-range shards, the toplist crawler domain-range shards.
    Shard functions must be module-level callables and payloads/results
    picklable so the process pool can ship them.

    Shard functions may die mid-shard by raising
    :class:`~repro.faults.inject.WorkerCrash` (chaos schedules do this
    deterministically). When the caller provides a *resume* builder, the
    executor re-submits the crashed slot with a payload resumed from the
    crash's checkpoint -- completed work is never recomputed, and because
    every crawl is order-independent the resumed shard's results are
    bit-identical to an uninterrupted run. Without a resume builder a
    crash propagates like any other worker error.
    """

    def __init__(self, config: Optional[ExecutorConfig] = None):
        self.config = config or ExecutorConfig()

    def map_shards(
        self,
        fn: Callable[[T], R],
        payloads: Sequence[T],
        resume: Optional[ResumeFn] = None,
        max_resumes: int = MAX_RESUMES,
    ) -> Tuple[List[R], List[float], float, List[int]]:
        """Run *fn* over *payloads*; returns (results, per-shard seconds,
        total wall seconds, per-shard resume counts), in payload order."""
        # Duration stats only, not crawl-visible state.
        start = time.perf_counter()  # repro-lint: disable=DET002
        if not payloads:
            return [], [], 0.0, []
        n = len(payloads)
        slots: List[T] = list(payloads)
        results: List[R] = [None] * n  # type: ignore[list-item]
        seconds = [0.0] * n
        resumes = [0] * n
        if n == 1 or not self.config.parallel:
            for i in range(n):
                while True:
                    outcome, secs = _timed_call(fn, slots[i])
                    seconds[i] += secs
                    if not isinstance(outcome, WorkerCrash):
                        results[i] = outcome
                        break
                    slots[i] = self._resumed(
                        slots[i], outcome, resume, resumes[i], max_resumes
                    )
                    resumes[i] += 1
        else:
            workers = min(self.config.workers, n)
            with ProcessPoolExecutor(max_workers=workers) as pool:
                futures = [
                    pool.submit(_timed_call, fn, p) for p in slots
                ]
                pending = set(range(n))
                while pending:
                    for i in sorted(pending):
                        outcome, secs = futures[i].result()
                        seconds[i] += secs
                        if isinstance(outcome, WorkerCrash):
                            slots[i] = self._resumed(
                                slots[i], outcome, resume,
                                resumes[i], max_resumes,
                            )
                            resumes[i] += 1
                            futures[i] = pool.submit(
                                _timed_call, fn, slots[i]
                            )
                        else:
                            results[i] = outcome
                            pending.discard(i)
        wall = time.perf_counter() - start  # repro-lint: disable=DET002
        return results, seconds, wall, resumes

    @staticmethod
    def _resumed(
        payload: T,
        crash: WorkerCrash,
        resume: Optional[ResumeFn],
        resumes_so_far: int,
        max_resumes: int,
    ) -> T:
        """The payload that continues *payload* past *crash*."""
        if resume is None:
            raise crash
        if resumes_so_far >= max_resumes:
            raise RuntimeError(
                f"shard {crash.shard_id} crashed {resumes_so_far + 1} "
                f"times; giving up after {max_resumes} resumes"
            ) from crash
        return resume(payload, crash)
