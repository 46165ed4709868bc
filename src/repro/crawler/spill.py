"""Bounded-memory capture storage via on-disk spill segments.

At paper scale (161M crawls) even the columnar
:class:`~repro.crawler.columnar.CaptureStore` grows linearly with the
study: ~10 bytes/row plus interning tables. This module caps the
*resident* portion: a :class:`SpillingCaptureStore` keeps one active
in-memory segment and, whenever it reaches the row budget, persists it
as an on-disk segment in the existing ``shard-NNNN.jsonl`` checkpoint
format (:mod:`repro.crawler.storage`) and starts a fresh one. Peak RSS
is then bounded by the spill budget plus one day's batch, not by the
study size.

Spilling is **bit-invisible**. Segments concatenated in spill order
reproduce the exact insertion order, and the columnar merge invariant
(interning tables stay first-appearance ordered through
:meth:`CaptureStore.merge`) guarantees that folding the segments back
together yields a store whose :meth:`~CaptureStore.digest_parts` chunks
are byte-identical to a store that never spilled. ``tests/test_scale.py``
pins digest equality against the in-memory path.

The budget is an *execution* knob, like ``parallelism`` or
``cache_dir``: it is threaded through :class:`SpillSettings` /
``StudyConfig.memory_budget`` and is never part of any cache
fingerprint -- changing it cannot change results, only memory and time.

Full-store reads (``observations``, ``by_domain``, ``digest_parts``,
``domain_day_rows``) delegate to :meth:`SpillingCaptureStore.fold_in`,
which reloads every segment and is therefore O(rows) in memory for the
duration of the call -- the price of asking for the whole store at
once. Streaming consumers (:meth:`iter_rows`, :meth:`rows_since`) load
one segment at a time and stay within the budget.
"""

from __future__ import annotations

import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, List, Optional, Tuple

from repro.crawler.capture import Capture, Observation
from repro.crawler.columnar import CaptureStore
from repro.crawler.storage import (
    load_store,
    save_store,
    shard_checkpoint_path,
)

__all__ = ["SpillSettings", "SpillingCaptureStore"]


@dataclass(frozen=True)
class SpillSettings:
    """Execution-level memory bounds for a crawl-phase store.

    Never fingerprinted: a budgeted run and an unbounded run of the
    same study produce byte-identical stores, so cache entries are
    shared freely between them.
    """

    #: Rows the active in-memory segment may hold before it spills.
    row_budget: int
    #: Where segment files land; ``None`` allocates a private temporary
    #: directory per store on its first spill.
    directory: Optional[str] = None

    def __post_init__(self) -> None:
        if self.row_budget < 1:
            raise ValueError("row_budget must be >= 1")


@dataclass(frozen=True)
class _Segment:
    """Bookkeeping for one spilled segment file."""

    path: str
    n_rows: int
    n_captures: int
    total_requests: int


class SpillingCaptureStore:
    """A :class:`CaptureStore` facade with bounded resident rows.

    Drop-in for the write path and the streaming read path of the plain
    store. ``retain_captures`` mode is unsupported (full captures are
    never persisted, so they cannot spill); the platform keeps the
    plain store for that mode.
    """

    #: Mirrors the plain store's attribute so shared code can branch.
    retain_captures = False

    def __init__(self, settings: SpillSettings):
        self.settings = settings
        #: Created on the first spill, so a store that never spills
        #: leaves nothing on disk.
        self._directory: Optional[str] = (
            None if settings.directory is None else str(settings.directory)
        )
        self._segments: List[_Segment] = []
        self._active = CaptureStore(retain_captures=False)
        self._spilled_rows = 0
        self._spilled_captures = 0
        self._spilled_requests = 0
        self._fold_cache: Optional[CaptureStore] = None

    # ------------------------------------------------------------------
    # Counters (read-only views over segments + active)
    # ------------------------------------------------------------------
    @property
    def n_rows(self) -> int:
        return self._spilled_rows + self._active.n_rows

    @property
    def n_captures(self) -> int:
        return self._spilled_captures + self._active.n_captures

    @property
    def total_requests(self) -> int:
        return self._spilled_requests + self._active.total_requests

    @property
    def n_segments(self) -> int:
        """Spilled segments so far (excluding the active one)."""
        return len(self._segments)

    def segment_paths(self) -> List[str]:
        """Spilled segment files, in spill (= insertion) order."""
        return [segment.path for segment in self._segments]

    def active_store(self) -> CaptureStore:
        """The resident tail segment (rows appended since last spill)."""
        return self._active

    # ------------------------------------------------------------------
    # Writes (delegate to the active segment, then maybe spill)
    # ------------------------------------------------------------------
    def append_row(self, *args, **kwargs) -> None:
        self._active.append_row(*args, **kwargs)
        self._dirty()

    def append_batch(self, *args, **kwargs) -> None:
        self._active.append_batch(*args, **kwargs)
        self._dirty()

    def add(self, capture: Capture, cmp_key: Optional[str]) -> Observation:
        obs = self._active.add(capture, cmp_key)
        self._dirty()
        return obs

    def add_observation(self, obs: Observation) -> Observation:
        self._active.add_observation(obs)
        self._dirty()
        return obs

    def merge(self, other) -> None:
        """Fold *other* (plain or spilling) in after this store's rows.

        A spilling *other* is consumed one segment at a time, so the
        transient footprint stays near one budget's worth of rows; a
        plain *other* lands in the active segment whole before the
        post-merge spill check runs.
        """
        if isinstance(other, SpillingCaptureStore):
            for segment in other._segments:
                self._active.merge(
                    load_store(segment.path, context="spill segment")
                )
                self._dirty()
            self._active.merge(other._active)
        else:
            self._active.merge(other)
        self._dirty()

    def _dirty(self) -> None:
        self._fold_cache = None
        if self._active.n_rows >= self.settings.row_budget:
            self._spill()

    def _spill(self) -> None:
        active = self._active
        if active.n_rows == 0:
            return
        if self._directory is None:
            self._directory = tempfile.mkdtemp(prefix="repro-spill-")
        path = shard_checkpoint_path(self._directory, len(self._segments))
        path.parent.mkdir(parents=True, exist_ok=True)
        save_store(active, path)
        self._segments.append(
            _Segment(
                path=str(path),
                n_rows=active.n_rows,
                n_captures=active.n_captures,
                total_requests=active.total_requests,
            )
        )
        self._spilled_rows += active.n_rows
        self._spilled_captures += active.n_captures
        self._spilled_requests += active.total_requests
        self._active = CaptureStore(retain_captures=False)

    # ------------------------------------------------------------------
    # Streaming reads (one segment resident at a time)
    # ------------------------------------------------------------------
    def iter_segment_stores(self) -> Iterator[CaptureStore]:
        """Every segment (spilled, then active) as a store, in order."""
        for segment in self._segments:
            yield load_store(segment.path, context="spill segment")
        yield self._active

    def iter_rows(self) -> Iterator[Tuple[str, int, Optional[str], int]]:
        for store in self.iter_segment_stores():
            yield from store.iter_rows()

    def rows_since(
        self, cursor: int
    ) -> List[Tuple[str, int, Optional[str], int]]:
        """Rows at global index >= *cursor*, across segment boundaries.

        The streaming engine's drain: a spill may land mid-day, so the
        suffix can span the newest on-disk segment plus the active one.
        Only overlapping segments are reloaded.
        """
        if cursor < 0:
            raise ValueError("cursor must be >= 0")
        out: List[Tuple[str, int, Optional[str], int]] = []
        offset = 0
        for segment in self._segments:
            end = offset + segment.n_rows
            if cursor < end:
                store = load_store(segment.path, context="spill segment")
                out.extend(store.rows_since(max(0, cursor - offset)))
            offset = end
        out.extend(self._active.rows_since(max(0, cursor - offset)))
        return out

    # ------------------------------------------------------------------
    # Whole-store views (fold every segment back together; O(rows))
    # ------------------------------------------------------------------
    def fold_in(self) -> CaptureStore:
        """The equivalent in-memory store: segments merged by
        concatenation in spill order, then the active tail.

        Cached until the next write. Bit-identical to a store that
        never spilled, by the columnar merge-order invariant.
        """
        if self._fold_cache is None:
            merged = CaptureStore(retain_captures=False)
            for store in self.iter_segment_stores():
                merged.merge(store)
            self._fold_cache = merged
        return self._fold_cache

    def digest_parts(self) -> Iterable[bytes]:
        return self.fold_in().digest_parts()

    @property
    def observations(self) -> List[Observation]:
        return self.fold_in().observations

    @property
    def captures(self) -> List[Capture]:
        return []

    @property
    def unique_domains(self) -> int:
        return self.fold_in().unique_domains

    def by_domain(self):
        return self.fold_in().by_domain()

    def observations_for(self, domain: str) -> List[Observation]:
        return self.fold_in().observations_for(domain)

    def domains_with_cmp(self) -> Tuple[str, ...]:
        return self.fold_in().domains_with_cmp()

    def domain_day_rows(self):
        return self.fold_in().domain_day_rows()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def cleanup(self) -> None:
        """Delete the spilled segment files (and the owned directory).

        Shard-result stores cross process boundaries as segment paths,
        so the files must outlive the store object that wrote them: the
        platform calls this on each shard store once it has merged (and,
        when caching, persisted) it. A store's owner cleans up its own.
        """
        for segment in self._segments:
            try:
                Path(segment.path).unlink()
            except OSError:
                pass
        if self._directory is None:
            return
        try:
            Path(self._directory).rmdir()
        except OSError:
            pass  # shared/non-empty directory: leave it

    # ------------------------------------------------------------------
    # Pickling (shard results travel between processes as paths)
    # ------------------------------------------------------------------
    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        state["_fold_cache"] = None  # derived data; never ship it
        return state
