"""Columnar (struct-of-arrays) capture storage.

The platform's hot path used to append one ``Observation`` dataclass --
four object fields, a ``Vantage``, a ``datetime.date`` -- per crawl, and
shard workers pickled lists of them back to the parent. At paper scale
(161M crawls) that is O(objects) everywhere. This module stores the same
data as parallel integer columns plus small interning tables:

* **domains** are interned in first-appearance order (the id table *is*
  the ``by_domain`` key order of the old store);
* **vantages** come from a fixed six-entry table (2 regions x 3 address
  spaces), so a vantage is one byte;
* **CMP keys** are interned with id 0 reserved for "no CMP";
* **dates** are stored as proleptic-Gregorian ordinals
  (``datetime.date.toordinal``).

Segments merge by concatenation: :meth:`CaptureStore.merge` extends each
column with the other store's column, remapping interned ids through a
per-merge translation table. Row order is preserved exactly -- merging
shard stores in shard order reproduces the serial insertion order, which
is the argument that keeps sharded runs bit-identical to serial ones
(docs/ARCHITECTURE.md, "Columnar capture store").

Row objects (:class:`~repro.crawler.capture.Observation`, and full
:class:`~repro.crawler.capture.Capture` lists in ``retain_captures``
mode) are materialized lazily and cached; the analysis layers keep their
object-based API while the crawl loop only ever touches arrays.
"""

from __future__ import annotations

import datetime as dt
import json
import sys
from array import array
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.crawler.capture import Capture, Observation, Vantage

#: The fixed vantage id table: ``id = region_id * 3 + space_id``.
VANTAGE_TABLE: Tuple[Vantage, ...] = tuple(
    Vantage(region=region, address_space=space)
    for region in ("EU", "US")
    for space in ("cloud", "university", "residential")
)
VANTAGE_IDS: Dict[Vantage, int] = {v: i for i, v in enumerate(VANTAGE_TABLE)}
#: ``str(vantage)`` per id (fault schedules key on the string form).
VANTAGE_STRS: Tuple[str, ...] = tuple(str(v) for v in VANTAGE_TABLE)


def vantage_id(region: str, address_space: str) -> int:
    """The table id of ``Vantage(region, address_space)``."""
    return VANTAGE_IDS[Vantage(region=region, address_space=address_space)]


class CaptureColumns:
    """Full captures as parallel columns (``retain_captures`` mode only).

    Scalars live in ``array`` columns (status uses -1 as the ``None``
    sentinel; timed_out/dialog_shown/blocked_by_antibot pack into one
    flags byte); reference-typed fields (URLs, timestamps, transaction
    tuples, ...) stay as per-column Python lists. ``from_captures`` ->
    ``to_captures`` is an exact identity (pinned by tests).
    """

    __slots__ = (
        "capture_id", "status", "vantage", "flags", "fault",
        "seed_url", "final_url", "captured_at", "transactions",
        "cookies", "storage_records", "screenshot", "page_text",
        "dom_dialog",
    )

    _TIMED_OUT = 1
    _DIALOG_SHOWN = 2
    _BLOCKED = 4

    def __init__(self) -> None:
        self.capture_id = array("q")
        self.status = array("i")
        self.vantage = array("b")
        self.flags = array("b")
        self.fault: List[Optional[str]] = []
        self.seed_url: List[object] = []
        self.final_url: List[object] = []
        self.captured_at: List[dt.datetime] = []
        self.transactions: List[tuple] = []
        self.cookies: List[tuple] = []
        self.storage_records: List[tuple] = []
        self.screenshot: List[object] = []
        self.page_text: List[str] = []
        self.dom_dialog: List[object] = []

    def __len__(self) -> int:
        return len(self.capture_id)

    def append(self, c: Capture) -> None:
        self.capture_id.append(c.capture_id)
        self.status.append(-1 if c.status is None else c.status)
        self.vantage.append(VANTAGE_IDS[c.vantage])
        self.flags.append(
            (self._TIMED_OUT if c.timed_out else 0)
            | (self._DIALOG_SHOWN if c.dialog_shown else 0)
            | (self._BLOCKED if c.blocked_by_antibot else 0)
        )
        self.fault.append(c.fault)
        self.seed_url.append(c.seed_url)
        self.final_url.append(c.final_url)
        self.captured_at.append(c.captured_at)
        self.transactions.append(c.transactions)
        self.cookies.append(c.cookies)
        self.storage_records.append(c.storage_records)
        self.screenshot.append(c.screenshot)
        self.page_text.append(c.page_text)
        self.dom_dialog.append(c.dom_dialog)

    def extend(self, other: "CaptureColumns") -> None:
        """Concatenate *other*'s rows after this segment's (no remap:
        every column is either absolute or a fixed-table id)."""
        self.capture_id.extend(other.capture_id)
        self.status.extend(other.status)
        self.vantage.extend(other.vantage)
        self.flags.extend(other.flags)
        self.fault.extend(other.fault)
        self.seed_url.extend(other.seed_url)
        self.final_url.extend(other.final_url)
        self.captured_at.extend(other.captured_at)
        self.transactions.extend(other.transactions)
        self.cookies.extend(other.cookies)
        self.storage_records.extend(other.storage_records)
        self.screenshot.extend(other.screenshot)
        self.page_text.extend(other.page_text)
        self.dom_dialog.extend(other.dom_dialog)

    def get(self, i: int) -> Capture:
        status = self.status[i]
        flags = self.flags[i]
        return Capture(
            capture_id=self.capture_id[i],
            seed_url=self.seed_url[i],
            final_url=self.final_url[i],
            captured_at=self.captured_at[i],
            vantage=VANTAGE_TABLE[self.vantage[i]],
            status=None if status < 0 else status,
            transactions=self.transactions[i],
            cookies=self.cookies[i],
            storage_records=self.storage_records[i],
            screenshot=self.screenshot[i],
            page_text=self.page_text[i],
            timed_out=bool(flags & self._TIMED_OUT),
            dom_dialog=self.dom_dialog[i],
            dialog_shown=bool(flags & self._DIALOG_SHOWN),
            blocked_by_antibot=bool(flags & self._BLOCKED),
            fault=self.fault[i],
        )

    def to_captures(self) -> List[Capture]:
        return [self.get(i) for i in range(len(self))]


class CaptureStore:
    """The platform's queryable capture database, stored columnarly.

    The public query API (``observations``, ``captures``, ``by_domain``,
    ``unique_domains``, ``observations_for``, ``domains_with_cmp``) is
    unchanged from the row-based store; the object views are lazy,
    cached, and invalidated by writes. Dicts handed out by
    :meth:`by_domain` are snapshots -- later writes build a fresh dict
    instead of mutating one a caller may still hold.
    """

    def __init__(self, retain_captures: bool = False):
        self.retain_captures = retain_captures
        self.total_requests = 0
        self.n_captures = 0
        # Interning tables.
        self._domains: List[str] = []
        self._domain_ids: Dict[str, int] = {}
        self._cmp_keys: List[Optional[str]] = [None]
        self._cmp_ids: Dict[Optional[str], int] = {None: 0}
        # Observation columns.
        self._col_domain = array("i")
        self._col_date = array("i")  # date ordinals
        self._col_cmp = array("b")
        self._col_vantage = array("b")
        # Full-capture columns (retain mode only).
        self._capture_cols = CaptureColumns() if retain_captures else None
        # Lazy object views.
        self._obs_cache: Optional[List[Observation]] = None
        self._captures_cache: Optional[List[Capture]] = None
        self._snapshot: Optional[Dict[str, List[Observation]]] = None

    # ------------------------------------------------------------------
    # Interning
    # ------------------------------------------------------------------
    def _domain_id(self, domain: str) -> int:
        i = self._domain_ids.get(domain)
        if i is None:
            i = len(self._domains)
            self._domain_ids[domain] = i
            self._domains.append(domain)
        return i

    def _cmp_id(self, cmp_key: Optional[str]) -> int:
        i = self._cmp_ids.get(cmp_key)
        if i is None:
            i = len(self._cmp_keys)
            self._cmp_ids[cmp_key] = i
            self._cmp_keys.append(cmp_key)
        return i

    def _invalidate(self) -> None:
        self._obs_cache = None
        self._snapshot = None
        self._captures_cache = None

    # ------------------------------------------------------------------
    # Writes
    # ------------------------------------------------------------------
    def append_row(
        self,
        domain: str,
        date_ordinal: int,
        cmp_key: Optional[str],
        vantage_id: int,
        n_requests: int,
    ) -> None:
        """The columnar hot-path write: one crawl, no objects."""
        self._col_domain.append(self._domain_id(domain))
        self._col_date.append(date_ordinal)
        self._col_cmp.append(self._cmp_id(cmp_key))
        self._col_vantage.append(vantage_id)
        self.total_requests += n_requests
        self.n_captures += 1
        self._invalidate()

    def append_batch(
        self,
        domains: Sequence[str],
        date_ordinals: Sequence[int],
        cmp_keys: Sequence[Optional[str]],
        vantage_ids: Sequence[int],
        n_requests: Sequence[int],
    ) -> None:
        """:meth:`append_row` for a whole day batch.

        Row order is the argument order, identical to calling
        ``append_row`` per element; the columns are extended with one
        C-level call each and the object caches are invalidated once.
        """
        domain_id = self._domain_id
        cmp_id = self._cmp_id
        self._col_domain.extend([domain_id(d) for d in domains])
        self._col_date.extend(date_ordinals)
        self._col_cmp.extend([cmp_id(k) for k in cmp_keys])
        self._col_vantage.extend(vantage_ids)
        self.total_requests += sum(n_requests)
        self.n_captures += len(domains)
        self._invalidate()

    def add(self, capture: Capture, cmp_key: Optional[str]) -> Observation:
        """Append one full capture (the row-path write)."""
        obs = capture.to_observation(cmp_key)
        self.add_observation(obs)
        self.total_requests += capture.n_requests
        self.n_captures += 1
        if self._capture_cols is not None:
            self._capture_cols.append(capture)
        return obs

    def add_observation(self, obs: Observation) -> Observation:
        """Append a pre-compacted observation."""
        self._col_domain.append(self._domain_id(obs.domain))
        self._col_date.append(obs.date.toordinal())
        self._col_cmp.append(self._cmp_id(obs.cmp_key))
        self._col_vantage.append(VANTAGE_IDS[obs.vantage])
        self._invalidate()
        return obs

    def merge(self, other: "CaptureStore") -> None:
        """Fold *other* (e.g. a shard segment) into this store.

        Pure concatenation: this store's rows first, then *other*'s in
        their original order, with *other*'s interned ids remapped
        through a translation table built once per merge. Merging shard
        segments in shard order therefore reproduces the serial
        insertion order exactly.

        *other* may also be a spilling store
        (:class:`~repro.crawler.spill.SpillingCaptureStore`, e.g. a
        shard store under a memory budget); it is consumed one segment
        at a time, in spill order.
        """
        if not isinstance(other, CaptureStore):
            for segment in other.iter_segment_stores():
                self.merge(segment)
            return
        dom_map = [self._domain_id(d) for d in other._domains]
        if dom_map == list(range(len(dom_map))):
            # Identity remap (e.g. merging into an empty store):
            # straight memcpy-style extend.
            self._col_domain.extend(other._col_domain)
        else:
            self._col_domain.extend(dom_map[i] for i in other._col_domain)
        cmp_map = [self._cmp_id(k) for k in other._cmp_keys]
        if cmp_map == list(range(len(cmp_map))):
            self._col_cmp.extend(other._col_cmp)
        else:
            self._col_cmp.extend(cmp_map[i] for i in other._col_cmp)
        self._col_date.extend(other._col_date)
        self._col_vantage.extend(other._col_vantage)
        self.total_requests += other.total_requests
        self.n_captures += other.n_captures
        if self._capture_cols is not None and other._capture_cols is not None:
            self._capture_cols.extend(other._capture_cols)
        self._invalidate()

    def digest_parts(self) -> Iterable[bytes]:
        """Canonical byte chunks fully determining the persisted rows.

        The interning tables are first-appearance ordered under both
        serial appends and :meth:`merge` (the translation table walks
        the segment's table, which is itself first-appearance ordered),
        so ``(tables, id columns)`` is a *canonical* encoding: two
        stores yield equal chunks iff their serialized observation rows
        are identical. :func:`repro.crawler.storage.store_digest` hashes
        these instead of re-serializing every row. Integer columns are
        normalized to little-endian so digests are architecture-stable.
        """
        yield json.dumps(self._domains).encode("utf-8")
        yield json.dumps(self._cmp_keys).encode("utf-8")
        for col in (
            self._col_domain, self._col_date, self._col_cmp,
            self._col_vantage,
        ):
            if sys.byteorder != "little":  # pragma: no cover - x86/arm LE
                col = array(col.typecode, col)
                col.byteswap()
            yield col.tobytes()

    # ------------------------------------------------------------------
    # Object views (lazy, cached)
    # ------------------------------------------------------------------
    @property
    def n_rows(self) -> int:
        return len(self._col_domain)

    @property
    def observations(self) -> List[Observation]:
        """All observations in insertion order (materialized lazily)."""
        if self._obs_cache is None:
            dates: Dict[int, dt.date] = {}
            domains = self._domains
            cmps = self._cmp_keys
            from_ordinal = dt.date.fromordinal
            out: List[Observation] = []
            for d, o, c, v in zip(
                self._col_domain, self._col_date, self._col_cmp,
                self._col_vantage,
            ):
                date = dates.get(o)
                if date is None:
                    date = dates[o] = from_ordinal(o)
                out.append(
                    Observation(domains[d], date, cmps[c], VANTAGE_TABLE[v])
                )
            self._obs_cache = out
        return self._obs_cache

    @property
    def captures(self) -> List[Capture]:
        """Full captures (``retain_captures`` mode; else always empty)."""
        if self._capture_cols is None:
            return []
        if self._captures_cache is None:
            self._captures_cache = self._capture_cols.to_captures()
        return self._captures_cache

    def iter_rows(
        self,
    ) -> Iterable[Tuple[str, int, Optional[str], int]]:
        """Raw rows as ``(domain, date_ordinal, cmp_key, vantage_id)``
        without materializing Observation objects (serialization path)."""
        domains = self._domains
        cmps = self._cmp_keys
        return (
            (domains[d], o, cmps[c], v)
            for d, o, c, v in zip(
                self._col_domain, self._col_date, self._col_cmp,
                self._col_vantage,
            )
        )

    def rows_since(
        self, cursor: int
    ) -> List[Tuple[str, int, Optional[str], int]]:
        """Decoded rows appended at index >= *cursor*, in insertion order.

        The streaming engine's ingestion tail: after each per-day crawl
        it drains ``rows_since(previous n_rows)`` into its incremental
        accumulators and advances the cursor, so each row is decoded
        exactly once over the life of a follow run. Rows come back as
        ``(domain, date_ordinal, cmp_key, vantage_id)`` --
        :meth:`iter_rows` restricted to the suffix.
        """
        if cursor < 0:
            raise ValueError("cursor must be >= 0")
        domains = self._domains
        cmps = self._cmp_keys
        return [
            (domains[d], o, cmps[c], v)
            for d, o, c, v in zip(
                self._col_domain[cursor:],
                self._col_date[cursor:],
                self._col_cmp[cursor:],
                self._col_vantage[cursor:],
            )
        ]

    def domain_day_rows(self) -> Dict[str, List[Tuple[int, Optional[str]]]]:
        """Per-domain ``(date_ordinal, cmp_key)`` pairs, no objects.

        The adoption estimator's whole input: grouping runs on interned
        domain ids, so each row costs one dict probe and one tuple
        instead of an ``Observation``. Domains appear in first-capture
        order (the same order :meth:`by_domain` yields) and each
        domain's rows keep insertion order, which is what makes
        :meth:`repro.core.adoption.AdoptionSeries.from_columnar`
        bit-identical to the object path: the per-day state vote and
        its ``Counter`` tie-breaking see captures in the same sequence.
        """
        by_id: Dict[int, List[Tuple[int, Optional[str]]]] = {}
        cmps = self._cmp_keys
        for d, o, c in zip(
            self._col_domain, self._col_date, self._col_cmp
        ):
            row = (o, cmps[c])
            bucket = by_id.get(d)
            if bucket is None:
                by_id[d] = [row]
            else:
                bucket.append(row)
        domains = self._domains
        return {domains[d]: rows for d, rows in by_id.items()}

    # ------------------------------------------------------------------
    # Query API (the stand-in for Netograph's custom API)
    # ------------------------------------------------------------------
    def by_domain(self) -> Dict[str, List[Observation]]:
        """Observations grouped by domain, sorted by date (cached)."""
        if self._snapshot is None:
            buckets: Dict[str, List[Observation]] = {}
            for obs in self.observations:
                bucket = buckets.get(obs.domain)
                if bucket is None:
                    buckets[obs.domain] = [obs]
                else:
                    bucket.append(obs)
            for bucket in buckets.values():
                bucket.sort(key=lambda o: o.date)
            self._snapshot = buckets
        return self._snapshot

    @property
    def unique_domains(self) -> int:
        return len(self._domains)

    def observations_for(self, domain: str) -> List[Observation]:
        return self.by_domain().get(domain, [])

    def domains_with_cmp(self) -> Tuple[str, ...]:
        with_cmp = set()
        for d, c in zip(self._col_domain, self._col_cmp):
            if c:
                with_cmp.add(d)
        return tuple(
            domain
            for i, domain in enumerate(self._domains)
            if i in with_cmp
        )

    # ------------------------------------------------------------------
    # Round-trip constructors (tests, tooling)
    # ------------------------------------------------------------------
    @classmethod
    def from_captures(
        cls,
        captures: Sequence[Capture],
        cmp_keys: Optional[Sequence[Optional[str]]] = None,
    ) -> "CaptureStore":
        """A retain-mode store holding *captures* columnarly."""
        store = cls(retain_captures=True)
        if cmp_keys is None:
            cmp_keys = [None] * len(captures)
        for capture, cmp_key in zip(captures, cmp_keys):
            store.add(capture, cmp_key)
        return store

    def to_captures(self) -> List[Capture]:
        """The stored captures as row objects (retain mode)."""
        return list(self.captures)

    # ------------------------------------------------------------------
    # Pickling (shard results travel between processes)
    # ------------------------------------------------------------------
    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        # Cached object views are derived data; never ship them.
        state["_obs_cache"] = None
        state["_snapshot"] = None
        state["_captures_cache"] = None
        return state
