"""The two benchmark workloads, written against ``repro``'s public API.

Importing this module imports ``repro``, so the child process times it
as part of set-up. Each workload has three parts:

* ``config(seed, cache_dir)`` -- the :class:`StudyConfig`;
* ``run(study)`` -- the timed work, from the first crawl call until the
  last result is ready; returns the outputs the checks digest;
* ``digests(outputs)`` -- hex digests of those outputs, compared with
  ``perfbench/pins.json`` after the timed region.
"""

from __future__ import annotations

import datetime as dt
import hashlib
import json
from dataclasses import dataclass
from typing import Any, Callable, Dict, List

from repro.core.pipeline import Study, StudyConfig
from repro.core.report import ReportOptions, generate_report
from repro.crawler.columnar import CaptureStore
from repro.crawler.storage import store_digest
from repro.crawler.toplist_crawl import ToplistCrawlResult
from repro.detect.engine import detect_cmp
from spec import WORKERS

#: Each workload is sized to take 1-3 s on a 2-core machine, so that a
#: run holds a dozen or more executions to take medians over. README.md
#: gives the paper-scale sizes they are cut down from.
FOLLOW_START = dt.date(2019, 1, 1)
RESUME_AT = dt.date(2019, 1, 16)
FOLLOW_END = dt.date(2019, 2, 1)
FOLLOW_CHECKPOINT_DAYS = 5
SPILL_START = dt.date(2019, 1, 1)
SPILL_END = dt.date(2019, 1, 16)


class RecordingStudy(Study):
    """A :class:`Study` that keeps what its crawl calls return, so the
    output checks can digest the stores the report was built from."""

    def __init__(self, *args: Any, **kwargs: Any):
        super().__init__(*args, **kwargs)
        self.social_stores: List[CaptureStore] = []
        self.toplist_results: List[ToplistCrawlResult] = []

    def run_social_crawl(self, *args: Any, **kwargs: Any) -> CaptureStore:
        store = super().run_social_crawl(*args, **kwargs)
        self.social_stores.append(store)
        return store

    def run_toplist_crawl(self, *args: Any, **kwargs: Any) -> ToplistCrawlResult:
        result = super().run_toplist_crawl(*args, **kwargs)
        self.toplist_results.append(result)
        return result


def setup(study: Study) -> None:
    """The set-up every workload shares: the Tranco list and toplist."""
    study.toplist_domains


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def sha256_json(payload: object) -> str:
    return sha256_text(json.dumps(payload, sort_keys=True))


def toplist_digest(results: List[ToplistCrawlResult]) -> str:
    """Digest of every toplist crawl: each config's captures, in crawl
    order, as a retain-mode store with their detected CMPs."""
    captures = [
        capture
        for result in results
        for name in sorted(result.captures)
        for capture in result.captures_for(name).values()
    ]
    keys = [detect_cmp(capture).cmp_key for capture in captures]
    return store_digest(CaptureStore.from_captures(captures, keys))


# ----------------------------------------------------------------------
# the Fig 6 / Fig 4 slice of the report (run by `social`)
# ----------------------------------------------------------------------
LONGITUDINAL_OPTIONS = ReportOptions(
    include_toplist=False, include_gvl=False, include_timing=False
)


def longitudinal_run(study: RecordingStudy) -> Dict[str, Any]:
    return {"report": generate_report(study, LONGITUDINAL_OPTIONS)}


def longitudinal_digests(study: RecordingStudy, out: Dict[str, Any]) -> Dict[str, str]:
    (store,) = study.social_stores
    return {"report": sha256_text(out["report"]), "store": store_digest(store)}


# ----------------------------------------------------------------------
# toplist: the toplist sections of `generate_report.py --full`, on a
# Tranco-700 list instead of the full report's 10k
# ----------------------------------------------------------------------
TOPLIST_SIZE = 700

TOPLIST_OPTIONS = ReportOptions(
    include_longitudinal=False, include_gvl=False, include_timing=False
)


def toplist_config(seed: int, cache_dir: str) -> StudyConfig:
    return StudyConfig(
        seed=seed,
        n_domains=20_000,
        toplist_size=TOPLIST_SIZE,
        events_per_day=400,
    )


def toplist_run(study: RecordingStudy) -> Dict[str, Any]:
    return {"report": generate_report(study, TOPLIST_OPTIONS)}


def toplist_digests(study: RecordingStudy, out: Dict[str, Any]) -> Dict[str, str]:
    return {
        "report": sha256_text(out["report"]),
        "store": toplist_digest(study.toplist_results),
    }


# ----------------------------------------------------------------------
# the follow part of `social`: follow half a month, drop the engine,
# resume, follow the second half, query
# ----------------------------------------------------------------------
def follow_config(seed: int, cache_dir: str) -> StudyConfig:
    return StudyConfig(
        seed=seed,
        study_start=FOLLOW_START,
        study_end=FOLLOW_END,
        cache_dir=cache_dir,
        checkpoint_every_days=FOLLOW_CHECKPOINT_DAYS,
    )


def follow_run(study: RecordingStudy) -> Dict[str, Any]:
    first = study.streaming_engine()
    first.run_until(RESUME_AT)
    del first
    resumed_study = RecordingStudy(study.config)
    engine = resumed_study.streaming_engine(resume=True)
    engine.run_until(FOLLOW_END)
    return {
        "engine": engine,
        "adoption": engine.adoption_series().to_payload(),
        "vantage": engine.vantage_table().to_payload(),
        "marketshare": engine.live_marketshare_curve().to_payload(),
    }


# ----------------------------------------------------------------------
# the sharded part of `social`: process x2 crawl under a memory budget
# ----------------------------------------------------------------------
SPILL_EVENTS_PER_DAY = 1_200
SPILL_BUDGET = 8_000


def spill_config(seed: int, cache_dir: str) -> StudyConfig:
    return StudyConfig(
        seed=seed,
        study_start=SPILL_START,
        study_end=SPILL_END,
        events_per_day=SPILL_EVENTS_PER_DAY,
        parallelism=WORKERS["social"],
        backend="process",
        memory_budget=SPILL_BUDGET,
    )


def serial_reference_config(seed: int, cache_dir: str) -> StudyConfig:
    """The same inputs as ``spill_config``, serial and without a budget:
    the store digest the sharded, spilled run must reproduce."""
    return StudyConfig(
        seed=seed,
        study_start=SPILL_START,
        study_end=SPILL_END,
        events_per_day=SPILL_EVENTS_PER_DAY,
    )


# ----------------------------------------------------------------------
# social: the longitudinal report on a sharded, spilling crawl, then
# follow-resume, in one execution
# ----------------------------------------------------------------------
def social_run_with(sharded_config: Callable[[int, str], StudyConfig]):
    """The ``social`` workload's timed work: the report's Fig 6 / Fig 4
    slice on a second study built from *sharded_config* (inside the
    timed region), then ``follow_run`` on the set-up study. The second
    study's stores are recorded on the first, so the output checks and
    the clean-up see them."""

    def run(study: RecordingStudy) -> Dict[str, Any]:
        sharded = RecordingStudy(sharded_config(study.config.seed, ""))
        out: Dict[str, Any] = longitudinal_run(sharded)
        study.social_stores.extend(sharded.social_stores)
        out["sharded"] = sharded
        out.update(
            (name if name == "engine" else f"follow.{name}", value)
            for name, value in follow_run(study).items()
        )
        return out

    return run


def social_digests(study: RecordingStudy, out: Dict[str, Any]) -> Dict[str, str]:
    digests = longitudinal_digests(study, out)
    digests.update(
        (name, sha256_json(out[name]))
        for name in ("follow.adoption", "follow.vantage", "follow.marketshare")
    )
    return digests


@dataclass
class Workload:
    config: Callable[[int, str], StudyConfig]
    run: Callable[[RecordingStudy], Dict[str, Any]]
    digests: Callable[[RecordingStudy, Dict[str, Any]], Dict[str, str]]


WORKLOADS: Dict[str, Workload] = {
    "toplist": Workload(toplist_config, toplist_run, toplist_digests),
    "social": Workload(follow_config, social_run_with(spill_config), social_digests),
    # Pin-only: never run by the benchmark, only by `pins.py`.
    "social-serial": Workload(
        follow_config, social_run_with(serial_reference_config), social_digests
    ),
}
