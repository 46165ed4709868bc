"""The two chaos invariants of ``repro.faults`` (see its docstring).

* **No schedule, no change** -- with fault injection wired into every
  layer but no (or an empty) schedule, runs are bit-identical to the
  fault-free pipeline.
* **Transient faults are free; permanent faults are conservative** --
  a transient-only schedule with enough retry budget reproduces the
  fault-free results exactly; permanent faults only ever undercount,
  and every lost crawl remains accounted for.

Runs are small (a week of events, dozens of domains) so the whole
module stays in tier-1 while also carrying the ``chaos`` marker for
the dedicated ``make chaos`` lane.
"""

import dataclasses
import datetime as dt

import pytest

from repro.crawler.executor import CrawlExecutor, ExecutorConfig
from repro.crawler.platform import NetographPlatform, PlatformConfig
from repro.crawler.seeds import SocialShareStream, StreamConfig
from repro.crawler.storage import (
    StorageError,
    load_shard_checkpoint,
    resume_from_checkpoints,
    save_shard_checkpoint,
    shard_checkpoint_path,
)
from repro.crawler.toplist_crawl import ToplistCrawler
from repro.faults import (
    CrashSpec,
    FaultSchedule,
    FaultSpec,
    RetryPolicy,
    WorkerCrash,
)
from repro.faults.retry import FAST_TEST_POLICY
from repro.obs import Observability

pytestmark = pytest.mark.chaos

WINDOW = (dt.date(2020, 4, 1), dt.date(2020, 4, 8))
MAY = dt.date(2020, 5, 15)

#: Every transient kind at once, plus worker crashes, all recoverable
#: within FAST_TEST_POLICY's five retries.
TRANSIENT = FaultSchedule(
    seed=13,
    specs=(
        FaultSpec("dns-error", rate=0.15, attempts=1),
        FaultSpec("connection-reset", rate=0.12, attempts=2),
        FaultSpec("slow-response", rate=0.10, attempts=1),
        FaultSpec("antibot-challenge", rate=0.08, attempts=3),
    ),
    crash=CrashSpec(rate=0.6, attempts=1),
)

#: Probe-budget-safe variant: every spec clears after a single attempt,
#: so the three-try probe protocol always recovers the identical seed
#: URL (a longer transient could burn the whole probe budget and
#: conservatively lose the domain).
TOPLIST_TRANSIENT = dataclasses.replace(
    TRANSIENT,
    specs=tuple(
        dataclasses.replace(spec, attempts=1) for spec in TRANSIENT.specs
    ),
)

PERMANENT = FaultSchedule(
    seed=13,
    specs=(FaultSpec("dns-error", rate=0.3, persistent=True),),
)


def run_platform(world, faults=None, retry=None, executor=None, obs=None):
    platform = NetographPlatform(
        world,
        stream=SocialShareStream(
            world, StreamConfig(seed=1, events_per_day=60)
        ),
        config=PlatformConfig(
            seed=2, retain_captures=True, faults=faults, retry=retry
        ),
        obs=obs,
    )
    store = platform.run(*WINDOW, executor=executor)
    return platform, store


@pytest.fixture(scope="module")
def baseline(world):
    """The fault-free social run every invariant compares against."""
    return run_platform(world)


class TestNoScheduleNoChange:
    def test_empty_schedule_is_bit_identical(self, world, baseline):
        # An *empty* schedule exercises the whole retry plumbing (the
        # run_with_retries wrapper, tallies, clock) without injecting
        # anything; the result must not change by a single bit.
        platform, store = run_platform(
            world, faults=FaultSchedule(seed=99), retry=FAST_TEST_POLICY
        )
        ref_platform, ref_store = baseline
        assert store.observations == ref_store.observations
        assert store.captures == ref_store.captures
        assert store.n_captures == ref_store.n_captures
        assert platform.stats.failures == ref_platform.stats.failures
        assert platform.stats.faults.injected == 0

    def test_empty_schedule_sharded_matches_too(self, world, baseline):
        executor = CrawlExecutor(ExecutorConfig(workers=3, backend="process"))
        _, store = run_platform(
            world, faults=FaultSchedule(seed=99), executor=executor
        )
        assert store.observations == baseline[1].observations


class TestTransientFaultsAreFree:
    def test_serial_recovery_is_bit_identical(self, world, baseline):
        schedule = dataclasses.replace(TRANSIENT, crash=None)
        platform, store = run_platform(
            world, faults=schedule, retry=FAST_TEST_POLICY
        )
        ref_platform, ref_store = baseline
        tally = platform.stats.faults
        assert tally.injected > 0  # chaos actually happened
        assert tally.recovered > 0
        assert tally.exhausted == 0  # budget covers every spec
        # ... and yet: the exact same dataset.
        assert store.observations == ref_store.observations
        assert store.captures == ref_store.captures
        assert platform.stats.failures == ref_platform.stats.failures

    @pytest.mark.parametrize("backend", ["process"])
    def test_sharded_recovery_with_crashes(self, world, baseline, backend):
        platform, store = run_platform(
            world,
            faults=TRANSIENT,
            retry=FAST_TEST_POLICY,
            executor=CrawlExecutor(
                ExecutorConfig(workers=3, backend=backend)
            ),
        )
        assert store.observations == baseline[1].observations
        assert store.captures == baseline[1].captures
        # The crash schedule really killed workers mid-shard; the
        # checkpoint/resume path produced the identical result anyway.
        assert platform.stats.executor.resumes > 0
        assert platform.stats.faults.injected > 0

    def test_repeated_crashes_eventually_give_up(self):
        executor = CrawlExecutor(ExecutorConfig())

        def doomed(payload):
            raise WorkerCrash(0, done=0)

        with pytest.raises(RuntimeError, match="giving up after 8 resumes"):
            executor.map_shards(doomed, [object()], resume=lambda p, c: p)

    def test_crash_without_resume_builder_propagates(self):
        executor = CrawlExecutor(ExecutorConfig())

        def doomed(payload):
            raise WorkerCrash(0, done=0)

        with pytest.raises(WorkerCrash):
            executor.map_shards(doomed, [object()])


class TestPermanentFaultsAreConservative:
    def test_undercounts_never_invents(self, world, baseline):
        platform, store = run_platform(
            world, faults=PERMANENT, retry=RetryPolicy(max_retries=2,
                                                       jitter=0.0)
        )
        ref_platform, ref_store = baseline
        # Every crawl is still accounted for: exhausted retries record
        # a failed capture instead of dropping the work item.
        assert store.n_captures == ref_store.n_captures
        assert platform.stats.crawls == ref_platform.stats.crawls
        assert platform.stats.failures > ref_platform.stats.failures
        tally = platform.stats.faults
        assert tally.exhausted > 0
        assert tally.skip_reasons() == {"retries_exhausted": tally.exhausted}
        # CMP presence only shrinks -- a fault can hide a dialog, never
        # fabricate one.
        assert set(store.domains_with_cmp()) <= set(
            ref_store.domains_with_cmp()
        )

    def test_exhaustion_surfaces_in_the_metrics(self, world):
        obs = Observability()
        platform, store = run_platform(
            world,
            faults=PERMANENT,
            retry=RetryPolicy(max_retries=1, jitter=0.0),
            obs=obs,
        )
        crawls = obs.metrics.counter("platform_crawls_total")
        ok = crawls.value(outcome="ok")
        failed = crawls.value(outcome="failed")
        exhausted = crawls.value(outcome="retries_exhausted")
        assert exhausted == platform.stats.faults.exhausted > 0
        # Outcome labels partition the crawls: nothing double-counted,
        # nothing dropped.
        assert ok + failed + exhausted == platform.stats.crawls
        faults = obs.metrics.counter("crawl_faults_total")
        assert faults.value(kind="dns-error") == platform.stats.faults.injected


class TestToplistChaos:
    CONFIGS = ("eu-univ-default", "us-cloud")

    def _domains(self, world):
        return [world.site(rank).domain for rank in range(1, 41)]

    def _run(self, world, **kwargs):
        executor = kwargs.pop("executor", None)
        crawler = ToplistCrawler(world, **kwargs)
        return crawler.run(
            self._domains(world), MAY, configs=self.CONFIGS,
            executor=executor,
        )

    @pytest.fixture(scope="module")
    def toplist_baseline(self, world):
        return self._run(world)

    def test_empty_schedule_is_bit_identical(self, world, toplist_baseline):
        result = self._run(
            world, faults=FaultSchedule(seed=99), retry=FAST_TEST_POLICY
        )
        assert result.probes == toplist_baseline.probes
        assert result.captures == toplist_baseline.captures

    @staticmethod
    def _resolutions(probes):
        # ``succeeded_on_attempt`` reports which *try* resolved the
        # domain; faulted tries burn budget, so only the resolution
        # itself (seed URL + method) is invariant under faults.
        return [(p.domain, p.seed_url, p.method) for p in probes]

    def test_transient_recovery_is_bit_identical(
        self, world, toplist_baseline
    ):
        schedule = dataclasses.replace(TOPLIST_TRANSIENT, crash=None)
        result = self._run(
            world, faults=schedule, retry=FAST_TEST_POLICY
        )
        assert result.faults.injected > 0
        assert result.faults.exhausted == 0
        assert self._resolutions(result.probes) == self._resolutions(
            toplist_baseline.probes
        )
        assert result.captures == toplist_baseline.captures

    @pytest.mark.parametrize("backend", ["process"])
    def test_sharded_crash_recovery(self, world, toplist_baseline, backend):
        result = self._run(
            world,
            faults=TOPLIST_TRANSIENT,
            retry=FAST_TEST_POLICY,
            executor=CrawlExecutor(
                ExecutorConfig(workers=3, backend=backend)
            ),
        )
        assert result.captures == toplist_baseline.captures
        assert result.executor_stats.resumes > 0

    def test_permanent_faults_lose_domains_conservatively(
        self, world, toplist_baseline
    ):
        result = self._run(
            world, faults=PERMANENT, retry=RetryPolicy(max_retries=1,
                                                       jitter=0.0)
        )
        for name in self.CONFIGS:
            captured = result.captures_for(name)
            ref = toplist_baseline.captures_for(name)
            # Probe faults may shrink the domain set, never grow it.
            assert set(captured) <= set(ref)
            for domain, capture in captured.items():
                if capture.succeeded:
                    # A surviving success is the organic capture.
                    assert capture == ref[domain]
                else:
                    assert capture.fault is not None or not ref[
                        domain
                    ].succeeded


class TestCheckpointStorage:
    """Satellite fix: resume errors must name both shard and file."""

    def _store(self, world):
        _, store = run_platform(world)
        return store

    def test_checkpoint_round_trip(self, world, tmp_path):
        store = self._store(world)
        path = save_shard_checkpoint(store, tmp_path, shard_id=3)
        assert path == shard_checkpoint_path(tmp_path, 3)
        loaded = load_shard_checkpoint(tmp_path, 3)
        assert loaded.observations == store.observations
        assert loaded.n_captures == store.n_captures

    def test_resume_loads_all_shards_sorted(self, world, tmp_path):
        store = self._store(world)
        for shard_id in (2, 0, 1):
            save_shard_checkpoint(store, tmp_path, shard_id)
        stores = resume_from_checkpoints(tmp_path)
        assert list(stores) == [0, 1, 2]

    def test_corrupt_checkpoint_names_shard_and_file(self, world, tmp_path):
        store = self._store(world)
        path = save_shard_checkpoint(store, tmp_path, shard_id=7)
        corrupted = path.read_text().replace('"domain"', '"dom', 1)
        path.write_text(corrupted)
        with pytest.raises(StorageError) as excinfo:
            load_shard_checkpoint(tmp_path, 7)
        message = str(excinfo.value)
        assert "shard 7" in message
        assert "shard-0007.jsonl" in message

    def test_truncated_checkpoint_names_shard_and_file(
        self, world, tmp_path
    ):
        store = self._store(world)
        path = save_shard_checkpoint(store, tmp_path, shard_id=4)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-5]) + "\n")
        with pytest.raises(StorageError, match=r"shard 4: .*shard-0004"):
            resume_from_checkpoints(tmp_path)

    def test_stray_file_is_rejected_by_name(self, tmp_path):
        (tmp_path / "shard-abc.jsonl").write_text("{}\n")
        with pytest.raises(StorageError, match="not a shard checkpoint"):
            resume_from_checkpoints(tmp_path)
