"""Tests of the benchmark's own logic.

    python3 -m pytest perfbench -q

Covers the tracer's self-time arithmetic, the metric-name grammar and
its agreement with ``BENCHMARK.json``, output checks against pinned
digests (a wrong pin is a failed operation), the counting and removal
of files a run leaves behind, and the steadiness verdicts.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
for entry in (str(HERE), str(ROOT / "src")):
    if entry not in sys.path:
        sys.path.insert(0, entry)

import run  # noqa: E402
import spec  # noqa: E402
from tracer import Tracer  # noqa: E402


class FakeClock:
    """A clock that advances only when told to."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


# ----------------------------------------------------------------------
# Self time
# ----------------------------------------------------------------------
def test_self_time_subtracts_nested_spans():
    clock = FakeClock()
    t = Tracer(clock)
    t.enter("outer")          # 0
    clock.now = 2.0
    t.enter("inner")          # 2..5
    clock.now = 5.0
    t.exit()
    clock.now = 6.0
    t.enter("inner")          # 6..7
    clock.now = 7.0
    t.exit()
    clock.now = 10.0
    t.exit()                  # outer 0..10
    assert t.stats("outer").total == 10.0
    assert t.stats("outer").self == 6.0
    assert t.stats("inner").total == 4.0
    assert t.stats("inner").self == 4.0
    assert t.stats("inner").calls == 2
    assert t.self_total() == 10.0


def test_reentrant_span_total_counts_outermost_only():
    clock = FakeClock()
    t = Tracer(clock)
    t.enter("a")              # 0..9
    clock.now = 1.0
    t.enter("b")              # 1..8
    clock.now = 2.0
    t.enter("a")              # 2..5
    clock.now = 5.0
    t.exit()
    clock.now = 8.0
    t.exit()
    clock.now = 9.0
    t.exit()
    assert t.stats("a").total == 9.0
    assert t.stats("a").self == 2.0 + 3.0
    assert t.stats("b").self == 4.0
    assert t.self_total() == 9.0


class Layer:
    def __init__(self, clock: FakeClock):
        self.clock = clock

    def outer(self, n: int) -> list:
        self.clock.now += 1.0
        out = [self.inner() for _ in range(n)]
        self.clock.now += 1.0
        return out

    def inner(self) -> int:
        self.clock.now += 0.5
        return 1

    @classmethod
    def build(cls, clock: FakeClock) -> "Layer":
        clock.now += 0.25
        return cls(clock)


def test_wrapped_methods_nest_and_restore():
    clock = FakeClock()
    t = Tracer(clock)
    originals = dict(Layer.__dict__)
    t.wrap(Layer, "outer", "outer", lambda a, k, r: len(r))
    t.wrap(Layer, "inner", "inner")
    t.wrap(Layer, "build", "build")
    layer = Layer.build(clock)
    assert isinstance(layer, Layer)
    assert layer.outer(4) == [1, 1, 1, 1]
    assert t.stats("build").total == 0.25
    assert t.stats("outer").total == 4.0
    assert t.stats("outer").self == 2.0
    assert t.stats("outer").count == 4
    assert t.stats("inner").calls == 4
    assert t.stats("inner").self == 2.0
    t.restore()
    for name in ("outer", "inner", "build"):
        assert Layer.__dict__[name] is originals[name]


def test_span_closes_when_the_wrapped_call_raises():
    clock = FakeClock()
    t = Tracer(clock)

    def boom():
        clock.now += 1.0
        raise KeyError("x")

    traced = t.span("boom", boom)
    with pytest.raises(KeyError):
        traced()
    assert t.stats("boom").calls == 1
    assert t.stats("boom").total == 1.0
    assert not t._stack


# ----------------------------------------------------------------------
# Names and BENCHMARK.json
# ----------------------------------------------------------------------
def test_names_follow_the_grammar():
    assert spec.invalid_names() == []


@pytest.mark.parametrize(
    "name", ["", "_lead", ".lead", "a b", "x" * 65, "rate/s", "é"]
)
def test_grammar_rejects_bad_names(name):
    assert not spec.NAME_RE.match(name)


@pytest.mark.parametrize("name", ["wall_s", "seeds.busy_s", "follow-resume", "9x"])
def test_grammar_accepts_good_names(name):
    assert spec.NAME_RE.match(name)


def test_benchmark_json_matches_spec():
    committed = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert committed == spec.benchmark_json()
    bounds = {m["name"]: m["bound"] for m in committed["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25


def test_runs_rotate_through_every_study_seed():
    assert spec.study_seeds(0) == list(spec.STUDY_SEEDS)
    assert spec.study_seeds(10)[0] == spec.STUDY_SEEDS[2]
    assert sorted(spec.study_seeds(5)) == sorted(spec.STUDY_SEEDS)


def test_runner_passes_the_study_seeds_in_turn(monkeypatch):
    seen = []

    def fake_run(cmd, **kwargs):
        seen.append(int(cmd[cmd.index("--seed") + 1]))
        return argparse.Namespace(returncode=0, stdout='{"setup_s": 1.0}', stderr="")

    monkeypatch.setattr(run.subprocess, "run", fake_run)
    runner = run.Runner("social", [11, 13, 7], time.monotonic() + 60)
    for _ in range(4):
        runner.child("--setup-only")
    assert seen == [11, 13, 7, 11]


def test_every_workload_and_study_seed_is_pinned():
    pins = json.loads((HERE / "pins.json").read_text())
    for workload in spec.WORKLOAD_NAMES:
        assert set(pins[workload]) == {str(s) for s in spec.STUDY_SEEDS}


# ----------------------------------------------------------------------
# Output checks
# ----------------------------------------------------------------------
@pytest.fixture
def tiny_workload(monkeypatch, tmp_path):
    """A seconds-long spilling study registered as workload ``tiny``."""
    import datetime as dt

    import child
    import workloads
    from repro.core.pipeline import StudyConfig

    def config(seed, cache_dir):
        return StudyConfig(
            seed=seed, n_domains=2_500, toplist_size=200, events_per_day=120,
            study_start=dt.date(2020, 3, 1), study_end=dt.date(2020, 3, 8),
            memory_budget=300,
        )

    monkeypatch.setitem(
        workloads.WORKLOADS,
        "tiny",
        workloads.Workload(
            config, workloads.longitudinal_run, workloads.longitudinal_digests
        ),
    )
    pins = tmp_path / "pins.json"
    monkeypatch.setattr(child, "PINS_PATH", pins)
    monkeypatch.setenv("TMPDIR", str(tmp_path))
    return child, pins, tmp_path


def _run_child(child, capsys, tmp_path, *flags):
    assert child.main(
        ["--workload", "tiny", "--seed", "7", "--scratch", str(tmp_path), *flags]
    ) == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_wrong_pinned_digest_is_a_failed_operation(tiny_workload, capsys):
    child, pins, tmp_path = tiny_workload
    digests = _run_child(child, capsys, tmp_path, "--pin")["digests"]
    assert set(digests) == {"report", "store"}

    pins.write_text(json.dumps({"tiny": {"7": digests}}))
    good = _run_child(child, capsys, tmp_path)
    assert (good["attempted"], good["failed"]) == (2, 0)

    wrong = dict(digests, store="0" * 64)
    pins.write_text(json.dumps({"tiny": {"7": wrong}}))
    bad = _run_child(child, capsys, tmp_path)
    assert (bad["attempted"], bad["failed"]) == (2, 1)


def test_missing_pins_fail_the_check(tiny_workload, capsys):
    child, pins, tmp_path = tiny_workload
    pins.write_text("{}")
    result = _run_child(child, capsys, tmp_path)
    assert result["failed"] == result["attempted"] == 1


def test_traced_run_reports_every_layer_metric(tiny_workload, capsys):
    child, pins, tmp_path = tiny_workload
    pins.write_text("{}")
    import repro.crawler.queue as queue

    submit = queue.CaptureQueue.__dict__["submit_at"]
    layers = _run_child(child, capsys, tmp_path, "--trace")["layers"]
    assert queue.CaptureQueue.__dict__["submit_at"] is submit  # restored
    from_run = {"spill.leaked_files", "trace.overhead"}
    assert set(layers) == {n for n, _, _ in spec.PER_LAYER} - from_run
    assert layers["queue.submitted"] >= layers["queue.accepted"] > 0
    assert layers["columnar.rows"] == layers["detect.rows"] > 0
    assert layers["spill.segments"] > 0
    assert 0.0 < layers["trace.coverage"] <= 1.0


def test_child_exception_is_a_failed_operation(tiny_workload, capsys, monkeypatch):
    child, pins, tmp_path = tiny_workload
    import workloads

    def broken(study):
        raise RuntimeError("deliberate")

    monkeypatch.setattr(workloads.WORKLOADS["tiny"], "run", broken)
    pins.write_text(json.dumps({"tiny": {"7": {"a": "x", "b": "y"}}}))
    result = _run_child(child, capsys, tmp_path)
    assert result["attempted"] == result["failed"] == 2


# ----------------------------------------------------------------------
# Leftover files and run isolation
# ----------------------------------------------------------------------
def test_count_entries_counts_files_and_directories(tmp_path):
    assert run.count_entries(tmp_path / "absent") == 0
    assert run.count_entries(tmp_path) == 0
    (tmp_path / "repro-spill-a").mkdir()
    (tmp_path / "repro-spill-b").mkdir()
    (tmp_path / "repro-spill-b" / "shard-0000.jsonl").write_text("x")
    (tmp_path / "loose").write_text("y")
    assert run.count_entries(tmp_path) == 4


def test_runner_counts_leftovers_and_removes_the_scratch_dir(monkeypatch, tmp_path):
    runs_dir = tmp_path / "runs"
    monkeypatch.setattr(run, "RUNS_DIR", runs_dir)
    monkeypatch.setattr(run, "HERE", tmp_path)
    (tmp_path / "child.py").write_text(
        "import json, os, tempfile\n"
        "tempfile.mkdtemp(prefix='repro-spill-')\n"
        "open(os.path.join(os.environ['TMPDIR'], 'left'), 'w').close()\n"
        "print(json.dumps({'setup_s': 1.0}))\n"
    )
    runner = run.Runner("social", [7], time.monotonic() + 60)
    result = runner.child("--setup-only")
    assert result["leaked_files"] == 2
    assert list(runs_dir.iterdir()) == []


def test_run_refuses_a_directory_without_sources(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(run, "ROOT", tmp_path)
    code = run.main(["--workload", "toplist", "--seed", "1", "--trace", "0"])
    assert code != 0
    assert capsys.readouterr().out == ""


def test_run_fails_without_a_result_when_the_child_fails(monkeypatch, tmp_path, capsys):
    (tmp_path / "src" / "repro").mkdir(parents=True)
    (tmp_path / "src" / "repro" / "__init__.py").write_text("")
    monkeypatch.setattr(run, "ROOT", tmp_path)
    monkeypatch.setattr(run, "RUNS_DIR", tmp_path / ".runs")
    monkeypatch.setattr(run, "HERE", tmp_path)
    (tmp_path / "child.py").write_text("raise SystemExit(3)\n")
    code = run.main(["--workload", "toplist", "--seed", "1", "--seconds", "1"])
    assert code == 1
    assert capsys.readouterr().out == ""
    assert not (tmp_path / ".runs").exists()
    assert os.path.isdir(tmp_path / "src")


def test_run_reports_medians_of_measured_times(monkeypatch):
    """One full execution plus set-up-only children: set-up is the
    median of SETUP_SAMPLES samples, the rest come from the execution."""
    setups = iter([0.9, 1.5, 0.7, 2.0, 0.8])

    def fake_child(self, *flags):
        result = {"setup_s": next(setups), "leaked_files": 0}
        if "--setup-only" not in flags:
            result.update(wall_s=10.0, peak_rss_mb=100.0, attempted=2, failed=0)
        return result

    monkeypatch.setattr(run.Runner, "child", fake_child)
    args = argparse.Namespace(workload="toplist", seed=0, seconds=0.0, trace=0)
    result, shape = run.measure(args)
    metrics = {name: entry["value"] for name, entry in result["metrics"].items()}
    assert metrics == {"setup_s": 0.9, "wall_s": 10.0, "peak_rss_mb": 100.0}
    assert shape["executions"] == 1
    assert shape["setup_samples"] == run.SETUP_SAMPLES
    assert shape["study_seeds"] == spec.study_seeds(0)
    assert (result["attempted"], result["failed"]) == (2, 0)


# ----------------------------------------------------------------------
# Steadiness verdicts
# ----------------------------------------------------------------------
def test_steadiness_verdict_checks_spread_and_set_to_set_change():
    import steady

    flat = [10.0, 10.1, 9.9, 10.0, 10.2, 9.8, 10.0, 10.1, 9.9, 10.0]
    same = steady.summarize({0: flat, 1: flat}, "wall_s")
    assert same["ok"] and same["steady"]
    assert same["sets"][1]["change"] == 0.0

    slower = steady.summarize({0: flat, 1: [v * 1.3 for v in flat]}, "wall_s")
    assert slower["sets"][1]["change"] == pytest.approx(0.3)
    assert not slower["ok"]

    noisy = [6.0, 14.0, 8.0, 12.0, 10.0, 6.0, 14.0, 8.0, 12.0, 10.0]
    wide = steady.summarize({0: noisy}, "wall_s")
    assert wide["sets"][0]["spread"] > 0.25
    assert not wide["ok"] and not wide["steady"]
    # set-up time is only held to its set-to-set change
    assert steady.summarize({0: noisy}, "setup_s")["ok"]
