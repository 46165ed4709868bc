"""Run one benchmark workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout that holds ``src/repro``. Each workload
execution happens in a fresh interpreter (``child.py``) with its own
``TMPDIR`` and cache directory under ``.perfbench-runs/``, both removed
when it ends; files left in them are counted first.

``--trace 0`` repeats the untraced workload while another repetition
still fits in ``--seconds`` (at least once), each repetition on the
next of the eight study seeds (``spec.study_seeds``), adds set-up-only
runs until there are ``SETUP_SAMPLES`` set-up times, and reports the
medians of the end-to-end metrics. ``--trace 1`` repeats the untraced
workload the same way (without extra set-up runs), then runs it once
traced on the run's first study seed, and reports the per-layer
metrics; ``trace.overhead`` is the traced ``wall_s`` over the untraced
median.

The last line of standard output is the result object; the line before
it is the run header (machine and load diagnostics, not metrics).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import spec  # noqa: E402  (path set up above)

#: Set-up times per reported ``setup_s`` median.
SETUP_SAMPLES = 5
#: A run must end within this many seconds.
DEADLINE_S = 170.0
RUNS_DIR = ROOT / ".perfbench-runs"


class ChildFailed(RuntimeError):
    pass


def count_entries(root: Path) -> int:
    """Files and directories left under *root* (not counting itself)."""
    return sum(1 for _ in root.rglob("*")) if root.exists() else 0


class Runner:
    """Starts workload children, each in a private scratch directory."""

    def __init__(self, workload: str, study_seeds: Sequence[int], deadline: float):
        self.workload = workload
        self.study_seeds = list(study_seeds)
        self.deadline = deadline
        self.n = 0

    def child(self, *flags: str, study_seed: Optional[int] = None) -> dict:
        """Run ``child.py`` once, on *study_seed* or else the next study
        seed in turn; returns its result plus ``leaked_files``."""
        if study_seed is None:
            study_seed = self.study_seeds[self.n % len(self.study_seeds)]
        self.n += 1
        scratch = RUNS_DIR / f"{os.getpid()}-{self.n}"
        tmp = scratch / "tmp"
        tmp.mkdir(parents=True)
        env = dict(os.environ)
        env["TMPDIR"] = str(tmp)
        env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(HERE)])
        cmd = [
            sys.executable, str(HERE / "child.py"),
            "--workload", self.workload, "--seed", str(study_seed),
            "--scratch", str(scratch), *flags,
        ]
        try:
            proc = subprocess.run(
                cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                timeout=max(1.0, self.deadline - time.monotonic()),
            )
            leaked = count_entries(tmp)
        except subprocess.TimeoutExpired as exc:
            raise ChildFailed(f"{self.workload} timed out") from exc
        finally:
            shutil.rmtree(scratch, ignore_errors=True)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            raise ChildFailed(
                f"{self.workload} child exited with {proc.returncode}"
            )
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        result["leaked_files"] = leaked
        return result

    def repeat(self, seconds: float) -> List[dict]:
        """Untraced full runs while another one still fits in *seconds*."""
        reps: List[dict] = []
        start = time.monotonic()
        while True:
            began = time.monotonic()
            reps.append(self.child())
            took = time.monotonic() - began
            if time.monotonic() - start + took > seconds:
                return reps


# ----------------------------------------------------------------------
# Run header: diagnostics only
# ----------------------------------------------------------------------
def read_steal() -> Optional[Dict[str, int]]:
    """Total and steal jiffies from ``/proc/stat`` (None off Linux)."""
    try:
        fields = Path("/proc/stat").read_text().splitlines()[0].split()[1:]
    except OSError:
        return None
    values = [int(v) for v in fields]
    return {"total": sum(values), "steal": values[7] if len(values) > 7 else 0}


def read_loadavg() -> Optional[float]:
    try:
        return float(Path("/proc/loadavg").read_text().split()[0])
    except (OSError, ValueError, IndexError):
        return None


def read_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def package_version(name: str) -> str:
    try:
        return metadata.version(name)
    except metadata.PackageNotFoundError:
        return "unknown"


def header(workload: str, before: dict, after: dict) -> dict:
    steal = None
    if before["steal"] and after["steal"]:
        total = after["steal"]["total"] - before["steal"]["total"]
        steal = (after["steal"]["steal"] - before["steal"]["steal"]) / total if total else 0.0
    return {
        "workload": workload,
        "cpu_count": os.cpu_count(),
        "workers": spec.WORKERS.get(workload, 1),
        "python": platform.python_version(),
        "numpy": package_version("numpy"),
        "commit": read_commit(),
        "loadavg_before": before["load"],
        "loadavg_after": after["load"],
        "cpu_steal_share": steal,
    }


def load_snapshot() -> dict:
    return {"steal": read_steal(), "load": read_loadavg()}


# ----------------------------------------------------------------------
def metric(name: str, value: float) -> dict:
    return {"value": value, "unit": spec.UNITS[name]}


def measure(args: argparse.Namespace) -> Tuple[dict, dict]:
    """The result object and the header's run-shape diagnostics."""
    runner = Runner(
        args.workload, spec.study_seeds(args.seed), time.monotonic() + DEADLINE_S
    )
    reps = runner.repeat(args.seconds)
    wall = statistics.median(r["wall_s"] for r in reps)
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    setups = [r["setup_s"] for r in reps]
    traced = None
    if args.trace:
        traced = runner.child("--trace", study_seed=runner.study_seeds[0])
    while traced is None and len(setups) < SETUP_SAMPLES:
        setups.append(runner.child("--setup-only")["setup_s"])
    if traced is not None:
        attempted += traced["attempted"]
        failed += traced["failed"]
        layers = dict(traced["layers"])
        layers["spill.leaked_files"] = float(traced["leaked_files"])
        layers["trace.overhead"] = traced["wall_s"] / wall - 1
        metrics = {name: metric(name, layers[name]) for name, _, _ in spec.PER_LAYER}
    else:
        metrics = {
            "setup_s": metric("setup_s", statistics.median(setups)),
            "wall_s": metric("wall_s", wall),
            "peak_rss_mb": metric(
                "peak_rss_mb", statistics.median(r["peak_rss_mb"] for r in reps)
            ),
        }
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    shape = {
        "study_seeds": runner.study_seeds,
        "executions": len(reps),
        "setup_samples": len(setups),
    }
    return result, shape


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=spec.WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    before = load_snapshot()
    try:
        result, shape = measure(args)
    except ChildFailed as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        try:
            RUNS_DIR.rmdir()
        except OSError:
            pass  # another run still uses it, or it never existed
    print(json.dumps({**header(args.workload, before, load_snapshot()), **shape}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
