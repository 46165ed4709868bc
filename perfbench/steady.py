"""Steadiness check: run the workloads in interleaved sets and compare.

    python3 perfbench/steady.py [--sets 2] [--seeds 10] [--workloads a,b]
                                [--seconds S] [--out FILE]

Each set runs ``run.py --trace 0`` once per (seed, workload); the
workload order rotates from seed to seed so that slow drifts of the
machine spread over all workloads. Each line shows the run's metrics
and the load average and CPU steal share from its header; ``--out``
keeps the headers too. For every (metric, workload) pair
it prints, per set, the median and quartiles (``statistics.quantiles``
with ``n=4``), the spread ``(q3 - q1) / median``, and the change of
each set's median against the first set's, next to the metric's bound.

A pair is ``ok`` when no set's spread exceeds the bound (not required
for ``setup_s``) and no set's median is worse than the first set's by
more than the bound; it is also marked ``steady`` when every spread is
below a third of the bound, the margin a regression check wants. The
exit code is 1 if any pair is not ok or any run failed an output check.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import spec  # noqa: E402

BOUNDS = {name: bound for name, _, bound in spec.END_TO_END}


def run_once(workload: str, seed: int, seconds: float) -> Tuple[dict, dict]:
    """The run header and the result object of one ``run.py`` call."""
    proc = subprocess.run(
        [
            sys.executable, str(HERE / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
        ],
        cwd=HERE.parent, capture_output=True, text=True, check=False,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"run.py failed on {workload} seed {seed}")
    header, result = proc.stdout.strip().splitlines()[-2:]
    return json.loads(header), json.loads(result)


def quartiles(values: Sequence[float]) -> Dict[str, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else 0.0,
    }


def summarize(values: Dict[int, List[float]], metric: str) -> dict:
    """Per-set quartiles of one (metric, workload) pair and the verdict."""
    bound = BOUNDS[metric]
    sets = [quartiles(values[k]) for k in sorted(values)]
    first = sets[0]["median"]
    for s in sets:
        s["change"] = (s["median"] - first) / first if first else 0.0
    spreads = [s["spread"] for s in sets]
    within = metric == "setup_s" or max(spreads) <= bound
    agrees = all(s["change"] <= bound for s in sets)
    return {
        "bound": bound,
        "sets": sets,
        "ok": within and agrees,
        "steady": max(spreads) < bound / 3,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--workloads", default=",".join(spec.WORKLOAD_NAMES))
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    workloads = args.workloads.split(",")

    # raw[workload][metric][set] -> values
    raw: Dict[str, Dict[str, Dict[int, List[float]]]] = {
        w: {m: {} for m in BOUNDS} for w in workloads
    }
    failed = attempted = 0
    headers: List[dict] = []
    for k in range(args.sets):
        for seed in range(args.seeds):
            shift = seed % len(workloads)
            for workload in workloads[shift:] + workloads[:shift]:
                header, result = run_once(workload, seed, args.seconds)
                attempted += result["attempted"]
                failed += result["failed"]
                for metric, entry in result["metrics"].items():
                    raw[workload][metric].setdefault(k, []).append(entry["value"])
                headers.append(header)
                print(
                    f"set {k} seed {seed} {workload}: "
                    + ", ".join(
                        f"{m}={e['value']:.4g}"
                        for m, e in result["metrics"].items()
                    )
                    + f" (load {header['loadavg_after']}, steal "
                    f"{header['cpu_steal_share'] or 0:.3f})",
                    flush=True,
                )

    report = {
        w: {m: summarize(raw[w][m], m) for m in BOUNDS} for w in workloads
    }
    print(f"\noutput checks: {failed} failed of {attempted}")
    print(f"{'workload':<14} {'metric':<12} {'bound':>6}  per set: "
          "median [q1, q3] spread change")
    for w in workloads:
        for m, s in report[w].items():
            cells = "  ".join(
                f"{x['median']:.4g} [{x['q1']:.4g}, {x['q3']:.4g}] "
                f"{x['spread']:.3f} {x['change']:+.3f}"
                for x in s["sets"]
            )
            verdict = ("ok" if s["ok"] else "NOT OK") + (
                ", steady" if s["steady"] else ""
            )
            print(f"{w:<14} {m:<12} {s['bound']:>6}  {cells}  {verdict}")
    if args.out:
        Path(args.out).write_text(
            json.dumps({"failed": failed, "attempted": attempted,
                        "report": report, "raw": raw, "headers": headers},
                       indent=1)
        )
    ok = failed == 0 and all(
        s["ok"] for per in report.values() for s in per.values()
    )
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
