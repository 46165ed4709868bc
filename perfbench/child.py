"""One workload execution in a fresh interpreter (started by ``run.py``).

    python3 perfbench/child.py --workload NAME --seed N \
        [--setup-only] [--trace] --scratch DIR

Times set-up from before ``import repro`` to the first crawl call, and
the workload from there until its last result is ready. Then it digests
the outputs, compares them with ``perfbench/pins.json`` and prints one
JSON object as its last line. With ``--trace`` the layer wrappers of
``layers.py`` are installed for the run and the per-layer figures are
added to the object.

``--pin`` prints the digests instead of checking them (``pins.py``).
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
PINS_PATH = HERE / "pins.json"


def peak_rss_mb() -> float:
    """The larger of this process's and any waited-for child's
    ``ru_maxrss`` (pool workers are children of this process)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def check_digests(expected: dict, actual: dict) -> list:
    """Names of the checks whose digest is missing or differs."""
    return sorted(
        name for name in expected if actual.get(name) != expected[name]
    )


def load_pins(workload: str, study_seed: int) -> dict:
    pins = json.loads(PINS_PATH.read_text(encoding="utf-8"))
    return pins.get(workload, {}).get(str(study_seed), {})


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scratch", required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--pin", action="store_true")
    args = parser.parse_args(argv)

    t0 = time.perf_counter()
    import workloads  # imports repro: part of set-up

    tracer = None
    if args.trace:
        import layers

        tracer = layers.install()
    spec = workloads.WORKLOADS[args.workload]
    cache_dir = str(Path(args.scratch) / "cache")
    study = workloads.RecordingStudy(spec.config(args.seed, cache_dir))
    workloads.setup(study)
    t1 = time.perf_counter()
    setup_self_s = tracer.self_total() if tracer is not None else 0.0
    result = {"setup_s": t1 - t0}
    if args.setup_only:
        print(json.dumps(result))
        return 0

    expected = {} if args.pin else load_pins(args.workload, args.seed)
    outputs: dict = {}
    digests: dict = {}
    try:
        outputs = spec.run(study)
    except Exception:  # a failed operation: reported, not fatal
        traceback.print_exc()
    t2 = time.perf_counter()
    if tracer is not None:
        tracer.restore()
    try:
        if outputs:
            digests = spec.digests(study, outputs)
    except Exception:
        traceback.print_exc()
    finally:
        for store in study.social_stores:
            cleanup = getattr(store, "cleanup", None)
            if cleanup is not None:
                cleanup()
    result["wall_s"] = t2 - t1
    result["peak_rss_mb"] = peak_rss_mb()
    if args.pin:
        result["digests"] = digests
    else:
        mismatched = check_digests(expected, digests) if expected else ["no pins"]
        for name in mismatched:
            print(f"output check failed: {name}", file=sys.stderr)
        result.update(attempted=max(len(expected), 1), failed=len(mismatched))
    if tracer is not None:
        result["layers"] = layers.metrics(
            tracer, study, outputs, t2 - t1, setup_self_s
        )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
