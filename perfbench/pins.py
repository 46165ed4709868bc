"""Regenerate ``perfbench/pins.json``, the reference output digests.

    python3 perfbench/pins.py [--workloads a,b] [--seeds 7,11]

For every workload and study seed (default: all of ``spec.STUDY_SEEDS``)
it runs the workload once, untimed, and records the digests of its
outputs. ``social`` is pinned from a run whose sharded crawl is serial
and has no memory budget, over the same inputs (``social-serial`` in
``workloads.py``), so the benchmark checks that sharding and spilling
reproduce the serial store bit for bit.

Pins change only when a change to ``repro`` is meant to change results;
review the diff of ``pins.json`` like any other result change.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import spec  # noqa: E402

#: Benchmark workload -> the workload whose digests it must reproduce.
PIN_SOURCE = {"social": "social-serial"}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(spec.WORKLOAD_NAMES))
    parser.add_argument(
        "--seeds", default=",".join(str(s) for s in spec.STUDY_SEEDS)
    )
    args = parser.parse_args(argv)
    path = HERE / "pins.json"
    pins = json.loads(path.read_text()) if path.exists() else {}
    for workload in args.workloads.split(","):
        source = PIN_SOURCE.get(workload, workload)
        for seed in (int(s) for s in args.seeds.split(",")):
            runner = run.Runner(source, [seed], time.monotonic() + 3600)
            digests = runner.child("--pin")["digests"]
            if not digests:
                raise SystemExit(f"{source} seed {seed} failed; nothing pinned")
            pins.setdefault(workload, {})[str(seed)] = digests
            print(f"{workload} seed {seed}: {digests}", flush=True)
            path.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
