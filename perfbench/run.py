#!/usr/bin/env python3
"""Benchmark of vcspkit: time to an exact, re-verified answer.

    python3 perfbench/run.py --workload binary-dispatch --seed 0 --seconds 15 --trace 0

It uses the sources under ``src/`` of the checkout that holds this file and
runs from any directory.  ``--trace 0`` prints the end-to-end metrics,
``--trace 1`` the per-layer ones.  The last line of stdout is one JSON
object with the keys correct, attempted, failed and metrics; the lines
above it give the environment, each metric with its unit and sample count,
and any failures.  See README.md.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, help="default: cases.DEFAULT_SEED")
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, help="also write the result and environment here")
    parser.add_argument("--make-inputs", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (SRC / "vcspkit" / "__init__.py").is_file():
        sys.exit(f"perfbench: no vcspkit sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import cases

    if args.workload not in cases.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(cases.WORKLOADS)}")
    seed = cases.DEFAULT_SEED if args.seed is None else args.seed
    if args.make_inputs:
        # a set-up process imports no more than the workload needs
        cases.write_inputs(args.workload, seed)
        return 0
    import bench

    bench.run(args.workload, seed, args.seconds, args.trace, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
