"""cpmr benchmark: set-up, training epochs and the test replay, per workload.

    python3 benchmarks/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout: the program is imported from its
``src/`` directory. Each workload runs in a fresh single-threaded process
(BLAS pinned to one thread before numpy loads). The run generates its raw
log from the seed, then trains and replays the test split in as many whole
rounds as ``--seconds`` allows at nominal speed, with timed set-up passes
(preprocess and load the log) between the timed parts. It checks the
outputs and prints one JSON line last.
``--trace 1`` adds one round with every layer wrapped and prints the
per-layer metrics instead of the end-to-end ones. With ``--workload all``
every workload runs in turn, each in its own process.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(HERE, "results")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def main(argv=None):
    # must precede the first numpy import of this process and its children
    for var in THREAD_VARS:
        os.environ[var] = "1"
    from workloads import WORKLOADS

    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=int, default=33)
    p.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "cpmr", "__init__.py")):
        print(f"error: no cpmr sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args, list(WORKLOADS))
    sys.path.insert(0, SRC)
    from bench import run_workload
    return run_workload(WORKLOADS[args.workload], args.seed, args.seconds,
                        args.trace, RESULTS)


def run_all(args, names):
    status = 0
    for name in names:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        sys.stdout.write(proc.stdout)
        if proc.returncode or not lines:
            print(f"{name}: exit code {proc.returncode}", file=sys.stderr)
            status = status or proc.returncode or 1
            continue
        result = json.loads(lines[-1])
        print(f"== {name}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}")
        for key, m in result["metrics"].items():
            print(f"   {key:40s} {m['value']:14.6f} {m['unit']}")
    return status


if __name__ == "__main__":
    sys.exit(main())
