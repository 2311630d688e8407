"""Alternating base/change benchmark pairs: what a change does to the end-to-end metrics.

    python3 tools/pairs.py --base REV [--pairs 10] [--workload NAME|all] [--seconds 33] [--seed 0]

Run from the root of a git checkout; the working tree is the change. REV is
checked out into a temporary ``git worktree``, removed on every exit. Each
pair runs ``benchmarks/run.py`` once in each tree for every workload, in
turn, with the base first in even pairs and the change first in odd ones, and
reads the JSON result on each run's last line. Progress and every result line
go to stderr. It refuses to run unless ``benchmarks/`` and ``BENCHMARK.json``
are the same at REV and in the working tree, so both sides run one harness.

Per workload it prints the operations attempted and failed on each side and
every run whose checks were not correct; per end-to-end metric of
``BENCHMARK.json``, both medians with their quartiles, the pairs the change
won, every pair's values, and one verdict:

- ``worse``: the change's median is worse than the base's by more than the
  metric's bound, a fraction of the base's median;
- ``unresolved``: on either side the interquartile range is wider than the
  bound times the median, so the runs spread too widely to tell, unless
  every run of the change reads better than every run of the base;
- ``gain``: the change won at least 9 in 10 pairs and its median is better
  by more than the base's interquartile range;
- ``no change``: anything else.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HARNESS = ("benchmarks", "BENCHMARK.json")


def quartiles(values):
    """(q1, median, q3), linearly interpolated as numpy's percentiles are."""
    if len(values) == 1:
        return (values[0],) * 3
    return tuple(statistics.quantiles(values, n=4, method="inclusive"))


def verdict(base, change, bound, better):
    """The verdict on one metric's paired runs; see the module docstring."""
    sign = 1.0 if better == "lower" else -1.0
    (b1, b_mid, b3), (c1, c_mid, c3) = quartiles(base), quartiles(change)
    won = sum(sign * (c - b) < 0 for b, c in zip(base, change))
    if sign * (c_mid - b_mid) > bound * abs(b_mid):
        return "worse", won
    apart = max(sign * c for c in change) < min(sign * b for b in base)
    if (b3 - b1 > bound * abs(b_mid) or c3 - c1 > bound * abs(c_mid)) and not apart:
        return "unresolved", won
    if won >= 0.9 * len(base) and sign * (b_mid - c_mid) > b3 - b1:
        return "gain", won
    return "no change", won


def summarize(spec, runs):
    """The report's lines. ``runs`` maps a workload to its pairs of results,
    (base, change), each the parsed JSON line of a run or None for a run that
    gave none."""
    lines = []
    for name, pairs in runs.items():
        counts = []
        for side, label in ((0, "base"), (1, "change")):
            results = [p[side] for p in pairs if p[side] is not None]
            counts.append(f"{label} attempted {sum(r['attempted'] for r in results)}, "
                          f"failed {sum(r['failed'] for r in results)}")
            for i, p in enumerate(pairs):
                if p[side] is None:
                    counts.append(f"{label} run {i}: no result")
                elif not p[side]["correct"]:
                    counts.append(f"{label} run {i}: not correct")
        lines.append(f"== {name}: {len(pairs)} pairs; " + "; ".join(counts))
        for m in spec["end_to_end"]:
            key = m["name"]
            both = [(b["metrics"][key]["value"], c["metrics"][key]["value"]) for b, c in pairs
                    if b is not None and c is not None]
            if not both:
                lines.append(f"   {key}: no complete pair")
                continue
            base, change = [v for v, _ in both], [v for _, v in both]
            word, won = verdict(base, change, m["bound"], m["better"])
            (b1, b_mid, b3), (c1, c_mid, c3) = quartiles(base), quartiles(change)
            gap = (c_mid - b_mid) / abs(b_mid) if b_mid else float("nan")
            lines.append(f"   {key:14s} {b_mid:.4g} [{b1:.4g}, {b3:.4g}] -> {c_mid:.4g} "
                         f"[{c1:.4g}, {c3:.4g}] {m['unit']}, {gap:+.1%}, change won "
                         f"{won}/{len(both)}, bound {m['bound']:.0%}: {word}")
            lines.append("      pairs (base, change): "
                         + ", ".join(f"({b:.4g}, {c:.4g})" for b, c in both))
    return lines


def last_json(stdout):
    """The JSON object on the last line of a run's output, or None."""
    lines = stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None


def git(*args, cwd=ROOT):
    return subprocess.run(["git", *args], cwd=cwd, check=True, stdout=subprocess.PIPE,
                          text=True).stdout


def harness_differs(rev):
    """Whether ``benchmarks/`` or ``BENCHMARK.json`` differ between REV and the working tree."""
    changed = subprocess.run(["git", "diff", "--quiet", rev, "--", *HARNESS], cwd=ROOT)
    untracked = git("ls-files", "--others", "--exclude-standard", "--", *HARNESS)
    return changed.returncode != 0 or bool(untracked.strip())


def bench(tree, workload, seconds, seed):
    cmd = [sys.executable, os.path.join("benchmarks", "run.py"), "--workload", workload,
           "--seconds", str(seconds), "--seed", str(seed)]
    return last_json(subprocess.run(cmd, cwd=tree, stdout=subprocess.PIPE, text=True).stdout)


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--base", required=True, help="the git revision to compare against")
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--workload", default="all")
    p.add_argument("--seconds", type=int, default=33)
    p.add_argument("--seed", type=int, default=0)
    args = p.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    names = [w["name"] for w in spec["workloads"]]
    if args.workload != "all" and args.workload not in names:
        p.error(f"--workload must be one of {names} or all")
    if args.pairs < 1:
        p.error("--pairs must be at least 1")
    rev = git("rev-parse", "--verify", args.base + "^{commit}").strip()
    if harness_differs(rev):
        print(f"error: {' and '.join(HARNESS)} differ between {args.base} and the working "
              "tree; pairs would not run one harness", file=sys.stderr)
        return 2
    workloads = names if args.workload == "all" else [args.workload]
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))    # so the worktree goes too
    tmp = tempfile.mkdtemp(prefix="cpmr-pairs-")
    base_tree = os.path.join(tmp, "base")
    try:
        git("worktree", "add", "--detach", "--quiet", base_tree, rev)
        runs = {name: [] for name in workloads}
        for i in range(args.pairs):
            for name in workloads:
                pair = [None, None]
                for side in ((0, 1) if i % 2 == 0 else (1, 0)):
                    tree = (base_tree, ROOT)[side]
                    pair[side] = bench(tree, name, args.seconds, args.seed)
                    print(f"# pair {i + 1}/{args.pairs} {name} {('base', 'change')[side]}: "
                          f"{json.dumps(pair[side])}", file=sys.stderr, flush=True)
                runs[name].append(tuple(pair))
    finally:
        subprocess.run(["git", "worktree", "remove", "--force", base_tree], cwd=ROOT,
                       stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        shutil.rmtree(tmp, ignore_errors=True)
        subprocess.run(["git", "worktree", "prune"], cwd=ROOT)
    print(f"base {args.base} ({rev[:12]}) against the working tree, seed {args.seed}, "
          f"{args.seconds} s runs")
    print("\n".join(summarize(spec, runs)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
