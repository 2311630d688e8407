"""Alternating base/change benchmark pairs: what a change does to the end-to-end metrics.

    python3 tools/pairs.py --base REV [--pairs 10] [--workload NAME|all] [--seconds 33] [--seed 0]
                           [--json PATH]

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

With ``--json PATH`` it also appends one record to the JSON list in PATH:
the base's rev; the change, HEAD's rev if no tracked file differs from it,
else "working tree"; the host's CPU model and CPU count; seed, seconds and
pairs; and per workload the counts above and, per metric, both medians and
quartiles, every pair, the pairs won and the verdict.
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


def compare(spec, runs):
    """Per workload, its runs' counts and, per end-to-end metric, its stats.

    ``runs`` maps a workload to its pairs of results, (base, change), each the
    parsed JSON line of a run or None for a run that gave none. A metric's
    stats are None when no pair has both results; a pair without both, or a
    run that was not correct, still counts in ``attempted`` and ``failed``."""
    out = {}
    for name, pairs in runs.items():
        sides = {}
        for side, label in ((0, "base"), (1, "change")):
            results = [p[side] for p in pairs if p[side] is not None]
            sides[label] = {
                "attempted": sum(r["attempted"] for r in results),
                "failed": sum(r["failed"] for r in results),
                "no_result": [i for i, p in enumerate(pairs) if p[side] is None],
                "not_correct": [i for i, p in enumerate(pairs)
                                if p[side] is not None and not p[side]["correct"]]}
        metrics = {}
        for m in spec["end_to_end"]:
            key = m["name"]
            both = [(b["metrics"][key]["value"], c["metrics"][key]["value"]) for b, c in pairs
                    if b is not None and c is not None]
            if not both:
                metrics[key] = None
                continue
            base, change = [v for v, _ in both], [v for _, v in both]
            word, won = verdict(base, change, m["bound"], m["better"])
            (b1, b_mid, b3), (c1, c_mid, c3) = quartiles(base), quartiles(change)
            metrics[key] = {"unit": m["unit"], "bound": m["bound"], "better": m["better"],
                            "base_median": b_mid, "base_quartiles": [b1, b3],
                            "change_median": c_mid, "change_quartiles": [c1, c3],
                            "pairs": [list(p) for p in both], "won": won, "verdict": word}
        out[name] = {"pairs": len(pairs), **sides, "metrics": metrics}
    return out


def summarize(spec, runs):
    """The report's lines, from :func:`compare` of ``runs``."""
    lines = []
    for name, w in compare(spec, runs).items():
        counts = []
        for label in ("base", "change"):
            side = w[label]
            counts.append(f"{label} attempted {side['attempted']}, failed {side['failed']}")
            bad = [(i, "no result") for i in side["no_result"]]
            bad += [(i, "not correct") for i in side["not_correct"]]
            counts += [f"{label} run {i}: {what}" for i, what in sorted(bad)]
        lines.append(f"== {name}: {w['pairs']} pairs; " + "; ".join(counts))
        for key, st in w["metrics"].items():
            if st is None:
                lines.append(f"   {key}: no complete pair")
                continue
            b_mid, (b1, b3) = st["base_median"], st["base_quartiles"]
            c_mid, (c1, c3) = st["change_median"], st["change_quartiles"]
            gap = (c_mid - b_mid) / abs(b_mid) if b_mid else float("nan")
            lines.append(f"   {key:14s} {b_mid:.4g} [{b1:.4g}, {b3:.4g}] -> {c_mid:.4g} "
                         f"[{c1:.4g}, {c3:.4g}] {st['unit']}, {gap:+.1%}, change won "
                         f"{st['won']}/{len(st['pairs'])}, bound {st['bound']:.0%}: "
                         f"{st['verdict']}")
            lines.append("      pairs (base, change): "
                         + ", ".join(f"({b:.4g}, {c:.4g})" for b, c in st["pairs"]))
    return lines


def host():
    """The CPU model name from /proc/cpuinfo (None without one) and the CPUs the process may use."""
    model = None
    try:
        with open("/proc/cpuinfo") as f:
            model = next((line.split(":", 1)[1].strip() for line in f
                          if line.startswith("model name")), None)
    except OSError:
        pass
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return {"cpu": model, "nproc": nproc}


def append_record(path, record):
    """Append ``record`` to the JSON list in ``path``, which is created if absent."""
    records = []
    if os.path.exists(path):
        with open(path) as f:
            records = json.load(f)
        if not isinstance(records, list):
            raise ValueError(f"{path} does not hold a JSON list")
    records.append(record)
    with open(path, "w") as f:
        json.dump(records, f, indent=1)
        f.write("\n")


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
    p.add_argument("--json", metavar="PATH",
                   help="append the run's record to the JSON list in PATH")
    args = p.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    names = [w["name"] for w in spec["workloads"]]
    if args.workload != "all" and args.workload not in names:
        p.error(f"--workload must be one of {names} or all")
    if args.pairs < 1:
        p.error("--pairs must be at least 1")
    rev = git("rev-parse", "--verify", args.base + "^{commit}").strip()
    # the change: HEAD's rev when the tracked files are HEAD's, else the working tree
    dirty = git("status", "--porcelain", "--untracked-files=no").strip()
    change = "working tree" if dirty else git("rev-parse", "HEAD").strip()
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
    if args.json:
        append_record(args.json, {
            "base": rev, "change": change, "host": host(), "seed": args.seed,
            "seconds": args.seconds, "pairs": args.pairs, "workloads": compare(spec, runs)})
    return 0


if __name__ == "__main__":
    sys.exit(main())
