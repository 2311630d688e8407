"""One sha1 per training run: the bit-identity check of a change that must not move numbers.

    python3 tools/digest.py [--save DIR] [--against DIR | --base REV]

Run from the root of a source checkout: ``cpmr`` is imported from its ``src/``
and the workload shapes from ``benchmarks/workloads.py``, which this script
only reads. For the full model on every benchmark workload, and for every
variant on longtail-d32, it generates the workload's log at seed 0, trains 2
epochs at seed 0 with the benchmark's model and training settings, then
replays the test split with ``filter_interacted`` off and on. Each run
prints one line: the workload, the variant and the sha1 of every parameter
tensor, segment loss, validation MRR and test MRR and Recall@10. Two trees
give the same lines if and only if (up to sha1 collisions) those bytes agree.
BLAS runs on one thread, as in the benchmark.

For a change that moves the last bits on purpose, ``--save DIR`` writes each
run's arrays to ``DIR/<workload>-<variant>.npz``, and ``--against DIR``
prints after each sha1 line how far the run is from the one saved there: the
largest per-tensor parameter drift, max|new - ref| / max|ref|; the largest
relative segment-loss difference; and whether every validation MRR, test MRR
and Recall@10 is bit-equal. ``--base REV`` compares with REV's runs in
the same way: this script runs with ``--save`` in a temporary ``git
worktree`` of REV, so REV's ``src/`` trains them, and the worktree is
removed on every exit. The drift then adds up every change since REV.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import shutil
import signal
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PARAM = "param."     # the prefix of a parameter's array name


def run(w, variant, seed=0):
    """One run's arrays: each parameter as ``param.<name>``, in name order;
    ``segment_losses``; ``val_mrrs``; and ``test``, the test MRR and Recall@10
    with the filter off, then on."""
    import numpy as np
    from cpmr import data
    from cpmr.evaluation import incremental_eval
    from cpmr.model import ModelConfig
    from cpmr.training import TrainConfig, train
    from workloads import EPOCHS, N_NEG, S_DAYS, generate

    raw, _ = generate(w, seed)
    ds = data.canonicalize(data.k_core_filter(data.parse_interactions(raw, "amazon_csv"), 5))
    mcfg = ModelConfig(d=w.d, s_days=S_DAYS, time_scale=w.time_scale, variant=variant)
    tcfg = TrainConfig(lr=w.lr, n_tbptt=w.n_tbptt, n_neg=N_NEG, max_epochs=EPOCHS,
                       patience=EPOCHS, seed=seed)
    model, hist = train(ds, mcfg, tcfg)
    arrays = {PARAM + name: p.value for name, p in sorted(model.params.items())}
    arrays["segment_losses"] = np.array([s.mean_loss for s in hist["segments"]])
    arrays["val_mrrs"] = np.array([e["val_mrr"] for e in hist["epochs"]])
    reports = [incremental_eval(ds, model, split="test", seed=seed, filter_interacted=filtered)
               for filtered in (False, True)]
    arrays["test"] = np.array([[r.mrr, r.recall_at_10] for r in reports])
    return arrays


def digest(arrays):
    """The sha1 of a run's arrays: each parameter's name and bytes, then the
    segment losses, the validation MRRs and the test metrics."""
    h = hashlib.sha1()
    for key, value in arrays.items():
        if key.startswith(PARAM):
            h.update(key[len(PARAM):].encode() + value.tobytes())
    for key in ("segment_losses", "val_mrrs", "test"):
        h.update(arrays[key].tobytes())
    return h.hexdigest()


def drift(ref, new):
    """(largest per-tensor parameter drift, largest relative segment-loss
    difference, whether every MRR and Recall is bit-equal) of ``new`` against
    ``ref``. Runs with other parameter names or shapes raise ``ValueError``."""
    import numpy as np
    names = sorted(k for k in ref if k.startswith(PARAM))
    if names != sorted(k for k in new if k.startswith(PARAM)) or any(
            ref[k].shape != new[k].shape for k in (*names, "segment_losses", "val_mrrs", "test")):
        raise ValueError("the runs hold other parameters or other numbers of metrics")

    def relative(a, b, scale):
        gap = np.abs(b - a)
        with np.errstate(divide="ignore", invalid="ignore"):
            return float(np.max(np.where(gap == 0, 0.0, gap / scale), initial=0.0))
    params = max((relative(ref[k], new[k], np.abs(ref[k]).max(initial=0.0)) for k in names),
                 default=0.0)
    losses = relative(ref["segment_losses"], new["segment_losses"],
                      np.abs(ref["segment_losses"]))
    equal = all(ref[k].tobytes() == new[k].tobytes() for k in ("val_mrrs", "test"))
    return params, losses, equal


def save(directory, name, arrays):
    import numpy as np
    os.makedirs(directory, exist_ok=True)
    np.savez(os.path.join(directory, name + ".npz"), **arrays)


def load(directory, name):
    import numpy as np
    with np.load(os.path.join(directory, name + ".npz")) as f:
        return {k: f[k] for k in f.files}


def save_base(rev, directory):
    """Save REV's runs to ``directory``: this script with ``--save``, run in a
    temporary ``git worktree`` of REV, so that REV's ``src/`` and
    ``benchmarks/`` make them. REV's lines go to stderr."""
    tmp = tempfile.mkdtemp(prefix="cpmr-digest-")
    tree = os.path.join(tmp, "base")
    try:
        subprocess.run(["git", "worktree", "add", "--detach", "--quiet", tree, rev], cwd=ROOT,
                       check=True)
        script = os.path.join(tree, "tools", "digest.py")
        shutil.copyfile(os.path.abspath(__file__), script)
        subprocess.run([sys.executable, script, "--save", directory], cwd=tree, check=True,
                       stdout=sys.stderr)
    finally:
        subprocess.run(["git", "worktree", "remove", "--force", tree], cwd=ROOT,
                       stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        shutil.rmtree(tmp, ignore_errors=True)
        subprocess.run(["git", "worktree", "prune"], cwd=ROOT)


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--save", metavar="DIR", help="write each run's arrays to DIR")
    ref = p.add_mutually_exclusive_group()
    ref.add_argument("--against", metavar="DIR", help="compare each run with the one saved in DIR")
    ref.add_argument("--base", metavar="REV",
                     help="compare each run with REV's, made in a temporary git worktree")
    args = p.parse_args(argv)
    if args.base:
        signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))    # so the worktree goes too
        with tempfile.TemporaryDirectory(prefix="cpmr-digest-base-") as saved:
            save_base(args.base, saved)
            return digest_runs(args.save, saved)
    return digest_runs(args.save, args.against)


def digest_runs(save_dir, against):
    """Print every run's line, saving its arrays to ``save_dir`` and its drift
    from the run saved in ``against`` when they are given."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"          # before numpy loads
    sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "benchmarks")]
    from cpmr.model import VARIANTS
    from workloads import WORKLOADS

    runs = [(name, "full") for name in WORKLOADS]
    runs += [("longtail-d32", v) for v in VARIANTS if v != "full"]
    for name, variant in runs:
        arrays = run(WORKLOADS[name], variant)
        (mrr, _), (mrr_filtered, _) = arrays["test"]
        print(f"{name:14s} {variant:10s} {digest(arrays)}  test MRR {mrr:.6f}, filtered "
              f"{mrr_filtered:.6f}", flush=True)
        if save_dir:
            save(save_dir, f"{name}-{variant}", arrays)
        if against:
            params, losses, equal = drift(load(against, f"{name}-{variant}"), arrays)
            print(f"{'':25s} parameter drift {params:.2e}, segment losses {losses:.2e}, "
                  f"MRR and Recall {'bit-equal' if equal else 'DIFFER'}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
