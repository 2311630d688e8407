"""One sha1 per training run: the bit-identity check of a change that must not move numbers.

    python3 tools/digest.py

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
"""

from __future__ import annotations

import hashlib
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run(w, variant, seed=0):
    """The sha1 of one run, plus its test MRRs unfiltered and filtered."""
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
    h = hashlib.sha1()
    for name, p in sorted(model.params.items()):
        h.update(name.encode() + p.value.tobytes())
    h.update(np.array([s.mean_loss for s in hist["segments"]]).tobytes())
    h.update(np.array([e["val_mrr"] for e in hist["epochs"]]).tobytes())
    mrrs = []
    for filtered in (False, True):
        report = incremental_eval(ds, model, split="test", seed=seed, filter_interacted=filtered)
        h.update(np.array([report.mrr, report.recall_at_10]).tobytes())
        mrrs.append(report.mrr)
    return h.hexdigest(), mrrs


def main():
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"          # before numpy loads
    sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "benchmarks")]
    from cpmr.model import VARIANTS
    from workloads import WORKLOADS

    runs = [(name, "full") for name in WORKLOADS]
    runs += [("longtail-d32", v) for v in VARIANTS if v != "full"]
    for name, variant in runs:
        digest, (mrr, mrr_filtered) = run(WORKLOADS[name], variant)
        print(f"{name:14s} {variant:10s} {digest}  test MRR {mrr:.6f}, filtered "
              f"{mrr_filtered:.6f}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
