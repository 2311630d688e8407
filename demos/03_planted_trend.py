"""Why the contextual states exist: a planted-trend study.

Builds a synthetic log where a rotating subset of items is fashionable for
exactly ten days at a time, then (a) compares the full model against the
no-context ablation and (b) sweeps the context window length. Takes a few
minutes; shrink max_epochs for a faster look.
"""

import numpy as np

from cpmr.evaluation import sweep, synthetic_trend_dataset
from cpmr.model import VARIANTS, ModelConfig
from cpmr.training import TrainConfig


def main():
    ds = synthetic_trend_dataset(np.random.default_rng(42))
    print(f"planted-trend log: {len(ds.days)} events, {ds.n_users} users, "
          f"{ds.n_items} items")

    # time_scale stretches the ODE clock so states visibly relax toward the
    # context-graph equilibrium between days (see ModelConfig docs)
    model_cfg = ModelConfig(d=16, s_days=10, taylor_order=4, time_scale=5.0)
    train_cfg = TrainConfig(lr=1e-3, n_tbptt=10, n_neg=4, max_epochs=15,
                            patience=6, seed=0)

    print("\nablations (test MRR):")
    for row in sweep(ds, "variant", VARIANTS, model_cfg, train_cfg):
        print(f"  {row['variant']:10s} {row['mrr']:.4f}")

    print("\ncontext window sweep (planted window = 10 days):")
    for row in sweep(ds, "s_days", [5, 10, 15, 20], model_cfg, train_cfg):
        print(f"  s={row['s_days']:2d}  MRR {row['mrr']:.4f}  "
              f"Recall@10 {row['recall_at_10']:.4f}")


if __name__ == "__main__":
    main()
