"""Command-line entry point: preprocess, train, eval, sweep, ablate, gradcheck.

Exit status: 0 success, 1 a gradient check failed (gradcheck only), 2
user/config error, 3 numerical abort. The CPMR_THREADS environment variable
caps BLAS thread pools (applied when the package is imported, before numpy).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

import numpy as np

from . import autodiff as ad
from . import data
from .errors import ConfigError, DataError, NumericalError
from .evaluation import incremental_eval, sweep, sweep_rows_to_csv
from .gradcheck import TOLERANCE, run_suite
from .model import VARIANTS, CpmrModel
from .runconfig import RunConfig
from .training import train


def int_list(text):
    return [int(v) for v in text.split(",") if v.strip()]


def _build_parser():
    p = argparse.ArgumentParser(prog="cpmr",
                                description="incremental sequential recommender")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("preprocess", help="parse, 5-core filter and canonicalize a raw log")
    sp.add_argument("--input", required=True)
    sp.add_argument("--format", required=True, choices=["amazon_csv", "movielens_tab"])
    sp.add_argument("--output", required=True, help="output directory")
    sp.add_argument("--k-core", type=int, default=5)

    st = sub.add_parser("train", help="train on the canonical dataset of a config")
    st.add_argument("--config", required=True)

    se = sub.add_parser("eval", help="incremental evaluation of a checkpoint")
    se.add_argument("--config", required=True)
    se.add_argument("--checkpoint", required=True)
    se.add_argument("--split", choices=["val", "test"], default=None)

    sw = sub.add_parser("sweep", help="sweep s_days, n_tbptt or the seed")
    sw.add_argument("--config", required=True)
    sw.add_argument("--param", required=True, choices=["s_days", "n_tbptt", "seed"])
    sw.add_argument("--values", required=True, type=int_list,
                    help="comma-separated integers")

    sa = sub.add_parser("ablate", help="train/evaluate one model variant")
    sa.add_argument("--config", required=True)
    sa.add_argument("--variant", required=True, choices=VARIANTS)

    sg = sub.add_parser("gradcheck", help="finite-difference gradient suite")
    sg.add_argument("--seed", type=int, default=0)
    return p


def cmd_preprocess(args):
    with open(args.input, "rb") as fh:
        events = data.parse_interactions(fh, args.format)
    if not events:
        raise DataError("input contains no interaction records")
    events = data.k_core_filter(events, args.k_core)
    if not events:
        raise DataError(f"no interactions survive the {args.k_core}-core filter")
    ds = data.canonicalize(events)
    os.makedirs(args.output, exist_ok=True)
    out = os.path.join(args.output, "dataset.bin")
    data.save_dataset(out, ds)
    summary = data.summarize(ds)
    summary["path"] = out
    print(json.dumps(summary))
    return 0


def _load_run(config_path):
    run = RunConfig.from_file(config_path)
    ds = data.load_dataset(run.data_path)
    return run, ds


def cmd_train(args):
    run, ds = _load_run(args.config)
    print(run.echo())
    os.makedirs(run.output_dir, exist_ok=True)
    model, history = train(ds, run.model, run.train,
                           log_path=os.path.join(run.output_dir, "train.log"))
    path = os.path.join(run.output_dir, "checkpoint.bin")
    ad.save_checkpoint(path, model.params, _provenance(run, ds))
    print(json.dumps({"best_epoch": history["best_epoch"],
                      "best_val_mrr": history["best_val_mrr"], "checkpoint": path}))
    return 0


def _provenance(run, ds):
    """What a checkpoint is trained with: model and training settings, the dataset's shape."""
    return {**{k: v for k, v in run.settings.items() if k.startswith(("model.", "train."))},
            "dataset.n_users": ds.n_users, "dataset.n_items": ds.n_items,
            "dataset.n_events": len(ds), "dataset.split": list(ds.split)}


def _append_metrics(run, report):
    os.makedirs(run.output_dir, exist_ok=True)
    line = json.dumps(report.to_dict())
    with open(os.path.join(run.output_dir, "metrics.jsonl"), "a", encoding="utf-8") as fh:
        fh.write(line + "\n")
    print(line)


def cmd_eval(args):
    run, ds = _load_run(args.config)
    split = args.split or run.eval_split
    meta, params = ad.read_checkpoint(args.checkpoint)
    want = _provenance(run, ds)
    # the training settings are recorded, not binding: eval may run under others
    diff = [f"{k}={meta.get(k)!r} (this run: {want.get(k)!r})"
            for k in sorted(meta.keys() | want.keys())
            if not k.startswith("train.") and meta.get(k) != want.get(k)]
    if diff:
        raise ConfigError(f"checkpoint {args.checkpoint} was trained with {', '.join(diff)}")
    model = CpmrModel(ds.n_users, ds.n_items, ds.day_unit, run.model,
                      rng=np.random.default_rng(run.train.seed))
    model.load_params(params)
    report = incremental_eval(ds, model, split=split, seed=run.train.seed,
                              filter_interacted=run.eval_filter)
    _append_metrics(run, report)
    return 0


def cmd_sweep(args):
    run, ds = _load_run(args.config)
    rows = sweep(ds, args.param, args.values, run.model, run.train,
                 split=run.eval_split, filter_interacted=run.eval_filter)
    os.makedirs(run.output_dir, exist_ok=True)
    sweep_rows_to_csv(rows, os.path.join(run.output_dir, "sweep.csv"))
    for r in rows:
        print(json.dumps(r))
    return 0


def cmd_ablate(args):
    run, ds = _load_run(args.config)
    model, _ = train(ds, dataclasses.replace(run.model, variant=args.variant), run.train)
    report = incremental_eval(ds, model, split=run.eval_split, seed=run.train.seed,
                              filter_interacted=run.eval_filter)
    _append_metrics(run, report)
    return 0


def cmd_gradcheck(args):
    lines, worst = run_suite(args.seed)
    for name, err in lines:
        status = "ok" if err <= TOLERANCE else "FAIL"
        print(f"{status:4s} {name:28s} max_rel_err={err:.3e}")
    print(f"worst={worst:.3e} tolerance={TOLERANCE:.0e}")
    return 0 if worst <= TOLERANCE else 1


def main(argv=None):
    args = _build_parser().parse_args(argv)
    handlers = {
        "preprocess": cmd_preprocess,
        "train": cmd_train,
        "eval": cmd_eval,
        "sweep": cmd_sweep,
        "ablate": cmd_ablate,
        "gradcheck": cmd_gradcheck,
    }
    try:
        return handlers[args.command](args)
    except (ConfigError, DataError, OSError, MemoryError) as exc:   # sizes no machine holds
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical abort: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
