"""One workload in this process: set-up passes, timed rounds, traced round, checks.

Only the public API is driven: ``cpmr.data`` for set-up, ``cpmr.training.train``
with an ``eval_fn`` wrapping ``cpmr.evaluation.validation_mrr``, then
``cpmr.evaluation.incremental_eval`` on the test split.

Every time is CPU seconds of this single-threaded process
(``time.process_time``): its wall time less the time the host did not run
it, which on a shared virtual machine swings too much for the bounds
(README, "Clock").
"""

from __future__ import annotations

import dataclasses
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time

import cpmr
from cpmr import data
from cpmr.evaluation import incremental_eval, validation_mrr
from cpmr.model import ModelConfig
from cpmr.training import TrainConfig, train

from checks import FIXED_INPUT_CHECKS, Log, run_checks
from tracer import Tracer, layer_table, patched
from workloads import EPOCHS, N_NEG, S_DAYS, generate, rounds

SETUP_STAGES = ("parse", "kcore", "canonicalize", "save", "load")
REPLAYS = 4     # test replays per trained model; the replay is deterministic
SETUP_PASSES_EACH = 2   # set-up passes at the start and after each timed part


def run_workload(w, seed, seconds, trace, results_dir):
    if not os.path.abspath(cpmr.__file__).startswith(os.path.abspath(sys.path[0])):
        raise RuntimeError(f"cpmr imported from {cpmr.__file__}, not {sys.path[0]}")
    raw, (users, items, days) = generate(w, seed)
    os.makedirs(results_dir, exist_ok=True)

    tmp = tempfile.mkdtemp(dir=results_dir)
    try:
        setup = SetupPasses(raw, os.path.join(tmp, "dataset.bin"), w.setup_logs)
        ds = setup.run()
        mcfg = ModelConfig(d=w.d, s_days=S_DAYS, time_scale=w.time_scale)
        tcfg = TrainConfig(lr=w.lr, n_tbptt=w.n_tbptt, n_neg=N_NEG,
                           max_epochs=EPOCHS, patience=EPOCHS, seed=seed)
        outcomes, epoch_s, replay_s = [], [], []
        for _ in range(rounds(seconds)):
            model, hist, reports, t_train, t_tests = timed_round(ds, mcfg, tcfg, setup.run)
            outcomes += [(hist, r) for r in reports]
            epoch_s.append(t_train / EPOCHS)
            replay_s += t_tests
    finally:
        shutil.rmtree(tmp)
    report = reports[-1]
    # set-up passes, epochs, validation replays, test replays
    attempted = setup.logs + len(epoch_s) * 2 * EPOCHS + len(replay_s)

    layers = {}
    if trace:
        tr = Tracer()
        with patched(tr):
            model, hist, report, t_train, t_test = traced_round(ds, mcfg, tcfg, tr)
        attempted += 2 * EPOCHS + 1
        outcomes.append((hist, report))
        layers.update(layer_table(tr, "train", t_train, EPOCHS))
        layers.update(layer_table(tr, "test", t_test, 1))
        layers.update({f"data.{k}_s": statistics.median(v) for k, v in setup.stages.items()})
        layers["trace.train_overhead"] = t_train / EPOCHS / statistics.median(epoch_s)
        layers["trace.test_overhead"] = t_test / statistics.median(replay_s)

    log = Log(users, items, days)
    checks = run_checks(log, ds, model, hist, report, outcomes)
    attempted += len(checks)
    failed = sum(not ok for _, ok, _ in checks)
    correct = all(ok for n, ok, _ in checks if n not in FIXED_INPUT_CHECKS)

    if trace:
        metrics = {k: {"value": v, "unit": unit_of(k)} for k, v in layers.items()}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup.totals), "unit": "s"},
            "train_epoch_s": {"value": statistics.median(epoch_s), "unit": "s"},
            "test_replay_s": {"value": statistics.median(replay_s), "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                            / 1024, "unit": "MiB"},
        }
    detail = {
        "workload": w.name, "seed": seed, "seconds": seconds, "trace": trace,
        "shape": {"users": ds.n_users, "items": ds.n_items, "days": ds.n_days,
                  "interactions": len(ds), "split": list(ds.split),
                  **dataclasses.asdict(w), "epochs": EPOCHS, "s_days": S_DAYS,
                  "n_neg": N_NEG},
        "setup_passes_s": setup.totals, "setup_stages_s": setup.stages,
        "train_epoch_s": epoch_s, "test_replay_s": replay_s,
        "test_mrr": report.mrr, "test_recall_at_10": report.recall_at_10,
        "checks": [{"name": n, "ok": ok, "detail": d} for n, ok, d in checks],
        "metrics": metrics,
    }
    name = f"{w.name}-seed{seed}-trace{trace}.json"
    with open(os.path.join(results_dir, name), "w", encoding="utf-8") as fh:
        json.dump(detail, fh, indent=1)

    for n, ok, d in checks:
        print(f"check {'ok  ' if ok else 'FAIL'} {n}: {d}")
    if trace:
        for k, v in layers.items():
            print(f"layer {k:44s} {v:14.6f} {unit_of(k)}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


class SetupPasses:
    """Timed ``cpmr preprocess`` + load passes on the raw CSV bytes.

    Each pass preprocesses and loads the log ``logs`` times, about 0.1 s of
    work, and records the seconds of each stage for one log. The passes are
    taken a few at a time between the other timed parts of the run: the host
    runs this process at speeds up to 1.8x apart in spells of seconds, and
    passes spread over the whole run keep one spell from deciding their
    median (README, "Clock").
    """

    def __init__(self, raw, path, logs):
        self.raw, self.path, self.logs_per_pass = raw, path, logs
        self.totals = []
        self.stages = {k: [] for k in SETUP_STAGES}

    @property
    def logs(self):
        return len(self.totals) * self.logs_per_pass

    def run(self):
        for _ in range(SETUP_PASSES_EACH):
            times = dict.fromkeys(SETUP_STAGES, 0.0)
            for _ in range(self.logs_per_pass):
                t = time.process_time()
                events = data.parse_interactions(self.raw, "amazon_csv")
                t = _lap(times, "parse", t)
                events = data.k_core_filter(events, 5)
                t = _lap(times, "kcore", t)
                ds = data.canonicalize(events)
                t = _lap(times, "canonicalize", t)
                data.save_dataset(self.path, ds)
                t = _lap(times, "save", t)
                ds = data.load_dataset(self.path)
                _lap(times, "load", t)
            for k, v in times.items():
                self.stages[k].append(v / self.logs_per_pass)
            self.totals.append(sum(times.values()) / self.logs_per_pass)
        return ds


def _lap(times, stage, t):
    now = time.process_time()
    times[stage] += now - t
    return now


def timed_round(ds, mcfg, tcfg, between):
    """train() for a fixed number of epochs, then REPLAYS test replays, timed.

    ``between()`` runs after each timed part, outside the timing.
    """
    def eval_fn(model, states):
        return validation_mrr(model, states, ds)

    t0 = time.process_time()
    model, hist = train(ds, mcfg, tcfg, eval_fn=eval_fn)
    t_train = time.process_time() - t0
    between()
    reports, t_tests = [], []
    for _ in range(REPLAYS):
        t0 = time.process_time()
        reports.append(incremental_eval(ds, model, split="test", seed=tcfg.seed))
        t_tests.append(time.process_time() - t0)
        between()
    return model, hist, reports, t_train, t_tests


def traced_round(ds, mcfg, tcfg, tracer):
    """One round of train() and one test replay with every span traced."""
    eval_fn = tracer.wrap("evaluation.validation",
                          lambda model, states: validation_mrr(model, states, ds))
    with tracer.in_phase("train") as train_s:
        model, hist = train(ds, mcfg, tcfg, eval_fn=eval_fn)
    with tracer.in_phase("test") as test_s:
        report = incremental_eval(ds, model, split="test", seed=tcfg.seed)
    return model, hist, report, train_s[0], test_s[0]


def unit_of(metric):
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_mb"):
        return "MiB"
    if metric.endswith(("_ratio", "_overhead")):
        return "ratio"
    return "count"
