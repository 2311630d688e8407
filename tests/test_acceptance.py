"""Acceptance gate: one test per criterion, one pass/fail line each.

Each test prints ``ACCEPTANCE CRITERION n PASS|FAIL: summary`` directly to
the terminal (bypassing capture) and then asserts. Criterion 1 needs the
public review log and hours of CPU, so it is gated on the
``CPMR_GARDEN_CSV`` environment variable and skips with an explanation
when absent; everything else runs unconditionally at desk scale.
"""

import os
import sys

import numpy as np
import pytest
import scipy.sparse as sp

from cpmr import autodiff as ad
from cpmr.data import canonicalize, k_core_filter, parse_interactions
from cpmr.evaluation import (incremental_eval, rank_from_scores,
                             sweep, synthetic_trend_dataset, validation_mrr)
from cpmr.graphs import EdgeStore, normalize_adjacency
from cpmr.model import CpmrModel, ModelConfig, evolve
from cpmr.training import TrainConfig, train

from test_training import infonce_loss


LINES = []   # echoed by the terminal-summary hook in conftest.py


def report(n, ok, summary):
    line = f"ACCEPTANCE CRITERION {n} {'PASS' if ok else 'FAIL'}: {summary}"
    LINES.append(line)
    assert ok, line


# -- criterion 1: end-to-end public-dataset reproduction ---------------------


def test_criterion_1_garden_reproduction():
    path = os.environ.get("CPMR_GARDEN_CSV")
    if not path:
        LINES.append(
            "ACCEPTANCE CRITERION 1 SKIP: end-to-end reproduction needs the "
            "raw Lawn-and-Garden review CSV (set CPMR_GARDEN_CSV) and hours of "
            "CPU per seed (projected from about 3 min per epoch with validation "
            "at the criterion-1 shape: about 46 min at 15 epochs, about 2.5 h "
            "at the 50-epoch cap); not available in this environment")
        pytest.skip("CPMR_GARDEN_CSV not set: raw public dataset unavailable "
                    "in this sandbox and the 3-seed d=128 run needs hours of CPU")
    with open(path, "rb") as fh:
        events = parse_interactions(fh, "amazon_csv")
    ds = canonicalize(k_core_filter(events, 5))
    mcfg = ModelConfig(d=128, s_days=5, taylor_order=6)
    mrrs, recalls = [], []
    for seed in (0, 1, 2):
        tcfg = TrainConfig(lr=1e-3, weight_decay=1e-4, n_tbptt=20, n_neg=8,
                           max_epochs=50, patience=5, seed=seed)
        model, _ = train(ds, mcfg, tcfg)
        rep = incremental_eval(ds, model, split="test", seed=seed)
        mrrs.append(rep.mrr)
        recalls.append(rep.recall_at_10)
    mrr, recall = float(np.mean(mrrs)), float(np.mean(recalls))
    report(1, mrr >= 0.072 and recall >= 0.17,
           f"3-seed mean test MRR {mrr:.4f} (>=0.072), "
           f"Recall@10 {recall:.4f} (>=0.17)")


def test_criterion_1_video_single_epoch():
    """Larger datasets are not score-gated; one epoch must merely run."""
    path = os.environ.get("CPMR_VIDEO_CSV")
    if not path:
        pytest.skip("CPMR_VIDEO_CSV not set: raw public dataset unavailable")
    with open(path, "rb") as fh:
        events = parse_interactions(fh, "amazon_csv")
    ds = canonicalize(k_core_filter(events, 5))
    tcfg = TrainConfig(lr=1e-3, weight_decay=1e-4, n_tbptt=20, n_neg=8,
                       max_epochs=1, patience=1, seed=0)
    model, hist = train(ds, ModelConfig(d=128, s_days=5, taylor_order=6), tcfg)
    report("1v", len(hist["epochs"]) == 1, "one full epoch ran without error")


# -- criterion 2: evolution vs dense eigendecomposition ----------------------


def _eig_oracle(x, e, a, dt):
    m = a - np.eye(a.shape[0])
    w, v = np.linalg.eig(m)
    q = np.exp(w * dt)
    p = np.where(np.abs(w) > 1e-12, (q - 1) / np.where(w == 0, 1, w), dt)
    return (v @ np.diag(p) @ np.linalg.inv(v) @ e
            + v @ np.diag(q) @ np.linalg.inv(v) @ x).real


def test_criterion_2_evolution_oracle():
    worst_short = worst_long = 0.0
    for trial in range(100):
        rng = np.random.default_rng(trial)
        n = int(rng.integers(2, 50))
        a = rng.normal(size=(n, n))
        a /= np.linalg.svd(a, compute_uv=False).max() * rng.uniform(1.05, 3.0)
        x = rng.normal(size=(n, 3))
        e = rng.normal(size=(n, 3))
        for dt, is_short in ((float(rng.uniform(0, 1)), True),
                             (float(rng.uniform(1, 50)), False)):
            got = evolve(x, e, sp.csr_matrix(a), dt, order=6)
            want = _eig_oracle(x, e, a, dt)
            err = np.abs(got - want).max() / max(1.0, np.abs(want).max())
            if is_short:
                worst_short = max(worst_short, err)
            else:
                worst_long = max(worst_long, err)
    report(2, worst_short < 1e-6 and worst_long < 1e-3,
           f"100 draws: rel err {worst_short:.2e} (dt<=1, tol 1e-6), "
           f"{worst_long:.2e} (dt<=50, tol 1e-3)")


# -- criterion 3: gradient suite ---------------------------------------------


def test_criterion_3_gradient_suite():
    from cpmr.cli import main
    from cpmr.gradcheck import TOLERANCE, run_suite

    lines, worst = run_suite(seed=0)
    exit_code = main(["gradcheck"])
    report(3, worst <= TOLERANCE and exit_code == 0,
           f"{len(lines)} finite-difference checks, worst rel err "
           f"{worst:.2e} (tol {TOLERANCE:.0e}), cli exit {exit_code}")


# -- criterion 4: analytic anchors -------------------------------------------


def test_criterion_4_analytic_anchors():
    ok = abs(infonce_loss(0.7, [0.7] * 16) - np.log(17)) < 1e-12

    nadj = normalize_adjacency(sp.csr_matrix(np.array([[1.0]]))).toarray()
    ok &= np.allclose(nadj, [[0.49, 0.49], [0.49, 0.49]], atol=1e-15)

    rng = np.random.default_rng(0)
    x = rng.normal(size=(6, 3))
    same = evolve(x, rng.normal(size=(6, 3)), sp.eye(6, format="csr") * 0.4,
                  0.0, order=6)
    ok &= np.array_equal(same, x)

    model = CpmrModel(4, 4, 0.1, ModelConfig(d=6, s_days=3, taylor_order=4),
                      rng=np.random.default_rng(0))
    # a task whose expert is the shared one gives back the shared expert's rows
    # times its gate rows' sums, which must be one
    p = {k: v.value for k, v in model.params.items()}
    for k in ("w", "b"):
        p[f"fusion.user.expert_final.{k}"][:] = p[f"fusion.user.expert_shared.{k}"]
    parts = {sc: ad.constant(rng.normal(size=(8, 6))) for sc in ("his", "ctx")}
    x_in = np.concatenate([parts["his"].value[:4], parts["ctx"].value[:4]], axis=1)
    shared = x_in @ p["fusion.user.expert_shared.w"] + p["fusion.user.expert_shared.b"]
    ok &= np.allclose(model.fuse(parts)[1].value[:4], shared, rtol=0, atol=1e-12)

    worst_rho = 0.0
    for trial in range(50):
        b = sp.random(10, 8, density=np.random.default_rng(trial).uniform(0.05, 0.6),
                      random_state=np.random.RandomState(trial), format="csr")
        b.data[:] = 1.0
        rho = np.abs(np.linalg.eigvalsh(normalize_adjacency(b).toarray())).max()
        worst_rho = max(worst_rho, rho)
    ok &= worst_rho <= 0.98 + 1e-6
    report(4, ok,
           f"InfoNCE ln(17), single-edge adjacency, dt=0 identity, gate rows, "
           f"spectral radius {worst_rho:.6f} <= 0.98+1e-6")


# -- criterion 5: graph views vs full-rescan oracles -------------------------


def test_criterion_5_graph_view_oracles():
    rng = np.random.default_rng(0)
    n_edges, n_users, n_items, n_days = 5000, 60, 50, 120
    days = np.sort(rng.integers(0, n_days, size=n_edges))
    users = rng.integers(0, n_users, size=n_edges)
    items = rng.integers(0, n_items, size=n_edges)
    store = EdgeStore(users, items, days, n_users, n_items)

    def pairs(mat):
        coo = mat.tocoo()
        return set(zip(coo.row.tolist(), coo.col.tolist()))

    def rescan(lo, hi):
        m = (days >= lo) & (days < hi)
        return set(zip(users[m].tolist(), items[m].tolist()))

    ok = True
    for _ in range(1000):
        day = int(rng.integers(0, n_days + 5))
        view = rng.integers(3)
        if view == 0:
            u, i = store.instant_edges(day)
            ok &= set(zip(u.tolist(), i.tolist())) == rescan(day, day + 1)
        elif view == 1:
            ok &= pairs(store.history_biadjacency(day)) == rescan(-1, day)
        else:
            s = int(rng.integers(1, 30))
            ok &= pairs(store.context_biadjacency(day, s)) == rescan(day - s, day)

    fifo = True
    s = 7
    prev = None
    for day in range(n_days + 3):
        cur = pairs(store.context_biadjacency(day, s))
        fifo &= cur == rescan(day - s, day)
        if prev is not None:
            fifo &= (cur - prev) <= rescan(day - 1, day)
            fifo &= (prev - cur) <= rescan(day - 1 - s, day - s)
        prev = cur
    report(5, ok and fifo,
           "1000 random queries over instant/history/context on a 5000-edge "
           f"store match rescans; FIFO holds over {n_days + 3} days")


# -- criterion 6: planted-structure behavior ---------------------------------


def _trend_setup():
    ds = synthetic_trend_dataset(np.random.default_rng(42))
    # time_scale stretches the ODE clock so states relax toward the context
    # graph between days; at the default normalized clock the window length
    # is provably inert (see ModelConfig.time_scale)
    mcfg = ModelConfig(d=16, s_days=10, taylor_order=4, time_scale=5.0)

    def tcfg(seed):
        return TrainConfig(lr=1e-3, weight_decay=1e-4, n_tbptt=10, n_neg=4,
                           max_epochs=15, patience=6, seed=seed)

    return ds, mcfg, tcfg


def test_criterion_6a_context_ablation():
    ds, mcfg, tcfg = _trend_setup()
    runs = [sweep(ds, "variant", ["full", "wo_ctx"], mcfg, tcfg(s)) for s in (0, 1, 2)]
    full = [rows[0]["mrr"] for rows in runs]
    wo = [rows[1]["mrr"] for rows in runs]
    report("6a", float(np.mean(full)) > float(np.mean(wo)),
           f"trend_window=10, mix=0.5: 3-seed mean MRR full "
           f"{np.mean(full):.4f} vs wo_ctx {np.mean(wo):.4f}")


def test_criterion_6b_window_sweep_optimum():
    ds, mcfg, tcfg = _trend_setup()
    grid = [5, 10, 15, 20]
    rows = sweep(ds, "s_days", grid, mcfg, tcfg(0))
    best = max(rows, key=lambda r: r["mrr"])["s_days"]
    report("6b", abs(best - 10) <= 5,
           f"window sweep over {grid}: best s={best} "
           f"(within one grid step of the planted 10)")


# -- criterion 7: determinism and persistence --------------------------------


def test_criterion_7_determinism_persistence(tmp_path):
    rng = np.random.default_rng(9)
    from cpmr.data import RawEvent, SECONDS_PER_DAY
    events = [RawEvent(f"u{rng.integers(6)}", f"i{rng.integers(6)}",
                       int(day) * SECONDS_PER_DAY)
              for day in range(14) for _ in range(5)]
    ds = canonicalize(events)
    mcfg = ModelConfig(d=4, s_days=3, taylor_order=3)
    tcfg = TrainConfig(lr=1e-2, n_tbptt=4, n_neg=2, max_epochs=3, patience=9,
                       seed=0)

    m1, h1 = train(ds, mcfg, tcfg)
    m2, h2 = train(ds, mcfg, tcfg)
    traj1 = [s.mean_loss for s in h1["segments"]]
    deterministic = traj1 == [s.mean_loss for s in h2["segments"]]
    deterministic &= all(np.array_equal(m1.params[k].value, m2.params[k].value)
                         for k in m1.params)

    before = incremental_eval(ds, m1, split="val").mrr
    path = tmp_path / "checkpoint.bin"
    ad.save_checkpoint(path, m1.params)
    m3 = CpmrModel(ds.n_users, ds.n_items, ds.day_unit, mcfg,
                   rng=np.random.default_rng(123))
    m3.load_params(ad.read_checkpoint(path)[1])
    round_trip = all(np.array_equal(m3.params[k].value, m1.params[k].value)
                     for k in m1.params)
    after = incremental_eval(ds, m3, split="val").mrr
    report(7, deterministic and round_trip and after == before,
           f"bit-identical trajectories over {len(traj1)} segments; "
           f"checkpoint round trip bit-exact; replayed val MRR "
           f"{after:.6f} == {before:.6f}")
