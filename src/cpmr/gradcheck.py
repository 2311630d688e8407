"""Gradient verification harness: per-op checks plus one end-to-end loss.

Every differentiable primitive is probed against central finite
differences, then a full recurrence step with its InfoNCE loss on a tiny
4-user/4-item log is checked the same way. Used by the tests and by the
``gradcheck`` CLI command.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from . import autodiff as ad
from .data import SECONDS_PER_DAY, RawEvent, canonicalize
from .graphs import EdgeStore
from .model import CpmrModel, ModelConfig
from .training import InteractionHistory, batch_loss

TOLERANCE = 1e-4


def op_checks(seed=0):
    """Yield (name, max relative error) for every primitive op."""
    rng = np.random.default_rng(seed)

    def mats(*shapes):
        return [ad.Var(rng.standard_normal(s) + 0.1) for s in shapes]

    smat = sp.random(4, 3, density=0.6, random_state=np.random.RandomState(seed),
                     format="csr")
    mask = (rng.random((3, 1)) > 0.4).astype(float)
    idx = np.array([2, 0, 2, 1])
    # non-symmetric: a backward using N in place of N^T fails
    flow_n = 0.4 * sp.random(5, 5, density=0.5, random_state=seed + 1, format="csr")

    cases = {
        "matmul": (mats((3, 4), (4, 2)),
                   lambda p: ad.mean_all(ad.matmul(p[0], p[1]))),
        "spmm": (mats((3, 2)),
                 lambda p: ad.mean_all(ad.spmm(smat, p[0]))),
        "add": (mats((3, 2), (3, 2)), lambda p: ad.mean_all(ad.add(p[0], p[1]))),
        "sub": (mats((3, 2), (3, 2)), lambda p: ad.mean_all(ad.sub(p[0], p[1]))),
        "scale": (mats((3, 2)), lambda p: ad.mean_all(ad.scale(p[0], -1.7))),
        "hadamard": (mats((3, 2), (3, 2)),
                     lambda p: ad.mean_all(ad.hadamard(p[0], p[1]))),
        "scale_rows": (mats((3, 2), (3, 1)),
                       lambda p: ad.mean_all(ad.scale_rows(p[0], p[1]))),
        "add_bias": (mats((3, 2), (1, 2)),
                     lambda p: ad.mean_all(ad.add_bias(p[0], p[1]))),
        "concat_cols": (mats((3, 2), (3, 1), (3, 2)),
                        lambda p: ad.mean_all(ad.hadamard(
                            ad.concat_cols(*p), ad.constant(_cmat(5))))),
        "concat_rows": (mats((2, 3), (1, 3)),
                        lambda p: ad.mean_all(ad.hadamard(
                            ad.concat_rows(*p), ad.constant(_cmat(3, rows=3))))),
        "relu": (mats((3, 2)), lambda p: ad.mean_all(ad.relu(p[0]))),
        "sigmoid": (mats((3, 2)), lambda p: ad.mean_all(ad.sigmoid(p[0]))),
        "softmax_rows": (mats((3, 4)),
                         lambda p: ad.mean_all(ad.hadamard(
                             ad.softmax_rows(p[0]), ad.constant(_cmat(4))))),
        "logsumexp_rows": (mats((3, 4)),
                           lambda p: ad.mean_all(ad.logsumexp_rows(p[0]))),
        "row_select": (mats((3, 2)),
                       lambda p: ad.mean_all(ad.hadamard(
                           ad.row_select(p[0], idx), ad.constant(_cmat(2, rows=4))))),
        "col_select": (mats((3, 4)),
                       lambda p: ad.mean_all(ad.col_select(p[0], 2))),
        "masked_add": (mats((3, 2), (3, 2)),
                       lambda p: ad.mean_all(ad.masked_add(p[0], mask, p[1]))),
        "sum_cols": (mats((3, 4)), lambda p: ad.mean_all(ad.sum_cols(p[0]))),
        "reshape": (mats((3, 4)),
                    lambda p: ad.mean_all(ad.hadamard(
                        ad.reshape(p[0], (6, 2)), ad.constant(_cmat(2, rows=6))))),
        "sum_all": (mats((3, 2)), lambda p: ad.sum_all(p[0])),
        "mean_all": (mats((3, 2)), lambda p: ad.mean_all(p[0])),
        "graph_flow": ([*mats((5, 2), (5, 2)), ad.Var(rng.uniform(0.2, 0.9, (5, 1)))],
                       lambda p: ad.mean_all(ad.hadamard(ad.graph_flow(
                           *p, flow_n, 0.3, 2, 3), ad.constant(_cmat(2, rows=5))))),
        "row_block": (mats((5, 2)),
                      lambda p: ad.mean_all(ad.hadamard(
                          ad.row_block(p[0], 1, 4), ad.constant(_cmat(2, rows=3))))),
    }
    for name, (params, f) in cases.items():
        yield name, ad.grad_check(f, params, h=1e-5)


def _cmat(cols, rows=3):
    # fixed weighting matrix so reductions do not hide per-entry errors
    return np.arange(1, rows * cols + 1, dtype=float).reshape(rows, cols) / (rows * cols)


def _toy_log():
    events = [
        RawEvent("u0", "i0", 0 * SECONDS_PER_DAY),
        RawEvent("u1", "i1", 0 * SECONDS_PER_DAY),
        RawEvent("u2", "i2", 1 * SECONDS_PER_DAY),
        RawEvent("u0", "i1", 1 * SECONDS_PER_DAY),
        RawEvent("u3", "i3", 2 * SECONDS_PER_DAY),
        RawEvent("u1", "i0", 2 * SECONDS_PER_DAY),
        RawEvent("u2", "i3", 3 * SECONDS_PER_DAY),
        RawEvent("u3", "i2", 4 * SECONDS_PER_DAY),
    ]
    return canonicalize(events)


def end_to_end_check(seed=0, d=4):
    """Relative error of a two-step CPMR loss on the 4x4 toy log."""
    ds = _toy_log()
    cfg = ModelConfig(d=d, s_days=2, taylor_order=4)
    model = CpmrModel(ds.n_users, ds.n_items, ds.day_unit, cfg,
                      rng=np.random.default_rng(seed))
    store = EdgeStore.from_dataset(ds)
    days = store.interaction_days()

    neg_rng_seed = seed + 1

    def f(_params):
        rng = np.random.default_rng(neg_rng_seed)
        history = InteractionHistory(ds.n_users, ds.n_items)
        states = model.init_states()
        day_prev, total = 0, None
        for day in days[:3]:
            z, states = model.step(states, store, day_prev, int(day))
            users, items = store.instant_edges(int(day))
            loss = batch_loss(model, z, users, items, history, 2, rng)
            total = loss if total is None else ad.add(total, loss)
            history.add_day(users, items)
            day_prev = int(day)
        return ad.scale(total, 1.0 / 3.0)

    return ad.grad_check(f, list(model.params.values()), h=1e-5, max_coords=6,
                         rng=np.random.default_rng(seed))


def run_suite(seed=0):
    """Full suite; returns (report lines, worst error)."""
    lines = []
    worst = 0.0
    for name, err in op_checks(seed):
        lines.append((f"op:{name}", err))
        worst = max(worst, err)
    e2e = end_to_end_check(seed)
    lines.append(("end_to_end_step_loss", e2e))
    worst = max(worst, e2e)
    return lines, worst
