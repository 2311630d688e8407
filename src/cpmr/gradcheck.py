"""Gradient verification harness: per-op checks plus one end-to-end loss.

Every op of the engine is probed against central finite differences on a
fixed weighting of its outputs (``ad.grad_check``), then three checkpointed
training days' InfoNCE losses on a tiny 4-user/4-item log are checked the
same way, each loss an output. Used by the tests and by the ``gradcheck`` CLI command.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from . import autodiff as ad
from .data import SECONDS_PER_DAY, RawEvent, canonicalize
from .errors import ConfigError
from .graphs import EdgeStore, averaging_operators
from .model import CpmrModel, ModelConfig
from .training import InteractionHistory, _train_day

TOLERANCE = 1e-4


def op_checks(seed=0):
    """Yield (name, max relative error) for every op."""
    rng = np.random.default_rng(seed)

    def mats(*shapes):
        return [ad.Var(rng.standard_normal(s) + 0.1) for s in shapes]

    idx = np.array([2, 0, 2, 1])
    (users, avg_u), (items, avg_i) = averaging_operators(
        sp.csr_matrix([[0.0, 1.0, 0.0, 0.0], [0.0] * 4, [1.0, 0.0, 0.0, 1.0]]))
    # non-symmetric: a backward using N in place of N^T fails
    flow_n = 0.4 * sp.random(5, 5, density=0.5, random_state=seed + 1, format="csr")

    cases = {
        "add": (mats((3, 2), (3, 2)), lambda p: ad.add(p[0], p[1])),
        "gathered_linear": (mats((3, 1), (3, 1), (2, 4), (1, 4)),
                            lambda p: ad.gathered_linear(p[0], p[1], idx, p[2], p[3])),
        # user 0 with item 1, user 2 with items 0 and 3; user 1 and item 2 are not involved
        "instant_update": (mats((7, 2), (2, 2), (2, 2), (2, 2), (2, 2)),
                           lambda p: ad.instant_update(p[0], 3, users, items, avg_u, avg_i,
                                                       *p[1:])),
        "info_nce": (mats((2, 2), (2, 2), (4, 2), (4, 2)), lambda p: ad.info_nce(*p)),
        # two 5 x 3 states, users in rows 0-1; per class a shared expert, then a
        # gate and an expert for each of three tasks: 7 (w, b) pairs
        "gated_fusion": (mats((5, 3), (5, 3),
                              *([(6, 3), (1, 3)] + [(6, 2), (1, 2), (6, 3), (1, 3)] * 3) * 2),
                         lambda p: ad.gated_fusion(p[:2], 2, [list(zip(c[::2], c[1::2]))
                                                              for c in (p[2:16], p[16:])])),
        # x, E and the gate logits
        "graph_flow": (mats((5, 2), (5, 2), (5, 1)),
                       lambda p: ad.graph_flow(*p, flow_n, 0.6, 3, 0.3)),
        # order 1: one sparse product and one kept iterate per sub-step
        "graph_flow_order1": (mats((5, 2), (5, 2), (5, 1)),
                              lambda p: ad.graph_flow(*p, flow_n, 0.9, 1, 0.3)),
        # 3 sub-steps of odd order: the adjoint recomputes two, in buffers it reuses
        "graph_flow_substeps3": (mats((5, 2), (5, 2), (5, 1)),
                                 lambda p: ad.graph_flow(*p, flow_n, 0.8, 5, 0.3)),
    }
    for name, (params, f) in cases.items():
        yield name, ad.grad_check(f, params, h=1e-5)


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
    """Relative error of three checkpointed training days' losses on the 4x4 toy log."""
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
        states, losses = model.init_states(), []
        for day in days[:3]:
            loss, states = _train_day(model, store, states, int(day), history, 2, rng)
            losses.append(loss)
        return tuple(losses)

    return ad.grad_check(f, list(model.params.values()), h=1e-5, max_coords=6,
                         rng=np.random.default_rng(seed))


def run_suite(seed=0):
    """Full suite; returns (report lines, worst error)."""
    if not 0 <= seed < 2**32 - 1:          # seed + 1 must fit a RandomState too
        raise ConfigError(f"gradcheck seed must lie in [0, {2**32 - 2}], got {seed}")
    lines = []
    worst = 0.0
    for name, err in op_checks(seed):
        lines.append((f"op:{name}", err))
        worst = max(worst, err)
    e2e = end_to_end_check(seed)
    lines.append(("end_to_end_step_loss", e2e))
    worst = max(worst, e2e)
    return lines, worst
