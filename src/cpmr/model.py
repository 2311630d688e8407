"""The CPMR recurrence: continuous evolution, gated fusion, instant updates.

Each user and item carries a static embedding plus two temporal states
(historical and contextual). Between interaction days the states follow a
linear graph ODE whose closed-form flow is applied through a truncated
Taylor series of repeated sparse products (``ad.graph_flow``, one tape node
per evolution); at each interaction day the two states are fused through a
shared-expert gating block, predictions are made from the fused
representation, and the instant interactions then jump the states discretely.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from . import autodiff as ad
from .autodiff import Var
from .errors import ConfigError, SequencingError
from .graphs import ALPHA0, normalize_adjacency

MAX_SUBSTEPS = 10_000  # per evolution; a day gap <= span takes <= ceil(time_scale / tau_max)


@dataclass
class ModelConfig:
    d: int = 128
    s_days: int = 5
    taylor_order: int = 6
    disable_ctx: bool = False
    disable_his: bool = False
    disable_fusion: bool = False
    alpha0: float = ALPHA0
    tau_max: float = 0.125  # max normalized interval per Taylor sub-step
    # Multiplier on the normalized inter-day interval. At 1.0 the whole
    # timeline spans one unit of ODE time, so per-day relaxation is
    # O(1/n_days) and the evolution term is nearly graph-independent; larger
    # values let the states actually relax toward the graph equilibrium
    # between days, which is what makes the context window length matter.
    time_scale: float = 1.0

    def __post_init__(self):
        if self.d < 1 or self.s_days < 1 or self.taylor_order < 1:
            raise ConfigError("d, s_days and taylor_order must all be >= 1")
        if self.time_scale <= 0 or self.tau_max <= 0:
            raise ConfigError("time_scale and tau_max must be positive")
        if self.time_scale / self.tau_max > MAX_SUBSTEPS:     # ceil(r) > M iff r > M
            raise ConfigError(f"time_scale / tau_max is over {MAX_SUBSTEPS} sub-steps")
        if not 0 < self.alpha0 < 1:
            raise ConfigError(f"alpha0 must lie in (0, 1), got {self.alpha0}")
        if self.disable_ctx and self.disable_his:
            raise ConfigError("at least one of the his/ctx scenarios is required")

    @property
    def scenarios(self):
        out = []
        if not self.disable_his:
            out.append("his")
        if not self.disable_ctx:
            out.append("ctx")
        return out

    @classmethod
    def variant(cls, name, **kw):
        """Named ablation variants: full, wo_ctx, wo_his, wo_fusion."""
        flags = {"full": {}, "wo_ctx": {"disable_ctx": True},
                 "wo_his": {"disable_his": True},
                 "wo_fusion": {"disable_fusion": True}}
        if name not in flags:
            raise ConfigError(f"unknown variant {name!r}")
        return cls(**{**flags[name], **kw})


@dataclass
class TemporalStates:
    """Evolving per-node state matrices plus the recurrence clock."""

    x_his: Var | None
    x_ctx: Var | None
    day: int


def evolve(x, e, adj, dt, order, tau_max=0.125):
    """Advance the linear ODE dX/dt = (A - I) X + E by ``dt`` on arrays.

    ``adj`` is a (sparse) matrix with singular values < 1. The flow
    X(dt) = P(dt) E + Q(dt) X with Q = exp((A-I) dt) and
    P = (A-I)^-1 (Q - I) is evaluated inverse-free as one truncated Taylor
    series in Horner form over sub-intervals of length <= tau_max.
    """
    gate = ad.constant(np.ones((np.shape(x)[0], 1)))
    return _evolve_var(ad.constant(x), ad.constant(e), gate, adj, dt, order, tau_max).value


def _evolve_var(x: Var, e: Var, gate: Var, n, dt, order, tau_max):
    if order < 1:
        raise ConfigError(f"series truncation order must be >= 1, got {order}")
    if dt < 0:
        raise ConfigError(f"negative evolution interval {dt}")
    if dt == 0:
        return x
    m = max(1, int(np.ceil(dt / tau_max)))
    return ad.graph_flow(x, e, gate, n, dt / m, m, order)


class CpmrModel:
    """Parameters and recurrence of the full recommender."""

    def __init__(self, n_users, n_items, day_unit, config: ModelConfig, rng=None):
        self.n_users = n_users
        self.n_items = n_items
        self.n_nodes = n_users + n_items
        self.day_unit = float(day_unit)
        self.config = config
        self.params: dict[str, Var] = {}
        self._init_params(rng if rng is not None else np.random.default_rng(0))

    # -- parameters ---------------------------------------------------------

    def _param(self, name, value):
        v = Var(value, name=name)
        self.params[name] = v
        return v

    def _init_params(self, rng):
        cfg = self.config
        d = cfg.d
        bound = 1.0 / np.sqrt(d)

        def uni(shape):
            return rng.uniform(-bound, bound, size=shape)

        self._param("embed", uni((self.n_nodes, d)))
        for sc in cfg.scenarios:
            self._param(f"alpha_{sc}", np.zeros((self.n_nodes, 1)))
            for w in ("w_i2u", "w_u2u", "w_u2i", "w_i2i"):
                self._param(f"update.{sc}.{w}", uni((d, d)))
        in_dim = d * len(cfg.scenarios)
        if not cfg.disable_fusion:
            tasks = cfg.scenarios + ["final"]
            for cls in ("user", "item"):
                for t in tasks + ["shared"]:
                    self._param(f"fusion.{cls}.expert_{t}.w", uni((in_dim, d)))
                    self._param(f"fusion.{cls}.expert_{t}.b", np.zeros((1, d)))
                for t in tasks:
                    self._param(f"fusion.{cls}.gate_{t}.w", uni((in_dim, 2)))
                    self._param(f"fusion.{cls}.gate_{t}.b", np.zeros((1, 2)))
        for cls in ("user", "item"):
            self._param(f"predict.fc_{cls}.w", uni((2 * d, d)))
            self._param(f"predict.fc_{cls}.b", np.zeros((1, d)))

    def load_params(self, values):
        """Overwrite parameter values from a checkpoint dict (name -> array)."""
        missing = set(self.params) - set(values)
        extra = set(values) - set(self.params)
        if missing or extra:
            raise ConfigError(f"checkpoint mismatch: missing {sorted(missing)}, "
                              f"unexpected {sorted(extra)}")
        for name, arr in values.items():
            if arr.dtype != np.float64 or arr.shape != self.params[name].value.shape:
                raise ConfigError(f"checkpoint {arr.dtype} {arr.shape} vs float64 "
                                  f"{self.params[name].value.shape} for {name!r}")
            self.params[name].value = arr.copy()

    def _linear(self, x, prefix):
        return ad.add_bias(ad.matmul(x, self.params[f"{prefix}.w"]),
                           self.params[f"{prefix}.b"])

    # -- recurrence pieces --------------------------------------------------

    def init_states(self) -> TemporalStates:
        # value copies of E; recorded as pass-throughs when a tape is active
        # so the t=0 initial condition stays differentiable w.r.t. E
        e = self.params["embed"]
        cfg = self.config
        return TemporalStates(
            x_his=ad.scale(e, 1.0) if not cfg.disable_his else None,
            x_ctx=ad.scale(e, 1.0) if not cfg.disable_ctx else None,
            day=0)

    def evolve_states(self, x, nadj, scenario, dt):
        """Evolve by ``dt`` on A = N diag(sigmoid(alpha)): gates on message sources."""
        return _evolve_var(x, self.params["embed"], ad.sigmoid(self.params[f"alpha_{scenario}"]),
                           nadj, dt, self.config.taylor_order, self.config.tau_max)

    def fuse(self, xh, xc):
        """Gated mutual update; returns (x_his, x_ctx, z) per entity class."""
        cfg = self.config
        parts = [x for x in (xh, xc) if x is not None]
        n_u = self.n_users
        results = {"his": [], "ctx": [], "final": []}
        for cls, start, stop in (("user", 0, n_u), ("item", n_u, self.n_nodes)):
            slices = [ad.row_block(p, start, stop) for p in parts]
            x_in = slices[0] if len(slices) == 1 else ad.concat_cols(*slices)
            shared = self._linear(x_in, f"fusion.{cls}.expert_shared")
            for t in cfg.scenarios + ["final"]:
                w = ad.softmax_rows(self._linear(x_in, f"fusion.{cls}.gate_{t}"))
                e = self._linear(x_in, f"fusion.{cls}.expert_{t}")
                out = ad.add(ad.scale_rows(e, ad.col_select(w, 0)),
                             ad.scale_rows(shared, ad.col_select(w, 1)))
                results[t].append(out)
        def stack(t):
            return ad.concat_rows(*results[t]) if results[t] else None
        return stack("his"), stack("ctx"), stack("final")

    def update_instant(self, x, b_ins, scenario):
        """Discrete jump of one scenario's states from the instant graph."""
        n_u = self.n_users
        x_u = ad.row_block(x, 0, n_u)
        x_i = ad.row_block(x, n_u, self.n_nodes)

        deg_u = np.asarray(b_ins.sum(axis=1)).reshape(-1)
        deg_i = np.asarray(b_ins.sum(axis=0)).reshape(-1)
        dinv_u = np.where(deg_u > 0, 1.0 / np.maximum(deg_u, 1), 0.0)
        dinv_i = np.where(deg_i > 0, 1.0 / np.maximum(deg_i, 1), 0.0)
        db_u = sp.diags(dinv_u) @ b_ins          # users <- items averaging
        db_i = sp.diags(dinv_i) @ b_ins.T        # items <- users averaging

        delta_u = ad.relu(ad.matmul(ad.spmm(db_u.tocsr(), x_i),
                                    self.params[f"update.{scenario}.w_i2u"]))
        delta_i = ad.relu(ad.matmul(ad.spmm(db_i.tocsr(), x_u),
                                    self.params[f"update.{scenario}.w_u2i"]))
        self_u = ad.matmul(x_u, self.params[f"update.{scenario}.w_u2u"])
        self_i = ad.matmul(x_i, self.params[f"update.{scenario}.w_i2i"])
        mask_u = (deg_u > 0).astype(np.float64).reshape(-1, 1)
        mask_i = (deg_i > 0).astype(np.float64).reshape(-1, 1)

        new_u = ad.masked_add(x_u, mask_u, ad.add(ad.sub(self_u, x_u), delta_u))
        new_i = ad.masked_add(x_i, mask_i, ad.add(ad.sub(self_i, x_i), delta_i))
        return ad.concat_rows(new_u, new_i)

    def step(self, states: TemporalStates, store, day_prev, day_k):
        """One recurrence: evolve to day_k-, fuse, then apply day_k's jumps.

        Returns (z, new_states): z is the fused representation used for
        predictions at day_k, before the instant update.
        """
        cfg = self.config
        if states.day != day_prev:
            raise SequencingError(f"states clock at day {states.day}, "
                                  f"step expected day {day_prev}")
        if day_k < day_prev:
            raise SequencingError(f"cannot step backwards {day_prev} -> {day_k}")
        dt = (day_k - day_prev) * self.day_unit * cfg.time_scale

        xh_minus = xc_minus = None
        if not cfg.disable_his:
            nadj = normalize_adjacency(store.history_biadjacency(day_k), cfg.alpha0)
            xh_minus = self.evolve_states(states.x_his, nadj, "his", dt)
        if not cfg.disable_ctx:
            nadj = normalize_adjacency(
                store.context_biadjacency(day_k, cfg.s_days), cfg.alpha0)
            xc_minus = self.evolve_states(states.x_ctx, nadj, "ctx", dt)

        if cfg.disable_fusion:
            if xh_minus is not None and xc_minus is not None:
                z = ad.add(xh_minus, xc_minus)
            else:
                z = xh_minus if xh_minus is not None else xc_minus
            xh_k, xc_k = (z if not cfg.disable_his else None,
                          z if not cfg.disable_ctx else None)
        else:
            xh_k, xc_k, z = self.fuse(xh_minus, xc_minus)

        iu, ii = store.instant_edges(day_k)
        b_ins = sp.coo_matrix((np.ones(len(iu)), (iu, ii)),
                              shape=(self.n_users, self.n_items)).tocsr()
        b_ins.sum_duplicates()
        if b_ins.nnz:
            b_ins.data[:] = 1.0
        new = TemporalStates(
            x_his=self.update_instant(xh_k, b_ins, "his") if xh_k is not None else None,
            x_ctx=self.update_instant(xc_k, b_ins, "ctx") if xc_k is not None else None,
            day=day_k)
        return z, new

    # -- prediction ---------------------------------------------------------

    def user_repr(self, z: Var, user_idx):
        """FC_U(E_u ++ Z_u) rows for the given user ids (duplicates allowed)."""
        idx = np.asarray(user_idx, dtype=np.int64)
        x = ad.concat_cols(ad.row_select(self.params["embed"], idx),
                           ad.row_select(z, idx))
        return self._linear(x, "predict.fc_user")

    def item_repr(self, z: Var, item_idx):
        """FC_I(E_i ++ Z_i) rows for the given item ids."""
        idx = np.asarray(item_idx, dtype=np.int64) + self.n_users
        x = ad.concat_cols(ad.row_select(self.params["embed"], idx),
                           ad.row_select(z, idx))
        return self._linear(x, "predict.fc_item")

    def score(self, user, item, z: Var):
        """Inner-product similarity of one user-item pair at the current day."""
        p = self.user_repr(z, [user])
        q = self.item_repr(z, [item])
        return float(np.dot(p.value[0], q.value[0]))

    def score_all_items(self, user, z: Var):
        """Scores of one user against every item (no-grad, for ranking)."""
        p = self.user_repr(z, [user]).value[0]
        q = self.item_repr(z, np.arange(self.n_items)).value
        return q @ p


def score(e_u, z_u, e_i, z_i, fc_user_w, fc_user_b, fc_item_w, fc_item_b):
    """Standalone pair similarity from raw vectors and predict-layer weights."""
    p = np.concatenate([np.ravel(e_u), np.ravel(z_u)]) @ fc_user_w + np.ravel(fc_user_b)
    q = np.concatenate([np.ravel(e_i), np.ravel(z_i)]) @ fc_item_w + np.ravel(fc_item_b)
    return float(p @ q)
