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

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import MAX_ORDER, MAX_SUBSTEPS, Var
from .errors import ConfigError, SequencingError
from .graphs import ALPHA0, averaging_operators, normalize_adjacency

# the full model and its ablations without the ctx scenario, the his one, or gated fusion
VARIANTS = ("full", "wo_ctx", "wo_his", "wo_fusion")


@dataclass
class ModelConfig:
    d: int = 128
    s_days: int = 5
    taylor_order: int = 6
    variant: str = "full"      # one of VARIANTS
    alpha0: float = ALPHA0
    tau_max: float = 0.125  # max normalized interval per Taylor sub-step
    # Multiplier on the normalized inter-day interval. At 1.0 the whole
    # timeline spans one unit of ODE time, so per-day relaxation is
    # O(1/n_days) and the evolution term is nearly graph-independent; larger
    # values let the states actually relax toward the graph equilibrium
    # between days, which is what makes the context window length matter.
    time_scale: float = 1.0

    def __post_init__(self):
        for name in ("alpha0", "tau_max", "time_scale"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigError(f"{name} must be finite, got {getattr(self, name)}")
        if self.d < 1 or self.s_days < 1 or self.taylor_order < 1:
            raise ConfigError("d, s_days and taylor_order must all be >= 1")
        if self.taylor_order > MAX_ORDER:        # 1/K! is a positive float up to K = 170
            raise ConfigError(f"taylor_order must be <= {MAX_ORDER}, got {self.taylor_order}")
        if 16 * self.d * self.d > np.iinfo(np.intp).max:     # the 2d x d float64 head weights
            raise ConfigError(f"d={self.d} is too large: numpy cannot size a 2d x d weight")
        if self.time_scale <= 0 or self.tau_max <= 0:
            raise ConfigError("time_scale and tau_max must be positive")
        if self.time_scale / self.tau_max > MAX_SUBSTEPS:     # ceil(r) > M iff r > M
            raise ConfigError(f"time_scale / tau_max is over {MAX_SUBSTEPS} sub-steps")
        if not 0 < self.alpha0 < 1:
            raise ConfigError(f"alpha0 must lie in (0, 1), got {self.alpha0}")
        if self.variant not in VARIANTS:
            raise ConfigError(f"variant must be one of {VARIANTS}, got {self.variant!r}")

    @property
    def scenarios(self):
        return [sc for sc in ("his", "ctx") if self.variant != f"wo_{sc}"]


@dataclass
class TemporalStates:
    """Evolving per-node state matrices plus the recurrence clock.

    ``x`` maps each scenario of ``ModelConfig.scenarios`` (his, then ctx) to
    its (n_nodes, d) state; a scenario the variant drops has no entry. Both
    scenarios start as E itself, which no op mutates.
    """

    x: dict[str, Var]
    day: int


def evolve(x, e, adj, dt, order, tau_max=0.125):
    """Advance the linear ODE dX/dt = (A - I) X + E by ``dt`` on arrays.

    ``adj`` is a scipy CSR or CSC matrix with singular values < 1. The flow
    X(dt) = P(dt) E + Q(dt) X with Q = exp((A-I) dt) and
    P = (A-I)^-1 (Q - I) is evaluated inverse-free as one truncated Taylor
    series in Horner form over sub-intervals of length <= tau_max.
    """
    alpha = ad.constant(np.full((np.shape(x)[0], 1), np.inf))    # gates of exactly 1
    return ad.graph_flow(ad.constant(x), ad.constant(e), alpha, adj, dt, order, tau_max).value


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
        if cfg.variant != "wo_fusion":
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
            if not np.isfinite(arr).all():
                raise ConfigError(f"checkpoint tensor {name!r} has non-finite values")
        for name, arr in values.items():          # all checked first: no half-loaded model
            self.params[name].value = arr.copy()

    def _layer(self, prefix):
        return self.params[f"{prefix}.w"], self.params[f"{prefix}.b"]

    # -- recurrence pieces --------------------------------------------------

    def init_states(self) -> TemporalStates:
        """The t = 0 states: E itself for every scenario. A segment from day 0
        sums E's gradient as one copy of E per scenario would: at dt = 0 the
        flows return E, and the day's ``gated_fusion`` (or wo_fusion's
        ``add``), the one node that reads the states, hands out the ctx part's
        gradient before the his part's, as the copies' nodes, run last to first, would."""
        return TemporalStates(dict.fromkeys(self.config.scenarios, self.params["embed"]), day=0)

    def evolve_states(self, x, nadj, scenario, dt):
        """Evolve by ``dt`` on A = N diag(sigmoid(alpha)): gates on message sources."""
        return ad.graph_flow(x, self.params["embed"], self.params[f"alpha_{scenario}"],
                             nadj, dt, self.config.taylor_order, self.config.tau_max)

    def fuse(self, parts, *, predict=True):
        """Gated mutual update of the states ``parts`` (scenario -> Var).

        Returns (fused, z): ``fused`` maps each scenario to its fused n x d
        states, and z is the n x d ``final`` task that feeds the prediction
        head. One ``ad.gated_fusion`` fuses each entity class's rows of all
        scenarios, side by side in scenario order. ``predict=False`` skips the
        ``final`` task (its gate, its expert and their mix) and returns
        z = None; ``fused`` holds the same arrays either way.
        """
        scenarios = self.config.scenarios
        tasks = scenarios + (["final"] if predict else [])
        names = ["expert_shared", *(f"{kind}_{t}" for t in tasks for kind in ("gate", "expert"))]
        layers = [[self._layer(f"fusion.{cls}.{name}") for name in names]
                  for cls in ("user", "item")]
        outs = ad.gated_fusion([parts[sc] for sc in scenarios], self.n_users, layers)
        return dict(zip(scenarios, outs)), outs[-1] if predict else None

    def update_instant(self, x, ops, scenario):
        """Discrete jump of one scenario's n x d states from the instant graph.

        ``ops`` is ``averaging_operators(b_ins)`` of that day's instant
        biadjacency. One ``ad.instant_update`` computes only the rows it
        involves: a user's row x becomes x + ((x w_u2u - x) + relu(m w_i2u)),
        m its items' mean, an item's likewise. Returns the n x d states.
        """
        (users, avg_u), (items, avg_i) = ops
        return ad.instant_update(x, self.n_users, users, items, avg_u, avg_i,
                                 *(self.params[f"update.{scenario}.{k}"]
                                   for k in ("w_u2u", "w_i2u", "w_i2i", "w_u2i")))

    def step(self, states: TemporalStates, store, day_k, *, predict=True, score=None):
        """One recurrence: evolve from ``states.day`` to day_k-, fuse, apply day_k's jumps.

        Each scenario in turn evolves its states on its normalized graph view
        (the history, or the last ``s_days`` days); the states are fused;
        then each scenario's states jump on day_k's instant graph. Returns
        (z, new_states): z is the fused representation used for predictions
        at day_k, before the instant update. ``predict=False`` is for days
        nothing is scored on, with no tape: fusion skips the prediction task
        and z is None, except under wo_fusion (there z is the sum of the
        evolved states, which every scenario takes as its fused states, and
        costs nothing); under a tape, a None z raises ``CpmrError``. The new
        states do not depend on ``predict``.

        The normalized views and the instant averaging operators come first,
        from ``store.memo``: a dataset's one store keeps each from its second
        request on. The day itself, a pure function of the states, runs
        through ``ad.checkpoint``, one tape node under a tape and a plain call
        without one. Given ``score``, the day returns ``score(z)``, computed
        after the jumps, in place of z, so a training day's loss is part of
        its checkpoint. Under a tape the forward runs as a ``predict=False``
        day, and the loss is a 1 x 1 NaN until the day's replay in
        ``backward`` computes it.
        """
        cfg = self.config
        if day_k < states.day:
            raise SequencingError(f"cannot step backwards {states.day} -> {day_k}")
        dt = (day_k - states.day) * self.day_unit * cfg.time_scale

        def normalized(sc):         # the history view, or that of the last s_days days
            args = (day_k,) if sc == "his" else (day_k, cfg.s_days)
            view = store.history_biadjacency if sc == "his" else store.context_biadjacency
            return store.memo((sc, *args, cfg.alpha0),
                              lambda: normalize_adjacency(view(*args), cfg.alpha0))
        nadj = [normalized(sc) for sc in cfg.scenarios]
        ops = store.memo(("instant", day_k),
                         lambda: averaging_operators(store.instant_biadjacency(day_k)))

        def advance(*xs, loss=True):
            minus = {sc: self.evolve_states(x, n, sc, dt)
                     for sc, x, n in zip(cfg.scenarios, xs, nadj)}
            if cfg.variant == "wo_fusion":
                z = functools.reduce(ad.add, minus.values())
                fused = dict.fromkeys(minus, z)
            else:
                fused, z = self.fuse(minus, predict=predict and loss)
            del minus                   # the evolved states are dead once fused
            new = [self.update_instant(x, ops, sc) for sc, x in fused.items()]
            del fused                   # and the fused states before the loss runs
            return (z if score is None else score(z) if loss else None, *new)
        forward = None if score is None else functools.partial(advance, loss=False)
        z, *new = ad.checkpoint(advance, *states.x.values(), forward=forward)
        return z, TemporalStates(dict(zip(states.x, new)), day_k)

    # -- prediction ---------------------------------------------------------

    def user_repr(self, z: Var, user_idx):
        """FC_U(E_u ++ Z_u) rows for the given user ids (duplicates allowed)."""
        return ad.gathered_linear(self.params["embed"], z, user_idx,
                                  *self._layer("predict.fc_user"))

    def item_repr(self, z: Var, item_idx):
        """FC_I(E_i ++ Z_i) rows for the given item ids."""
        idx = np.asarray(item_idx, dtype=np.int64) + self.n_users
        return ad.gathered_linear(self.params["embed"], z, idx, *self._layer("predict.fc_item"))
