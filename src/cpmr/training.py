"""Training loop: negative sampling, InfoNCE losses, truncated BPTT.

Each epoch resets the temporal states to the static embeddings and walks
the training days in order. Day losses accumulate for ``n_tbptt``
interaction days, then their mean is backpropagated, Adam applied, and the
states detached so gradients never cross segment boundaries. A day's head
and loss run once, in its replay inside ``backward``.
"""

from __future__ import annotations

import functools
import json
import math
import time
from dataclasses import dataclass, asdict

import numpy as np

from . import autodiff as ad
from .errors import ConfigError, DataError, NumericalError
from .graphs import EdgeStore
from .model import CpmrModel, ModelConfig, TemporalStates


@dataclass
class TrainConfig:
    lr: float = 1e-3
    weight_decay: float = 1e-4
    lr_decay_factor: float = 0.5
    lr_decay_period: int = 10
    n_tbptt: int = 20
    n_neg: int = 8
    max_epochs: int = 50
    patience: int = 5
    seed: int = 0

    def __post_init__(self):
        if min(self.n_tbptt, self.n_neg, self.lr_decay_period, self.max_epochs) < 1:
            raise ConfigError("n_tbptt, n_neg, lr_decay_period and max_epochs must be >= 1")
        if 8 * (1 + 2 * self.n_neg) > np.iinfo(np.intp).max:     # one interaction's logits
            raise ConfigError(f"n_neg={self.n_neg} is too large: numpy cannot size its logits")
        for name in ("lr", "weight_decay", "lr_decay_factor"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigError(f"{name} must be finite, got {getattr(self, name)}")
        # lr = 0 freezes the parameters; a negative decay factor would flip the lr's sign
        if min(self.lr, self.weight_decay, self.lr_decay_factor) < 0:
            raise ConfigError("lr, weight_decay and lr_decay_factor must be non-negative")
        for name in ("seed", "patience"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be non-negative, got {getattr(self, name)}")


class InteractionHistory:
    """Per-user and per-item sets of past partners, advanced day by day.

    ``fallbacks`` counts the negative draws whose candidate pool was empty.
    """

    def __init__(self, n_users, n_items):
        self.by_user = [set() for _ in range(n_users)]
        self.by_item = [set() for _ in range(n_items)]
        self.fallbacks = 0

    def add_day(self, users, items):
        for u, i in zip(users, items):
            self.by_user[u].add(int(i))
            self.by_item[i].add(int(u))


def sample_negatives(user, item, history: InteractionHistory, n_users, n_items,
                     n_neg, rng):
    """Negative users/items valid at the interaction's moment.

    Uniform without replacement from users who never interacted with the
    item (items the user never interacted with) strictly before now, the
    positive itself excluded. An empty pool falls back to sampling everything
    but the positive, with replacement if the pool is still short;
    ``history.fallbacks`` counts these. ``rng.choice`` draws positions in the
    sorted pool, so a seed gives the same negatives as the earlier
    ``np.setdiff1d`` pools did.
    """
    neg_users, empty_u = _draw(history.by_item[item], n_users, user, n_neg, rng)
    neg_items, empty_i = _draw(history.by_user[user], n_items, item, n_neg, rng)
    history.fallbacks += empty_u + empty_i
    return neg_users, neg_items


def _draw(excluded, n_total, positive, n_neg, rng):
    """(negatives, whether the candidate pool was empty)."""
    keep = np.ones(n_total, dtype=bool)
    keep[np.fromiter(excluded, np.intp, len(excluded))] = False
    keep[positive] = False
    empty = not keep.any()
    if empty:
        keep[:] = True
        keep[positive] = False
    pool = keep.nonzero()[0]
    return pool[rng.choice(len(pool), size=n_neg, replace=len(pool) < n_neg)], empty


def batch_loss(model: CpmrModel, z, users, items, neg_u, neg_i):
    """Mean InfoNCE over one day's concurrent interactions (a Var scalar).

    Row j of the (b, n_neg) ``neg_u`` and ``neg_i`` holds interaction j's negatives.
    """
    if len(neg_u) == 0:
        raise ConfigError("batch_loss on an empty instant graph")
    return ad.info_nce(model.user_repr(z, users), model.item_repr(z, items),
                       model.user_repr(z, neg_u.reshape(-1)),
                       model.item_repr(z, neg_i.reshape(-1)))


def _train_day(model, store, states, day, history, n_neg, rng):
    """(loss, new states) of one training day, recorded as one checkpoint.

    The day's negatives are drawn first, so the day that ``model.step``
    checkpoints, the recurrence plus its ``batch_loss``, draws nothing;
    ``backward`` replays it from the day's input states, and fills in the
    loss, NaN until then. Then ``history`` takes the day.
    """
    users, items = store.instant_edges(day)
    neg_u = np.empty((len(users), n_neg), dtype=np.int64)
    neg_i = np.empty_like(neg_u)
    for j, (u, i) in enumerate(zip(users, items)):
        neg_u[j], neg_i[j] = sample_negatives(int(u), int(i), history, model.n_users,
                                              model.n_items, n_neg, rng)
    loss, states = model.step(states, store, day,
                              score=lambda z: batch_loss(model, z, users, items, neg_u, neg_i))
    history.add_day(users, items)
    return loss, states


def _detach(states: TemporalStates):
    return TemporalStates({sc: ad.constant(x.value) for sc, x in states.x.items()}, states.day)


@dataclass
class SegmentRecord:
    epoch: int
    day_start: int
    day_end: int
    n_days: int
    mean_loss: float
    lr: float
    wall_time: float


def train(dataset, model_config: ModelConfig, train_config: TrainConfig,
          log_path=None, eval_fn=None):
    """Train on the chronological train split; returns (model, history).

    ``eval_fn(model, states) -> float`` scores the validation split for
    early stopping (higher is better); it receives the end-of-train states
    of the epoch and must not mutate parameters. ``history`` carries the
    per-segment records and per-epoch summaries.
    """
    from .evaluation import validation_mrr   # deferred: avoids import cycle

    cfg = train_config
    if min(dataset.n_users, dataset.n_items) < 2:     # no negative to draw beside the positive
        raise DataError(f"training needs at least 2 users and 2 items to sample negatives, "
                        f"got {dataset.n_users} users and {dataset.n_items} items")
    i_val, i_test = dataset.split
    if i_test <= i_val:                               # early stopping has nothing to score
        raise DataError("validation split is empty")
    model = CpmrModel(dataset.n_users, dataset.n_items, dataset.day_unit,
                      model_config, rng=np.random.default_rng(cfg.seed))
    store = EdgeStore.from_dataset(dataset)
    if eval_fn is None:
        eval_fn = lambda m, s: validation_mrr(m, s, dataset)

    train_days, day_sizes = np.unique(dataset.days[:i_val], return_counts=True)
    if len(train_days) == 0:
        raise ConfigError("empty training split")
    if 8 * int(day_sizes.max()) * (1 + 2 * cfg.n_neg) > np.iinfo(np.intp).max:
        raise ConfigError(f"n_neg={cfg.n_neg} is too large: numpy cannot size the logits "
                          f"of a day of {day_sizes.max()} interactions")
    opt = ad.AdamState()
    segments = []
    epoch_log = []
    best = (-np.inf, None, -1)   # (val metric, params snapshot, epoch)
    log_fh = open(log_path, "w", encoding="utf-8") if log_path else None
    try:
        for epoch in range(cfg.max_epochs):
            lr = cfg.lr * cfg.lr_decay_factor ** (epoch // cfg.lr_decay_period)
            states, losses, fallbacks = _train_epoch(model, store, train_days, cfg,
                                                     lr, opt, epoch, segments, log_fh)
            val_metric = eval_fn(model, states)
            del states                  # the next epoch starts from E: free these before it
            epoch_log.append({"epoch": epoch, "train_loss": float(np.mean(losses)),
                              "val_mrr": val_metric, "lr": lr,
                              "negative_fallbacks": fallbacks})
            if log_fh:
                log_fh.write(json.dumps(epoch_log[-1]) + "\n")
                log_fh.flush()
            if val_metric > best[0]:
                best = (val_metric, {k: v.value.copy() for k, v in model.params.items()},
                        epoch)
            elif epoch - best[2] >= cfg.patience:
                break
    finally:
        if log_fh:
            log_fh.close()
    if best[1] is not None:
        model.load_params(best[1])
    return model, {"segments": segments, "epochs": epoch_log,
                   "best_epoch": best[2], "best_val_mrr": best[0]}


def _train_epoch(model, store, train_days, cfg, lr, opt, epoch, segments, log_fh):
    """One tape per TBPTT segment; returns (end states, day losses, fallbacks)."""
    rng = np.random.default_rng([cfg.seed, epoch])
    history = InteractionHistory(model.n_users, model.n_items)
    day_losses = []
    states = model.init_states()
    for start in range(0, len(train_days), cfg.n_tbptt):
        seg_days = [int(d) for d in train_days[start:start + cfg.n_tbptt]]
        t0 = time.monotonic()
        with ad.Tape() as tape:
            seg_losses = []
            for day in seg_days:
                loss, states = _train_day(model, store, states, day, history, cfg.n_neg, rng)
                for sc, x in states.x.items():
                    if not np.isfinite(x.value).all():
                        raise NumericalError(f"non-finite {sc} states at epoch {epoch} day "
                                             f"{day} (lr {lr})")
                seg_losses.append(loss)
            grads = ad.backward(seg_losses, tape, params=model.params.values())
            values = [float(loss.value[0, 0]) for loss in seg_losses]    # filled in by the replays
            bad = next((j for j, v in enumerate(values) if not math.isfinite(v)), None)
            if bad is not None:
                raise NumericalError(f"non-finite loss at epoch {epoch} day {seg_days[bad]} "
                                     f"(segment days {seg_days[:bad + 1]}, lr {lr})")
            named = {name: grads[var] for name, var in model.params.items()}
            ad.adam_step(model.params, named, lr, cfg.weight_decay, opt)
            del grads, named      # parameter-sized: free them before the next segment
        day_losses += values
        rec = SegmentRecord(epoch, seg_days[0], seg_days[-1], len(seg_days),
                            functools.reduce(lambda a, b: a + b, values) * (1.0 / len(values)), lr,
                            time.monotonic() - t0)
        segments.append(rec)
        if log_fh:
            log_fh.write(json.dumps(asdict(rec)) + "\n")
        states = _detach(states)
    return states, day_losses, history.fallbacks
