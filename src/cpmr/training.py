"""Training loop: negative sampling, InfoNCE losses, truncated BPTT.

Each epoch resets the temporal states to the static embeddings and walks
the training days in order. Day losses accumulate for ``n_tbptt``
interaction days, then their mean is backpropagated, Adam applied, and the
states detached so gradients never cross segment boundaries.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, asdict

import numpy as np

from . import autodiff as ad
from .errors import ConfigError, NumericalError
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
        if self.lr < 0 or self.weight_decay < 0:     # lr = 0 freezes the parameters
            raise ConfigError("lr and weight_decay must be non-negative")


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


def infonce_loss(lambda_pos, lambda_negs):
    """-log(exp(pos) / (exp(pos) + sum exp(negs))), via logsumexp."""
    logits = np.concatenate([[lambda_pos], np.asarray(lambda_negs, dtype=np.float64)])
    m = logits.max()
    return float(m + np.log(np.exp(logits - m).sum()) - lambda_pos)


def batch_loss(model: CpmrModel, z, users, items, history, n_neg, rng):
    """Mean InfoNCE over one day's concurrent interactions (a Var scalar)."""
    b = len(users)
    if b == 0:
        raise ConfigError("batch_loss on an empty instant graph")
    neg_u = np.empty((b, n_neg), dtype=np.int64)
    neg_i = np.empty((b, n_neg), dtype=np.int64)
    for j, (u, i) in enumerate(zip(users, items)):
        neg_u[j], neg_i[j] = sample_negatives(int(u), int(i), history,
                                              model.n_users, model.n_items,
                                              n_neg, rng)
    p_pos = model.user_repr(z, users)             # (b, d)
    q_pos = model.item_repr(z, items)             # (b, d)
    lam_pos = ad.sum_cols(ad.hadamard(p_pos, q_pos))

    rep = np.repeat(np.arange(b), n_neg)
    p_neg = model.user_repr(z, neg_u.reshape(-1))
    lam_nu = ad.reshape(ad.sum_cols(ad.hadamard(p_neg, ad.row_select(q_pos, rep))),
                        (b, n_neg))
    q_neg = model.item_repr(z, neg_i.reshape(-1))
    lam_ni = ad.reshape(ad.sum_cols(ad.hadamard(ad.row_select(p_pos, rep), q_neg)),
                        (b, n_neg))

    logits = ad.concat_cols(lam_pos, lam_nu, lam_ni)   # (b, 1 + 2*n_neg)
    return ad.mean_all(ad.sub(ad.logsumexp_rows(logits), lam_pos))


def _detach(states: TemporalStates):
    return TemporalStates(
        x_his=None if states.x_his is None else ad.constant(states.x_his.value),
        x_ctx=None if states.x_ctx is None else ad.constant(states.x_ctx.value),
        day=states.day)


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
    model = CpmrModel(dataset.n_users, dataset.n_items, dataset.day_unit,
                      model_config, rng=np.random.default_rng(cfg.seed))
    store = EdgeStore.from_dataset(dataset)
    if eval_fn is None:
        eval_fn = lambda m, s: validation_mrr(m, s, dataset)

    i_val, _ = dataset.split
    train_days = np.unique(dataset.days[:i_val])
    if len(train_days) == 0:
        raise ConfigError("empty training split")
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
    day_prev = 0
    day_losses = []
    states = None
    for start in range(0, len(train_days), cfg.n_tbptt):
        seg_days = [int(d) for d in train_days[start:start + cfg.n_tbptt]]
        t0 = time.monotonic()
        with ad.Tape() as tape:
            if states is None:
                # inside the tape: E's t=0 copy is differentiable
                states = model.init_states()
            seg_losses = []
            for day in seg_days:
                z, states = model.step(states, store, day_prev, day)
                users, items = store.instant_edges(day)
                loss = batch_loss(model, z, users, items, history, cfg.n_neg, rng)
                if not np.isfinite(loss.value[0, 0]):
                    raise NumericalError(
                        f"non-finite loss at epoch {epoch} day {day} (segment days "
                        f"{seg_days[:len(seg_losses) + 1]}, lr {lr})")
                for sc, x in (("his", states.x_his), ("ctx", states.x_ctx)):
                    if x is not None and not np.isfinite(x.value).all():
                        raise NumericalError(f"non-finite {sc} states at epoch {epoch} day "
                                             f"{day} (loss {loss.value[0, 0]:.6g}, lr {lr})")
                seg_losses.append(loss)
                day_losses.append(float(loss.value[0, 0]))
                history.add_day(users, items)
                day_prev = day
            total = seg_losses[0]
            for l in seg_losses[1:]:
                total = ad.add(total, l)
            total = ad.scale(total, 1.0 / len(seg_losses))
            grads = ad.backward(total, tape, params=model.params.values())
            named = {name: grads[var] for name, var in model.params.items()}
            ad.adam_step(model.params, named, lr, cfg.weight_decay, opt)
        rec = SegmentRecord(epoch, seg_days[0], seg_days[-1], len(seg_days),
                            float(total.value[0, 0]), lr, time.monotonic() - t0)
        segments.append(rec)
        if log_fh:
            log_fh.write(json.dumps(asdict(rec)) + "\n")
        states = _detach(states)
    return states, day_losses, history.fallbacks
