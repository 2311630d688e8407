"""Frozen-parameter incremental evaluation and sweeps.

Evaluation replays the recurrence over the full timeline with gradients
off: states are advanced through every pre-split day, then all events of
a split day are ranked in one pass, from the fused representation computed
before that day's interactions are applied (no leakage of the instant
graph into its own predictions).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from .data import Dataset, RawEvent, SECONDS_PER_DAY, canonicalize, k_core_filter
from .errors import ConfigError, DataError, NumericalError
from .graphs import EdgeStore
from .model import CpmrModel, ModelConfig
from .training import InteractionHistory, TrainConfig, train


@dataclass
class RankRecord:
    user_id: int
    day: int
    ground_truth_item: int
    rank: int


@dataclass
class MetricsReport:
    mrr: float
    recall_at_10: float
    n_events: int
    seed: int
    config: dict

    def to_dict(self):
        return dataclasses.asdict(self)


def rank_from_scores(scores, target):
    """Rank of ``target`` among all scores: average-tie rank, rounded up.

    ``scores`` is one row and ``target`` an item, or (b, n) and b targets for
    b ranks. A NaN or +inf score raises ``NumericalError`` naming its row:
    every comparison with NaN is False, so a NaN target would rank first.
    -inf is legal; it marks an item left out of the ranking.
    """
    rows = np.atleast_2d(scores)
    bad = ~(rows < np.inf).all(axis=1)
    if bad.any():
        raise NumericalError(f"non-finite item scores in row {int(bad.argmax())}; the "
                             "parameters or states have diverged")
    s = rows[np.arange(len(rows)), np.atleast_1d(target)][:, None]
    ranks = 1 + np.sum(rows > s, axis=1) + np.sum(rows == s, axis=1) // 2   # == has the target
    return ranks if np.ndim(scores) == 2 else int(ranks[0])


def mrr(records):
    if not len(records):
        raise DataError("cannot compute MRR of zero rank records")
    return float(np.mean([1.0 / r.rank for r in records]))


def recall_at_k(records, k=10):
    if not len(records):
        raise DataError("cannot compute recall of zero rank records")
    return float(np.mean([1.0 if r.rank <= k else 0.0 for r in records]))


def _replay_days(model, states, store, days, collect=False, history=None):
    """Advance states over ``days``; optionally rank every event.

    Without ``collect`` nothing is scored, so the steps skip the prediction
    task of fusion. A scored day's b events are ranked in one (b x n_items)
    score product; a non-finite score in it raises ``NumericalError`` naming
    the day and the row's user. With a ``history``, each user's past items
    other than the target are then left out of its row as -inf, and each
    scored day is added.
    """
    records = []
    for day in days:
        day = int(day)
        z, states = model.step(states, store, day, predict=collect)
        if collect:
            users, items = store.instant_edges(day)
            scores = (model.user_repr(z, users).value
                      @ model.item_repr(z, np.arange(model.n_items)).value.T)
            bad = ~np.isfinite(scores).all(axis=1)     # before -inf marks the left-out items
            if bad.any():
                raise NumericalError(f"day {day}, user {int(users[bad.argmax()])}: non-finite "
                                     "item scores; the parameters or states have diverged")
            if history is not None:
                for row, (u, i) in enumerate(zip(users, items)):
                    scores[row, [j for j in history.by_user[u] if j != i]] = -np.inf
            ranks = rank_from_scores(scores, items)
            records += map(RankRecord, users.tolist(), [day] * len(users), items.tolist(),
                           ranks.tolist())
            if history is not None:
                history.add_day(users, items)
    return states, records


def incremental_eval(dataset: Dataset, model: CpmrModel, split="test", seed=0,
                     filter_interacted=False) -> MetricsReport:
    """Replay the full recurrence and score every event of the split.

    Parameters stay frozen; all pre-split days are replayed from t=0 with
    the full recurrence so the states at the split start reflect the
    entire earlier timeline.
    """
    sl = dataset.split_slice(split)
    if len(dataset.days[sl]) == 0:
        raise DataError(f"split {split!r} is empty")
    store = EdgeStore.from_dataset(dataset)
    first_day = int(dataset.days[sl][0])
    warm_days = store.interaction_days(hi=first_day)
    eval_days = np.unique(dataset.days[sl])

    history = None
    if filter_interacted:
        history = InteractionHistory(dataset.n_users, dataset.n_items)
        history.add_day(dataset.user_ids[:sl.start], dataset.item_ids[:sl.start])

    states, _ = _replay_days(model, model.init_states(), store, warm_days)
    _, records = _replay_days(model, states, store, eval_days, collect=True,
                              history=history)
    return MetricsReport(mrr(records), recall_at_k(records, 10), len(records),
                         seed, _config_echo(model.config, split, filter_interacted))


def _config_echo(cfg: ModelConfig, split, filter_interacted):
    echo = dataclasses.asdict(cfg)
    echo.update({"split": split, "filter_interacted": filter_interacted,
                 "ranking": "per-interaction", "tie_rule": "average-rounded-up"})
    return echo


def validation_mrr(model: CpmrModel, states, dataset: Dataset) -> float:
    """Score the validation split continuing from end-of-train states."""
    store = EdgeStore.from_dataset(dataset)
    eval_days = np.unique(dataset.days[dataset.split_slice("val")])
    _, records = _replay_days(model, states, store, eval_days, collect=True)
    return mrr(records)


# ---------------------------------------------------------------------------
# experiment drivers


def sweep(dataset, param, values, model_config: ModelConfig,
          train_config: TrainConfig, split="test", filter_interacted=False):
    """Train/evaluate once per value of s_days, n_tbptt, seed or variant; rows in input order."""
    if param not in ("s_days", "n_tbptt", "seed", "variant"):
        raise ConfigError(f"cannot sweep {param!r}: expected s_days, n_tbptt, seed or variant")
    if not values:
        raise ConfigError("empty sweep value list")
    rows = []
    for v in values:
        v = v if param == "variant" else int(v)
        mcfg, tcfg = model_config, train_config
        if param in ("n_tbptt", "seed"):
            tcfg = dataclasses.replace(train_config, **{param: v})
        else:
            mcfg = dataclasses.replace(model_config, **{param: v})
        model, _ = train(dataset, mcfg, tcfg)
        report = incremental_eval(dataset, model, split=split, seed=tcfg.seed,
                                  filter_interacted=filter_interacted)
        rows.append({param: v, "mrr": report.mrr,
                     "recall_at_10": report.recall_at_10})
    return rows


def sweep_rows_to_csv(rows, path):
    """One header line from the row keys, then one line per row (floats as repr)."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(rows[0]) + "\n")
        for r in rows:
            fh.write(",".join(repr(v) for v in r.values()) + "\n")


# ---------------------------------------------------------------------------
# synthetic planted-trend data


# users, items; trend block length in days; share of trendy interactions;
# items per user's static set and per trendy pool; pools; daily activity
TREND_USERS, TREND_ITEMS, TREND_WINDOW, TREND_MIX = 80, 40, 10, 0.5
TREND_PERSONAL, TREND_POOL, TREND_POOLS, TREND_P_ACTIVE = 4, 5, 2, 0.25


def synthetic_trend_dataset(rng, n_days=40) -> Dataset:
    """Interaction log where recent context is predictive by construction.

    Each user owns a small static preference set drawn from the first half
    of the item space; a rotating "trendy" subset of the second half
    (switched every ``TREND_WINDOW`` days) attracts a ``TREND_MIX`` fraction
    of interactions. The blocks cycle through ``TREND_POOLS`` disjoint
    trendy pools, so consecutive blocks promote different items yet every
    pool recurs during training: a context window matching the block length
    concentrates mass on the live trend, longer windows drag in the
    previous (now dead) trend, and the cumulative history spreads it over
    all of them equally. Sparse daily activity (``TREND_P_ACTIVE``) keeps
    any single day's graph too thin to reveal the trend on its own. With a
    mix of 0 the context would carry no signal; with 1 static preferences
    would carry none.
    """
    if n_days < 1:
        raise ConfigError(f"synthetic dataset needs n_days >= 1, got {n_days}")
    half = TREND_ITEMS // 2
    personal = [rng.choice(half, size=TREND_PERSONAL, replace=False) for _ in range(TREND_USERS)]
    perm = half + rng.permutation(TREND_ITEMS - half)
    pools = [perm[j * TREND_POOL:(j + 1) * TREND_POOL] for j in range(TREND_POOLS)]
    events = []
    for day in range(n_days):
        trendy = pools[day // TREND_WINDOW % TREND_POOLS]
        for u in range(TREND_USERS):
            if rng.random() > TREND_P_ACTIVE:
                continue
            item = int(rng.choice(trendy if rng.random() < TREND_MIX else personal[u]))
            events.append(RawEvent(f"u{u}", f"i{item}", day * SECONDS_PER_DAY))
    kept = k_core_filter(events, 5)
    if not kept:
        raise ConfigError(f"n_days={n_days} is too short: the 5-core filter leaves none of "
                          f"the {len(events)} generated interactions")
    return canonicalize(kept)
