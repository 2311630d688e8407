"""Workload shapes and the seeded raw-log generator.

Each workload is a raw ``user,item,rating,epoch_seconds`` CSV made from a
seed. Users are split into taste clusters so that a trained model can beat
random ranking. Users come from repeated permutations and every item gets
five picks, so each has at least five events: the 5-core filter then keeps
the whole log, and the benchmark knows the exact input the program sees
after preprocessing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

SECONDS_PER_DAY = 86400
BASE_DAY = 18_000          # 2019-04-14, the day of the first event
N_CLUSTERS = 10
P_CLUSTER = 0.9            # share of picks from the user's taste cluster
ZIPF_A = 2.0               # popularity skew of the items within a cluster
ROUND_S = 11.0             # nominal seconds of one train+test round
EPOCHS = 2                 # per train() call; early stopping cannot cut it
S_DAYS = 5                 # context window of the model, in days
N_NEG = 8                  # negative users and items per interaction


@dataclass(frozen=True)
class Workload:
    name: str
    salt: int               # mixed into the seed so workloads differ
    n_users: int
    n_items: int
    n_days: int
    per_day: int            # interactions on every day
    d: int
    n_tbptt: int
    setup_logs: int         # preprocessings of the log in one set-up pass, about 0.1 s
    substeps: int = 0       # Taylor sub-steps per one-day gap; 0: unstretched
    lr: float = 3e-3

    @property
    def n_events(self):
        return self.n_days * self.per_day

    @property
    def time_scale(self):
        # a one-day gap is dt = time_scale / span; put it in the middle of
        # ((substeps - 1) tau_max, substeps tau_max] with tau_max = 0.125
        if not self.substeps:
            return 1.0
        return (self.substeps - 0.5) * 0.125 * (self.n_days - 1)


def rounds(seconds):
    """Timed train+test rounds in a run of ``seconds``, fixed by the seconds alone.

    Every workload's round takes about ROUND_S on the reference machine; the
    count does not depend on how fast the machine is, so every run of a given
    length does the same operations.
    """
    return max(1, int(seconds / ROUND_S + 0.5))


WORKLOADS = {w.name: w for w in [
    Workload("burst-d32", salt=1, n_users=800, n_items=160, n_days=40, per_day=120, d=32,
             n_tbptt=20, setup_logs=2),
    Workload("longtail-d32", salt=2, n_users=320, n_items=160, n_days=100, per_day=16, d=32,
             n_tbptt=20, setup_logs=6, lr=2e-3),
    Workload("stretch-d128", salt=3, n_users=150, n_items=80, n_days=30, per_day=30, d=128,
             n_tbptt=8, setup_logs=12, substeps=3),
]}


def generate(w: Workload, seed):
    """Raw CSV bytes plus the (user_key, item_key, day) of every row."""
    rng = np.random.default_rng([seed, w.salt])
    n = w.n_events
    users = _cycle(rng, w.n_users, n)
    items = np.empty(n, dtype=np.int64)
    # 5 picks of every item, for the 5-core filter, at random positions in
    # the first 80% of the timeline: the held-out days follow taste alone
    cover = rng.permutation(int(0.8 * n))[:5 * w.n_items]
    items[cover] = _cycle(rng, w.n_items, len(cover))
    # the rest: mostly from the user's taste cluster, Zipf-popular within it
    user_cluster = rng.permutation(w.n_users) % N_CLUSTERS
    item_cluster = rng.permutation(w.n_items) % N_CLUSTERS
    members = [rng.permutation(np.flatnonzero(item_cluster == c)) for c in range(N_CLUSTERS)]
    rest = np.setdiff1d(np.arange(n), cover)
    taste = rng.random(len(rest)) < P_CLUSTER
    for j, in_cluster in zip(rest.tolist(), taste.tolist()):
        if in_cluster:
            pool = members[user_cluster[users[j]]]
            items[j] = pool[min(int(rng.zipf(ZIPF_A)), len(pool)) - 1]
        else:
            items[j] = rng.integers(w.n_items)
    days = np.repeat(np.arange(w.n_days), w.per_day)
    ts = (BASE_DAY + days) * SECONDS_PER_DAY + rng.integers(0, SECONDS_PER_DAY, n)
    ratings = rng.integers(1, 6, n)
    order = rng.permutation(n)          # logs need not arrive sorted
    users, items, days, ts, ratings = (a[order] for a in (users, items, days, ts, ratings))
    if min(np.bincount(users, minlength=w.n_users).min(),
           np.bincount(items, minlength=w.n_items).min()) < 5:
        raise RuntimeError(f"{w.name}: generator left a user or item below 5 events")
    lines = [f"u{u},i{i},{r}.0,{t}\n" for u, i, r, t in zip(users, items, ratings, ts)]
    return "".join(lines).encode("ascii"), (users, items, days)


def _cycle(rng, n_ids, n):
    """``n`` ids from back-to-back random permutations: each id near n/n_ids times."""
    reps = -(-n // n_ids)
    return np.concatenate([rng.permutation(n_ids) for _ in range(reps)])[:n]
