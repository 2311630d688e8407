"""Correctness checks run after the timed part of every workload.

Each check compares the program against something the benchmark works out
on its own from the log it generated, or against a property the method
must have. None compares against stored output of an earlier run.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import eigsh, expm_multiply

from cpmr.graphs import EdgeStore, normalize_adjacency
from cpmr.model import evolve
from cpmr.training import InteractionHistory, sample_negatives

from workloads import N_NEG

# Checks on a fixed input that no seed changes. A fault they find shows on
# every run alike, so it is counted as a failed operation and the run's
# ``correct`` speaks of the other checks; every other failing check makes
# the run incorrect.
FIXED_INPUT_CHECKS = ("negatives_exclude_positive_fixed",)


def dense_ids(keys):
    """Ids by first appearance in row order, the documented canonical rule."""
    uniq, first = np.unique(keys, return_index=True)
    ids = np.empty(uniq.max() + 1, dtype=np.int64)
    ids[uniq[np.argsort(first)]] = np.arange(len(uniq))
    return ids[keys]


class Log:
    """The generated log in the program's dense ids, sorted as canonical."""

    def __init__(self, users, items, days):
        u, i = dense_ids(users), dense_ids(items)
        order = np.lexsort((i, u, days))
        self.users, self.items, self.days = u[order], i[order], days[order]

    def pairs(self, lo, hi):
        m = (self.days >= lo) & (self.days < hi)
        return set(zip(self.users[m].tolist(), self.items[m].tolist()))

    def test_size(self):
        """Events from the first day whose predecessors reach 90% of the log."""
        n = len(self.days)
        starts = np.flatnonzero(np.r_[True, self.days[1:] != self.days[:-1]])
        past = starts[starts >= 0.9 * n]
        return n - int(past[0]) if len(past) else 0


def run_checks(log, ds, model, hist, report, rounds):
    """[(name, ok, detail)] for every check on this workload."""
    store = EdgeStore.from_dataset(ds)
    n_days = int(log.days.max()) + 1
    sample_days = np.unique(np.linspace(1, n_days, 6).astype(int))
    train_days = np.unique(log.days[:ds.split[0]])
    cfg = model.config
    out = []

    same = (np.array_equal(ds.user_ids, log.users) and np.array_equal(ds.item_ids, log.items)
            and np.array_equal(ds.days, log.days))
    out.append(("dataset_matches_log", same,
                f"{len(ds)} events after the 5-core filter, {len(log.days)} generated"))

    bad = []
    for d in sample_days:
        d = int(d)
        for name, got, lo in (("history", store.history_biadjacency(d), -1),
                              ("context", store.context_biadjacency(d, cfg.s_days),
                               d - cfg.s_days)):
            got_pairs = set(zip(*(a.tolist() for a in got.nonzero())))
            if got_pairs != log.pairs(lo, d) or np.any(got.data != 1.0):
                bad.append(f"{name}@{d}")
    out.append(("views_match_log", not bad,
                f"history/context at days {sample_days.tolist()}; wrong: {bad}"))

    worst_asym, worst_rho = 0.0, 0.0
    for d in sample_days:
        nadj = normalize_adjacency(store.history_biadjacency(int(d)), cfg.alpha0)
        worst_asym = max(worst_asym, abs(nadj - nadj.T).max())
        rho = abs(eigsh(nadj, k=1, which="LM", return_eigenvectors=False, tol=1e-10)[0])
        worst_rho = max(worst_rho, rho)
    out.append(("normalize_symmetric_contractive",
                worst_asym <= 1e-12 and worst_rho <= cfg.alpha0 * (1 + 1e-9),
                f"max |N - N^T| {worst_asym:.1e}, spectral radius {worst_rho:.6f} "
                f"<= alpha0 {cfg.alpha0}"))

    out.append(_check_evolve(store, model, int(train_days[len(train_days) // 2])))
    out.append(_check_negatives(log, ds, train_days))
    out.append(_check_positive_fixed())

    expected = log.test_size()
    out.append(("test_events_match_split", report.n_events == expected,
                f"n_events {report.n_events}, generated test split {expected}"))

    chance = float(np.sum(1.0 / np.arange(1, ds.n_items + 1)) / ds.n_items)
    out.append(("test_mrr_beats_chance", report.mrr > chance,
                f"MRR {report.mrr:.4f} > H(n)/n {chance:.4f}"))

    losses = [e["train_loss"] for e in hist["epochs"]]
    out.append(("loss_decreases", losses[-1] < losses[0],
                f"mean loss epoch 0 {losses[0]:.5f}, last {losses[-1]:.5f}"))

    keys = {(tuple(h["train_loss"] for h in hs["epochs"]), r.mrr, r.recall_at_10)
            for hs, r in rounds}
    out.append(("rounds_bit_identical", len(keys) == 1,
                f"{len(rounds)} test replays of the rounds, {len(keys)} distinct outcomes"))
    return [(name, bool(ok), detail) for name, ok, detail in out]


def _check_evolve(store, model, day):
    """The Taylor flow against expm_multiply on [[A - I, I], [0, 0]]."""
    cfg = model.config
    nadj = normalize_adjacency(store.history_biadjacency(day), cfg.alpha0)
    gate = 1.0 / (1.0 + np.exp(-model.params["alpha_his"].value[:, 0]))
    a = (nadj @ sp.diags(gate)).tocsr()        # column gates, the default
    n = a.shape[0]
    rng = np.random.default_rng(day)
    x = rng.standard_normal((n, cfg.d))
    e = model.params["embed"].value
    dt = model.day_unit * cfg.time_scale       # a one-day gap
    got = evolve(x, e, a, dt, cfg.taylor_order, cfg.tau_max)
    eye = sp.identity(n, format="csr")
    aug = sp.bmat([[a - eye, eye], [None, sp.csr_matrix((n, n))]], format="csr")
    ref = expm_multiply(dt * aug, np.vstack([x, e]))[:n]
    err = np.linalg.norm(got - ref) / np.linalg.norm(ref)
    steps = int(np.ceil(dt / cfg.tau_max))
    return ("evolve_matches_expm", err <= 1e-6,
            f"day {day}, dt {dt:.4f} ({steps} sub-steps): relative error {err:.1e}")


def _check_negatives(log, ds, train_days):
    """Sampled negatives on about eight training days, against the log."""
    check_days = set(train_days[::max(1, len(train_days) // 8)].tolist())
    history = InteractionHistory(ds.n_users, ds.n_items)
    past_items = [set() for _ in range(ds.n_users)]
    past_users = [set() for _ in range(ds.n_items)]
    rng = np.random.default_rng(0)
    draws = fallbacks = 0
    partner, positive = [], []
    for day in train_days.tolist():
        m = log.days == day
        users, items = log.users[m], log.items[m]
        if day in check_days:
            for u, i in zip(users.tolist(), items.tolist()):
                neg_u, neg_i = sample_negatives(u, i, history, ds.n_users,
                                                ds.n_items, N_NEG, rng)
                for negs, past, n_total, pos in ((neg_u, past_users[i], ds.n_users, u),
                                                 (neg_i, past_items[u], ds.n_items, i)):
                    draws += 1
                    negs = negs.tolist()
                    if pos in negs:
                        positive.append((day, u, i))
                    if len(past) == n_total:
                        fallbacks += 1
                    elif (past.intersection(negs) or (len(set(negs)) < N_NEG
                                                      and n_total - len(past) >= N_NEG)):
                        partner.append((day, u, i))
        history.add_day(users, items)
        for u, i in zip(users.tolist(), items.tolist()):
            past_items[u].add(i)
            past_users[i].add(u)
    # A draw holding its positive is the fault the fixed-input check below
    # shows on every run; how often it shows here depends on the seed, so it
    # is counted and reported but does not decide this check.
    return ("negatives_exclude_past_partners", not partner,
            f"{draws} draws on {len(check_days)} days, {fallbacks} empty-pool "
            f"fallbacks; {len(partner)} draws with a past partner or a repeat "
            f"{partner[:3]}; {len(positive)} holding the positive {positive[:3]} "
            f"(see negatives_exclude_positive_fixed)")


def _check_positive_fixed():
    """``sample_negatives`` on a fixed input where only the positive is left.

    User 0 has interacted with every item but item 0, so for the interaction
    (0, 0) the only item that is not a past partner is the positive itself.
    The pool is not empty, so no fallback applies, and a sampler that only
    drops past partners returns the positive as every negative. The input
    is fixed: the outcome does not depend on the workload or its seed.
    """
    history = InteractionHistory(2, 4)
    history.add_day([0, 0, 0], [1, 2, 3])
    _, neg_items = sample_negatives(0, 0, history, 2, 4, 3, np.random.default_rng(0))
    return ("negatives_exclude_positive_fixed", 0 not in neg_items.tolist(),
            f"items 1-3 of 4 are past partners; negatives drawn for positive "
            f"item 0: {neg_items.tolist()}")
