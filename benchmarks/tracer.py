"""Per-layer timing by wrapping cpmr's public functions where they are looked up.

Each wrapped call is a span, timed in CPU seconds of the process like the
end-to-end figures. A span's self time is its duration minus the time of
the wrapped calls nested inside it, so the self times of one phase add up
to the part of the phase that wrapped calls cover; the rest of the phase
is reported as ``uncovered_s``. Spans are aggregated in memory per
(phase, layer); nothing is written until the run ends.
"""

from __future__ import annotations

import contextlib
import math
import time
from collections import defaultdict

import cpmr.autodiff
import cpmr.evaluation
import cpmr.graphs
import cpmr.model
import cpmr.training


class Tracer:
    def __init__(self):
        self.phase = None
        self._stack = []                       # child seconds of each open span
        self.calls = defaultdict(int)          # (phase, layer) -> calls
        self.incl = defaultdict(float)         # (phase, layer) -> seconds
        self.self_s = defaultdict(float)       # (phase, layer) -> seconds
        self.counts = defaultdict(float)       # (phase, counter) -> sum
        self.peaks = defaultdict(float)        # (phase, counter) -> max

    def count(self, name, value=1):
        self.counts[self.phase, name] += value

    def peak(self, name, value):
        key = self.phase, name
        self.peaks[key] = max(self.peaks[key], value)

    def wrap(self, layer, fn, before=None, after=None):
        """``fn`` as a span named ``layer``; hooks see the arguments / result."""
        def traced(*args, **kwargs):
            if before is not None:
                before(self, *args, **kwargs)
            child = [0.0]
            self._stack.append(child)
            t0 = time.process_time()
            try:
                out = fn(*args, **kwargs)
            finally:
                dur = time.process_time() - t0
                self._stack.pop()
                if self._stack:
                    self._stack[-1][0] += dur
                key = self.phase, layer
                self.calls[key] += 1
                self.incl[key] += dur
                self.self_s[key] += dur - child[0]
            if after is not None:
                after(self, out)
            return out
        return traced

    @contextlib.contextmanager
    def in_phase(self, phase):
        """Attribute everything inside to ``phase``; yields its duration."""
        self.phase = phase
        spent = [0.0]
        t0 = time.process_time()
        try:
            yield spent
        finally:
            spent[0] = time.process_time() - t0
            self.phase = None

    def covered(self, phase):
        return sum(v for (p, _), v in self.self_s.items() if p == phase)


# -- counters taken at the layer boundaries ----------------------------------

def _history_nnz(tr, biadj):
    tr.count("graphs.history_calls")
    tr.count("graphs.history_nnz", biadj.nnz)


def _substeps(tr, model, x, nadj, scenario, dt):
    # the sub-step rule of the evolution: ceil(dt / tau_max), none for dt = 0
    if dt > 0:
        tr.count("model.evolve_substeps", max(1, math.ceil(dt / model.config.tau_max)))


def _draws(tr, user, item, history, n_users, n_items, n_neg, rng):
    # a pool is empty when every user (item) is already a past partner
    tr.count("training.negatives_draws", 2)
    tr.count("training.negatives_fallbacks",
             (len(history.by_item[item]) >= n_users)
             + (len(history.by_user[user]) >= n_items))


def _tape(tr, loss, tape, params=None):
    tr.count("autodiff.tape_nodes", len(tape.nodes))
    tr.peak("autodiff.tape_mb", sum(out.value.nbytes for out, _ in tape.nodes) / 2**20)


def _targets(tr):
    """(owner, attribute, replacement) for every name the tracer patches."""
    M, G, T, A, E = (cpmr.model, cpmr.graphs, cpmr.training, cpmr.autodiff,
                     cpmr.evaluation)
    store, model = G.EdgeStore, M.CpmrModel
    return [
        (store, "history_biadjacency",
         tr.wrap("graphs.views", store.history_biadjacency, after=_history_nnz)),
        (store, "context_biadjacency", tr.wrap("graphs.views", store.context_biadjacency)),
        (M, "normalize_adjacency", tr.wrap("graphs.normalize", M.normalize_adjacency)),
        (model, "step", tr.wrap("model.step", model.step)),
        (model, "evolve_states",
         tr.wrap("model.evolve", model.evolve_states, before=_substeps)),
        (model, "fuse", tr.wrap("model.fuse", model.fuse)),
        (model, "update_instant", tr.wrap("model.update_instant", model.update_instant)),
        (model, "user_repr", tr.wrap("model.repr", model.user_repr)),
        (model, "item_repr", tr.wrap("model.repr", model.item_repr)),
        (T, "batch_loss", tr.wrap("training.batch_loss", T.batch_loss)),
        (T, "sample_negatives",
         tr.wrap("training.negatives", T.sample_negatives, before=_draws)),
        (A, "backward", tr.wrap("autodiff.backward", A.backward, before=_tape)),
        (A, "adam_step", tr.wrap("autodiff.adam", A.adam_step)),
        (E, "rank_from_scores", tr.wrap("evaluation.rank", E.rank_from_scores)),
    ]


@contextlib.contextmanager
def patched(tr):
    """Install the wrappers for the duration of the block, then restore."""
    targets = _targets(tr)
    saved = [(owner, name, owner.__dict__[name]) for owner, name, _ in targets]
    try:
        for owner, name, fn in targets:
            setattr(owner, name, fn)
        yield tr
    finally:
        for owner, name, fn in saved:
            setattr(owner, name, fn)


def layer_table(tr, phase, spent, per):
    """Per-layer metrics of one phase, each divided by ``per`` (epochs, replays)."""
    def s(layer):
        return tr.self_s[phase, layer] / per

    def n(name):
        return tr.counts[phase, name]

    out = {
        "graphs.views_s": s("graphs.views"),
        "graphs.normalize_s": s("graphs.normalize"),
        "graphs.views_calls": tr.calls[phase, "graphs.views"] / per,
        "graphs.history_nnz_mean": n("graphs.history_nnz") / max(1, n("graphs.history_calls")),
        "model.evolve_s": s("model.evolve"),
        "model.evolve_calls": tr.calls[phase, "model.evolve"] / per,
        "model.evolve_substeps": n("model.evolve_substeps") / per,
        "model.fuse_s": s("model.fuse"),
        "model.update_instant_s": s("model.update_instant"),
        "model.repr_s": s("model.repr"),
        "model.step_self_s": s("model.step"),
    }
    if phase == "train":
        out.update({
            "training.negatives_s": s("training.negatives"),
            "training.negatives_draws": n("training.negatives_draws") / per,
            "training.negatives_fallback_ratio":
                n("training.negatives_fallbacks") / max(1, n("training.negatives_draws")),
            "training.batch_loss_self_s": s("training.batch_loss"),
            "autodiff.backward_s": s("autodiff.backward"),
            "autodiff.adam_s": s("autodiff.adam"),
            "autodiff.tape_nodes": n("autodiff.tape_nodes") / per,
            "autodiff.tape_mb": tr.peaks[phase, "autodiff.tape_mb"],
            "evaluation.validation_s": tr.incl[phase, "evaluation.validation"] / per,
        })
    out.update({
        "evaluation.rank_s": s("evaluation.rank"),
        "evaluation.ranked_events": tr.calls[phase, "evaluation.rank"] / per,
        "uncovered_s": (spent - tr.covered(phase)) / per,
        "phase_s": spent / per,
    })
    return {f"{phase}.{k}": v for k, v in out.items()}
