"""The benchmark's ``--trace 1`` run patches cpmr names where they are looked
up; entering and leaving its patch context guards every one of them, and a
traced run must reach the graph layers through those names."""

import os
import sys

import numpy as np
import pytest

import cpmr.autodiff
from cpmr.data import SECONDS_PER_DAY, RawEvent, canonicalize
from cpmr.evaluation import incremental_eval
from cpmr.model import ModelConfig
from cpmr.training import TrainConfig, train

BENCHMARKS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                          "benchmarks")


@pytest.fixture()
def tracer():
    sys.path.insert(0, BENCHMARKS)
    try:
        import tracer
        yield tracer
    finally:
        sys.path.remove(BENCHMARKS)


def test_tracer_patches_and_restores_every_name(tracer):
    tr = tracer.Tracer()
    names = [(owner, name) for owner, name, _ in tracer._targets(tr)]
    before = {(owner, name): owner.__dict__[name] for owner, name in names}
    with tracer.patched(tr):
        assert all(owner.__dict__[name] is not before[owner, name] for owner, name in names)
    assert all(owner.__dict__[name] is before[owner, name] for owner, name in names)


def test_traced_run_reaches_every_graph_layer(tracer, monkeypatch):
    """train and a test replay call the graph views, the normalization, the
    fusion and the instant update by the names the tracer wraps; a path that
    bypassed them would leave their per-layer figures at zero. The tracer's
    own copy of the sub-step rule counts the Horner sub-steps that
    ``graph_flow`` ran: in the forward of each training day, in its replay
    in the backward, and in the validation and test replays. The adjoint of
    each replayed, taped flow also recomputes its S - 1 earlier sub-steps
    up to y_1 (``stop=1``); the tracer counts those as backward time, not
    as sub-steps."""
    forward, taped, recomputed = [0], [0], [0]

    def counted(*args, stop=0, **kwargs):
        if stop:
            recomputed[0] += 1
        else:
            forward[0] += 1
            taped[0] += cpmr.autodiff._ACTIVE_TAPE is not None
        return horner(*args, stop=stop, **kwargs)

    horner = cpmr.autodiff._horner_substep
    monkeypatch.setattr(cpmr.autodiff, "_horner_substep", counted)
    rng = np.random.default_rng(3)
    ds = canonicalize([RawEvent(f"u{rng.integers(6)}", f"i{rng.integers(6)}",
                                day * SECONDS_PER_DAY)
                       for day in range(12) for _ in range(4)])
    tr = tracer.Tracer()
    with tracer.patched(tr), tr.in_phase("run"):
        # a day is 1/11 of the timeline: ceil(2.27) = 3 sub-steps of at most 0.04
        model, _ = train(ds, ModelConfig(d=4, s_days=3, taylor_order=3, tau_max=0.04),
                         TrainConfig(lr=1e-2, n_tbptt=4, n_neg=2, max_epochs=1))
        incremental_eval(ds, model, split="test")
    history = tr.counts["run", "graphs.history_calls"]
    assert history > 0
    assert tr.calls["run", "graphs.views"] > history          # context views as well
    assert tr.calls["run", "graphs.normalize"] > 0
    assert tr.calls["run", "model.fuse"] > 0
    assert tr.calls["run", "model.update_instant"] > 0
    substeps = tr.counts["run", "model.evolve_substeps"]
    assert substeps == forward[0] > tr.calls["run", "model.evolve"]
    assert recomputed[0] > 0 and 3 * recomputed[0] == 2 * taped[0]     # S = 3 every day


def test_traced_training_sees_every_training_and_validation_day(tracer):
    """Each training day and each validation day of each epoch is one
    ``CpmrModel.step``, so the tracer's ``model.step`` span covers them all;
    a day's replay in the backward runs the day inside the step, not a step."""
    rng = np.random.default_rng(5)
    ds = canonicalize([RawEvent(f"u{rng.integers(6)}", f"i{rng.integers(6)}",
                                day * SECONDS_PER_DAY)
                       for day in range(12) for _ in range(3)])
    i_val, i_test = ds.split
    n_train, n_val = (len(np.unique(ds.days[sl])) for sl in (slice(0, i_val),
                                                              slice(i_val, i_test)))
    epochs = 2
    tr = tracer.Tracer()
    with tracer.patched(tr), tr.in_phase("train"):
        train(ds, ModelConfig(d=4, s_days=3, taylor_order=3),
              TrainConfig(lr=1e-2, n_tbptt=4, n_neg=2, max_epochs=epochs, patience=epochs))
    assert n_train > 0 and n_val > 0
    assert tr.calls["train", "model.step"] == (n_train + n_val) * epochs
