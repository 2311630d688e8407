import json
import logging
import math
import weakref

import numpy as np
import pytest

from cpmr import autodiff as ad
from cpmr.data import RawEvent, SECONDS_PER_DAY, canonicalize
from cpmr.errors import ConfigError, NumericalError
from cpmr.graphs import EdgeStore
from cpmr.model import CpmrModel, ModelConfig, TemporalStates
from cpmr.training import (InteractionHistory, TrainConfig, _train_day, batch_loss,
                           sample_negatives, train)


def tiny_dataset(seed=0, n_users=6, n_items=6, n_days=12, per_day=4):
    rng = np.random.default_rng(seed)
    events = []
    for day in range(n_days):
        for _ in range(per_day):
            events.append(RawEvent(f"u{rng.integers(n_users)}",
                                   f"i{rng.integers(n_items)}",
                                   day * SECONDS_PER_DAY))
    return canonicalize(events)


def infonce_loss(lambda_pos, lambda_negs):
    """Reference InfoNCE of one interaction: -log(exp(pos) / (exp(pos) + sum exp(negs)))."""
    logits = np.concatenate([[lambda_pos], np.asarray(lambda_negs, dtype=np.float64)])
    m = logits.max()
    return float(m + np.log(np.exp(logits - m).sum()) - lambda_pos)


SMALL_MODEL = dict(d=4, s_days=3, taylor_order=3)


def quick_cfg(**kw):
    base = dict(lr=1e-2, n_tbptt=4, n_neg=2, max_epochs=2, patience=5, seed=0)
    base.update(kw)
    return TrainConfig(**base)


def test_train_config_validation():
    with pytest.raises(ConfigError):
        TrainConfig(n_tbptt=0)
    with pytest.raises(ConfigError):
        TrainConfig(n_neg=0)
    with pytest.raises(ConfigError, match="patience"):
        TrainConfig(patience=-3)
    assert TrainConfig(patience=0).patience == 0      # stop at the first epoch without gain


def test_infonce_equal_logits_anchor():
    # pos logit == all 8+8 neg logits -> loss = ln(17)
    assert infonce_loss(0.3, [0.3] * 16) == pytest.approx(np.log(17), abs=1e-12)


def test_infonce_two_way_anchor():
    assert infonce_loss(0.0, [0.0]) == pytest.approx(np.log(2), abs=1e-12)
    # dominant positive drives the loss to zero
    assert infonce_loss(50.0, [0.0, 0.0]) == pytest.approx(0.0, abs=1e-12)


def test_infonce_monotone_in_negatives():
    base = infonce_loss(1.0, [0.0, 0.0])
    assert infonce_loss(1.0, [0.5, 0.0]) > base
    assert infonce_loss(1.0, [0.0, 0.0, 0.0]) > base


def test_infonce_extreme_logits_finite():
    assert np.isfinite(infonce_loss(-1000.0, [1000.0]))


def test_sample_negatives_excludes_past_partners():
    history = InteractionHistory(10, 10)
    history.add_day([0, 0, 0], [1, 2, 3])
    history.add_day([5, 6], [7, 7])
    rng = np.random.default_rng(0)
    for _ in range(50):
        neg_u, neg_i = sample_negatives(0, 7, history, 10, 10, 4, rng)
        assert not set(neg_i.tolist()) & {1, 2, 3}      # user 0's past items
        assert not set(neg_u.tolist()) & {5, 6}         # item 7's past users
        assert len(set(neg_i.tolist())) == 4            # without replacement


def test_sample_negatives_uniform_over_pool():
    history = InteractionHistory(4, 4)
    rng = np.random.default_rng(1)
    counts = np.zeros(4)
    for _ in range(2000):
        _, neg_i = sample_negatives(0, 0, history, 4, 4, 1, rng)
        counts[neg_i[0]] += 1
    # empty history: every item but the positive is a candidate
    assert counts[0] == 0
    assert counts[1:].min() > 2000 / 3 * 0.8


def test_sample_negatives_exhausted_pool_falls_back():
    history = InteractionHistory(3, 3)
    history.add_day([0, 0, 0], [0, 1, 2])      # user 0 saw every item
    rng = np.random.default_rng(2)
    _, neg_i = sample_negatives(0, 1, history, 3, 3, 4, rng)
    assert len(neg_i) == 4
    assert 1 not in neg_i                       # fallback excludes the positive


def test_sample_negatives_pinned_stream():
    """The exact draws of a fixed history and seed, as the setdiff1d pools gave them."""
    history = InteractionHistory(6, 9)
    history.add_day([0, 0, 1, 2, 3], [1, 4, 4, 7, 8])
    history.add_day([0] * 6, [0, 2, 3, 5, 6, 7])     # user 0: every item but 8
    history.add_day([1, 2, 3, 4, 5], [3] * 5)        # item 3: every user
    rng = np.random.default_rng(20231)
    got = [tuple(a.tolist() for a in sample_negatives(u, i, history, 6, 9, n, rng))
           for u, i, n in [(1, 0, 4), (2, 5, 3), (0, 2, 3), (4, 3, 3), (0, 8, 2), (5, 1, 4)]]
    assert got == [([4, 3, 5, 2], [1, 5, 7, 6]),
                   ([5, 1, 4], [8, 1, 0]),
                   ([1, 2, 5], [8, 8, 8]),     # item pool {8}: with replacement
                   ([5, 0, 1], [7, 0, 4]),     # user pool empty: fallback
                   ([5, 2], [7, 1]),           # item pool empty: fallback
                   ([2, 1, 4, 3], [0, 2, 8, 6])]
    assert history.fallbacks == 2


def test_batch_loss_matches_scalar_oracle():
    ds = tiny_dataset()
    model = CpmrModel(ds.n_users, ds.n_items, ds.day_unit,
                      ModelConfig(**SMALL_MODEL), rng=np.random.default_rng(0))
    z = ad.constant(np.random.default_rng(3).normal(size=(model.n_nodes, 4)))
    history = InteractionHistory(ds.n_users, ds.n_items)
    users, items = ds.user_ids[:5], ds.item_ids[:5]

    rng = np.random.default_rng(7)
    draws = [sample_negatives(int(u), int(i), history, ds.n_users, ds.n_items,
                              2, rng) for u, i in zip(users, items)]
    neg_u, neg_i = (np.array([d[k] for d in draws]) for k in (0, 1))
    got = batch_loss(model, z, users, items, neg_u, neg_i).value[0, 0]
    # average per-pair scalar losses over the same draws
    losses = []

    def score(user, item):
        return float(model.user_repr(z, [user]).value[0] @ model.item_repr(z, [item]).value[0])

    for (u, i), (nu, ni) in zip(zip(users, items), draws):
        pos = score(int(u), int(i))
        negs = [score(int(v), int(i)) for v in nu]
        negs += [score(int(u), int(j)) for j in ni]
        losses.append(infonce_loss(pos, negs))
    assert got == pytest.approx(np.mean(losses), abs=1e-10)


def test_batch_loss_empty_batch():
    ds = tiny_dataset()
    model = CpmrModel(ds.n_users, ds.n_items, ds.day_unit,
                      ModelConfig(**SMALL_MODEL), rng=np.random.default_rng(0))
    z = ad.constant(np.zeros((model.n_nodes, 4)))
    with pytest.raises(ConfigError):
        batch_loss(model, z, [], [], *np.empty((2, 0, 2), dtype=np.int64))


def test_training_deterministic_bit_exact():
    ds = tiny_dataset()
    runs = []
    for _ in range(2):
        model, hist = train(ds, ModelConfig(**SMALL_MODEL), quick_cfg())
        runs.append((hist, {k: v.value.copy() for k, v in model.params.items()}))
    losses_a = [s.mean_loss for s in runs[0][0]["segments"]]
    losses_b = [s.mean_loss for s in runs[1][0]["segments"]]
    assert losses_a == losses_b                    # bit-identical trajectory
    for k in runs[0][1]:
        np.testing.assert_array_equal(runs[0][1][k], runs[1][1][k])


def test_training_seed_changes_trajectory():
    ds = tiny_dataset()
    _, h0 = train(ds, ModelConfig(**SMALL_MODEL), quick_cfg(seed=0))
    _, h1 = train(ds, ModelConfig(**SMALL_MODEL), quick_cfg(seed=1))
    assert [s.mean_loss for s in h0["segments"]] != \
        [s.mean_loss for s in h1["segments"]]


def test_zero_lr_is_fixed_point():
    ds = tiny_dataset()
    cfg = ModelConfig(**SMALL_MODEL)
    ref = CpmrModel(ds.n_users, ds.n_items, ds.day_unit, cfg,
                    rng=np.random.default_rng(0))
    model, _ = train(ds, cfg, quick_cfg(lr=0.0, weight_decay=0.0, max_epochs=1,
                                        patience=99))
    for k, v in model.params.items():
        np.testing.assert_array_equal(v.value, ref.params[k].value)


def test_training_reduces_loss():
    ds = tiny_dataset(n_days=16, per_day=6)
    _, hist = train(ds, ModelConfig(**SMALL_MODEL),
                    quick_cfg(max_epochs=6, lr=3e-3))
    epochs = hist["epochs"]
    assert epochs[-1]["train_loss"] < epochs[0]["train_loss"]


def test_tbptt_segment_boundaries():
    ds = tiny_dataset(n_days=12, per_day=3)
    n_train_days = len(np.unique(ds.days[:ds.split[0]]))
    _, hist = train(ds, ModelConfig(**SMALL_MODEL),
                    quick_cfg(n_tbptt=4, max_epochs=1, patience=99))
    segs = [s for s in hist["segments"] if s.epoch == 0]
    assert sum(s.n_days for s in segs) == n_train_days
    assert all(s.n_days == 4 for s in segs[:-1])     # trailing remainder only
    assert segs[-1].n_days == n_train_days - 4 * (len(segs) - 1)
    # one giant segment when the window exceeds the epoch
    _, hist1 = train(ds, ModelConfig(**SMALL_MODEL),
                     quick_cfg(n_tbptt=10 ** 6, max_epochs=1, patience=99))
    segs1 = [s for s in hist1["segments"] if s.epoch == 0]
    assert len(segs1) == 1 and segs1[0].n_days == n_train_days


def test_segment_count_does_not_change_day_losses_before_first_update():
    """States detach at segment ends, so the first segment's losses agree
    between different n_tbptt settings (no parameter update happened yet)."""
    ds = tiny_dataset(n_days=12, per_day=3)
    _, h2 = train(ds, ModelConfig(**SMALL_MODEL),
                  quick_cfg(n_tbptt=2, max_epochs=1, patience=99, lr=0.0,
                            weight_decay=0.0))
    _, h4 = train(ds, ModelConfig(**SMALL_MODEL),
                  quick_cfg(n_tbptt=4, max_epochs=1, patience=99, lr=0.0,
                            weight_decay=0.0))
    # with lr=0 the whole trajectory is update-free: per-epoch mean matches
    assert h2["epochs"][0]["train_loss"] == pytest.approx(
        h4["epochs"][0]["train_loss"], abs=1e-12)


def test_lr_decay_schedule():
    ds = tiny_dataset()
    _, hist = train(ds, ModelConfig(**SMALL_MODEL),
                    quick_cfg(max_epochs=4, patience=99,
                              lr_decay_period=2, lr_decay_factor=0.5))
    lrs = [e["lr"] for e in hist["epochs"]]
    assert lrs == [1e-2, 1e-2, 5e-3, 5e-3]


def test_early_stopping_restores_best_params():
    ds = tiny_dataset(n_days=14, per_day=5)
    calls = []

    def fake_eval(model, states):
        # forced degradation after epoch 1 -> stop at patience, keep best
        calls.append({k: v.value.copy() for k, v in model.params.items()})
        return [0.5, 0.9, 0.1, 0.1, 0.1, 0.1][len(calls) - 1]

    model, hist = train(ds, ModelConfig(**SMALL_MODEL),
                        quick_cfg(max_epochs=10, patience=2), eval_fn=fake_eval)
    assert hist["best_epoch"] == 1
    assert len(calls) == 4                   # stopped 2 epochs after the best
    for k, v in model.params.items():
        np.testing.assert_array_equal(v.value, calls[1][k])


def test_nan_loss_raises_numerical_error():
    ds = tiny_dataset()
    cfg = ModelConfig(**SMALL_MODEL)
    model_probe = CpmrModel(ds.n_users, ds.n_items, ds.day_unit, cfg)

    # a poisoned initial embedding propagates NaN into the first loss
    import cpmr.training as tr
    orig = tr.CpmrModel

    class Poisoned(orig):
        def _init_params(self, rng):
            super()._init_params(rng)
            self.params["embed"].value[0, 0] = np.nan

    tr.CpmrModel = Poisoned
    try:
        with pytest.raises(NumericalError):
            train(ds, cfg, quick_cfg(max_epochs=1))
    finally:
        tr.CpmrModel = orig


def test_non_finite_state_with_finite_loss_raises(monkeypatch):
    import cpmr.training as tr
    # user w (id 0) meets every item on day 0 and then goes quiet: from day 2 on
    # it is isolated in the one-day context graph and never a negative user
    events = [RawEvent("w", f"i{k}", 0) for k in range(3)]
    for day in range(1, 12):
        for u, i in ((day % 3, day % 3), ((day + 1) % 3, (day + 2) % 3)):
            events.append(RawEvent(f"u{u}", f"i{i}", day * SECONDS_PER_DAY))
    ds = canonicalize(events)

    class NanGate(tr.CpmrModel):
        def step(self, states, store, day_k, **kw):
            if day_k == 4:
                self.params["alpha_ctx"].value[0, 0] = np.nan
            return super().step(states, store, day_k, **kw)

    losses = []
    def recorded(*args):
        losses.append(batch_loss(*args))
        return losses[-1]
    monkeypatch.setattr(tr, "CpmrModel", NanGate)
    monkeypatch.setattr(tr, "batch_loss", recorded)
    with pytest.raises(NumericalError, match="non-finite his states at epoch 0 day 4"):
        train(ds, ModelConfig(**{**SMALL_MODEL, "s_days": 1}), quick_cfg(max_epochs=1))
    # days 0-3 in the replays of their segment's backward; a taped forward scores nothing
    assert len(losses) == 4 and all(np.isfinite(l.value[0, 0]) for l in losses)


def test_a_nan_replayed_loss_raises_before_any_adam_step(monkeypatch):
    """A NaN head bias leaves the states finite and makes every loss NaN.
    The losses are known only once ``backward`` has replayed the segment's
    days; the first NaN one raises, naming its day, before Adam moves a
    parameter."""
    import cpmr.training as tr
    models, before = [], []

    class NanHead(tr.CpmrModel):
        def _init_params(self, rng):
            super()._init_params(rng)
            self.params["predict.fc_item.b"].value[0, 0] = np.nan
            models.append(self)
            before.append({k: v.value.tobytes() for k, v in self.params.items()})

    monkeypatch.setattr(tr, "CpmrModel", NanHead)
    with pytest.raises(NumericalError,
                       match=r"non-finite loss at epoch 0 day 0 \(segment days \[0\], lr"):
        train(tiny_dataset(), ModelConfig(**SMALL_MODEL), quick_cfg(max_epochs=1))
    (model,), (want,) = models, before
    assert {k: v.value.tobytes() for k, v in model.params.items()} == want


def test_train_log_file_written(tmp_path):
    ds = tiny_dataset()
    path = tmp_path / "train.log"
    train(ds, ModelConfig(**SMALL_MODEL), quick_cfg(max_epochs=1), log_path=path)
    import json
    lines = [json.loads(l) for l in path.read_text().splitlines()]
    assert any("val_mrr" in l for l in lines)
    assert any("day_start" in l for l in lines)


def test_sample_negatives_counts_fallbacks():
    history = InteractionHistory(3, 3)
    history.add_day([0, 0, 0], [0, 1, 2])      # user 0 saw every item
    rng = np.random.default_rng(3)
    sample_negatives(0, 1, history, 3, 3, 2, rng)   # item pool empty
    sample_negatives(1, 1, history, 3, 3, 2, rng)   # both pools non-empty
    assert history.fallbacks == 1


def test_empty_negative_pools_counted_not_logged(tmp_path, caplog):
    ds = tiny_dataset(n_users=3, n_items=3, n_days=12, per_day=6)   # dense
    path = tmp_path / "train.log"
    with caplog.at_level(logging.WARNING):
        _, hist = train(ds, ModelConfig(**SMALL_MODEL), quick_cfg(max_epochs=1),
                        log_path=path)
    assert not caplog.records
    epoch_line = [json.loads(l) for l in path.read_text().splitlines()
                  if "val_mrr" in json.loads(l)][0]
    assert epoch_line["negative_fallbacks"] == hist["epochs"][0]["negative_fallbacks"]
    assert epoch_line["negative_fallbacks"] > 0


def few_days():
    """Eight days of a 6 x 6 log, one of them with a single interaction."""
    rng = np.random.default_rng(4)
    events = [RawEvent(f"u{rng.integers(6)}", f"i{rng.integers(6)}", day * SECONDS_PER_DAY)
              for day in range(8) for _ in range(1 if day == 2 else 4)]
    ds = canonicalize(events)
    return ds, EdgeStore.from_dataset(ds), [int(d) for d in np.unique(ds.days)]


def taped_days(ds, store, days, config):
    """(model, losses, tape): the training days ``days``, each a checkpoint,
    under a tape. The losses hold their values once ``backward`` has
    replayed their days."""
    model = CpmrModel(ds.n_users, ds.n_items, ds.day_unit, config, rng=np.random.default_rng(0))
    history, draws = InteractionHistory(ds.n_users, ds.n_items), np.random.default_rng(1)
    with ad.Tape() as tape:
        states, losses = model.init_states(), []
        for day in days:
            loss, states = _train_day(model, store, states, day, history, 3, draws)
            losses.append(loss)
    return model, losses, tape


def plain(fn, *inputs, forward=None):
    """``fn(*inputs)`` on the active tape: ``ad.checkpoint`` taken out."""
    return fn(*inputs)


@pytest.mark.parametrize("variant, substeps", [("full", 1), ("wo_ctx", 1), ("wo_his", 1),
                                               ("wo_fusion", 1), ("full", 3), ("wo_fusion", 3)],
                         ids=["full", "wo_ctx", "wo_his", "wo_fusion", "full-3-substeps",
                              "wo_fusion-3-substeps"])
def test_day_checkpoints_give_the_plain_tapes_gradients(variant, substeps, monkeypatch):
    """A training day's checkpoint, its function and input states, is one
    tape node, and replaying it in the backward gives every gradient byte for
    byte as a plain tape that keeps each op's arrays does, for every variant,
    also on a clock of 3 Taylor sub-steps a day."""
    ds, store, days = few_days()
    days = days[:5]
    assert 1 in [len(store.instant_edges(d)[0]) for d in days]   # a one-interaction day
    time_scale = (substeps - 0.5) * 0.125 / ds.day_unit         # a one-day gap, tau_max 0.125
    config = ModelConfig(**SMALL_MODEL, variant=variant, time_scale=time_scale)
    assert math.ceil(ds.day_unit * time_scale / config.tau_max) == substeps

    def grads():
        model, losses, tape = taped_days(ds, store, days, config)
        n_nodes = len(tape.nodes)
        g = ad.backward(losses, tape, params=model.params.values())
        return n_nodes, {"losses": np.concatenate([l.value for l in losses]),
                         **{name: g[v] for name, v in model.params.items()}}

    n_nodes, got = grads()
    assert n_nodes == len(days)                  # one checkpoint a day
    monkeypatch.setattr(ad, "checkpoint", plain)
    plain_nodes, want = grads()
    # each day's step and 5 head nodes; the first day (dt = 0) has no flow,
    # one node a scenario fewer
    step = {"full": 5, "wo_ctx": 3, "wo_his": 3, "wo_fusion": 5}[variant]
    assert plain_nodes == len(days) * (step + 5) - len(config.scenarios)
    assert got.keys() == want.keys()
    for name in want:
        assert got[name].tobytes() == want[name].tobytes(), name


@pytest.mark.parametrize("variant", ["full", "wo_fusion"])
def test_a_segment_from_e_itself_gives_the_gradients_of_copies_of_e(variant, monkeypatch):
    """A segment from day 0 starts every scenario from E itself and gives
    every gradient byte for byte as one that starts each from its own
    differentiable copy ``scale(E, 1.0)``: at dt = 0 the first day's fusion,
    or wo_fusion's sum, is the one node that reads the states, and it hands
    out the ctx part's gradient before the his part's, the order in which
    the copies' nodes add theirs to E."""
    from test_autodiff import scale
    ds, store, days = few_days()
    assert days[0] == 0
    config = ModelConfig(**SMALL_MODEL, variant=variant)

    def grads():
        model, losses, tape = taped_days(ds, store, days[:5], config)
        g = ad.backward(losses, tape, params=model.params.values())
        return {name: g[v].tobytes() for name, v in model.params.items()}

    got = grads()
    monkeypatch.setattr(CpmrModel, "init_states", lambda self: TemporalStates(
        {sc: scale(self.params["embed"], 1.0) for sc in self.config.scenarios}, day=0))
    assert got == grads()


def test_a_taped_days_forward_runs_no_head_and_its_replay_runs_it_once(monkeypatch):
    """Under a tape a training day's forward is a ``predict=False`` day: it
    fuses his and ctx without the ``final`` task and calls no ``batch_loss``,
    ``user_repr`` or ``item_repr``, and its loss is NaN. Each day's replay in
    ``backward`` fuses with ``final``, runs ``batch_loss`` once and fills in
    the loss."""
    import cpmr.training as tr
    calls = []

    def watched(name, fn):
        def call(*args, **kw):
            out = fn(*args, **kw)
            taped = ad._ACTIVE_TAPE is not None
            calls.append((taped, f"fusion/{len(out)}" if name == "fusion" else name))
            return out
        return call

    monkeypatch.setattr(tr, "batch_loss", watched("batch_loss", tr.batch_loss))
    monkeypatch.setattr(ad, "gated_fusion", watched("fusion", ad.gated_fusion))
    for name in ("user_repr", "item_repr"):
        monkeypatch.setattr(CpmrModel, name, watched(name, getattr(CpmrModel, name)))
    ds, store, days = few_days()
    model, losses, tape = taped_days(ds, store, days[:4], ModelConfig(**SMALL_MODEL))
    assert calls == [(False, "fusion/2")] * 4
    assert all(l.value.shape == (1, 1) and np.isnan(l.value).all() for l in losses)
    calls.clear()
    ad.backward(losses, tape, params=model.params.values())
    head = ["user_repr", "item_repr"] * 2 + ["batch_loss"]
    assert calls == [(True, name) for name in ["fusion/3", *head]] * 4
    assert all(np.isfinite(l.value).all() for l in losses)


def closure(fn):
    """The variables a function's closure keeps, by name."""
    return {name: c.cell_contents for name, c in zip(fn.__code__.co_freevars, fn.__closure__)}


def test_a_day_checkpoint_keeps_no_float_array_but_its_input_states():
    """A taped full-model training day is one node whose float arrays are
    its input states. Its function, ``step``'s day, holds the instant
    update's averaging operators (index arrays and sparse means) and the
    normalized graph views, and its ``score`` the day's interactions and
    negatives, and no float array: the instant update's rows and the new
    states are rebuilt in the backward, with the rest of the day."""
    ds, store, days = few_days()
    model = CpmrModel(ds.n_users, ds.n_items, ds.day_unit, ModelConfig(**SMALL_MODEL),
                      rng=np.random.default_rng(0))
    with ad.Tape() as tape:
        states = model.init_states()
        _train_day(model, store, states, days[1], InteractionHistory(ds.n_users, ds.n_items),
                   3, np.random.default_rng(1))
    (_, (_, replay)), = tape.nodes
    (arrays,) = replay.__defaults__              # the checkpoint's input arrays
    assert [a is x.value for a, x in zip(arrays, states.x.values())] == [True, True]
    cells = closure(closure(replay)["fn"])       # the day's recurrence
    loss = closure(cells.pop("score"))           # the loss's data

    def walk(x):
        if isinstance(x, (list, tuple)):
            for y in x:
                yield from walk(y)
        else:
            yield x

    held = list(walk([list(loss.values()), list(cells.values())]))
    assert not any(isinstance(x, ad.Var) for x in held)
    assert all(x.dtype.kind in "iu" for x in held if isinstance(x, np.ndarray))
    ops = list(walk(cells["ops"]))
    assert [type(x).__name__ for x in ops] == ["ndarray", "csr_matrix"] * 2


def test_backward_builds_each_shared_expert_once(monkeypatch):
    """In the backward of two checkpointed full-model days each class's
    shared expert is computed by one layer a day, in the day's one
    ``gated_fusion``, which runs in the day's replay, not once per task mix
    that reads it."""
    ds, store, days = few_days()
    model, losses, tape = taped_days(ds, store, days[1:3], ModelConfig(**SMALL_MODEL))
    fusion, built = ad.gated_fusion, []

    def watched(parts, n_users, layers):
        built.extend(w for (w, _), *_ in layers)       # each class's first layer: the shared one
        return fusion(parts, n_users, layers)

    monkeypatch.setattr(ad, "gated_fusion", watched)
    ad.backward(losses, tape, params=model.params.values())
    for cls in ("user", "item"):
        shared = model.params[f"fusion.{cls}.expert_shared.w"]
        assert sum(w is shared for w in built) == 2
    assert len(built) == 2 * 2


def test_no_day_replay_holds_a_value_once_backward_returns(monkeypatch):
    """A day's replay builds the day's arrays again (here its fused states)
    under a tape of its own, and none of them outlives ``backward``; the
    active tape is the caller's again."""
    ds, store, days = few_days()
    model, losses, tape = taped_days(ds, store, days[1:3], ModelConfig(**SMALL_MODEL))
    fusion, built = ad.gated_fusion, []

    def watched(*args):
        outs = fusion(*args)
        built.extend((ad._ACTIVE_TAPE, weakref.ref(out.value)) for out in outs)
        return outs

    monkeypatch.setattr(ad, "gated_fusion", watched)
    ad.backward(losses, tape, params=model.params.values())
    assert len(built) == 2 * 3                # two days, three tasks
    assert all(t is not None and t is not tape for t, _ in built)
    assert [r() for _, r in built] == [None] * len(built)
    assert ad._ACTIVE_TAPE is None


def test_a_segments_gradients_are_freed_before_the_next_segment(monkeypatch):
    """The gradients of a segment, parameter-sized and those of its starting
    states, are dead when the next segment's first day is built."""
    import cpmr.training as tr
    backward, grads, live = ad.backward, [], []

    def watched(*args, **kw):
        out = backward(*args, **kw)
        grads.extend(weakref.ref(g) for g in out.values())
        return out

    class Watched(tr.CpmrModel):
        def step(self, *args, **kw):
            if grads:
                live.append(sum(r() is not None for r in grads))
            return super().step(*args, **kw)

    monkeypatch.setattr(ad, "backward", watched)
    monkeypatch.setattr(tr, "CpmrModel", Watched)
    _, hist = train(tiny_dataset(), ModelConfig(**SMALL_MODEL), quick_cfg(max_epochs=1))
    assert len(hist["segments"]) >= 2 and live and live == [0] * len(live)


@pytest.mark.parametrize("variant", ["full", "wo_fusion"])
def test_batch_loss_is_five_nodes_and_the_generic_op_chain_byte_for_byte(variant, monkeypatch):
    """``batch_loss`` records 5 tape nodes a training day, the four
    representations (``gathered_linear``) and ``info_nce``, where the chain of
    generic ops took 30. Over checkpointed training days, and so through
    the accumulation into E, z and both head layers across the day's
    representations, every loss and gradient is the chain's bytes."""
    from test_autodiff import gathered_linear_chain, info_nce_chain
    import cpmr.training as tr
    ds, store, days = few_days()
    config = ModelConfig(**SMALL_MODEL, variant=variant)
    counts = []

    def counted(*args):
        nodes = ad._ACTIVE_TAPE.nodes if ad._ACTIVE_TAPE else None    # None: a checkpoint's forward
        start = len(nodes or ())
        loss = batch_loss(*args)
        if nodes is not None:
            counts.append(len(nodes) - start)
        return loss

    def run():
        model, losses, tape = taped_days(ds, store, days[:4], config)
        grads = ad.backward(losses, tape, params=model.params.values())
        return [l.value for l in losses] + [grads[v] for v in model.params.values()]

    monkeypatch.setattr(tr, "batch_loss", counted)
    fused = run()              # the replays count: one batch_loss a day
    monkeypatch.setattr(ad, "gathered_linear", gathered_linear_chain)
    monkeypatch.setattr(ad, "info_nce", info_nce_chain)
    chain = run()
    assert counts == [5] * 4 + [30] * 4
    assert all(np.isfinite(a).all() for a in fused)
    assert [a.tobytes() for a in fused] == [a.tobytes() for a in chain]


def test_train_holds_no_epochs_end_states_through_the_next_epoch(monkeypatch):
    """Once ``eval_fn`` has scored an epoch's end states, ``train`` lets them
    go: they are dead when the next epoch starts, and its days run without them."""
    import cpmr.training as tr
    train_epoch, ends, live = tr._train_epoch, [], []

    def watched(*args):
        live.append(sum(r() is not None for r in ends))
        states, *rest = train_epoch(*args)
        ends.extend(weakref.ref(x.value) for x in states.x.values())
        return (states, *rest)

    monkeypatch.setattr(tr, "_train_epoch", watched)
    train(tiny_dataset(), ModelConfig(**SMALL_MODEL), quick_cfg(max_epochs=3),
          eval_fn=lambda model, states: 0.5)
    assert len(ends) == 3 * 2 and live == [0, 0, 0]


def test_taped_step_and_loss_keep_only_what_backward_reads():
    """Live bytes of a taped segment of training days, ``step`` plus
    ``batch_loss`` each, in state-matrix sizes. A day kept ~79 when the tape
    held every op's output, ~39.5 once it held handles and each rule kept
    only what it reads, and ~3.4 with the per-op recipes of earlier
    versions: the two fusion inputs, index arrays, relu masks and the graph
    operators. As one checkpoint a day keeps its input states, one state
    matrix per scenario, and index and sparse data: the day's graph views,
    averaging operators, interactions and negatives. The caller holds the
    last day's new states."""
    import tracemalloc
    rng = np.random.default_rng(5)
    n_u, n_i = 300, 100
    users, items = rng.integers(0, n_u, 600), rng.integers(0, n_i, 600)
    days = np.sort(rng.integers(0, 10, 600))
    order = np.lexsort((items, users, days))
    store = EdgeStore(users[order], items[order], days[order], n_u, n_i)
    model = CpmrModel(n_u, n_i, day_unit=0.01, config=ModelConfig(d=32),
                      rng=np.random.default_rng(0))
    state_bytes = model.params["embed"].value.nbytes
    history, draws = InteractionHistory(n_u, n_i), np.random.default_rng(1)
    seg_days = [int(d) for d in np.unique(days)[-4:]]
    tracemalloc.start()
    try:
        with ad.Tape() as tape:
            states = model.init_states()      # the first day's input states
            losses = []
            for day in seg_days:
                loss, states = _train_day(model, store, states, day, history, 8, draws)
                losses.append(loss)
            kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    # each day's input states but the first day's, which are E itself, and
    # the last day's new states, plus ~0.5 a day (here 2.0 in all) of graph
    # views, averaging operators and negatives
    states_kept = 2 * len(seg_days)
    assert states_kept * state_bytes < kept < (states_kept + 0.75 * len(seg_days)) * state_bytes
    ad.backward(losses, tape, params=model.params.values())
