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
from cpmr.model import CpmrModel, ModelConfig
from cpmr.training import (InteractionHistory, TrainConfig, batch_loss,
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

    got = batch_loss(model, z, users, items, history, n_neg=2,
                     rng=np.random.default_rng(7)).value[0, 0]
    # replay the same negative draws, then average per-pair scalar losses
    rng = np.random.default_rng(7)
    losses = []
    draws = [sample_negatives(int(u), int(i), history, ds.n_users, ds.n_items,
                              2, rng) for u, i in zip(users, items)]

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
        batch_loss(model, z, [], [], InteractionHistory(1, 1), 2,
                   np.random.default_rng(0))


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
        def step(self, states, store, day_k):
            if day_k == 4:
                self.params["alpha_ctx"].value[0, 0] = np.nan
            return super().step(states, store, day_k)

    losses = []
    def recorded(*args):
        losses.append(batch_loss(*args))
        return losses[-1]
    monkeypatch.setattr(tr, "CpmrModel", NanGate)
    monkeypatch.setattr(tr, "batch_loss", recorded)
    with pytest.raises(NumericalError, match="non-finite his states at epoch 0 day 4"):
        train(ds, ModelConfig(**{**SMALL_MODEL, "s_days": 1}), quick_cfg(max_epochs=1))
    assert len(losses) == 5 and all(np.isfinite(l.value[0, 0]) for l in losses)


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


def recipe_days():
    """Eight days of a 6 x 6 log, one of them with a single interaction."""
    rng = np.random.default_rng(4)
    events = [RawEvent(f"u{rng.integers(6)}", f"i{rng.integers(6)}", day * SECONDS_PER_DAY)
              for day in range(8) for _ in range(1 if day == 2 else 4)]
    ds = canonicalize(events)
    return ds, EdgeStore.from_dataset(ds), [int(d) for d in np.unique(ds.days)]


def taped_days(ds, store, days, config, hold=None):
    """(model, loss, tape): taped ``step`` plus ``batch_loss`` over ``days``.

    ``hold(z, states)``, if given, sees each day's prediction block and new
    states before the forward drops them.
    """
    model = CpmrModel(ds.n_users, ds.n_items, ds.day_unit, config, rng=np.random.default_rng(0))
    history, draws = InteractionHistory(ds.n_users, ds.n_items), np.random.default_rng(1)
    with ad.Tape() as tape:
        states, total = model.init_states(), None
        for day in days:
            z, states = model.step(states, store, day)
            users, items = store.instant_edges(day)
            loss = batch_loss(model, z, users, items, history, 3, draws)
            total = loss if total is None else ad.add(total, loss)
            history.add_day(users, items)
            if hold:
                hold(z, states)
    return model, total, tape


@pytest.mark.parametrize("variant, substeps", [("full", 1), ("wo_ctx", 1), ("wo_his", 1),
                                               ("wo_fusion", 1), ("full", 3), ("wo_fusion", 3)],
                         ids=["full", "wo_ctx", "wo_his", "wo_fusion", "full-3-substeps",
                              "wo_fusion-3-substeps"])
def test_recipes_give_the_gradients_of_kept_copies(variant, substeps, monkeypatch):
    """Rebuilding gathers, their concatenations, sparse products, layers,
    gate weights, mixes, the instant update's rows, a day's states and its
    prediction block in the backward gives every gradient byte for byte as
    keeping the copies did, also on a clock of 3 Taylor sub-steps a day."""
    ds, store, days = recipe_days()
    days = days[:5]
    assert 1 in [len(store.instant_edges(d)[0]) for d in days]   # a one-interaction day
    time_scale = (substeps - 0.5) * 0.125 / ds.day_unit         # a one-day gap, tau_max 0.125
    config = ModelConfig(**SMALL_MODEL, variant=variant, time_scale=time_scale)
    assert math.ceil(ds.day_unit * time_scale / config.tau_max) == substeps

    def grads():
        model, total, tape = taped_days(ds, store, days, config)
        g = ad.backward(total, tape, params=model.params.values())
        return {name: g[v] for name, v in model.params.items()}

    got = grads()
    monkeypatch.setattr(ad, "_keep", lambda v: v)      # keep the Var, as before recipes
    want = grads()
    assert got.keys() == want.keys()
    for name in want:
        assert got[name].tobytes() == want[name].tobytes(), name


def _captured(keeper):
    """What a rule (its defaults and closure cells) or a recipe (its sources) keeps."""
    if isinstance(keeper, ad._Recipe):
        return keeper.args
    return (*(keeper.__defaults__ or ()), *(c.cell_contents for c in keeper.__closure__ or ()))


def test_the_instant_updates_rules_and_recipes_keep_no_float_array(monkeypatch):
    """After a taped full-model ``step`` the rules of ``update_instant`` and
    the recipes it makes keep recipes, parameters, index arrays, relu masks
    and sparse operators, and no float array: the selected rows, the partner
    means, the replacement rows and the new states are rebuilt in the
    backward. The walk reads no recipe's ``.value``."""
    ds, store, days = recipe_days()
    model = CpmrModel(ds.n_users, ds.n_items, ds.day_unit, ModelConfig(**SMALL_MODEL),
                      rng=np.random.default_rng(0))
    rebuildable, update = ad._rebuildable, CpmrModel.update_instant
    made, spans = [], []

    def recording(*args, **kw):
        out = rebuildable(*args, **kw)
        if len(spans) % 2 and hasattr(out, "_recipe"):      # inside update_instant
            made.append(out._recipe)
        return out

    def watched(self, *args):
        spans.append(len(ad._ACTIVE_TAPE.nodes))
        out = update(self, *args)
        spans.append(len(ad._ACTIVE_TAPE.nodes))
        return out

    monkeypatch.setattr(ad, "_rebuildable", recording)
    monkeypatch.setattr(CpmrModel, "update_instant", watched)
    with ad.Tape() as tape:
        model.step(model.init_states(), store, days[1])
    assert len(spans) == 2 * 2 and made
    held = [x for r in made for x in _captured(r)]
    for start, stop in zip(spans[::2], spans[1::2]):
        held += [x for _, (_, rule) in tape.nodes[start:stop] for x in _captured(rule)]
    params = {id(p) for p in model.params.values()}
    kinds = {type(x).__name__ for x in held}
    assert {"_Recipe", "Var", "ndarray", "csr_matrix"} <= kinds, kinds
    assert all(id(x) in params for x in held if isinstance(x, ad.Var))
    assert all(x.dtype.kind in "ib" for x in held if isinstance(x, np.ndarray))
    assert any(x.dtype.kind == "b" for x in held if isinstance(x, np.ndarray))


def test_backward_builds_each_shared_expert_once(monkeypatch):
    """In the backward of two taped full-model days of ``step`` plus
    ``batch_loss`` each class's shared expert is rebuilt by one GEMM a day,
    not once per task mix that reads it: the first day's his, ctx and final
    mixes all get gradients."""
    ds, store, days = recipe_days()
    affine, built = ad._affine, []
    monkeypatch.setattr(ad, "_affine", lambda x, w, b: built.append(w) or affine(x, w, b))
    model, loss, tape = taped_days(ds, store, days[1:3], ModelConfig(**SMALL_MODEL))
    built.clear()
    ad.backward(loss, tape, params=model.params.values())
    for cls in ("user", "item"):
        shared = model.params[f"fusion.{cls}.expert_shared.w"].value
        assert sum(w is shared for w in built) == 2


def test_no_recipe_holds_a_value_once_backward_returns(monkeypatch):
    """Recipe values are cached between their readers in ``backward``, and
    the ones whose last readers never ran (the last day's shared experts:
    no loss reads that day's his and ctx mixes) are dropped when it returns."""
    ds, store, days = recipe_days()
    model, loss, tape = taped_days(ds, store, days[1:3], ModelConfig(**SMALL_MODEL))
    value, cached = ad._Recipe.value, []
    monkeypatch.setattr(ad._Recipe, "value",
                        property(lambda r: cached.append(len(tape.built)) or value.fget(r)))
    ad.backward(loss, tape, params=model.params.values())
    assert max(cached) > 0 and tape.built == {}


@pytest.mark.parametrize("variant", ["full", "wo_ctx", "wo_his"])
def test_a_days_states_and_prediction_block_die_under_a_tape(variant):
    """The rules that read a day's new states (the next day's graph flows)
    and its prediction block z (the loss's gathers) keep recipes, so the
    arrays die once the forward code drops them."""
    ds, store, days = recipe_days()
    refs = []

    def hold(z, states):
        refs.extend(weakref.ref(x.value) for x in (z, *states.x.values()))

    config = ModelConfig(**SMALL_MODEL, variant=variant)
    model, loss, tape = taped_days(ds, store, days[1:4], config, hold=hold)
    assert len(refs) == 3 * (1 + len(model.config.scenarios))
    assert [r() for r in refs] == [None] * len(refs)
    grads = ad.backward(loss, tape, params=model.params.values())
    assert all(np.isfinite(g).all() for g in grads.values())


def test_a_segments_gradients_are_freed_before_the_next_segment(monkeypatch):
    """The gradients of a segment, parameter-sized and those of its starting
    states, are dead when the next segment's first ``step`` runs."""
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


def test_taped_step_and_loss_keep_only_what_backward_reads():
    """Live bytes of one taped ``step`` plus ``batch_loss``, in state-matrix
    sizes: ~79 when the tape held every op's output, ~39.5 once it held
    handles and each rule kept only what it reads, ~27.4 once the graph
    flow kept one array per sub-step in place of its Horner iterates, ~16.6
    since rules keep recipes for gathers, their concatenations and sparse
    products in place of the copies (~16.2 with whole-layer fusion ops),
    ~9.4 since they keep recipes for dense layers' outputs too: the fusion
    experts and the per-draw representations, rebuilt by one GEMM; ~7.9
    since the instant update keeps only the day's involved rows, not the
    fused n x d blocks its sparse products read. Those figures count z and
    the new states, which the caller holds (~8.2 now: the new states'
    recipes keep the replacement rows). Once the caller drops them: ~5.9,
    as the gathers' recipes pinned z; ~4.6 since z, the states and the
    fusion mixes are recipes, and the tape keeps of the day the two fusion
    inputs (2 state matrices), the involved rows and the graph operators;
    ~3.4 (~6.5 held) since the instant update's selected rows, partner means
    and replacement rows and the softmax gate weights are recipes too, so the
    tape keeps of the day the two fusion inputs, index arrays, relu masks and
    the graph operators."""
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
    states = model.init_states()
    day = int(days[-1])
    u, i = store.instant_edges(day)
    tracemalloc.start()
    try:
        with ad.Tape() as tape:
            z, new = model.step(states, store, day)
            loss = batch_loss(model, z, u, i, InteractionHistory(n_u, n_i), 8,
                              np.random.default_rng(1))
            held = tracemalloc.get_traced_memory()[0]
            del z, new
            kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held < 7 * state_bytes
    assert kept < 4 * state_bytes
    ad.backward(loss, tape, params=model.params.values())
