import dataclasses

import numpy as np
import pytest

from cpmr import autodiff as ad
from cpmr.data import RawEvent, SECONDS_PER_DAY, canonicalize
from cpmr.errors import ConfigError, DataError, NumericalError
from cpmr.evaluation import (MetricsReport, RankRecord, incremental_eval,
                             mrr, rank_from_scores, recall_at_k,
                             sweep, sweep_rows_to_csv, synthetic_trend_dataset,
                             validation_mrr)
from cpmr.graphs import EdgeStore
from cpmr.model import CpmrModel, ModelConfig
from cpmr.training import TrainConfig, train


def test_rank_no_ties_matches_sort_oracle():
    rng = np.random.default_rng(0)
    for _ in range(200):
        scores = rng.normal(size=30)            # continuous: ties impossible
        target = int(rng.integers(30))
        order = np.argsort(-scores)
        want = int(np.where(order == target)[0][0]) + 1
        assert rank_from_scores(scores, target) == want


def test_rank_tie_rules():
    # all equal: average rank of 1..5 rounded up -> 3
    assert rank_from_scores(np.ones(5), 2) == 3
    # target ties with one other behind two higher: avg(3,4)=3.5 -> 4
    assert rank_from_scores(np.array([9.0, 8.0, 5.0, 5.0]), 2) == 4
    # four-way tie at the top: avg(1..4)=2.5 -> 3
    assert rank_from_scores(np.array([7.0, 7.0, 7.0, 7.0, 1.0]), 0) == 3
    assert rank_from_scores(np.array([3.0, 2.0]), 0) == 1


def test_rank_rejects_nan_and_plus_inf_but_not_minus_inf():
    # a NaN target used to rank first: no comparison with NaN is True
    for scores, target in [([np.nan, 1.0], 0), ([2.0, np.nan], 0), ([np.inf, 1.0], 1)]:
        with pytest.raises(NumericalError, match="non-finite item scores"):
            rank_from_scores(np.array(scores), target)
    assert rank_from_scores(np.array([-np.inf, 1.0, 3.0]), 1) == 2   # a left-out item


def test_batched_ranks_equal_the_ranks_of_each_row():
    """A (b x n) matrix and b targets give the b ranks that b calls on its
    rows give, with exact ties and -inf left-out items; a row with NaN or
    +inf raises, naming the first such row."""
    rng = np.random.default_rng(7)
    scores = rng.integers(0, 4, size=(40, 9)).astype(float)     # many exact ties
    scores[rng.random(scores.shape) < 0.2] = -np.inf
    targets = rng.integers(0, 9, size=40)
    scores[np.arange(40), targets] = rng.integers(0, 4, size=40)
    got = rank_from_scores(scores, targets)
    assert got.tolist() == [rank_from_scores(row, int(t)) for row, t in zip(scores, targets)]
    assert rank_from_scores(scores[:1], targets[:1]).tolist() == [got[0]]
    for bad in (np.nan, np.inf):
        poisoned = scores.copy()
        poisoned[[3, 17], [5, 0]] = bad
        with pytest.raises(NumericalError, match="non-finite item scores in row 3;"):
            rank_from_scores(poisoned, targets)


def recs(ranks):
    return [RankRecord(0, 0, 0, r) for r in ranks]


def test_metric_arithmetic():
    r = recs([1, 4, 10])
    assert mrr(r) == pytest.approx((1 + 0.25 + 0.1) / 3)
    assert recall_at_k(r, 10) == 1.0
    assert recall_at_k(recs([1, 11]), 10) == 0.5
    assert recall_at_k(recs([10]), 10) == 1.0    # boundary inclusive


def test_metrics_reject_empty():
    with pytest.raises(DataError):
        mrr([])
    with pytest.raises(DataError):
        recall_at_k([])


def test_random_scores_match_permutation_null():
    """Uniform random scores give E[MRR] = H_n / n within Monte Carlo noise."""
    n = 50
    rng = np.random.default_rng(1)
    rr = [1.0 / rank_from_scores(rng.normal(size=n), int(rng.integers(n)))
          for _ in range(4000)]
    expect = np.sum(1.0 / np.arange(1, n + 1)) / n
    assert np.mean(rr) == pytest.approx(expect, abs=4 * np.std(rr) / np.sqrt(len(rr)))


def eval_dataset(seed=0, n_users=6, n_items=7, n_days=14, per_day=4):
    rng = np.random.default_rng(seed)
    events = []
    for day in range(n_days):
        for _ in range(per_day):
            events.append(RawEvent(f"u{rng.integers(n_users)}",
                                   f"i{rng.integers(n_items)}",
                                   day * SECONDS_PER_DAY))
    return canonicalize(events)


def fresh_model(ds, **kw):
    cfg = ModelConfig(d=4, s_days=3, taylor_order=3, **kw)
    return CpmrModel(ds.n_users, ds.n_items, ds.day_unit, cfg,
                     rng=np.random.default_rng(0))


def _manual_ranks(ds, model, filtered):
    """Step through every day from 0, rank each test event just before its
    day's interactions are applied; ``filtered`` leaves the user's items of
    earlier days other than the target out of the ranking."""
    store = EdgeStore.from_dataset(ds)
    test_days = set(np.unique(ds.days[ds.split_slice("test")]).tolist())
    states = model.init_states()
    ranks = []
    for day in np.unique(ds.days).tolist():
        z, states = model.step(states, store, int(day))
        if day in test_days:
            users, items = store.instant_edges(int(day))
            for u, i in zip(users, items):
                scores = (model.item_repr(z, np.arange(model.n_items)).value
                          @ model.user_repr(z, [int(u)]).value[0])
                if filtered:
                    seen = set(ds.item_ids[(ds.user_ids == u) & (ds.days < day)]) - {i}
                    scores[list(seen)] = -np.inf
                ranks.append(rank_from_scores(scores, int(i)))
    return ranks


def test_incremental_eval_matches_manual_replay():
    ds = eval_dataset(seed=4, n_items=12, n_days=30)   # 3 test days, which add to the filter
    model = fresh_model(ds)
    plain, filtered = _manual_ranks(ds, model, False), _manual_ranks(ds, model, True)
    assert plain != filtered                    # the filter moves some ranks here
    for flag, records in ((False, plain), (True, filtered)):
        report = incremental_eval(ds, model, split="test", filter_interacted=flag)
        assert report.n_events == len(records)
        assert report.mrr == pytest.approx(np.mean([1 / r for r in records]), abs=1e-12)
        assert report.recall_at_10 == pytest.approx(
            np.mean([r <= 10 for r in records]), abs=1e-12)


def test_incremental_eval_ranks_items_of_identical_representation_as_the_manual_replay():
    """Item "twin" meets the same users on the same days as item "i0" and
    starts from the same embedding, so the two have one representation and
    tie exactly in every score. A scored day ranks its events in one score
    product; its ranks, ties included, are the per-event ranks of
    ``_manual_ranks``, with the filter off and on."""
    rng = np.random.default_rng(6)
    events = [RawEvent("u0", "i0", 0), RawEvent("u0", "twin", 0)]    # item ids 0 and 1
    for day in range(1, 30):
        for _ in range(4):
            u, i = f"u{rng.integers(6)}", f"i{rng.integers(6)}"
            events.append(RawEvent(u, i, day * SECONDS_PER_DAY))
            if i == "i0":
                events.append(RawEvent(u, "twin", day * SECONDS_PER_DAY))
    ds = canonicalize(events)
    model = fresh_model(ds)
    i0, twin = 0, 1
    embed = model.params["embed"].value
    embed[ds.n_users + twin] = embed[ds.n_users + i0]
    test_items = ds.item_ids[ds.split_slice("test")]
    assert {i0, twin} <= set(test_items.tolist())
    store, states = EdgeStore.from_dataset(ds), model.init_states()
    for day in np.unique(ds.days[:ds.split[1]]).tolist():
        _, states = model.step(states, store, int(day), predict=False)
    z, _ = model.step(states, store, int(ds.days[ds.split[1]]))
    q = model.item_repr(z, [i0, twin]).value
    assert q[0].tobytes() == q[1].tobytes()
    for flag in (False, True):
        want = _manual_ranks(ds, model, flag)
        report = incremental_eval(ds, model, split="test", filter_interacted=flag)
        assert report.n_events == len(want)
        assert report.mrr == np.mean([1 / r for r in want])
        assert report.recall_at_10 == np.mean([r <= 10 for r in want])


def test_incremental_eval_builds_the_prediction_task_on_scored_days_only(monkeypatch):
    """Each replayed day fuses once; only a scored day's fusion has the
    ``final`` task, a third output beside his and ctx."""
    ds = eval_dataset()
    model = fresh_model(ds)
    fusion, tasks = ad.gated_fusion, []

    def counted(parts, n_users, layers):
        outs = fusion(parts, n_users, layers)
        tasks.append(len(outs))
        return outs

    monkeypatch.setattr(ad, "gated_fusion", counted)
    incremental_eval(ds, model, split="test")
    scored = len(np.unique(ds.days[ds.split_slice("test")]))
    assert len(tasks) > scored > 0
    assert tasks.count(3) == scored and tasks.count(2) == len(tasks) - scored


def test_incremental_eval_no_grad_and_frozen_params():
    ds = eval_dataset()
    model = fresh_model(ds)
    before = {k: v.value.copy() for k, v in model.params.items()}
    incremental_eval(ds, model, split="val")
    for k, v in model.params.items():
        np.testing.assert_array_equal(v.value, before[k])


def test_incremental_eval_deterministic():
    ds = eval_dataset()
    model = fresh_model(ds)
    a = incremental_eval(ds, model, split="test")
    b = incremental_eval(ds, model, split="test")
    assert a.mrr == b.mrr and a.recall_at_10 == b.recall_at_10


def test_filter_interacted_never_hurts_on_repeats():
    # heavy repetition: filtering seen items can only improve the rank
    rng = np.random.default_rng(5)
    events = []
    for day in range(14):
        for u in range(5):
            events.append(RawEvent(f"u{u}", f"i{rng.integers(3)}",
                                   day * SECONDS_PER_DAY))
    ds = canonicalize(events)
    model = fresh_model(ds)
    plain = incremental_eval(ds, model, split="test")
    filt = incremental_eval(ds, model, split="test", filter_interacted=True)
    assert filt.mrr >= plain.mrr - 1e-12
    assert filt.config["filter_interacted"] is True


def test_sweep_over_variants_and_int_params():
    ds = eval_dataset()
    mcfg, tcfg = ModelConfig(d=4, s_days=3, taylor_order=3), TrainConfig(n_tbptt=4, max_epochs=1)
    rows = sweep(ds, "variant", ["wo_fusion", "full"], mcfg, tcfg)
    assert [r["variant"] for r in rows] == ["wo_fusion", "full"]
    model, _ = train(ds, ModelConfig(d=4, s_days=3, taylor_order=3, variant="wo_fusion"), tcfg)
    assert rows[0]["mrr"] == incremental_eval(ds, model).mrr
    assert sweep(ds, "s_days", ["2"], mcfg, tcfg)[0]["s_days"] == 2
    rows = sweep(ds, "seed", ["3", 1], mcfg, tcfg)
    for row, seed in zip(rows, (3, 1), strict=True):
        model, _ = train(ds, mcfg, dataclasses.replace(tcfg, seed=seed))
        report = incremental_eval(ds, model, seed=seed)
        assert row == {"seed": seed, "mrr": report.mrr, "recall_at_10": report.recall_at_10}
    with pytest.raises(ConfigError, match="variant"):
        sweep(ds, "variant", ["wo_both"], mcfg, tcfg)
    with pytest.raises(ConfigError, match="cannot sweep 'd'"):
        sweep(ds, "d", [4], mcfg, tcfg)


def test_sweep_forwards_the_filter():
    """A one-value sweep with ``filter_interacted`` gives the report of a
    filtered ``incremental_eval`` of the model it trains."""
    ds = eval_dataset(seed=4, n_items=12, n_days=30)
    mcfg, tcfg = ModelConfig(d=4, s_days=3, taylor_order=3), TrainConfig(n_tbptt=4, max_epochs=1)
    model, _ = train(ds, mcfg, tcfg)
    plain, filtered = (incremental_eval(ds, model, filter_interacted=f) for f in (False, True))
    assert plain.mrr != filtered.mrr
    row, = sweep(ds, "seed", [0], mcfg, tcfg, filter_interacted=True)
    assert row == {"seed": 0, "mrr": filtered.mrr, "recall_at_10": filtered.recall_at_10}


def test_sweep_rejects_an_empty_value_list():
    """The library path checks it: a sweep of nothing gave no rows, on which
    ``sweep_rows_to_csv`` died with an IndexError."""
    mcfg, tcfg = ModelConfig(d=4, s_days=3, taylor_order=3), TrainConfig(n_tbptt=4, max_epochs=1)
    for param in ("s_days", "variant"):
        with pytest.raises(ConfigError, match="empty sweep value list"):
            sweep(eval_dataset(), param, [], mcfg, tcfg)


def test_eval_unknown_split():
    ds = eval_dataset()
    with pytest.raises((ConfigError, DataError, KeyError)):
        incremental_eval(ds, fresh_model(ds), split="holdout")


def test_validation_mrr_continues_from_states():
    ds = eval_dataset()
    model = fresh_model(ds)
    store = EdgeStore.from_dataset(ds)
    i_val, _ = ds.split
    states = model.init_states()
    for day in np.unique(ds.days[:i_val]).tolist():
        _, states = model.step(states, store, int(day))
    got = validation_mrr(model, states, ds)
    want = incremental_eval(ds, model, split="val").mrr
    assert got == pytest.approx(want, abs=1e-12)


def test_incremental_eval_rejects_non_finite_scores():
    """A NaN target score used to rank first: test MRR 0.124 read 1.0."""
    ds = synthetic_trend_dataset(np.random.default_rng(0), n_days=30)
    model = CpmrModel(ds.n_users, ds.n_items, ds.day_unit, ModelConfig(d=8),
                      rng=np.random.default_rng(0))
    assert incremental_eval(ds, model).mrr < 0.2
    model.params["embed"].value[0, 0] = np.nan
    with pytest.raises(NumericalError, match=r"day \d+, user \d+: non-finite item scores"):
        incremental_eval(ds, model)


def test_incremental_eval_rejects_scores_that_overflow_to_minus_inf():
    """A raw score of -inf used to pass as an item left out of the ranking:
    with zero head weights, user biases of +1e200 and item biases of -1e200
    every score overflows to -inf, and the test split read MRR 0.0714, the
    filter off or on."""
    ds = synthetic_trend_dataset(np.random.default_rng(0), 20)
    model = CpmrModel(ds.n_users, ds.n_items, ds.day_unit, ModelConfig(d=8),
                      rng=np.random.default_rng(0))
    for cls, bias in (("user", 1e200), ("item", -1e200)):
        model.params[f"predict.fc_{cls}.w"].value[:] = 0.0
        model.params[f"predict.fc_{cls}.b"].value[:] = bias
    for filtered in (False, True):
        with np.errstate(over="ignore"), pytest.raises(
                NumericalError, match=r"day 18, user \d+: non-finite item scores"):
            incremental_eval(ds, model, filter_interacted=filtered)


def test_training_validation_rejects_non_finite_scores(monkeypatch):
    ds = synthetic_trend_dataset(np.random.default_rng(0), n_days=30)
    item_repr = CpmrModel.item_repr

    def nan_in_a_ranking(self, z, idx):
        out = item_repr(self, z, idx)
        if np.array_equal(idx, np.arange(self.n_items)):   # every item: the validation replay
            out.value[0, 0] = np.nan
        return out

    monkeypatch.setattr(CpmrModel, "item_repr", nan_in_a_ranking)
    with pytest.raises(NumericalError, match="non-finite item scores"):
        train(ds, ModelConfig(d=8), TrainConfig(n_tbptt=10, max_epochs=1))


def test_report_to_dict_and_csv(tmp_path):
    rows = [{"s_days": 5, "mrr": 0.25, "recall_at_10": 0.5},
            {"s_days": 10, "mrr": 1 / 3, "recall_at_10": 0.75}]
    path = tmp_path / "sweep.csv"
    sweep_rows_to_csv(rows, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "s_days,mrr,recall_at_10"
    back = [l.split(",") for l in lines[1:]]
    assert float(back[1][1]) == 1 / 3               # repr round-trips exactly
    rep = MetricsReport(0.1, 0.2, 3, 0, {"split": "test"})
    d = rep.to_dict()
    assert d["mrr"] == 0.1 and d["config"]["split"] == "test"


def test_synthetic_trend_dataset_structure():
    ds = synthetic_trend_dataset(np.random.default_rng(0))
    assert ds.n_users > 10 and ds.n_items > 10
    assert len(ds.days) > 200
    i_val, i_test = ds.split
    assert 0 < i_val < i_test < len(ds.days)
    # deterministic for a fixed generator seed
    ds2 = synthetic_trend_dataset(np.random.default_rng(0))
    np.testing.assert_array_equal(ds.user_ids, ds2.user_ids)
    np.testing.assert_array_equal(ds.days, ds2.days)


def test_synthetic_trend_dataset_validates():
    with pytest.raises(ConfigError):
        synthetic_trend_dataset(np.random.default_rng(0), n_days=0)


@pytest.mark.parametrize("seed, n_days", [(3, 7), (3, 15), (0, 16)])
def test_synthetic_trend_dataset_too_short_for_the_filter_names_n_days(seed, n_days):
    """A log too short for any user and item to keep 5 interactions is a
    config error naming ``n_days`` and the filter, not an empty-list error
    from deep inside ``canonicalize``. At both seeds 17 days give a dataset."""
    with pytest.raises(ConfigError, match=f"n_days={n_days} is too short: the 5-core filter"):
        synthetic_trend_dataset(np.random.default_rng(seed), n_days=n_days)
    assert len(synthetic_trend_dataset(np.random.default_rng(seed), n_days=17).days) > 0
