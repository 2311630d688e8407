import numpy as np
import pytest
import scipy.sparse as sp

import cpmr.graphs
import cpmr.model
from cpmr.data import SECONDS_PER_DAY, RawEvent, canonicalize
from cpmr.errors import ConfigError, ShapeError
from cpmr.evaluation import incremental_eval, validation_mrr
from cpmr.graphs import EdgeStore, averaging_operators, normalize_adjacency
from cpmr.model import ModelConfig
from cpmr.training import TrainConfig, train


def make_store(rng, n_edges=50, n_users=8, n_items=6, n_days=10):
    days = np.sort(rng.integers(0, n_days, size=n_edges))
    users = rng.integers(0, n_users, size=n_edges)
    items = rng.integers(0, n_items, size=n_edges)
    return EdgeStore(users, items, days, n_users, n_items), users, items, days


def rescan_pairs(users, items, days, lo, hi):
    mask = (days >= lo) & (days < hi)
    return set(zip(users[mask].tolist(), items[mask].tolist()))


def biadj_pairs(mat):
    coo = mat.tocoo()
    return set(zip(coo.row.tolist(), coo.col.tolist()))


def test_instant_edges_direct_filter():
    store = EdgeStore([0, 1, 2], [0, 1, 0], [1, 1, 2], 3, 2)
    u, i = store.instant_edges(1)
    assert len(u) == 2
    assert store.instant_edges(3)[0].size == 0


def test_instant_matches_scan_oracle():
    rng = np.random.default_rng(0)
    store, users, items, days = make_store(rng)
    for day in range(11):
        u, i = store.instant_edges(day)
        mask = days == day
        assert sorted(zip(u, i)) == sorted(zip(users[mask], items[mask]))


def test_history_day_zero_empty():
    rng = np.random.default_rng(1)
    store, *_ = make_store(rng)
    assert store.history_biadjacency(0).nnz == 0


def test_history_deduplicates():
    store = EdgeStore([0, 0], [1, 1], [1, 2], 2, 3)
    b = store.history_biadjacency(5)
    assert b[0, 1] == 1.0 and b.nnz == 1


def test_history_matches_rescan_oracle():
    rng = np.random.default_rng(2)
    store, users, items, days = make_store(rng)
    for day in range(12):
        assert biadj_pairs(store.history_biadjacency(day)) == \
            rescan_pairs(users, items, days, -1, day)


def test_context_subsumes_history_for_large_window():
    rng = np.random.default_rng(3)
    store, users, items, days = make_store(rng)
    for day in range(12):
        big = store.context_biadjacency(day, 1000)
        assert biadj_pairs(big) == biadj_pairs(store.history_biadjacency(day))


def test_context_unit_window_is_previous_day():
    rng = np.random.default_rng(4)
    store, users, items, days = make_store(rng)
    for day in range(1, 11):
        got = biadj_pairs(store.context_biadjacency(day, 1))
        assert got == rescan_pairs(users, items, days, day - 1, day)


def test_context_fifo_rescan_oracle():
    rng = np.random.default_rng(5)
    store, users, items, days = make_store(rng, n_edges=120, n_days=20)
    s = 4
    prev = None
    for day in range(25):
        got = biadj_pairs(store.context_biadjacency(day, s))
        expect = rescan_pairs(users, items, days, day - s, day)
        assert got == expect
        assert got <= biadj_pairs(store.history_biadjacency(day))
        if prev is not None:
            entering = rescan_pairs(users, items, days, day - 1, day)
            leaving = rescan_pairs(users, items, days, day - 1 - s, day - s)
            # FIFO: only the boundary days can differ
            assert got - prev <= entering
            assert prev - got <= leaving
        prev = got


def test_history_monotone():
    rng = np.random.default_rng(6)
    store, *_ = make_store(rng)
    prev = set()
    for day in range(12):
        cur = biadj_pairs(store.history_biadjacency(day))
        assert prev <= cur
        prev = cur


def test_normalize_single_edge():
    b = sp.csr_matrix(np.array([[1.0]]))
    nadj = normalize_adjacency(b).toarray()
    np.testing.assert_allclose(nadj, [[0.49, 0.49], [0.49, 0.49]], atol=1e-15)
    w = np.linalg.eigvalsh(nadj)
    np.testing.assert_allclose(sorted(w), [0.0, 0.98], atol=1e-12)


def test_normalize_empty_graph():
    b = sp.csr_matrix((3, 2))
    nadj = normalize_adjacency(b).toarray()
    np.testing.assert_allclose(nadj, 0.49 * np.eye(5), atol=1e-16)


def _power_iteration(mat, iters=500):
    rng = np.random.default_rng(0)
    v = rng.standard_normal(mat.shape[0])
    for _ in range(iters):
        v = mat @ v
        v /= np.linalg.norm(v)
    return float(v @ (mat @ v))


def test_spectral_bound_random_graphs():
    for trial in range(50):
        rng = np.random.default_rng(trial)
        b = sp.random(10, 8, density=rng.uniform(0.05, 0.6),
                      random_state=np.random.RandomState(trial), format="csr")
        b.data[:] = 1.0
        nadj = normalize_adjacency(b)
        assert _power_iteration(nadj) <= 0.98 + 1e-9
        # exact symmetry, same arithmetic on both triangles
        assert (nadj != nadj.T).nnz == 0
        assert np.allclose(nadj.diagonal(), 0.49)


def learnable_adjacency(nadj, alpha):
    """The gated adjacency ``graph_flow`` applies: column j of N scaled by sigmoid(alpha[j])."""
    alpha = np.asarray(alpha, dtype=np.float64).reshape(-1)
    if alpha.shape[0] != nadj.shape[0]:
        raise ShapeError(f"alpha length {alpha.shape[0]} vs {nadj.shape[0]} nodes")
    return (nadj @ sp.diags(1.0 / (1.0 + np.exp(-alpha)))).tocsr()


def test_learnable_adjacency_alpha_zero_halves():
    b = sp.csr_matrix(np.array([[1.0]]))
    nadj = normalize_adjacency(b)
    a = learnable_adjacency(nadj, np.zeros(2)).toarray()
    np.testing.assert_allclose(a, 0.5 * nadj.toarray(), atol=1e-15)


def test_learnable_adjacency_column_kill():
    b = sp.csr_matrix(np.array([[1.0]]))
    nadj = normalize_adjacency(b)
    alpha = np.array([0.0, -60.0])
    a = learnable_adjacency(nadj, alpha).toarray()
    assert np.all(np.abs(a[:, 1]) < 1e-20)        # item column vanishes
    assert a[0, 0] > 0.2                          # user column intact


def test_learnable_adjacency_hand_computed():
    b = sp.csr_matrix(np.array([[1.0]]))
    nadj = normalize_adjacency(b).toarray()
    alpha = np.array([0.3, -1.1])
    s = 1.0 / (1.0 + np.exp(-alpha))
    got = learnable_adjacency(sp.csr_matrix(nadj), alpha).toarray()
    np.testing.assert_allclose(got, nadj * s[None, :], atol=1e-15)


def test_learnable_adjacency_singular_values_below_one():
    rng = np.random.default_rng(7)
    b = sp.random(10, 8, density=0.4, random_state=np.random.RandomState(7),
                  format="csr")
    b.data[:] = 1.0
    a = learnable_adjacency(normalize_adjacency(b), rng.normal(0, 3, 18))
    assert np.linalg.svd(a.toarray(), compute_uv=False).max() < 1.0


def test_learnable_adjacency_dimension_mismatch():
    b = sp.csr_matrix(np.array([[1.0]]))
    with pytest.raises(ShapeError):
        learnable_adjacency(normalize_adjacency(b), np.zeros(3))


# -- byte equality with the COO constructions the CSR builders replaced -------

def reference_biadjacency(u, i, n_users, n_items):
    mat = sp.coo_matrix((np.ones(len(u)), (u, i)), shape=(n_users, n_items)).tocsr()
    mat.sum_duplicates()
    mat.data[:] = 1.0
    return mat


def reference_history(store, day):
    mask = store.days < day
    return reference_biadjacency(store.users[mask], store.items[mask],
                                 store.n_users, store.n_items)


def reference_context(store, day, s_days):
    mask = (store.days >= day - s_days) & (store.days < day)
    return reference_biadjacency(store.users[mask], store.items[mask],
                                 store.n_users, store.n_items)


def reference_instant(store, day):
    u, i = store.instant_edges(day)
    return reference_biadjacency(u, i, store.n_users, store.n_items)


def reference_normalize(biadj, alpha0=0.98):
    n_u, n_i = biadj.shape
    n = n_u + n_i
    coo = biadj.tocoo()
    rows = np.concatenate([coo.row, coo.col + n_u])
    cols = np.concatenate([coo.col + n_u, coo.row])
    vals = np.concatenate([coo.data, coo.data])
    deg = np.zeros(n)
    np.add.at(deg, rows, vals)
    dinv_sqrt = np.zeros(n)
    nz = deg > 0
    dinv_sqrt[nz] = 1.0 / np.sqrt(deg[nz])
    scaled = (alpha0 / 2.0) * (dinv_sqrt[rows] * dinv_sqrt[cols]) * vals
    off = sp.coo_matrix((scaled, (rows, cols)), shape=(n, n))
    eye = sp.identity(n, format="coo") * (alpha0 / 2.0)
    return (off + eye).tocsr()


def reference_averaging(b_ins):
    """The instant operators of ``averaging_operators`` through COO constructions:
    per class the involved ids and the averaging operator over the involved
    rows and columns, columns ranked among the involved nodes of the other
    class."""
    coo = b_ins.tocoo()
    users, u_rank = np.unique(coo.row, return_inverse=True)
    items, i_rank = np.unique(coo.col, return_inverse=True)
    compact = sp.coo_matrix((coo.data, (u_rank, i_rank)),
                            shape=(len(users), len(items))).tocsr()
    out = []
    for ids, b in ((users, compact), (items, compact.T)):
        dinv = 1.0 / np.asarray(b.sum(axis=1)).reshape(-1)
        out.append((ids, (sp.diags(dinv) @ b).tocsr()))
    return tuple(out)


def operators_bytes(ops):
    """Per class: the involved ids, then the bytes of its averaging operator."""
    return [(ids.tolist(), csr_bytes(avg)) for ids, avg in ops]


def csr_bytes(mat):
    assert mat.format == "csr"
    return (mat.shape, mat.indptr.dtype.str, mat.indptr.tobytes(),
            mat.indices.dtype.str, mat.indices.tobytes(), mat.data.dtype.str, mat.data.tobytes())


def random_log(seed):
    """A day-sorted log with repeated pairs, empty days, isolated users and items."""
    rng = np.random.default_rng(seed)
    n_users, n_items = int(rng.integers(1, 12)), int(rng.integers(1, 10))
    n_edges = int(rng.integers(0, 80))
    days = np.sort(rng.choice(np.arange(0, 40, 3), size=n_edges))   # gaps: empty days
    # the last user and item never interact
    users = rng.integers(0, max(1, n_users - 1), size=n_edges)
    items = rng.integers(0, max(1, n_items - 1), size=n_edges)
    return EdgeStore(users, items, days, n_users, n_items)


@pytest.mark.parametrize("seed", range(40))
def test_views_are_the_coo_constructions_byte_for_byte(seed):
    store = random_log(seed)
    for day in range(-1, 44):
        assert csr_bytes(store.history_biadjacency(day)) == \
            csr_bytes(reference_history(store, day))
        assert csr_bytes(store.instant_biadjacency(day)) == \
            csr_bytes(reference_instant(store, day))
        for s in (1, 3, 7, 100):
            assert csr_bytes(store.context_biadjacency(day, s)) == \
                csr_bytes(reference_context(store, day, s))


def edge_views():
    """Views at the edges of the item order the normalization takes from
    scipy's transpose kernel, each with int32 and with int64 index arrays: an
    empty one; users without items interleaved with items without users; one
    user with every item and one item with every user; a random history view."""
    views = [((), (), (6, 5)),
             ((0, 0, 2, 4, 4, 2), (1, 5, 3, 3, 1, 5), (6, 6)),
             ((2, 2, 2, 2, 0, 1, 2, 3, 4), (0, 1, 2, 3, 1, 1, 1, 1, 1), (5, 4))]
    history = random_log(7).history_biadjacency(40)
    out = [reference_biadjacency(np.array(u, dtype=np.int64), np.array(i, dtype=np.int64), *shape)
           for u, i, shape in views] + [history]
    for b in list(out):
        wide = b.copy()
        wide.indices, wide.indptr = b.indices.astype(np.int64), b.indptr.astype(np.int64)
        assert wide.has_canonical_format and wide.indices.dtype == np.int64
        out.append(wide)
    return out


@pytest.mark.parametrize("seed", range(40))
def test_operators_are_the_coo_constructions_byte_for_byte(seed):
    store = random_log(seed)
    rng = np.random.default_rng(1000 + seed)
    alpha0 = float(rng.uniform(0.1, 0.99))
    mats = [store.history_biadjacency(day) for day in range(0, 44, 5)]
    mats += [store.instant_biadjacency(day) for day in range(0, 44, 3)]
    mats += [sp.csr_matrix((0, 0)), sp.csr_matrix((3, 0)), sp.csr_matrix((0, 4)),
             sp.csr_matrix((5, 4)), *edge_views()]
    for b in mats:
        assert csr_bytes(normalize_adjacency(b, alpha0)) == \
            csr_bytes(reference_normalize(b, alpha0))
        assert operators_bytes(averaging_operators(b)) == operators_bytes(reference_averaging(b))


def columns_ascend(mat, strictly):
    """Whether every row of a CSR matrix stores its columns in ascending order."""
    step = np.diff(mat.indices.astype(np.int64))
    same_row = np.diff(np.repeat(np.arange(mat.shape[0]), np.diff(mat.indptr))) == 0
    return bool(np.all(step[same_row] > 0 if strictly else step[same_row] >= 0))


@pytest.mark.parametrize("seed", range(20))
def test_every_operator_reports_its_index_order_truthfully(seed):
    """scipy trusts the sorted flags: a matrix claiming sorted indices is left
    as it is by ``sort_indices``. The views and the normalized adjacency
    ascend and say so; the averaging operators, whose columns descend within
    a row, claim nothing. Every instant operator's products are the
    reference's bytes."""
    store = random_log(seed)
    rng = np.random.default_rng(2000 + seed)
    views = [store.history_biadjacency(day) for day in range(0, 44, 5)]
    views += [store.instant_biadjacency(day) for day in range(0, 44, 3)]
    views += [store.context_biadjacency(day, 3) for day in range(0, 44, 7)]
    for b in views:
        ops = [avg for _, avg in averaging_operators(b)]
        for mat in [b, normalize_adjacency(b), *ops]:
            assert mat.has_sorted_indices == columns_ascend(mat, strictly=False)
            assert mat.has_canonical_format == columns_ascend(mat, strictly=True)
        want_ops = [avg for _, avg in reference_averaging(b)]
        for got, want in zip(ops, want_ops, strict=True):
            x = rng.normal(size=(got.shape[1], 3))
            g = rng.normal(size=(got.shape[0], 3))
            assert (got @ x).tobytes() == (want @ x).tobytes()
            assert (got.T @ g).tobytes() == (want.T @ g).tobytes()
            got.sort_indices()
            assert columns_ascend(got, strictly=True)


def _not_views():
    """Bi-adjacencies the store never serves, each with why it is not a view."""
    def csr(data, indices, indptr):
        return sp.csr_matrix((np.array(data, dtype=float), np.array(indices),
                              np.array(indptr)), shape=(3, 4))
    ones = csr([1.0, 1.0, 1.0], [0, 2, 1], [0, 2, 3, 3])
    return [
        ("weighted", csr([1.0, 2.5, 1.0], [0, 2, 1], [0, 2, 3, 3])),
        ("signed", csr([1.0, -1.0, 1.0], [0, 2, 1], [0, 2, 3, 3])),
        ("explicit-zero", csr([1.0, 0.0, 1.0], [0, 2, 1], [0, 2, 3, 3])),
        ("unsorted-row", csr([1.0, 1.0, 1.0], [2, 0, 1], [0, 2, 3, 3])),
        ("duplicate-entry", csr([1.0, 1.0, 1.0], [2, 2, 1], [0, 2, 3, 3])),
        # (0, 2) stored twice and row 1 unsorted
        ("non-canonical", csr([1.0] * 5, [2, 0, 2, 3, 1], [0, 3, 5, 5])),
        ("coo", ones.tocoo()),
        ("csc", ones.tocsc()),
        ("dense", ones.toarray()),
    ]


def _raw_arrays(m):
    if isinstance(m, np.ndarray):
        return [m]
    return [m.data, m.row, m.col] if m.format == "coo" else [m.data, m.indices, m.indptr]


@pytest.mark.parametrize("why", [why for why, _ in _not_views()])
def test_operators_reject_what_is_not_a_zero_one_view(why):
    """Both operators take the store's canonical 0/1 CSR views only; anything
    else raises ConfigError and is left as it was."""
    b = dict(_not_views())[why]
    before = [a.copy() for a in _raw_arrays(b)]
    for op in (normalize_adjacency, averaging_operators):
        with pytest.raises(ConfigError, match="values are all 1.0"):
            op(b)
    assert all(np.array_equal(x, y) for x, y in zip(before, _raw_arrays(b), strict=True))


def _log_events():
    """24 days of 5 users and 8 items, several items per user and day, so the
    averaging rows sum three or more terms; every fifth day is empty."""
    rng = np.random.default_rng(23)
    return [RawEvent(f"u{rng.integers(5)}", f"i{rng.integers(8)}", day * SECONDS_PER_DAY)
            for day in range(24) if day % 5 != 3
            for _ in range(int(rng.integers(1, 13)))]


def _train_and_test(ds, epochs=2, **model):
    """Segment losses, test MRR and parameters of a training run and test replay on ``ds``."""
    mcfg = ModelConfig(**{"d": 6, "s_days": 3, "taylor_order": 3, "time_scale": 5.0, **model})
    model, hist = train(ds, mcfg, TrainConfig(lr=1e-2, n_tbptt=4, n_neg=2, max_epochs=epochs,
                                              seed=0),
                        eval_fn=lambda m, states: validation_mrr(m, states, ds))
    report = incremental_eval(ds, model, split="test", seed=0)
    return ([float(r.mean_loss).hex() for r in hist["segments"]], float(report.mrr).hex(),
            {name: p.value.tobytes() for name, p in model.params.items()})


def _count_builds(monkeypatch, builders):
    """Patch the store's view methods and the model's operator builders with
    ``builders`` (name -> function) wrapped to count their calls."""
    calls = {}

    def counted(name, fn):
        def wrapped(*args):
            calls[name] = calls.get(name, 0) + 1
            return fn(*args)
        return wrapped

    for name in ("history", "context", "instant"):
        monkeypatch.setattr(EdgeStore, f"{name}_biadjacency", counted(name, builders[name]))
    for name, attr in (("normalize", "normalize_adjacency"), ("averaging", "averaging_operators")):
        monkeypatch.setattr(cpmr.model, attr, counted(name, builders[name]))
    return calls


def test_training_and_replay_match_the_coo_constructions_byte_for_byte(monkeypatch):
    """Two epochs and a test replay give the same segment losses, test MRR
    and parameters, byte for byte, with the CSR builders as with the COO
    constructions they replaced. Each run has a dataset of its own, so the
    reference run builds every operator afresh rather than read the first
    run's from the dataset's store."""
    got = _train_and_test(canonicalize(_log_events()))
    calls = _count_builds(monkeypatch, {
        "history": reference_history, "context": reference_context,
        "instant": reference_instant, "normalize": reference_normalize,
        "averaging": reference_averaging})
    want = _train_and_test(canonicalize(_log_events()))
    assert sorted(calls) == ["averaging", "context", "history", "instant", "normalize"]
    assert len(got[0]) >= 4
    assert got == want


# -- one store per dataset, and its operator memo ------------------------------

def test_a_run_on_one_dataset_builds_only_what_no_earlier_run_asked_for_twice(monkeypatch):
    """A second training run and test replay on a dataset build only the
    operators the first asked for once, the test days', once each; a third
    reads every operator from the store's memo. Each gives a fresh dataset's
    run byte for byte."""
    fresh = _train_and_test(canonicalize(_log_events()))
    ds = canonicalize(_log_events())
    assert _train_and_test(ds) == fresh
    calls = _count_builds(monkeypatch, {
        "history": EdgeStore.history_biadjacency, "context": EdgeStore.context_biadjacency,
        "instant": EdgeStore.instant_biadjacency, "normalize": normalize_adjacency,
        "averaging": averaging_operators})
    assert _train_and_test(ds) == fresh
    n_test = len(np.unique(ds.days[ds.split_slice("test")]))
    assert calls == {"history": n_test, "context": n_test, "instant": n_test,
                     "normalize": 2 * n_test, "averaging": n_test}
    calls.clear()
    assert _train_and_test(ds) == fresh
    assert calls == {}


def test_models_of_other_configs_on_one_dataset_give_their_fresh_runs_bytes():
    """Models that differ in s_days, alpha0 or variant, trained in turn on one
    dataset, each give the bytes of their run on a dataset of their own: the
    memo keys every operator on all it depends on."""
    configs = [{}, {"s_days": 2}, {"alpha0": 0.9}, {"variant": "wo_his"},
               {"variant": "wo_ctx", "s_days": 2}, {"variant": "wo_fusion", "alpha0": 0.9}]
    ds = canonicalize(_log_events())
    shared = [_train_and_test(ds, epochs=1, **cfg) for cfg in configs]
    for cfg, got in zip(configs, shared, strict=True):
        assert got == _train_and_test(canonicalize(_log_events()), epochs=1, **cfg), cfg


def test_a_memo_over_its_budget_builds_anew_with_the_same_bytes(monkeypatch):
    """With a budget of a few KiB the memo keeps what fits and builds the
    rest on every call; the bytes are those of a run with the full budget."""
    fresh = _train_and_test(canonicalize(_log_events()))
    budget = 6 * 2**10
    monkeypatch.setattr(cpmr.graphs, "MEMO_BYTES", budget)
    ds = canonicalize(_log_events())
    assert _train_and_test(ds) == fresh
    store = EdgeStore.from_dataset(ds)
    kept = sum(a.nbytes for op in store._memo.values() for a in cpmr.graphs._arrays(op))
    assert 0 < kept == store._memo_bytes <= budget
    n_days = len(np.unique(ds.days))
    assert len(store._memo) < 3 * n_days      # some operators did not fit


def test_a_replays_memo_holds_the_replayed_days_operators_and_nothing_else():
    """A lone test replay, which asks for each operator once, keeps none.
    After a second the memo holds, for each replayed day, its his and ctx
    views normalized and its instant averaging operators, in exactly their
    bytes: no bi-adjacency and no copy."""
    ds = canonicalize(_log_events())
    cfg = ModelConfig(d=4, s_days=3, taylor_order=2)
    model = cpmr.model.CpmrModel(ds.n_users, ds.n_items, ds.day_unit, cfg)
    incremental_eval(ds, model, split="test")
    store = EdgeStore.from_dataset(ds)
    assert store._memo == {} and store._memo_bytes == 0
    incremental_eval(ds, model, split="test")
    days = [int(d) for d in np.unique(ds.days)]     # the test replay runs every day
    want = {}
    for d in days:
        want["his", d, cfg.alpha0] = normalize_adjacency(store.history_biadjacency(d))
        want["ctx", d, 3, cfg.alpha0] = normalize_adjacency(store.context_biadjacency(d, 3))
        want["instant", d] = averaging_operators(store.instant_biadjacency(d))
    assert store._memo.keys() == want.keys()
    for key, op in store._memo.items():
        if key[0] == "instant":
            assert operators_bytes(op) == operators_bytes(want[key])
        else:
            assert csr_bytes(op) == csr_bytes(want[key])
    nbytes = [sum(a.nbytes for a in cpmr.graphs._arrays(op)) for op in want.values()]
    assert store._memo_bytes == sum(nbytes)
    owners = []                 # the buffer each kept array reads, past any views
    for op in store._memo.values():
        for a in cpmr.graphs._arrays(op):
            assert not a.flags.writeable
            while a.base is not None:
                a = a.base
            owners.append(a)
    # each buffer is its array's alone, and none is kept twice
    assert sum(a.nbytes for a in owners) == store._memo_bytes
    assert len({id(a) for a in owners}) == len(owners)


def test_a_dataset_has_one_store_and_is_read_only_from_then_on():
    """``from_dataset`` returns one store per dataset and sets the arrays it
    aliases read-only, so a write raises rather than leave operators stale;
    before that the arrays are writable."""
    ds, other = canonicalize(_log_events()), canonicalize(_log_events())
    ds.user_ids[0] = ds.user_ids[0]
    store = EdgeStore.from_dataset(ds)
    assert other.days.flags.writeable
    assert EdgeStore.from_dataset(ds) is store and EdgeStore.from_dataset(other) is not store
    assert store.users is ds.user_ids and store.items is ds.item_ids and store.days is ds.days
    for name in ("user_ids", "item_ids", "days"):
        with pytest.raises(ValueError, match="read-only"):
            getattr(ds, name)[0] = 0
    op = store.memo("key", lambda: normalize_adjacency(store.history_biadjacency(5)))
    with pytest.raises(ValueError, match="read-only"):
        op.data[0] = 0.0
