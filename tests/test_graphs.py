import numpy as np
import pytest
import scipy.sparse as sp

from cpmr.errors import ShapeError
from cpmr.graphs import (EdgeStore, learnable_adjacency, normalize_adjacency)


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
