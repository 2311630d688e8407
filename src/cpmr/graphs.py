"""Time-indexed bipartite interaction graph and its materialized views.

An :class:`EdgeStore` keeps the chronologically sorted interaction log and
serves three views at any day d: the instant graph (edges exactly at d),
the history graph (edges strictly before d), and the context graph (edges
in the trailing window [d - s, d)). Bi-adjacencies are 0/1 scipy CSR
matrices of shape (n_users, n_items); duplicate (u, i) pairs collapse.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from .errors import ConfigError, ShapeError

ALPHA0 = 0.98


class EdgeStore:
    """Sorted interaction log with per-day ranges."""

    def __init__(self, user_ids, item_ids, days, n_users, n_items):
        days = np.asarray(days, dtype=np.int64)
        if np.any(np.diff(days) < 0):
            raise ConfigError("EdgeStore requires day-sorted interactions")
        self.users = np.asarray(user_ids, dtype=np.int64)
        self.items = np.asarray(item_ids, dtype=np.int64)
        self.days = days
        self.n_users = int(n_users)
        self.n_items = int(n_items)

    @classmethod
    def from_dataset(cls, ds):
        return cls(ds.user_ids, ds.item_ids, ds.days, ds.n_users, ds.n_items)

    def interaction_days(self, hi=None):
        """Distinct days with at least one edge, restricted to days < hi."""
        d = np.unique(self.days)
        return d if hi is None else d[d < hi]

    def _range(self, lo, hi):
        a = np.searchsorted(self.days, lo, side="left")
        b = np.searchsorted(self.days, hi, side="left")
        return a, b

    def instant_edges(self, day):
        """(user_ids, item_ids) of interactions exactly at ``day``."""
        a, b = self._range(day, day + 1)
        return self.users[a:b], self.items[a:b]

    def history_biadjacency(self, day):
        """0/1 bi-adjacency of all interactions strictly before ``day``."""
        a, b = self._range(np.iinfo(np.int64).min, day)
        return self._biadjacency(self.users[a:b], self.items[a:b])

    def context_biadjacency(self, day, s_days):
        """0/1 bi-adjacency of interactions in [day - s_days, day)."""
        if s_days < 1:
            raise ConfigError(f"context window must be >= 1 day, got {s_days}")
        a, b = self._range(day - s_days, day)
        return self._biadjacency(self.users[a:b], self.items[a:b])

    def _biadjacency(self, u, i):
        mat = sp.coo_matrix((np.ones(len(u)), (u, i)),
                            shape=(self.n_users, self.n_items)).tocsr()
        mat.sum_duplicates()
        mat.data[:] = 1.0
        return mat


def normalize_adjacency(biadj, alpha0=ALPHA0):
    """(alpha0/2) (I + D^-1/2 adj D^-1/2) for adj = [[0, B], [B^T, 0]].

    Zero-degree nodes take D^-1/2 = 0 (pseudo-inverse convention), keeping
    only the self-loop. Both triangles get identical arithmetic, so the
    result is exactly symmetric.
    """
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

    # symmetric per-entry scaling: value = (alpha0/2) * (dinv[i] * dinv[j])
    scaled = (alpha0 / 2.0) * (dinv_sqrt[rows] * dinv_sqrt[cols]) * vals
    off = sp.coo_matrix((scaled, (rows, cols)), shape=(n, n))
    eye = sp.identity(n, format="coo") * (alpha0 / 2.0)
    return (off + eye).tocsr()


def learnable_adjacency(nadj, alpha):
    """Scale each column j of the normalized adjacency by sigmoid(alpha[j]).

    Column scaling weights the source node of each message.
    """
    alpha = np.asarray(alpha, dtype=np.float64).reshape(-1)
    n = nadj.shape[0]
    if alpha.shape[0] != n:
        raise ShapeError(f"alpha length {alpha.shape[0]} vs {n} nodes")
    s = 1.0 / (1.0 + np.exp(-alpha))
    return (nadj @ sp.diags(s)).tocsr()
