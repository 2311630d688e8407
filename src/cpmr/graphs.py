"""Time-indexed bipartite interaction graph and its per-day sparse operators.

An :class:`EdgeStore` keeps the chronologically sorted interaction log and
serves three views at any day d: the instant graph (edges exactly at d),
the history graph (edges strictly before d), and the context graph (edges
in the trailing window [d - s, d)). Bi-adjacencies are 0/1 scipy CSR
matrices of shape (n_users, n_items); duplicate (u, i) pairs collapse.

Every (u, i) pair is keyed as ``u * n_items + i``. The store indexes the
distinct keys in ascending order with the day each pair first appears, so
the history view is a mask over that index; the context and instant views
take the distinct keys of their day range. Sorted distinct keys are already
CSR order (rows ascending, columns ascending within a row), so each view,
the normalized adjacency and the instant averaging operators are written
as CSR arrays directly, the same arrays scipy's COO round-trips produced.
The two operators take only such views: canonical CSR whose values are 1.0.
A model reads a day's operators through :meth:`EdgeStore.memo` of the dataset's
one store, which keeps each asked for twice; the dataset is then read-only.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
from scipy.sparse import _sparsetools

from .errors import ConfigError

ALPHA0 = 0.98
MEMO_BYTES = 8 * 2**20      # the arrays a store's memo may hold; past that it builds anew


class EdgeStore:
    """Sorted interaction log with per-day ranges, a first-day pair index and an operator memo."""

    def __init__(self, user_ids, item_ids, days, n_users, n_items):
        days = np.asarray(days, dtype=np.int64)
        if np.any(np.diff(days) < 0):
            raise ConfigError("EdgeStore requires day-sorted interactions")
        self.users = np.asarray(user_ids, dtype=np.int64)
        self.items = np.asarray(item_ids, dtype=np.int64)
        self.days = days
        self.n_users = int(n_users)
        self.n_items = int(n_items)
        self._keys = self.users * self.n_items + self.items
        # distinct pairs, ascending, and the day each first appears
        self._pairs, first = np.unique(self._keys, return_index=True)
        self._first_day = days[first]
        self._memo, self._memo_bytes, self._asked = {}, 0, set()

    @classmethod
    def from_dataset(cls, ds):
        """The one store of ``ds``; the call that makes it sets the arrays it aliases read-only."""
        if not hasattr(ds, "_edge_store"):
            for a in (ds.user_ids, ds.item_ids, ds.days):
                a.flags.writeable = False
            ds._edge_store = cls(ds.user_ids, ds.item_ids, ds.days, ds.n_users, ds.n_items)
        return ds._edge_store

    def memo(self, key, build):
        """``build()``'s operator for ``key`` (all it depends on but the log), read-only; kept
        from the second call for ``key`` on, while the memo's arrays fit ``MEMO_BYTES``."""
        op = self._memo.get(key)
        if op is None:
            op = build()
            arrays = _arrays(op)
            for a in arrays:
                a.flags.writeable = False
            size = sum(a.nbytes for a in arrays)
            if key in self._asked and self._memo_bytes + size <= MEMO_BYTES:
                self._memo[key], self._memo_bytes = op, self._memo_bytes + size
            self._asked.add(key)
        return op

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

    def instant_biadjacency(self, day):
        """0/1 bi-adjacency of the interactions exactly at ``day``."""
        a, b = self._range(day, day + 1)
        return self._biadjacency(np.unique(self._keys[a:b]))

    def history_biadjacency(self, day):
        """0/1 bi-adjacency of all interactions strictly before ``day``."""
        return self._biadjacency(self._pairs[self._first_day < day])

    def context_biadjacency(self, day, s_days):
        """0/1 bi-adjacency of interactions in [day - s_days, day)."""
        if s_days < 1:
            raise ConfigError(f"context window must be >= 1 day, got {s_days}")
        a, b = self._range(day - s_days, day)
        return self._biadjacency(np.unique(self._keys[a:b]))

    def _biadjacency(self, keys):
        """CSR of the ascending distinct pair ``keys``, every value 1."""
        rows, cols = np.divmod(keys, self.n_items)
        return _csr(np.ones(len(keys)), cols, _indptr(rows, self.n_users),
                    (self.n_users, self.n_items))


def _csr(data, indices, indptr, shape, ascending=True):
    """CSR from arrays grouped by row, every value nonzero.

    Index arrays are int32 when ``nnz`` and both dimensions fit, as scipy
    chooses for the matrices it builds; casting here spares its content scan.
    Canonical format is claimed only for columns ``ascending`` within each row.
    """
    idx = np.int32 if max(len(data), *shape) <= np.iinfo(np.int32).max else np.int64
    mat = sp.csr_matrix((data, indices.astype(idx, copy=False),
                         indptr.astype(idx, copy=False)), shape=shape)
    if ascending:
        mat.has_canonical_format = True
    return mat


def _arrays(op):
    """The arrays of an array, a CSR matrix or nested tuples of them."""
    if isinstance(op, tuple):
        return [a for part in op for a in _arrays(part)]
    return [op.data, op.indices, op.indptr] if sp.issparse(op) else [op]


def _view(biadj):
    """``biadj`` if it is a view as the store serves it, else a ConfigError."""
    if not (sp.issparse(biadj) and biadj.format == "csr" and biadj.has_canonical_format
            and np.all(biadj.data == 1.0)):
        raise ConfigError("expected a canonical CSR bi-adjacency whose values are all 1.0")
    return biadj


def _rows(indptr):
    """The row of each stored entry of a CSR matrix."""
    return np.repeat(np.arange(len(indptr) - 1), np.diff(indptr))


def _indptr(rows, n_rows):
    """CSR row pointers of entries grouped by ascending row."""
    return np.concatenate([[0], np.cumsum(np.bincount(rows, minlength=n_rows))])


def normalize_adjacency(biadj, alpha0=ALPHA0):
    """(alpha0/2) (I + D^-1/2 adj D^-1/2) for adj = [[0, B], [B^T, 0]].

    Zero-degree nodes take D^-1/2 = 0 (pseudo-inverse convention), keeping
    only the self-loop. Both triangles get identical arithmetic, so the
    result is exactly symmetric. B must be a 0/1 view (``ConfigError``
    otherwise), so a degree is a count of partners.

    The CSR rows are written straight from B's arrays: a user row is its
    diagonal entry, then its items in ascending order; an item row is its
    users in ascending order, then its diagonal entry. An off-diagonal value
    is ``(alpha0/2) * (dinv[r] * dinv[c])`` and a diagonal one alpha0/2: the
    arrays of ``(off + alpha0/2 I).tocsr()`` over the COO of both triangles.
    """
    b = _view(biadj)
    n_u, n_i = b.shape
    n = n_u + n_i
    nnz = b.nnz
    # B^T's CSR arrays from scipy's transpose kernel, with each entry's position in B as
    # its value: the item row pointers, and B's entries item by item, users ascending
    item_ptr, item_users = np.empty(n_i + 1, b.indices.dtype), np.empty(nnz, b.indices.dtype)
    by_item = np.empty(nnz, np.int64)
    _sparsetools.csr_tocsc(n_u, n_i, b.indptr, b.indices, np.arange(nnz), item_ptr,
                           item_users, by_item)
    user = _rows(b.indptr)
    item = b.indices.astype(np.int64)
    item_ptr = item_ptr.astype(np.int64)             # positions below can pass 2**31
    deg = np.concatenate([np.diff(b.indptr), np.diff(item_ptr)])
    dinv_sqrt = 1.0 / np.sqrt(np.maximum(deg, 1))   # read only where deg > 0

    half = alpha0 / 2.0
    vals = half * (dinv_sqrt[user] * dinv_sqrt[item + n_u])
    # every user row gains its diagonal before its items, every item row after its users
    indptr = np.concatenate([b.indptr[:n_u] + np.arange(n_u),
                             nnz + n_u + item_ptr + np.arange(n_i + 1)])
    indices = np.empty(2 * nnz + n, dtype=np.int64)
    data = np.empty(2 * nnz + n)
    diag = np.concatenate([indptr[:n_u], indptr[n_u + 1:] - 1])
    indices[diag] = np.arange(n)
    data[diag] = half
    pos = np.arange(nnz)
    user_pos = pos + user + 1
    indices[user_pos] = item + n_u
    data[user_pos] = vals
    item_pos = nnz + n_u + pos + item[by_item]
    indices[item_pos] = item_users
    data[item_pos] = vals[by_item]
    return _csr(data, indices, indptr, (n, n))


def averaging_operators(biadj):
    """Per class, the ids B involves and their partner means.

    Returns ``((users, avg_u), (items, avg_i))``: ``users`` ascending and
    ``avg_u`` D_u^-1 B on their rows and the involved items' columns, in
    ``items`` order; items likewise with B^T. B must be a 0/1 view
    (``ConfigError`` otherwise), so ``D`` counts partners. A mean's row
    stores its columns in descending order, with value ``1 / D[row]``: the
    arrays of ``sp.diags(dinv) @ B`` on those rows and columns, whose stored
    order fixes the order in which a sparse product sums. The means are
    written from B's arrays, with no scipy indexing.
    """
    b = _view(biadj)
    n_i = b.shape[1]
    deg_u, deg_i = np.diff(b.indptr), np.bincount(b.indices, minlength=n_i)
    users, items = np.flatnonzero(deg_u), np.flatnonzero(deg_i)
    # each entry's user and item as ranks among the involved ones
    user = np.repeat(np.arange(len(users)), deg_u[users])
    item = (np.cumsum(deg_i > 0) - 1)[b.indices]
    out = []
    for ids, rows, cols, n_cols in ((users, user, item, len(items)),
                                    (items, item, user, len(users))):
        # reverse B's entries, then group them stably by row: columns descend within a row
        rev = len(rows) - 1 - np.argsort(rows[::-1], kind="stable")
        ptr = _indptr(rows, len(ids))
        out.append((ids, _csr(1.0 / np.diff(ptr)[rows[rev]], cols[rev], ptr,
                              (len(ids), n_cols), ascending=False)))
    return tuple(out)
