import functools
import itertools
import math
import os
import sys
import weakref

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st
from scipy.sparse import _sparsetools
from scipy.special import logsumexp as scipy_logsumexp

from cpmr import autodiff as ad
from cpmr.errors import CpmrError, DataFormatError, NumericalError, ShapeError
from cpmr.data import canonicalize, k_core_filter, parse_interactions
from cpmr.graphs import EdgeStore, averaging_operators, normalize_adjacency


# The generic ops the fused ``gathered_linear``, ``info_nce``,
# ``instant_update`` and ``gated_fusion`` replaced, with their rules as the
# engine had them: the reference those four must equal byte for byte, and
# what ``sum_all`` is built of. ``sigmoid`` is the reference of the gate that
# ``graph_flow`` computes from its logits, and ``scale(E, 1.0)`` of a
# differentiable copy of E as a scenario's initial states.


def scale(a, c):
    out = ad.Var(a.value * c)
    ad._record(out, (a,), lambda g, c=c: (g * c,))
    return out


def sigmoid(x):
    out = ad.Var(ad._sigmoid(x.value))
    ad._record(out, (x,), lambda g, s=out.value: (g * s * (1.0 - s),))
    return out


def hadamard(a, b):
    ad._check(a.shape == b.shape, "hadamard", a.shape, b.shape)
    out = ad.Var(a.value * b.value)
    ad._record(out, (a, b), lambda g, a=a.value, b=b.value: (g * b, g * a))
    return out


def linear(x, w, b):
    """One dense layer: x @ w with the (1, m) row b added to every row."""
    ad._check(x.value.shape[1] == w.value.shape[0] and b.value.shape == (1, w.value.shape[1]),
              "linear", x.shape, w.shape, b.shape)
    out = ad.Var(ad._affine(x.value, w.value, b.value))
    ad._record(out, (x, w, b), lambda g, x=x.value, w=w.value: (
        g @ w.T, x.T @ g, g.sum(axis=0, keepdims=True)))
    return out


def mean_all(x):
    n = x.value.size
    out = ad.Var(np.array([[x.value.sum() / n]]))
    ad._record(out, (x,), lambda g, shape=x.shape, n=n: (np.full(shape, g[0, 0] / n),))
    return out


def matmul(a, b):
    out = ad.Var(a.value @ b.value)
    # a C-ordered b.T: OpenBLAS rounds a few-row g times a transposed b unlike a taller g
    ad._record(out, (a, b), lambda g, a=a.value, b=b.value: (g @ b.T.copy(), a.T @ g))
    return out


def spmm(s, x):
    """Sparse @ dense. ``s`` is a constant scipy sparse matrix."""
    out = ad.Var(s @ x.value)
    ad._record(out, (x,), lambda g, s=s: (np.asarray(s.T @ g),))
    return out


def sub(a, b):
    out = ad.Var(a.value - b.value)
    ad._record(out, (a, b), lambda g: (g, -g))
    return out


def gate_mix(w, a, b):
    """Row-wise two-way mix a * w[:, 0] + b * w[:, 1], with w of shape (n, 2)."""
    out = ad.Var(a.value * w.value[:, 0:1] + b.value * w.value[:, 1:2])
    def rule(g, w=w.value, a=a.value, b=b.value):
        # + 0.0: a row sum of -0.0 reads +0.0, whichever zero numpy's sum gives
        g_w = np.concatenate([np.sum(g * a, axis=1, keepdims=True),
                              np.sum(g * b, axis=1, keepdims=True)], axis=1) + 0.0
        return g_w, g * w[:, 0:1], g * w[:, 1:2]
    ad._record(out, (w, a, b), rule)
    return out


def softmax_rows_reference(a):
    """A row-wise softmax as the gates ran it: row max, exp, row sum, division."""
    m = a.max(axis=1, keepdims=True)
    e = np.exp(a - m)
    return e / e.sum(axis=1, keepdims=True)


def softmax_rows_rule_reference(s, g):
    """Its rule, each row's sum of g * s a numpy row sum."""
    return s * (g - np.sum(g * s, axis=1, keepdims=True))


def sigmoid_masked(a):
    """The sigmoid as the engine had it: boolean-mask gathers and scatters."""
    out = np.empty_like(a)
    pos = a >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-a[pos]))
    e = np.exp(a[~pos])
    out[~pos] = e / (1.0 + e)
    return out


def softmax_rows(x):
    out = ad.Var(softmax_rows_reference(x.value))
    ad._record(out, (x,), lambda g, s=out.value: (softmax_rows_rule_reference(s, g),))
    return out


def concat_cols(*parts):
    out = ad.Var(np.concatenate([p.value for p in parts], axis=1))
    cuts = np.cumsum([p.value.shape[1] for p in parts[:-1]])
    ad._record(out, parts, lambda g, cuts=cuts: np.split(g, cuts, axis=1))
    return out


def concat_rows(*parts):
    out = ad.Var(np.concatenate([p.value for p in parts], axis=0))
    cuts = np.cumsum([p.value.shape[0] for p in parts[:-1]])
    ad._record(out, parts, lambda g, cuts=cuts: np.split(g, cuts, axis=0))
    return out


def row_block(x, start, stop):
    """Rows start:stop of x as a view; the gradient is g in those rows of zeros."""
    out = ad.Var(x.value[start:stop])
    def rule(g, shape=x.shape, start=start, stop=stop):
        z = np.zeros(shape)
        z[start:stop] += g          # 0 + g, as np.add.at gives, signed zeros included
        return z,
    ad._record(out, (x,), rule)
    return out


def relu(x):
    out = ad.Var(np.maximum(x.value, 0.0))
    if ad._ACTIVE_TAPE is not None:
        ad._record(out, (x,), lambda g, pos=x.value > 0.0: (g * pos,))
    return out


def row_replace(x, idx, rows):
    """x with its rows ``idx`` (distinct ids) replaced by ``rows``, in order."""
    idx = np.asarray(idx, dtype=np.int64)
    out = ad.Var(x.value.copy())
    out.value[idx] = rows.value
    def rule(g, idx=idx):
        g_x = g.copy()
        g_x[idx] = 0.0
        return g_x, g[idx]
    ad._record(out, (x, rows), rule)
    return out


def row_select(x, idx):
    """Gather rows by ids in [0, n); duplicate ids accumulate gradient."""
    idx = np.asarray(idx, dtype=np.int64)
    out = ad.Var(x.value[idx])
    def rule(g, n=x.shape[0], idx=idx):
        # bincount sums each entry's draws from 0.0 in draw order, as np.add.at into zeros
        d = g.shape[1]
        flat = (idx[:, None] * d + np.arange(d)).ravel()
        return np.bincount(flat, weights=g.ravel(), minlength=n * d).reshape(n, d),
    ad._record(out, (x,), rule)
    return out


def sum_cols(x):
    out = ad.Var(x.value.sum(axis=1, keepdims=True))
    ad._record(out, (x,), lambda g, shape=x.shape: (np.broadcast_to(g, shape).copy(),))
    return out


def reshape(x, shape):
    out = ad.Var(x.value.reshape(shape))
    ad._record(out, (x,), lambda g, shape=x.shape: (g.reshape(shape),))
    return out


def logsumexp_rows(x):
    m = x.value.max(axis=1, keepdims=True)
    out = ad.Var(m + np.log(np.sum(np.exp(x.value - m), axis=1, keepdims=True)))
    ad._record(out, (x,), lambda g, x=x.value: (g * ad._softmax_rows(x),))
    return out


def gathered_linear_chain(e, z, idx, w, b):
    """``gathered_linear`` as two gathers, their concatenation and a ``linear``: 4 nodes."""
    return linear(concat_cols(row_select(e, idx), row_select(z, idx)), w, b)


def info_nce_chain(p_pos, q_pos, p_neg, q_neg):
    """``info_nce`` as the 14 generic nodes of the loss, in their order."""
    b = p_pos.shape[0]
    m = p_neg.shape[0] // b
    rep = np.repeat(np.arange(b), m)
    lam_pos = sum_cols(hadamard(p_pos, q_pos))
    lam_nu = reshape(sum_cols(hadamard(p_neg, row_select(q_pos, rep))), (b, m))
    lam_ni = reshape(sum_cols(hadamard(row_select(p_pos, rep), q_neg)), (b, m))
    logits = concat_cols(lam_pos, lam_nu, lam_ni)
    return mean_all(sub(logsumexp_rows(logits), lam_pos))


def selection(ids, n):
    """The 0/1 CSR whose row j picks row ``ids[j]`` of an n-row matrix."""
    m = len(ids)
    return sp.csr_matrix((np.ones(m), np.asarray(ids), np.arange(m + 1)), shape=(m, n))


def instant_update_chain(x, n_users, users, items, avg_u, avg_i, w_u2u, w_i2u, w_i2i, w_u2i):
    """``instant_update`` as the 21 generic nodes of the jump, in their order: the
    user and item row blocks, their rows taken by 0/1 selections, written back
    by ``row_replace``, then joined."""
    x_u, x_i = row_block(x, 0, n_users), row_block(x, n_users, x.shape[0])
    rows_u, rows_i = spmm(selection(users, x_u.shape[0]), x_u), \
        spmm(selection(items, x_i.shape[0]), x_i)
    delta_u = relu(matmul(spmm(avg_u, rows_i), w_i2u))
    delta_i = relu(matmul(spmm(avg_i, rows_u), w_u2i))
    self_u, self_i = matmul(rows_u, w_u2u), matmul(rows_i, w_i2i)
    new_u = row_replace(x_u, users, ad.add(rows_u, ad.add(sub(self_u, rows_u), delta_u)))
    new_i = row_replace(x_i, items, ad.add(rows_i, ad.add(sub(self_i, rows_i), delta_i)))
    return concat_rows(new_u, new_i)


def gated_fusion_chain(parts, n_users, layers):
    """``gated_fusion`` as the generic chain it replaced. Per class: a row block
    of each part, their concatenation, the shared expert's ``linear``, and per
    task its gate's ``linear``, ``softmax_rows``, its expert's ``linear`` and
    ``gate_mix``; then each task's classes joined."""
    n, mixes = parts[0].shape[0], []
    for rows, ((w, b), *tasks) in zip(((0, n_users), (n_users, n)), layers):
        slices = [row_block(p, *rows) for p in parts]
        x = slices[0] if len(slices) == 1 else concat_cols(*slices)
        shared = linear(x, w, b)
        mixes.append([gate_mix(softmax_rows(linear(x, *gate)), linear(x, *expert), shared)
                      for gate, expert in zip(tasks[::2], tasks[1::2])])
    return tuple(concat_rows(u, i) for u, i in zip(*mixes))


def sum_all(x):
    """The sum of all entries as a 1x1 Var, through ``reshape`` and ``sum_cols``."""
    return sum_cols(reshape(x, (1, -1)))


def test_var_requires_2d():
    with pytest.raises(ShapeError):
        ad.Var(np.zeros(3))
    with pytest.raises(ShapeError):
        ad.Var(np.zeros((2, 2, 2)))


def test_ops_run_without_tape():
    # no-grad path: plain forward, nothing recorded anywhere
    a = ad.constant([[1.0, 2.0]])
    out = hadamard(ad.add(scale(a, 2.0), ad.constant([[-3.0, 1.0]])), a)
    np.testing.assert_array_equal(out.value, [[-1.0, 10.0]])


def test_nested_tapes_rejected():
    with ad.Tape():
        with pytest.raises(CpmrError):
            with ad.Tape():
                pass


def test_backward_consumes_tape_once():
    x = ad.constant([[2.0]])
    with ad.Tape() as tape:
        loss = scale(x, 3.0)
    g = ad.backward(loss, tape)
    assert g[x][0, 0] == 3.0
    with pytest.raises(CpmrError):
        ad.backward(loss, tape)


def test_backward_empty_tape():
    with ad.Tape() as tape:
        pass
    with pytest.raises(CpmrError):
        ad.backward(ad.constant([[0.0]]), tape)


def test_backward_rejects_nonscalar_loss():
    x = ad.constant([[1.0, 2.0]])
    with ad.Tape() as tape:
        y = scale(x, 1.0)
    with pytest.raises(ShapeError):
        ad.backward(y, tape)


def test_unreachable_param_gets_zero_grad():
    x = ad.constant([[1.0]])
    orphan = ad.constant([[5.0, 5.0]])
    with ad.Tape() as tape:
        loss = sum_all(scale(x, 2.0))
    g = ad.backward(loss, tape, params=[x, orphan])
    np.testing.assert_array_equal(g[orphan], np.zeros((1, 2)))


def test_tape_holds_handles_and_backward_pops_them():
    x = ad.constant([[1.0, -2.0]])
    with ad.Tape() as tape:
        h = scale(x, 2.0)
        loss = sum_all(relu(h))
        h_node = tape.nodes[0][0]
        assert h_node.shape == (1, 2) and h_node.value is h.value
        del h                               # no rule reads the scaled values
        assert h_node.value.shape == (0,) and h_node.shape == (1, 2)
    assert [i.value is x.value for _, (inputs, _) in tape.nodes[:1] for i in inputs] == [True]
    g = ad.backward(loss, tape)
    assert tape.nodes == []
    assert set(g) == {x}                    # the live leaf only, no dead intermediate
    np.testing.assert_array_equal(g[x], [[2.0, 0.0]])


def test_a_checkpoint_keeps_its_function_and_inputs_not_what_it_makes(monkeypatch):
    """Under a tape a ``checkpoint`` keeps the function and its input arrays,
    as one node: the gather, the concatenation of gathers, the sparse product
    and the dense layer's output made inside it die once the forward drops
    them, where a plain tape's rules keep them to read them. Its replay gives
    the gradients of the plain tape byte for byte."""
    rng = np.random.default_rng(0)
    x, w = ad.constant(rng.normal(size=(5, 3))), ad.constant(rng.normal(size=(6, 3)))
    bias, mix = ad.constant(rng.normal(size=(1, 3))), ad.constant(rng.normal(size=(4, 2)))
    y = ad.constant(rng.normal(size=(3, 3)))
    s = sp.random(4, 3, density=0.5, random_state=np.random.RandomState(0), format="csr")
    refs = []

    def fn(x, y):
        picked = row_select(x, [4, 0, 0, 2])
        both = concat_cols(picked, row_select(x, [1, 1, 3, 0]))
        prod = spmm(s, y)
        layer = linear(both, w, bias)
        refs.extend(weakref.ref(v.value) for v in (picked, both, prod, layer))
        return ad.add(sum_all(hadamard(layer, prod)),
                      sum_all(gate_mix(mix, hadamard(picked, prod), layer))),

    def run():
        refs.clear()
        with ad.Tape() as tape:
            (loss,) = ad.checkpoint(fn, x, y)
            alive = [r() is not None for r in refs]
            n_nodes = len(tape.nodes)
        g = ad.backward(loss, tape)
        return alive, n_nodes, [g[v] for v in (x, w, bias, mix, y)]

    alive, n_nodes, grads = run()
    assert alive == [False] * 4 and n_nodes == 1
    monkeypatch.setattr(ad, "checkpoint", lambda fn, *inputs: fn(*inputs))
    kept_alive, kept_nodes, kept = run()
    assert kept_alive == [True] * 4 and kept_nodes > 10
    assert [g.tobytes() for g in grads] == [k.tobytes() for k in kept]


def test_a_checkpoint_inside_a_checkpoint_is_one_node_of_its_replay(monkeypatch):
    """A checkpoint inside a checkpoint's function is one node of the outer
    replay, and ``backward`` replays it in turn. The ``spmm``, ``matmul``,
    ``add``, ``sub``, ``relu`` and ``softmax_rows`` over the inner
    checkpoint's output (a layer's output) die with the forward, as four of
    them do not on a plain tape; the inner function runs three times (in the
    forward, in the outer replay and in its own replay), and the gradients
    are the plain tape's bytes."""
    rng = np.random.default_rng(8)
    x, w, m, wg = (ad.constant(rng.normal(size=(k, j))) for k, j in ((5, 3), (3, 3), (3, 3),
                                                                   (3, 2)))
    bias, bg = ad.constant(rng.normal(size=(1, 3))), ad.constant(rng.normal(size=(1, 2)))
    s = sp.random(2, 5, density=0.6, random_state=np.random.RandomState(1), format="csr")
    refs, inner_runs = [], []

    def inner(x):
        inner_runs.append(ad._ACTIVE_TAPE)
        return linear(x, w, bias),

    def outer(x):
        (layer,) = ad.checkpoint(inner, x)
        rows = spmm(s, layer)
        prod = matmul(rows, m)
        diff = sub(prod, rows)
        total = ad.add(diff, rows)
        pos = relu(total)
        weights = softmax_rows(linear(x, wg, bg))
        refs.extend(weakref.ref(v.value) for v in (rows, prod, diff, total, pos, weights))
        return ad.add(sum_all(hadamard(pos, prod)),
                      sum_all(hadamard(gate_mix(weights, layer, x), layer))),

    def run():
        refs.clear()
        inner_runs.clear()
        with ad.Tape() as tape:
            (loss,) = ad.checkpoint(outer, x)
            alive = [r() is not None for r in refs]
        g = ad.backward(loss, tape)
        return alive, [g[v] for v in (x, w, bias, m, wg, bg)]

    alive, grads = run()
    assert alive == [False] * 6
    assert len(inner_runs) == 3 and inner_runs[:2] == [None, None] and inner_runs[2] is not None
    monkeypatch.setattr(ad, "checkpoint", lambda fn, *inputs: fn(*inputs))
    kept_alive, kept = run()
    # a plain tape keeps what rules read: not the sum and the difference
    assert kept_alive == [True, True, False, False, True, True]
    assert [g.tobytes() for g in grads] == [k.tobytes() for k in kept]
    assert all(np.abs(g).max() > 0 for g in grads)


@pytest.mark.parametrize("fail", [None, "forward", "replay"])
def test_checkpoint_restores_the_active_tape(fail):
    """A ``checkpoint`` runs its function with no tape, and ``backward``
    replays it under a fresh tape, inside which a nested ``Tape()`` is still
    rejected; each gives the caller's tape back on every exit, also when the
    function raises."""
    x = ad.constant([[1.0, -2.0]])
    seen = []

    def fn(v):
        seen.append(ad._ACTIVE_TAPE)
        if seen[-1] is not None:
            with pytest.raises(CpmrError, match="nested"):
                with ad.Tape():
                    pass
        if fail == ("replay" if seen[-1] is not None else "forward"):
            raise RuntimeError(fail)
        return sum_all(relu(v)),

    with ad.Tape() as tape:
        try:
            (loss,) = ad.checkpoint(fn, x)
            assert ad._ACTIVE_TAPE is tape
            g = ad.backward(loss, tape)
        except RuntimeError as err:
            assert str(err) == fail
        else:
            assert fail is None and g[x].tolist() == [[1.0, 0.0]]
        assert ad._ACTIVE_TAPE is tape
    assert ad._ACTIVE_TAPE is None
    assert seen[0] is None and len(seen) == (1 if fail == "forward" else 2)
    assert fail == "forward" or isinstance(seen[1], ad.Tape) and seen[1] is not tape


def _rule(op, *args):
    """The output of one taped op and its backward rule: g -> a gradient per input."""
    with ad.Tape() as tape:
        out = op(*args)
    (_, (_, rule)), = tape.nodes
    return out.value, rule


def test_linear_is_the_matmul_and_bias_chain_byte_for_byte():
    rng = np.random.default_rng(3)
    x, w, b, g = (rng.normal(size=s) for s in ((7, 5), (5, 3), (1, 3), (7, 3)))
    out, rule = _rule(linear, ad.Var(x), ad.Var(w), ad.Var(b))
    gx, gw, gb = rule(g)
    mm = x @ w
    assert out.tobytes() == (mm + b).tobytes()
    assert gx.tobytes() == (g @ w.T).tobytes()
    assert gw.tobytes() == (x.T @ g).tobytes()
    assert gb.tobytes() == g.sum(axis=0, keepdims=True).tobytes()


@pytest.mark.parametrize("signed_zero_sums", [False, True])
def test_gate_mix_is_the_column_select_scale_and_add_chain_byte_for_byte(
        monkeypatch, signed_zero_sums):
    rng = np.random.default_rng(4)
    w, a, b, g = (rng.normal(size=s) for s in ((6, 2), (6, 3), (6, 3), (6, 3)))
    a[2], b[2], g[2] = -np.abs(a[2]), -np.abs(b[2]), 0.0   # row 2's products are -0.0
    if signed_zero_sums:
        # numpy seeds a row sum with +0.0, so a sum of -0.0s reads +0.0; seeded
        # with -0.0, the exact identity, it stays -0.0 and the + 0.0 shows
        monkeypatch.setattr(np, "sum", lambda x, axis=None, keepdims=False:
                            np.add.reduce(x, axis=axis, keepdims=keepdims, initial=-0.0))
    out, rule = _rule(gate_mix, ad.Var(w), ad.Var(a), ad.Var(b))
    got, ga, gb = rule(g)
    c0, c1 = w[:, 0:1].copy(), w[:, 1:2].copy()
    assert out.tobytes() == (a * c0 + b * c1).tobytes()
    assert ga.tobytes() == (g * c0).tobytes()
    assert gb.tobytes() == (g * c1).tobytes()
    # the old chain: the second column's zero-padded gradient plus the first's
    pad1, pad0 = np.zeros_like(w), np.zeros_like(w)
    pad1[:, 1:2] = np.sum(g * b, axis=1, keepdims=True)
    pad0[:, 0:1] = np.sum(g * a, axis=1, keepdims=True)
    assert np.signbit([pad0[2, 0], pad1[2, 1]]).all() == signed_zero_sums
    assert got.tobytes() == (pad1 + pad0).tobytes()
    assert not np.signbit(got[2]).any()


# Gate logits at the edges of float64: signed zeros, a tie on the diagonal of
# their pairs, gaps beyond 745 where exp underflows to exactly 0, +-709.8
# where it nearly overflows, subnormals, huge values, +-inf and NaN
GATE_EDGES = [0.0, -0.0, 1.0, -1.0, 2.5, 709.8, -709.8, 745.5, -745.5, 800.0, -800.0,
              5e-324, -5e-324, 1e-310, -1e-310, 1e300, -1e300, np.inf, -np.inf, np.nan]
NEG_NAN = np.copysign(np.nan, -1.0)


def _one_by_one(f, *arrays):
    """``f`` row by row, so numpy runs its one-element loops, not its vector ones."""
    return np.concatenate([f(*(a[j:j + 1] for a in arrays)) for j in range(len(arrays[0]))])


@pytest.mark.parametrize("rows", ["all_at_once", "one_by_one"])
def test_gate_softmax_and_sigmoid_are_the_row_wise_and_masked_forms_byte_for_byte(rows):
    """The column-by-column 2-wide softmax and its rule, and the sigmoid
    without masks, give the reference's bytes on every pair of edge logits,
    and the rule on every pair of edge gradients against every softmax row
    the edges give, NaNs whose sign bit is set included."""
    run = (lambda f, *a: f(*a)) if rows == "all_at_once" else _one_by_one
    pairs = np.array(list(itertools.product(GATE_EDGES, repeat=2)))
    with np.errstate(all="ignore"):
        s = softmax_rows_reference(pairs)
        assert run(ad._softmax_pairs, pairs).tobytes() == s.tobytes()
        assert {0.0, 0.5, 1.0} <= set(s.ravel()) and np.isnan(s).any()
        # the rule against every softmax row, at once: 400 x 400 rows
        s_all = np.repeat(s, len(pairs), axis=0) if rows == "all_at_once" else s
        g_all = np.tile(pairs, (len(pairs), 1)) if rows == "all_at_once" else pairs[::-1]
        assert run(ad._softmax_pairs_rule, s_all, g_all).tobytes() == \
            softmax_rows_rule_reference(s_all, g_all).tobytes()
        column = np.array(GATE_EDGES + [-v for v in GATE_EDGES] + [NEG_NAN])[:, None]
        assert run(ad._sigmoid, column).tobytes() == sigmoid_masked(column).tobytes()

        signed = np.array([[NEG_NAN, v] for v in GATE_EDGES] + [[v, NEG_NAN] for v in GATE_EDGES])
        assert run(ad._softmax_pairs, signed).tobytes() == softmax_rows_reference(signed).tobytes()


def test_every_op_has_a_gradient_check_case():
    """Each op of the engine, a public function annotated ``-> Var`` or, with
    several outputs, ``-> tuple[Var, ...]``, is probed by ``op_checks``, and
    each case probes an op (``<op>`` or a variant ``<op>_<variant>``)."""
    import inspect
    from cpmr.gradcheck import TOLERANCE, op_checks
    ops = {name for name, f in inspect.getmembers(ad, inspect.isfunction)
           if f.__module__ == ad.__name__ and not name.startswith("_")
           and inspect.signature(f).return_annotation in ("Var", ad.Var, "tuple[Var, ...]")}
    assert ops == {"add", "gated_fusion", "gathered_linear", "info_nce", "instant_update",
                   "graph_flow"}
    checks = dict(op_checks())
    assert ops <= set(checks)
    for case in checks:
        assert any(case == op or case.startswith(op + "_") for op in ops), case
    assert max(checks.values()) <= TOLERANCE


def test_untaped_ops_make_no_handles():
    one, two = ad.constant([[1.0]]), ad.constant([[1.0], [2.0]])
    (users, avg_u), (items, avg_i) = averaging_operators(sp.csr_matrix([[1.0]]))
    for out in (ad.add(one, one),
                ad.graph_flow(two, two, two, sp.csr_matrix((2, 2)), 0.1, 2, 0.125),
                ad.instant_update(two, 1, users, items, avg_u, avg_i, one, one, one, one),
                *ad.gated_fusion([two], 1, [[(one, one), (ad.constant([[1.0, 2.0]]),) * 2,
                                             (one, one)]] * 2)):
        with pytest.raises(AttributeError):
            out._node


def test_matmul_grad_hand_computed():
    # loss = sum(A @ B): dA = 1 @ B^T, dB = A^T @ 1
    a = ad.constant([[1.0, 2.0], [3.0, 4.0]])
    b = ad.constant([[5.0, 6.0], [7.0, 8.0]])
    with ad.Tape() as tape:
        loss = sum_all(matmul(a, b))
    g = ad.backward(loss, tape)
    ones = np.ones((2, 2))
    np.testing.assert_allclose(g[a], ones @ b.value.T)
    np.testing.assert_allclose(g[b], a.value.T @ ones)


def test_row_select_duplicates_accumulate():
    x = ad.constant([[1.0], [2.0]])
    with ad.Tape() as tape:
        picked = row_select(x, [0, 0, 1])
        loss = sum_all(picked)
    g = ad.backward(loss, tape)
    np.testing.assert_array_equal(g[x], [[2.0], [1.0]])


@pytest.mark.parametrize("n_rows, n_picks", [(1, 0), (5, 1), (7, 40), (160, 960)])
def test_row_select_backward_is_add_at_byte_for_byte(n_rows, n_picks):
    """The flat ``bincount`` sums each entry's draws from 0.0 in draw order,
    as ``np.add.at`` into zeros does, signed zeros and rows never drawn
    included."""
    rng = np.random.default_rng(n_picks)
    idx = rng.integers(0, n_rows, n_picks)
    g = rng.normal(size=(n_picks, 3)) * 10.0 ** rng.integers(-8, 9, (n_picks, 1))
    g[::3] = -0.0
    rule = _rule(row_select, ad.constant(rng.normal(size=(n_rows, 3))), idx)[1]
    want = np.zeros((n_rows, 3))
    np.add.at(want, idx, g)
    (got,) = rule(g)
    assert got.tobytes() == want.tobytes()


def _head(gathered, nce, e, z, w_u, b_u, w_i, b_i, users, items, neg_u, neg_i):
    """A day's InfoNCE head as in ``batch_loss``: 4 representations, then the loss."""
    item = lambda idx: gathered(e, z, idx + 5, w_i, b_i)            # items are rows 5 ...
    return nce(gathered(e, z, users, w_u, b_u), item(items),
               gathered(e, z, neg_u.reshape(-1), w_u, b_u), item(neg_i.reshape(-1)))


@pytest.mark.parametrize("fused", ["gathered_linear", "info_nce", "both"])
@pytest.mark.parametrize("checkpointed", [False, True])
# burst-d32's day: 960 negative rows, where x^T g over the halves of x differs
@pytest.mark.parametrize("b, m, d", [(1, 1, 3), (4, 3, 3), (30, 8, 3), (120, 8, 32)])
def test_fused_head_ops_are_the_generic_op_chain_byte_for_byte(b, m, d, checkpointed, fused):
    """``gathered_linear`` and ``info_nce``, each alone and both, give the
    loss of the gathers, concatenations, ``linear`` layers, products, row
    sums, reshapes, logsumexp and mean they replace, and every gradient,
    byte for byte: on a tape, and inside a ``checkpoint`` against the chain
    on a plain tape. Ids repeat, a row of z is -0.0 and some logits are in
    the thousands. The fused head records 5 nodes, the chain 30."""
    rng = np.random.default_rng(b * 10 + m)
    n = 12
    e, z = ad.constant(rng.normal(size=(n, d))), ad.constant(rng.normal(size=(n, d)))
    w_u, w_i = (ad.constant(rng.normal(size=(2 * d, d))) for _ in range(2))
    b_u, b_i = (ad.constant(rng.normal(size=(1, d))) for _ in range(2))
    e.value[3] *= 1e3                                  # logits in the thousands
    z.value[6] = -0.0 * np.abs(z.value[6])             # a row of -0.0 in z
    users, items = rng.integers(0, 5, b), rng.integers(0, 7, b)
    neg_u, neg_i = rng.integers(0, 5, (b, m)), rng.integers(0, 7, (b, m))
    leaves = (e, z, w_u, b_u, w_i, b_i)

    def run(gathered, nce, wrap):
        def day(z):
            return scale(_head(gathered, nce, e, z, w_u, b_u, w_i, b_i,
                               users, items, neg_u, neg_i), 0.37),
        with ad.Tape() as tape:
            (loss,) = wrap(day, z)
            n_nodes = len(tape.nodes)
        grads = ad.backward(loss, tape, params=leaves)
        return n_nodes, [loss.value, *(grads[v] for v in leaves)]

    plain = lambda fn, *inputs: fn(*inputs)
    fused_nodes, got = run(gathered_linear_chain if fused == "info_nce" else ad.gathered_linear,
                           info_nce_chain if fused == "gathered_linear" else ad.info_nce,
                           ad.checkpoint if checkpointed else plain)
    chain_nodes, want = run(gathered_linear_chain, info_nce_chain, plain)
    # 4 x 4 gather nodes or 4 fused, 14 loss nodes or 1 fused, and the scale
    nodes = {"gathered_linear": 4 + 14, "info_nce": 16 + 1, "both": 4 + 1}[fused] + 1
    assert (fused_nodes, chain_nodes) == (1 if checkpointed else nodes, 31)
    assert [a.tobytes() for a in got] == [a.tobytes() for a in want]
    assert np.isfinite(got[0]).all() and all(np.abs(g).max() > 0 for g in got[1:])


def test_fused_head_rules_keep_their_inputs_not_gathered_copies():
    """``gathered_linear``'s rule keeps e, z, the ids and w, not the (rows x 2d)
    input; ``info_nce``'s keeps its four inputs and the logits, not the
    positives repeated for each negative. Untaped, neither records anything."""
    rng = np.random.default_rng(2)
    e, z = ad.constant(rng.normal(size=(6, 2))), ad.constant(rng.normal(size=(6, 3)))
    w, bias = ad.constant(rng.normal(size=(5, 4))), ad.constant(rng.normal(size=(1, 4)))
    idx = np.array([5, 0, 0, 2, 3, 1])

    def kept(rule):
        cells = list(rule.__defaults__ or ()) + [c.cell_contents for c in rule.__closure__ or ()]
        return [c for c in cells if isinstance(c, np.ndarray)]

    with ad.Tape() as tape:
        p_pos, q_pos, p_neg, q_neg = (ad.gathered_linear(e, z, idx[k:k + r], w, bias)
                                      for k, r in ((0, 2), (2, 2), (0, 6), (0, 6)))
        loss = ad.info_nce(p_pos, q_pos, p_neg, q_neg)
    rules = [rule for _, (_, rule) in tape.nodes]
    assert len(rules) == 5
    for rule in rules[:4]:
        arrays = kept(rule)
        assert {id(a) for a in arrays if a.ndim == 2} == {id(e.value), id(z.value), id(w.value)}
        assert [a.dtype for a in arrays if a.ndim == 1] == [np.int64]
    arrays = kept(rules[4])
    assert {id(a) for a in arrays} - {id(v.value) for v in (p_pos, q_pos, p_neg, q_neg)} \
        == {id(a) for a in arrays if a.shape == (2, 1 + 2 * 3)}
    assert len(arrays) == 5
    untaped = ad.info_nce(p_pos, q_pos, p_neg, q_neg)
    assert untaped.value.tobytes() == loss.value.tobytes()
    with pytest.raises(AttributeError):
        untaped._node


def test_fused_head_ops_reject_bad_shapes():
    x, w, bias = (ad.constant(np.ones(shape)) for shape in ((3, 2), (4, 2), (1, 2)))
    with pytest.raises(ShapeError):
        ad.gathered_linear(x, x, [0], ad.constant(np.ones((3, 2))), bias)
    with pytest.raises(ShapeError):
        ad.gathered_linear(x, ad.constant(np.ones((2, 2))), [0], w, bias)
    with pytest.raises(ShapeError):
        ad.info_nce(x, x, ad.constant(np.ones((4, 2))), ad.constant(np.ones((4, 2))))
    with pytest.raises(ShapeError):
        ad.info_nce(*(ad.constant(np.ones((0, 2))) for _ in range(4)))   # no interaction


def _instant_day(case):
    """(joined states, user count, instant biadjacency, output gradient) of a day of ``case``."""
    rng = np.random.default_rng(len(case))
    n_u, n_i, d = (40, 30, 32) if case == "burst" else (5, 6, 3)
    b = np.zeros((n_u, n_i))
    if case == "one_interaction":
        b[2, 4] = 1.0
    elif case in ("several_items", "infinite_gradient"):   # user 1: four items; item 2: three users
        b[1, [0, 2, 3, 5]] = b[[0, 3], 2] = 1.0
    else:                                          # 120 draws, as on a burst-d32 day, at d=32
        b[rng.integers(0, n_u, 120), rng.integers(0, n_i, 120)] = 1.0
        b[4] = 0.0
    x_u, x_i, g = (rng.normal(size=(n, d)) for n in (n_u, n_i, n_u + n_i))
    x_u[1] = x_u[4] = -0.0                         # rows of -0.0; user 4 is never involved
    # entries of -0.0 in the one-interaction day's rows, which a weight
    # gradient r^T g over that one row multiplies alone
    x_u[2, 0] = x_i[4, 1] = -0.0
    g[rng.random(g.shape) < 0.2] = -0.0
    if case == "infinite_gradient":               # in user 0's and item 0's rows, not partners
        g[0, 2], g[n_u, 0] = np.inf, -np.inf
    return np.concatenate([x_u, x_i]), n_u, sp.csr_matrix(b), g


@pytest.mark.parametrize("checkpointed", [False, True])
@pytest.mark.parametrize("case", ["one_interaction", "several_items", "infinite_gradient",
                                  "burst"])
def test_instant_update_is_the_generic_op_chain_byte_for_byte(case, checkpointed):
    """``instant_update`` gives the joined states of the row blocks, 0/1
    selections, products, relus, differences, sums, ``row_replace`` and join
    it replaces, and the gradients of the states and all four weights, byte
    for byte: on a tape, and inside a ``checkpoint`` against the chain on a
    plain tape. State rows of -0.0, involved and not, and -0.0 entries in
    the incoming gradient keep the chain's signs, and an infinite entry
    there gives the chain's NaNs: its ``sub`` and ``add`` nodes make g + (-g).
    It records 1 node, the chain 21."""
    x, n_u, b, g = _instant_day(case)
    (users, avg_u), (items, avg_i) = averaging_operators(b)
    rng = np.random.default_rng(9)          # weights under which each relu passes a value
    leaves = [ad.constant(x), *(ad.constant(rng.normal(size=(x.shape[1],) * 2)) for _ in range(4))]

    def run(op, wrap):
        def day(x):
            return op(x, n_u, users, items, avg_u, avg_i, *leaves[1:]),
        with ad.Tape() as tape, np.errstate(invalid="ignore"):
            (out,) = wrap(day, leaves[0])
            n_nodes = len(tape.nodes)
            loss = sum_all(hadamard(out, ad.constant(g)))     # hands the op g * 1.0 = g
            grads = ad.backward(loss, tape, params=leaves)
        return n_nodes, [out.value, *(grads[v] for v in leaves)]

    fused_nodes, got = run(ad.instant_update,
                           ad.checkpoint if checkpointed else lambda fn, *xs: fn(*xs))
    chain_nodes, want = run(instant_update_chain, lambda fn, *xs: fn(*xs))
    assert (fused_nodes, chain_nodes) == (1, 21)
    assert [a.tobytes() for a in got] == [a.tobytes() for a in want]
    assert all((a != 0).any() for a in got)
    assert np.isnan([got[1][0, 2], got[1][n_u, 0]]).all() == (case == "infinite_gradient")
    # no -0.0 in the states' gradient, on which wo_fusion's summed states rely
    assert not (np.signbit(got[1]) & (got[1] == 0)).any()
    for r in (1, 4):              # a -0.0 row keeps its bytes, or jumps from +0.0
        assert np.signbit(got[0][r]).all() if r not in users else not np.signbit(got[0][r]).any()
    assert (1 in users) == (case != "one_interaction")


def test_instant_update_rejects_bad_shapes():
    (users, avg_u), (items, avg_i) = averaging_operators(sp.csr_matrix(np.eye(2)))
    x, w = ad.constant(np.ones((4, 3))), ad.constant(np.ones((3, 3)))
    assert ad.instant_update(x, 2, users, items, avg_u, avg_i, w, w, w, w).shape == (4, 3)
    for n_users in (-1, 5):
        with pytest.raises(ShapeError):
            ad.instant_update(x, n_users, users, items, avg_u, avg_i, w, w, w, w)
    with pytest.raises(ShapeError):
        ad.instant_update(x, 2, users, items[:1], avg_u, avg_i, w, w, w, w)
    with pytest.raises(ShapeError):
        ad.instant_update(x, 2, users, items, avg_u, avg_i, w, w, w, ad.constant(np.ones((2, 3))))


# scenarios, tasks, the tasks whose outputs are read, users, items, d
FUSION_CASES = {
    "two_scenarios": (2, 3, (0, 1, 2), 5, 4, 3),
    "one_scenario": (1, 2, (0, 1), 5, 4, 3),
    "no_prediction": (2, 2, (0, 1), 5, 4, 3),
    "one_scenario_no_prediction": (1, 1, (0,), 5, 4, 3),
    "segment_last_day": (2, 3, (2,), 5, 4, 3),       # only the final task is read
    "middle_task_unread": (2, 3, (0, 2), 5, 4, 3),
    "burst_d32": (2, 3, (0, 1, 2), 800, 160, 32),
    "tied_logits": (2, 3, (0, 1, 2), 5, 4, 3),       # each gate's two columns alike
    "gap_beyond_745": (2, 3, (0, 1, 2), 5, 4, 3),    # gate biases 800 apart
}


def _fusion_inputs(case):
    """(parts, layers, a gradient per task, a gradient for the first part) of ``case``."""
    n_parts, n_tasks, _, n_u, n_i, d = FUSION_CASES[case]
    rng = np.random.default_rng(n_u + 10 * n_tasks + n_parts)
    n = n_u + n_i

    def signed():                  # normal entries, a fifth of them -0.0, and a user's
        a = rng.normal(size=(n, d))    # and an item's row all -0.0
        a[rng.random(a.shape) < 0.2] = a[1] = a[n_u + 2] = -0.0
        return a
    parts = [ad.constant(signed()) for _ in range(n_parts)]
    layers = [[tuple(ad.constant(rng.normal(size=s)) for s in ((n_parts * d, m), (1, m)))
               for m in [d] + [2, d] * n_tasks] for _ in range(2)]
    for c in layers:
        for t, (w, b) in enumerate(c[1::2]):
            if case == "tied_logits":          # every row's two logits equal: s = (0.5, 0.5)
                w.value[:, 1], b.value[:, 1] = w.value[:, 0], b.value[:, 0]
            elif case == "gap_beyond_745":     # exp of the lower logit minus the higher is 0
                b.value[:] = [[400.0, -400.0]] if t % 2 else [[-400.0, 400.0]]
    return parts, layers, [signed() for _ in range(n_tasks)], signed()


@pytest.mark.parametrize("checkpointed", [False, True])
@pytest.mark.parametrize("case", list(FUSION_CASES))
def test_gated_fusion_is_the_generic_op_chain_byte_for_byte(case, checkpointed):
    """``gated_fusion`` gives the outputs of the row blocks, concatenation,
    ``linear`` layers, ``softmax_rows``, ``gate_mix`` mixes and joins it
    replaces, and the gradients of the parts and of every layer, byte for
    byte: on a tape, and inside a ``checkpoint`` against the chain on a plain
    tape. States and incoming gradients hold -0.0 entries and rows, and the
    first part also gets a gradient of its own, summed before fusion's. A
    task whose output nothing reads gives its layers no gradient, as in the
    chain. Two cases tie each gate's logits or set them 800 apart, so every
    s is exactly (0.5, 0.5), or (1, 0) and (0, 1). It records 1 node, the
    chain one per block, concatenation, layer, softmax, mix and join."""
    n_parts, n_tasks, read, n_u, _, _ = FUSION_CASES[case]
    parts, layers, gs, g_part = _fusion_inputs(case)
    leaves = [*parts, *(v for c in layers for layer in c for v in layer)]

    def run(op, wrap):
        with ad.Tape() as tape:
            outs = wrap(lambda *xs: op(xs, n_u, layers), *parts)
            n_nodes = len(tape.nodes)
            # each hands its op g * 1.0 = g
            terms = [sum_all(hadamard(outs[t], ad.constant(gs[t]))) for t in read]
            terms.append(sum_all(hadamard(parts[0], ad.constant(g_part))))
            loss = functools.reduce(ad.add, terms)
        grads = ad.backward(loss, tape, params=leaves)
        return n_nodes, [*(o.value for o in outs), loss.value, *(grads[v] for v in leaves)]

    plain = lambda fn, *xs: fn(*xs)
    fused_nodes, got = run(ad.gated_fusion, ad.checkpoint if checkpointed else plain)
    chain_nodes, want = run(gated_fusion_chain, plain)
    assert (fused_nodes, chain_nodes) == (1, 2 * (n_parts + (n_parts > 1) + 1 + 4 * n_tasks)
                                          + n_tasks)
    assert [a.tobytes() for a in got] == [a.tobytes() for a in want]
    layer_grads = got[n_tasks + 1 + n_parts:]

    def live(t, k):                # whether task t's gate (k < 2) or expert (k >= 2) gets one
        if case != "gap_beyond_745":
            return t in read
        # s is (1, 0) on odd tasks, (0, 1) on even ones: no gate gradient, and an
        # expert's only where its weight is 1
        return t in read and k >= 2 and t % 2 == 1
    for c in range(2):             # per class the shared expert's, then a gate's and an expert's
        grads = layer_grads[c * len(layer_grads) // 2:(c + 1) * len(layer_grads) // 2]
        assert [bool(np.abs(g).max() > 0) for g in grads] == \
            [True] * 2 + [live(t, k) for t in range(n_tasks) for k in range(4)]
    assert all(np.abs(g).max() > 0 for g in got[n_tasks + 1:n_tasks + 1 + n_parts])


@pytest.mark.parametrize("n_parts", [1, 2])
def test_gated_fusion_rule_keeps_its_arrays_not_the_parts(n_parts):
    """Under a tape the rule keeps, per class, its input rows and the shared
    expert, and per task the gate weights and the expert: arrays, never a
    part's ``Var``. Untaped, the op keeps nothing and records nothing. With
    two parts the input rows are a concatenation, so the parts' arrays die
    with their ``Var``s."""
    parts, layers, _, _ = _fusion_inputs("one_scenario" if n_parts == 1 else "two_scenarios")
    n_tasks = len(layers[0]) // 2
    refs = [weakref.ref(p) for p in parts] + [weakref.ref(p.value) for p in parts]
    weights = {id(v.value) for c in layers for layer in c for v in layer}
    untaped = ad.gated_fusion(parts, 5, layers)
    with ad.Tape() as tape:
        outs = ad.gated_fusion(parts, 5, layers)
        del parts
        alive = [r() is not None for r in refs]
    assert [o.value.tobytes() for o in untaped] == [o.value.tobytes() for o in outs]
    for out in untaped:
        with pytest.raises(AttributeError):
            out._node
    (nodes, (inputs, rule)), = tape.nodes
    assert len(inputs) == len(weights) + n_parts and len(nodes) == n_tasks == len(outs)
    assert alive == [False] * n_parts + [n_parts == 1] * n_parts

    def walk(x):
        if isinstance(x, (list, tuple)):
            for y in x:
                yield from walk(y)
        else:
            yield x
    held = list(walk([c.cell_contents for c in rule.__closure__]))
    assert not any(isinstance(x, ad.Var) for x in held)
    kept = [x for x in held if isinstance(x, np.ndarray) and id(x) not in weights]
    assert len(kept) == 2 * (2 + 2 * n_tasks)
    # the input rows, 3 * n_parts wide, the shared experts and experts, 3, and the gates, 2
    assert {x.shape[1] for x in kept} == {2, 3, 3 * n_parts}


def test_gated_fusion_rejects_bad_shapes():
    parts, layers, _, _ = _fusion_inputs("two_scenarios")       # 5 users, 4 items, d = 3
    assert len(ad.gated_fusion(parts, 5, layers)) == 3
    cases = [(parts[:1], 5, layers),                                # layers for two parts
             ([parts[0], ad.constant(np.ones((9, 2)))], 5, layers),
             (parts, 10, layers), (parts, -1, layers),
             (parts, 5, layers[:1]),
             (parts, 5, [layers[0], layers[1][:-2]]),               # a task fewer for items
             (parts, 5, [layers[0][:1]] * 2),                       # no task
             (parts, 5, [layers[0][:-1]] * 2),                      # a gate with no expert
             (parts, 5, [layers[0][:1] + layers[0][2:4] + layers[0][5:]] * 2),   # gates swapped
             ([], 5, layers)]
    for args in cases:
        with pytest.raises(ShapeError):
            ad.gated_fusion(*args)


def test_every_public_autodiff_function_has_a_caller_in_src():
    """No public function of ``cpmr.autodiff`` that nothing uses: each is
    named by another module of ``src/cpmr``, through ``ad.<name>``-style
    attributes of the module or ``from .autodiff import <name>``. Tests do
    not count, so an op that only a test calls fails here. Nor does the
    gradient harness for an op, a function annotated ``-> Var`` or
    ``-> tuple[Var, ...]``: an op that only its own check calls fails too."""
    import ast
    import pathlib
    src = pathlib.Path(ad.__file__).parent
    defs = [node for node in ast.parse((src / "autodiff.py").read_text()).body
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")]
    public = {node.name for node in defs}
    ops = {node.name for node in defs
           if node.returns is not None and ast.unparse(node.returns) in ("Var", "tuple[Var, ...]")}
    used, used_by_model = set(), set()
    for path in src.glob("*.py"):
        if path.name == "autodiff.py":
            continue
        tree = ast.parse(path.read_text())
        aliases, names = set(), set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                if node.module == "autodiff":
                    names.update(a.name for a in node.names)
                elif node.module is None:
                    aliases.update(a.asname or a.name for a in node.names if a.name == "autodiff")
        names.update(node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)
                     and isinstance(node.value, ast.Name) and node.value.id in aliases)
        used |= names
        if path.name != "gradcheck.py":
            used_by_model |= names
    assert "backward" in public and ops == {"add", "gated_fusion", "gathered_linear", "info_nce",
                                            "instant_update", "graph_flow"}
    assert sorted(public - used) == []
    assert sorted(ops - used_by_model) == []


def test_fanout_gradients_sum():
    # x used twice: d/dx (x*x + 3x) = 2x + 3
    x = ad.constant([[4.0]])
    with ad.Tape() as tape:
        loss = sum_all(ad.add(hadamard(x, x), scale(x, 3.0)))
    g = ad.backward(loss, tape)
    assert g[x][0, 0] == pytest.approx(11.0)


@given(st.lists(st.floats(-30, 30), min_size=1, max_size=6))
@settings(max_examples=50, deadline=None)
def test_logsumexp_matches_scipy(row):
    x = ad.constant([row])
    got = logsumexp_rows(x).value[0, 0]
    assert got == pytest.approx(scipy_logsumexp(row), abs=1e-12)


def test_logsumexp_extreme_values_stable():
    x = ad.constant([[1000.0, 999.0], [-1000.0, -1000.0]])
    out = logsumexp_rows(x).value
    assert np.all(np.isfinite(out))
    assert out[0, 0] == pytest.approx(1000.0 + np.log(1 + np.exp(-1.0)))


def test_softmax_rows_sum_to_one():
    rng = np.random.default_rng(0)
    x = ad.constant(rng.normal(0, 10, (20, 5)))
    s = softmax_rows(x).value
    np.testing.assert_allclose(s.sum(axis=1), np.ones(20), atol=1e-12)


def test_sigmoid_extreme_no_overflow():
    s = ad._sigmoid(np.array([[-800.0, 800.0]]))
    np.testing.assert_allclose(s, [[0.0, 1.0]], atol=1e-300)


def test_grad_check_known_quadratic():
    # f(p) = sum(p * p), exact gradient 2p -> FD error ~ h^2
    p = ad.constant(np.arange(1.0, 7.0).reshape(2, 3))
    err = ad.grad_check(lambda ps: sum_all(hadamard(ps[0], ps[0])), [p])
    assert err < 1e-8


def test_grad_check_rejects_bad_step():
    p = ad.constant([[1.0]])
    with pytest.raises(CpmrError):
        ad.grad_check(lambda ps: sum_all(ps[0]), [p], h=0.1)


def test_adam_single_step_hand_computed():
    p = ad.Var(np.array([[1.0]]))
    g = np.array([[0.5]])
    st_ = ad.AdamState()
    ad.adam_step({"p": p}, {"p": g}, lr=0.1, weight_decay=0.0, state=st_)
    # bias-corrected mhat = g, vhat = g^2 on step 1
    expect = 1.0 - 0.1 * 0.5 / (np.sqrt(0.25) + 1e-8)
    assert p.value[0, 0] == pytest.approx(expect, abs=1e-12)


def test_adam_weight_decay_in_gradient():
    # wd folds into the gradient before moments: step direction flips sign
    # when wd * p dominates the raw gradient
    p = ad.Var(np.array([[10.0]]))
    st_ = ad.AdamState()
    ad.adam_step({"p": p}, {"p": np.array([[0.0]])}, lr=0.1, weight_decay=1.0,
                 state=st_)
    assert p.value[0, 0] < 10.0


@pytest.mark.parametrize("grad, weight_decay", [(np.nan, 0.0), (np.inf, 0.0), (1e200, 0.0),
                                                (0.5, 1e308)])
def test_adam_rejects_a_non_finite_gradient_or_second_moment(grad, weight_decay):
    """A NaN or infinite gradient, or one whose square overflows the second
    moment (``weight_decay=1e308`` on a parameter of 1e-3 gives a gradient
    of 1e305), would leave the parameter NaN or frozen; the step raises
    before it moves it."""
    p = ad.Var(np.full((2, 1), 1e-3))
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(NumericalError, match="'p'"):
        ad.adam_step({"p": p}, {"p": np.full((2, 1), grad)}, 0.1, weight_decay, ad.AdamState())
    assert np.array_equal(p.value, np.full((2, 1), 1e-3))


def test_adam_shape_mismatch():
    p = ad.Var(np.zeros((2, 2)))
    with pytest.raises(ShapeError):
        ad.adam_step({"p": p}, {"p": np.zeros((1, 2))}, 0.1, 0.0, ad.AdamState())


def test_checkpoint_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(3)
    params = {"a": ad.Var(rng.normal(size=(3, 4))),
              "z/nested.name": ad.Var(rng.normal(size=(1, 1)))}
    path = tmp_path / "ck.bin"
    ad.save_checkpoint(path, params)
    back = ad.read_checkpoint(path)[1]
    assert set(back) == set(params)
    for name in params:
        np.testing.assert_array_equal(back[name], params[name].value)
    # round-tripping again produces identical bytes
    path2 = tmp_path / "ck2.bin"
    ad.save_checkpoint(path2, back)
    assert path.read_bytes() == path2.read_bytes()


def test_checkpoint_bad_magic(tmp_path):
    path = tmp_path / "ck.bin"
    ad.save_checkpoint(path, {"a": ad.Var(np.zeros((1, 1)))})
    raw = bytearray(path.read_bytes())
    raw[0] ^= 0xFF
    path.write_bytes(bytes(raw))
    with pytest.raises(DataFormatError):
        ad.read_checkpoint(path)[1]


def test_checkpoint_truncated(tmp_path):
    path = tmp_path / "ck.bin"
    ad.save_checkpoint(path, {"a": ad.Var(np.ones((4, 4)))})
    raw = path.read_bytes()
    path.write_bytes(raw[:-8])
    with pytest.raises(DataFormatError):
        ad.read_checkpoint(path)[1]


def test_spmm_matches_dense():
    import scipy.sparse as sp
    rng = np.random.default_rng(5)
    s = sp.random(6, 4, density=0.5, random_state=np.random.RandomState(5),
                  format="csr")
    x = ad.constant(rng.normal(size=(4, 3)))
    with ad.Tape() as tape:
        loss = sum_all(spmm(s, x))
    g = ad.backward(loss, tape)
    np.testing.assert_allclose(g[x], s.toarray().T @ np.ones((6, 3)), atol=1e-14)


# ---------------------------------------------------------------------------
# graph_flow against the plain expressions it was first written as, and
# against the step-matrix form it runs now


def _reference_flow(x, e, s, n, tau, steps, order):
    """The forward of ``graph_flow`` as one expression per iterate: (output, iterates)."""
    inv_fact = [1.0 / math.factorial(k) for k in range(order + 1)]
    cur, kept = x, []
    for _ in range(steps):
        y = cur * inv_fact[order]
        for k in range(order - 1, -1, -1):
            kept.append(y)
            y = ((np.asarray(n @ (y * s)) - y) * tau
                 + (cur * inv_fact[k] + e * (tau * inv_fact[k + 1])))
        cur = y
    return cur, kept


def _reference_flow_adjoint(g, e, s, n, tau, steps, order, kept):
    """The transposed recurrence as one expression per iterate: (g_x, g_e, g_gate)."""
    inv_fact = [1.0 / math.factorial(k) for k in range(order + 1)]
    nt, g_e, g_s = n.T, np.zeros_like(e), np.zeros_like(s)
    for _ in range(steps):
        g_cur = 0.0
        for k in range(order):
            h = np.asarray(nt @ g)
            g_s += tau * np.sum(h * kept.pop(), axis=1, keepdims=True)
            g_cur = g_cur + g * inv_fact[k]
            g_e += g * (tau * inv_fact[k + 1])
            g = (s * h - g) * tau
        g = g_cur + g * inv_fact[order]
    return g, g_e, g_s


def _reference_step_flow(x, e, s, n, tau, steps, order):
    """The forward of ``graph_flow`` as it runs: each iterate the affine term,
    then the step matrix M = tau (N diag(s) - I), its columns sorted, times y
    accumulated into it by scipy's kernel. (output, iterates)."""
    inv_fact = [1.0 / math.factorial(k) for k in range(order + 1)]
    m = sp.csr_matrix(tau * (n @ sp.diags(s[:, 0])) - tau * sp.identity(n.shape[0]))
    m.sort_indices()
    cur, kept = x, []
    for _ in range(steps):
        y = cur * inv_fact[order]
        for k in range(order - 1, -1, -1):
            kept.append(y)
            t = cur * inv_fact[k] + e * (tau * inv_fact[k + 1])
            _sparsetools.csr_matvecs(*m.shape, y.shape[1], m.indptr, m.indices, m.data,
                                     y.ravel(), t.ravel())
            y = t
        cur = y
    return cur, kept


def _normwise(got, want):
    """max |got - want| / max |want|."""
    return np.abs(got - want).max() / np.abs(want).max()


def _flow_inputs(graph, seed):
    rng = np.random.default_rng(seed)
    if graph == "random":
        n = sp.random(12, 12, density=0.35, random_state=np.random.RandomState(seed),
                      format="csr", data_rvs=lambda k: rng.normal(scale=0.3, size=k))
    else:
        n = normalize_adjacency(sp.csr_matrix((rng.random((5, 7)) < 0.4).astype(float)))
    x, e, g = (rng.normal(size=(12, 4)) for _ in range(3))
    for a in (x, e, g):
        a[rng.random(a.shape) < 0.25] = -0.0
    # gate logits whose sigmoids are 1.0e-14, 3.1e-9, 0.5, 1 - 1.0e-9,
    # 1 - 1.1e-15 and 1; not 0: the step-matrix reference drops the zero
    # entries a gate of 0 gives M, where 0 * inf is NaN in the flow
    alpha = rng.choice([-32.2, -19.6, 0.0, 20.7, 34.5, np.inf], size=(12, 1))
    return n, x, e, alpha, g


def gate_flow(x, e, gate, n, dt, order, tau_max):
    """``graph_flow`` on the gates themselves, not their logits: the
    step-matrix reference forward, and the transposed recurrence as its rule."""
    steps = max(1, math.ceil(dt / tau_max))
    tau = dt / steps
    y, kept = _reference_step_flow(x.value, e.value, gate.value, n, tau, steps, order)
    out = ad.Var(y)
    ad._record(out, (x, e, gate), lambda g: _reference_flow_adjoint(
        g, e.value, gate.value, n, tau, steps, order, list(kept)))
    return out


@pytest.mark.parametrize("graph", ["random", "normalized"])
@pytest.mark.parametrize("order", [1, 3, 6])
@pytest.mark.parametrize("steps", [1, 2, 3])
def test_graph_flow_is_the_reference_arithmetic_byte_for_byte(graph, order, steps):
    """The forward is the step-matrix reference's bytes on the gates
    sigmoid(alpha), untaped and taped, and within 1e-13 normwise of the
    gate-then-subtract form it replaced; the gradients are that form's
    transposed recurrence run on the step-matrix iterates, and sigmoid's rule
    on the gate's, byte for byte."""
    n, x, e, alpha, g = _flow_inputs(graph, 100 * order + steps)
    assert graph == "normalized" or (n != n.T).nnz > 0
    tau = 0.37 / steps                   # graph_flow's dt / ceil(dt / tau_max)
    gate = ad._sigmoid(alpha)
    want, kept = _reference_step_flow(x, e, gate, n, tau, steps, order)
    *want_grads, g_gate = _reference_flow_adjoint(g, e, gate, n, tau, steps, order, kept)
    want_grads.append(g_gate * gate * (1.0 - gate))
    assert _normwise(want, _reference_flow(x, e, gate, n, tau, steps, order)[0]) <= 1e-13

    xv, ev, sv = ad.Var(x.copy()), ad.Var(e.copy()), ad.Var(alpha.copy())
    flow = functools.partial(ad.graph_flow, xv, ev, sv, n, 0.37, order, 0.4 / steps)
    assert flow().value.tobytes() == want.tobytes()
    with ad.Tape() as tape:
        out = flow()
        loss = sum_all(hadamard(out, ad.constant(g)))   # hands the flow g * 1.0 = g
    assert out.value.tobytes() == want.tobytes()
    grads = ad.backward(loss, tape, params=[xv, ev, sv])
    assert [grads[v].tobytes() for v in (xv, ev, sv)] == [a.tobytes() for a in want_grads]
    assert not np.array_equal(x, want) and np.abs(want_grads[2]).max() > 0


@pytest.mark.parametrize("graph", ["random", "normalized"])
@pytest.mark.parametrize("order", [1, 3, 6])
@pytest.mark.parametrize("steps", [1, 2, 3])
def test_graph_flow_on_logits_is_sigmoid_then_the_gate_flow_byte_for_byte(graph, order, steps):
    """``graph_flow`` on the logits alpha is one node with the bytes of two,
    ``sigmoid`` and then ``gate_flow`` on its gates: the forward, and the
    gradients of x, E and alpha."""
    n, x, e, alpha, g = _flow_inputs(graph, 100 * order + steps)

    def run(flow):
        xv, ev, av = ad.Var(x.copy()), ad.Var(e.copy()), ad.Var(alpha.copy())
        with ad.Tape() as tape:
            out = flow(xv, ev, av, n, 0.37, order, 0.4 / steps)
            n_nodes = len(tape.nodes)
            loss = sum_all(hadamard(out, ad.constant(g)))
        grads = ad.backward(loss, tape, params=[xv, ev, av])
        return n_nodes, [out.value, *(grads[v] for v in (xv, ev, av))]

    got_nodes, got = run(ad.graph_flow)
    want_nodes, want = run(lambda x, e, a, *args: gate_flow(x, e, sigmoid(a), *args))
    assert (got_nodes, want_nodes) == (1, 2)
    assert [a.tobytes() for a in got] == [a.tobytes() for a in want]
    assert np.abs(got[3]).max() > 0


@pytest.mark.parametrize("graph", ["random", "normalized"])
def test_evolve_is_the_flow_gated_by_ones_byte_for_byte(graph):
    """``evolve`` passes +inf logits, whose gates are exactly 1, so it gives
    the bytes of ``gate_flow`` on gates of ones."""
    from cpmr.model import evolve
    n, x, e, _, _ = _flow_inputs(graph, 5)
    assert ad._sigmoid(np.array([[np.inf]])).tobytes() == np.ones((1, 1)).tobytes()
    for order, dt in ((1, 0.1), (6, 0.37), (4, 1.3)):
        want = gate_flow(ad.Var(x), ad.Var(e), ad.Var(np.ones((12, 1))), n, dt, order, 0.125)
        assert evolve(x, e, n, dt, order, 0.125).tobytes() == want.value.tobytes()


@pytest.mark.parametrize("order, steps", [(1, 1), (4, 1), (6, 3)])
def test_graph_flow_forward_with_signed_zeros_inf_and_nan_is_the_reference(order, steps):
    """With -0.0, infinities and NaNs in the states and the embeddings the
    forward keeps the step-matrix reference's bytes, untaped and taped, and
    its infinities and NaNs are where the gate-then-subtract form has them."""
    n, x, e, alpha, _ = _flow_inputs("random", 10 * order + steps)
    gate = ad._sigmoid(alpha)
    n = sp.csr_matrix(n.multiply(sp.random(12, 12, density=0.4, random_state=order)
                                 .astype(bool)))          # sparser: the NaNs reach few rows
    x[0, 0], x[1, 1], e[2, 2], x[3], e[3, 1] = np.inf, -np.inf, np.nan, -0.0, -0.0
    tau = 0.37 / steps
    with np.errstate(invalid="ignore", over="ignore"):
        want, _ = _reference_step_flow(x, e, gate, n, tau, steps, order)
        old, _ = _reference_flow(x, e, gate, n, tau, steps, order)
        args = (ad.Var(x.copy()), ad.Var(e.copy()), ad.Var(alpha.copy()), n, 0.37, order,
                0.4 / steps)
        got = ad.graph_flow(*args).value
        with ad.Tape():
            taped = ad.graph_flow(*args).value
    assert got.tobytes() == want.tobytes() and taped.tobytes() == want.tobytes()
    assert np.isnan(want).any() and np.isfinite(want).any()      # inf - inf is NaN
    assert np.array_equal(np.isnan(want), np.isnan(old))
    assert np.array_equal(np.isinf(want), np.isinf(old))


def _awkward_operator(case, index_dtype):
    """A 12 x 12 operator as ``normalize_adjacency`` never makes one."""
    rng = np.random.default_rng(list(AWKWARD).index(case))
    dense = rng.normal(scale=0.3, size=(12, 12)) * (rng.random((12, 12)) < 0.4)
    np.fill_diagonal(dense, rng.normal(scale=0.3, size=12))
    if case == "missing_diagonal":
        dense[[0, 3, 4, 11], [0, 3, 4, 11]] = 0.0
    n = sp.csr_matrix(dense)
    if case == "stored_zeros":                 # a stored 0.0 off and on the diagonal
        n.data[::3] = 0.0
        n.data[n.indptr[5]] = 0.0
    elif case in ("duplicates", "unsorted"):
        rows = np.repeat(np.arange(12), np.diff(n.indptr))
        if case == "duplicates":               # every entry stored twice, its parts adding up
            part = n.data * rng.uniform(0.2, 0.8, n.nnz)
            coo = (np.concatenate([part, n.data - part]),
                   (np.tile(rows, 2), np.tile(n.indices, 2)))
        else:                                  # each row's columns descending
            coo = (n.data[::-1], (rows[::-1], n.indices[::-1]))
        order = np.argsort(coo[1][0], kind="stable")
        n = sp.csr_matrix((coo[0][order], coo[1][1][order],
                           np.concatenate([[0], np.cumsum(np.bincount(coo[1][0], minlength=12))])),
                          shape=(12, 12))
    elif case == "csc":
        n = n.tocsc()
    n.indptr, n.indices = n.indptr.astype(index_dtype), n.indices.astype(index_dtype)
    return n


AWKWARD = {"missing_diagonal": "csr", "stored_zeros": "csr", "duplicates": "csr",
           "unsorted": "csr", "csc": "csc"}


@pytest.mark.parametrize("index_dtype", [np.int32, np.int64])
@pytest.mark.parametrize("case", list(AWKWARD))
def test_graph_flow_on_awkward_operators_is_within_the_tolerance_and_leaves_n_alone(
        case, index_dtype):
    """Rows without a stored diagonal, stored zeros, duplicates, unsorted
    columns, either index dtype and a CSC operand: the step matrix is built
    from a canonical copy, so the forward is within 1e-13 normwise of the
    gate-then-subtract form and the operator's arrays keep their bytes
    through a taped forward and its backward."""
    n = _awkward_operator(case, index_dtype)
    assert n.format == AWKWARD[case] and n.indices.dtype == index_dtype
    if case in ("duplicates", "unsorted"):
        assert not n.has_canonical_format
    elif case == "missing_diagonal":
        assert np.count_nonzero(n.diagonal()) == 8
    elif case == "stored_zeros":
        assert np.count_nonzero(n.data == 0.0) > 1
    arrays = [a.copy() for a in (n.data, n.indices, n.indptr)]
    _, x, e, alpha, g = _flow_inputs("random", 7)
    want, _ = _reference_flow(x, e, ad._sigmoid(alpha), n, 0.37 / 3, 3, 6)
    xv, ev, sv = ad.Var(x), ad.Var(e), ad.Var(alpha)
    with ad.Tape() as tape:
        out = ad.graph_flow(xv, ev, sv, n, 0.37, 6, 0.125)
        loss = sum_all(hadamard(out, ad.constant(g)))
    assert _normwise(out.value, want) <= 1e-13
    ad.backward(loss, tape, params=[xv, ev, sv])
    for old, now in zip(arrays, (n.data, n.indices, n.indptr)):
        assert now.dtype == old.dtype and now.tobytes() == old.tobytes()


def test_graph_flow_at_the_benchmark_shapes_is_within_the_tolerance():
    """On the last history view of each benchmark workload's log, at its d,
    its one-day gap and order 6, the forward is the step-matrix reference's
    bytes and within 1e-13 normwise of the gate-then-subtract form."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    sys.path.insert(0, os.path.join(root, "benchmarks"))
    try:
        from workloads import WORKLOADS, generate
    finally:
        sys.path.remove(os.path.join(root, "benchmarks"))
    for w in WORKLOADS.values():
        raw, _ = generate(w, 0)
        ds = canonicalize(k_core_filter(parse_interactions(raw, "amazon_csv"), 5))
        n = normalize_adjacency(EdgeStore.from_dataset(ds).history_biadjacency(ds.days.max()))
        rng = np.random.default_rng(w.salt)
        x, e = rng.normal(size=(n.shape[0], w.d)), rng.normal(size=(n.shape[0], w.d))
        alpha = rng.normal(scale=1.5, size=(n.shape[0], 1))
        gate = ad._sigmoid(alpha)
        dt = w.time_scale / (w.n_days - 1)                    # a one-day gap
        steps = math.ceil(dt / 0.125)
        assert steps == max(1, w.substeps)
        got = ad.graph_flow(ad.Var(x), ad.Var(e), ad.Var(alpha), n, dt, 6, 0.125).value
        want, _ = _reference_step_flow(x, e, gate, n, dt / steps, steps, 6)
        assert got.tobytes() == want.tobytes()
        assert _normwise(got, _reference_flow(x, e, gate, n, dt / steps, steps, 6)[0]) <= 1e-13


@pytest.mark.parametrize("index_dtype", [np.int32, np.int64])
def test_scipy_kernel_into_a_zeroed_buffer_is_n_at_x_byte_for_byte(index_dtype):
    """``graph_flow`` runs its sparse products through scipy's private
    ``csr_matvecs`` / ``csc_matvecs`` into a zeroed buffer it owns; ``n @ x``
    runs the same kernel into fresh zeros (``*_matvec`` for one column). A
    scipy release that changed either would show here."""
    rng = np.random.default_rng(5)
    dense = rng.normal(size=(9, 9)) * (rng.random((9, 9)) < 0.4)
    dense[4], dense[:, 2] = 0.0, 0.0            # an empty row, and an empty row of N^T
    n = sp.csr_matrix(dense)
    wide = rng.normal(size=(9, 7)) * 10.0 ** rng.integers(-8, 9, size=(9, 7))
    # one column; the column views np.split makes, as concat_cols hands out gradients
    operands = [wide, wide[:, :1].copy(), *np.split(wide, [3], axis=1)]
    assert not operands[2].flags.c_contiguous and not operands[3].flags.c_contiguous
    for m, fmt in ((n, "csr"), (n.T, "csc")):
        m.indptr, m.indices = m.indptr.astype(index_dtype), m.indices.astype(index_dtype)
        assert m.format == fmt
        assert np.diff(m.indptr).min() == 0
        for x in operands:
            out = np.full((9, x.shape[1]), np.nan)
            ad._product_into(m, x, out)
            assert out.tobytes() == np.asarray(m @ x).tobytes()


def _count_kernel_calls(monkeypatch):
    """Count scipy's CSR and CSC product kernels: the flow's N and its transpose N^T."""
    counts = {"csr": 0, "csc": 0}
    for fmt in counts:
        kernel = getattr(_sparsetools, fmt + "_matvecs")

        def counted(*args, fmt=fmt, kernel=kernel):
            counts[fmt] += 1
            return kernel(*args)
        monkeypatch.setattr(_sparsetools, fmt + "_matvecs", counted)
    return counts


@pytest.mark.parametrize("order", [1, 4])
def test_graph_flow_backward_recomputes_k_minus_1_products_per_earlier_substep(
        order, monkeypatch):
    """Under a tape the forward keeps each sub-step's input and only the last
    sub-step's iterates, so the backward recomputes the K-1 products of each
    earlier sub-step and runs the S·K transposed products of the adjoint."""
    steps = 3
    n, x, e, alpha, g = _flow_inputs("random", 9)
    counts = _count_kernel_calls(monkeypatch)
    xv, ev, sv = ad.Var(x), ad.Var(e), ad.Var(alpha)
    with ad.Tape() as tape:
        # 0.6 over at most 0.25: 3 sub-steps
        out = ad.graph_flow(xv, ev, sv, n, 0.6, order, 0.25)
        loss = sum_all(hadamard(out, ad.constant(g)))
    assert counts == {"csr": steps * order, "csc": 0}
    ad.backward(loss, tape, params=[xv, ev, sv])
    assert counts == {"csr": steps * order + (steps - 1) * (order - 1), "csc": steps * order}
