"""Reverse-mode automatic differentiation over dense matrices.

All values are 2-D float64 numpy arrays wrapped in :class:`Var`. Each op
records one tape node on the active :class:`Tape` (a context manager): its
output, its inputs and one backward rule that maps the output's gradient to
one gradient per input, in input order. With no active tape ops run as plain
numpy forward computations, which is the no-grad path used during evaluation.

The ops are the model's: ``add``, the evolution ``graph_flow`` with its
gate's sigmoid, the fusion block ``gated_fusion``, the jump
``instant_update``, and the head's ``gathered_linear`` and ``info_nce``.
:func:`backward` runs a tape from a 1x1 loss or the mean of several;
:func:`grad_check` runs it from fixed weights on each output it checks.

An op with several outputs (``gated_fusion``, one per task) records their
handles as one :class:`_Outputs` node. Its rule takes one gradient per
output, None for an output nothing read, and gives one per input, None where
it gives nothing; as a generator it hands each out as it makes it, so
``backward`` sums one before the next is made. A :func:`checkpoint` node is
an ``_Outputs`` whose rule replays a function instead (below).

Ownership: the tape holds handles (:class:`TapeNode`), not values. A handle
knows its ``Var`` only through a weak reference, so reference counting frees
each intermediate as soon as the forward code drops it. A backward rule
captures the arrays or shapes it reads, never a ``Var``; what no rule reads
is not kept.

:func:`checkpoint` trades time for memory at a coarser grain: it runs a
pure function with no tape and records one node that keeps only the
function's input arrays. ``backward`` replays the function under a fresh
tape when it reaches that node and runs the replay's nodes in its own loop,
so every gradient is summed in the order a plain tape would sum it.

Sparse operands (scipy CSR/CSC) are constants of two ops: ``graph_flow``'s
normalized graph and ``instant_update``'s partner means. Integer ids, also
constants, pick rows in ``gathered_linear`` and ``instant_update``.
Gradients flow through the dense operands only.
"""

from __future__ import annotations

import math
import weakref

import numpy as np
import scipy.sparse as sp
from scipy.sparse import _sparsetools

from . import arrayfile
from .errors import ConfigError, CpmrError, NumericalError, ShapeError

_ACTIVE_TAPE = None
MAX_SUBSTEPS = 10_000  # per graph_flow; a day gap <= span takes <= ceil(time_scale / tau_max)
MAX_ORDER = 170        # the largest Taylor order K whose 1 / K! is a positive float


class Var:
    """A matrix value participating in differentiable computation."""

    __slots__ = ("value", "name", "_node", "__weakref__")   # _node: taped

    def __init__(self, value, name=None):
        arr = np.asarray(value, dtype=np.float64)
        if arr.ndim != 2:
            raise ShapeError(f"Var requires a 2-D array, got shape {arr.shape}")
        self.value = arr
        self.name = name

    @property
    def shape(self):
        return self.value.shape

    def __repr__(self):
        tag = f" {self.name!r}" if self.name else ""
        return f"<Var{tag} shape={self.value.shape}>"


def constant(value, name=None):
    """Wrap an array as a leaf with no recorded history."""
    return Var(np.array(value, dtype=np.float64, copy=True), name=name)


class TapeNode:
    """A Var's identity on a tape: a weak reference to it and its shape."""

    __slots__ = ("var", "shape")

    def __init__(self, var):
        self.var = weakref.ref(var)
        self.shape = var.value.shape

    @property
    def value(self):
        """The Var's array while the Var lives, else an empty array."""
        var = self.var()
        return var.value if var is not None else np.empty(0)


def _node(var):
    try:
        return var._node
    except AttributeError:
        node = var._node = TapeNode(var)
        return node


class Tape:
    """Append-only record of ops for one backward pass.

    Use as a context manager; ops executed inside record themselves. The
    tape is consumed exactly once by :func:`backward`.
    """

    def __init__(self):
        # (out_node, (in_nodes, rule)); rule(g) -> a gradient per input, and an
        # _Outputs node's rule takes one g per output
        self.nodes = []
        self.consumed = False

    def __enter__(self):
        global _ACTIVE_TAPE
        if _ACTIVE_TAPE is not None:
            raise CpmrError("nested tapes are not supported")
        _ACTIVE_TAPE = self
        return self

    def __exit__(self, *exc):
        global _ACTIVE_TAPE
        _ACTIVE_TAPE = None
        return False


def _record(out, inputs, rule):
    if _ACTIVE_TAPE is not None:
        out._node = TapeNode(out)
        _ACTIVE_TAPE.nodes.append((out._node, (tuple(map(_node, inputs)), rule)))


class _Outputs(tuple):
    """The output of a node with several outputs: their handles. It keeps no value.

    The node's rule maps their gradients, None for an output nothing read, to
    one gradient per input, None for an input it gives nothing.
    """

    value = np.empty(0)


class _Replay(_Outputs):
    """A :func:`checkpoint` node's output; its rule replays the function."""


def _run(tape, fn, *args):
    """``fn(*args)`` as a tuple with ``tape`` active (None: no tape), then the outer tape again."""
    global _ACTIVE_TAPE
    outer, _ACTIVE_TAPE = _ACTIVE_TAPE, tape
    try:
        return tuple(fn(*args))
    finally:
        _ACTIVE_TAPE = outer


def checkpoint(fn, *inputs: Var, forward=None):
    """``fn(*inputs)``, a tuple of Vars, run with no tape; under a tape, one node.

    ``fn`` must be pure: on the same input values it runs the same ops to the
    same bytes. The node keeps only the inputs' arrays, which must not be
    mutated before ``backward`` replays ``fn`` on them. Under a tape, an
    output that is not a Var raises ``CpmrError``: it could take no gradient.
    Under a tape ``forward``, if given, runs in ``fn``'s place and gives None
    for an output only the backward needs, such as a loss: a 1 x 1 Var, NaN
    until the replay fills in its value.
    """
    outs = _run(None, forward if forward and _ACTIVE_TAPE is not None else fn, *inputs)
    if _ACTIVE_TAPE is not None:
        holes = {j: Var([[np.nan]]) for j, o in enumerate(outs) if forward and o is None}
        outs = tuple(holes.get(j, out) for j, out in enumerate(outs))
        bad = next((j for j, out in enumerate(outs) if not isinstance(out, Var)), None)
        if bad is not None:
            raise CpmrError(f"checkpoint: output {bad} of {len(outs)} is "
                            f"{type(outs[bad]).__name__}, not a Var")
        def replay(in_nodes, nodes, arrays=tuple(x.value for x in inputs)):
            # on Vars of the arrays with the inputs' handles, recording onto nodes
            again = [Var(a) for a in arrays]
            for var, node in zip(again, in_nodes):
                var._node = node
            tape = Tape()
            tape.nodes = nodes
            again = _run(tape, fn, *again)
            for j, hole in holes.items():
                hole.value = again[j].value
            return again
        _ACTIVE_TAPE.nodes.append((_Replay(map(_node, outs)), (tuple(map(_node, inputs)), replay)))
    return outs


def _check(cond, op, *shapes):
    if not cond:
        raise ShapeError(f"{op}: incompatible shapes {[tuple(s) for s in shapes]}")


# ---------------------------------------------------------------------------
# op set


def add(a: Var, b: Var) -> Var:
    _check(a.shape == b.shape, "add", a.shape, b.shape)
    out = Var(a.value + b.value)
    _record(out, (a, b), lambda g: (g, g))
    return out


def _affine(x, w, b):
    y = x @ w
    y += b
    return y


def _sigmoid(a):
    """1 / (1 + e^-a) where a >= 0, else e^a / (1 + e^a): exp never overflows.

    min(a, -a) is -|a| but keeps a NaN's own bits, as e^a on a NaN does."""
    t = np.exp(np.minimum(a, -a))
    return np.where(a >= 0, 1.0, t) / (1.0 + t)


def _softmax_rows(a):
    m = a.max(axis=1, keepdims=True)
    e = np.exp(a - m)
    return e / e.sum(axis=1, keepdims=True)


def _softmax_pairs(a):
    """``_softmax_rows`` of an n x 2 ``a``, its max, exp, sum and divisions column by column.

    A NaN first logit makes the max numpy's own +NaN, as the row max does;
    ``np.maximum`` would pass on that NaN's own bits, its sign included."""
    a0, a1 = a[:, :1], a[:, 1:]
    m = np.maximum(a0, a1)
    np.copyto(m, np.nan, where=np.isnan(a0))
    e0, e1 = np.exp(a0 - m), np.exp(a1 - m)
    t = e0 + e1
    s = np.empty(a.shape)
    np.divide(e0, t, out=s[:, :1])
    np.divide(e1, t, out=s[:, 1:])
    return s


def _softmax_pairs_rule(s, g):
    """Softmax's rule s * (g - sum(g * s)) on n x 2 rows, each row sum one add.

    + 0.0: a sum of two -0.0 reads +0.0, as numpy's row sum gives it. The outer
    product stays one n x 2 broadcast: where two NaNs meet, numpy's column-wise
    loops propagate another one than the row-wise rule did."""
    return s * (g - ((g[:, :1] * s[:, :1] + g[:, 1:] * s[:, 1:]) + 0.0))


def gated_fusion(parts, n_users, layers) -> tuple[Var, ...]:
    """The shared-expert gating block over the scenarios' n x d states ``parts``.

    Rows [0, n_users) are users, the rest items; each class's input x is its
    rows of all parts side by side. ``layers`` holds per class, users then
    items, the (w, b) Var pairs of the shared expert and then of each task's
    gate and expert. A task's rows are e * s[:, :1] + shared * s[:, 1:], with
    shared = x w + b, e = x w_e + b_e and s = softmax(x w_g + b_g). Returns one
    joined n x d Var per task, recorded as one node.

    The rule keeps per class x and the shared expert, and per task s and e. It
    runs the backward of the generic chain this op replaced in that chain's
    order: items, then users; per class the tasks last to first, each expert
    then its gate, then the shared expert. A task whose output nothing read is
    skipped and gets no gradient. Each weight's gradient is handed out as it
    is made, then the parts' gradients, last part first.
    """
    parts, layers = tuple(parts), [tuple(c) for c in layers]
    n_tasks = (len(layers[0]) - 1) // 2 if layers else 0
    (n, d), k = parts[0].value.shape if parts else (0, 0), len(parts)
    # per class the shared expert's (w, b) shapes, then a gate's and an expert's a task
    shapes = [[(k * d, m), (1, m)] for m in [d] + [2, d] * n_tasks]
    _check(k > 0 and n_tasks > 0 and 0 <= n_users <= n and len(layers) == 2
           and all(p.value.shape == (n, d) for p in parts)
           and all([[v.value.shape for v in l] for l in c] == shapes for c in layers),
           "gated_fusion", *(p.shape for p in parts),
           *(v.shape for c in layers for l in c for v in l))
    blocks = (slice(0, n_users), slice(n_users, n))
    outs = [np.empty((n, d)) for _ in range(n_tasks)]
    kept = [] if _ACTIVE_TAPE is not None else None
    for rows, ((w, b), *tasks) in zip(blocks, layers):
        x = parts[0].value[rows] if k == 1 else np.concatenate([p.value[rows] for p in parts], 1)
        shared, mixes = _affine(x, w.value, b.value), []
        for out, gate, expert in zip(outs, tasks[::2], tasks[1::2]):
            s = _softmax_pairs(_affine(x, *(v.value for v in gate)))
            e = _affine(x, *(v.value for v in expert))
            mix = out[rows]
            np.multiply(e, s[:, :1], out=mix)
            mix += shared * s[:, 1:]
            if kept is not None:
                mixes.append((s, e))
        if kept is not None:
            kept.append((x, shared, mixes))
    outs = tuple(Var(o) for o in outs)
    if kept is None:
        return outs
    ws = [[w.value for w, _ in c] for c in layers]

    def rule(gs):
        g_parts = None
        for c in (1, 0):
            rows, (x, shared, mixes), g_x, g_shared = blocks[c], kept.pop(), None, None
            for t in range(n_tasks - 1, -1, -1):
                s, e = mixes.pop()
                if gs[t] is None:
                    yield from (None,) * 4
                    continue
                g = gs[t][rows]
                # the mix's rule; + 0.0: a row sum of -0.0 reads +0.0, whichever zero numpy gives
                g_s = np.concatenate([np.sum(g * e, axis=1, keepdims=True),
                                      np.sum(g * shared, axis=1, keepdims=True)], axis=1) + 0.0
                g_e, g_sh = g * s[:, 0:1], g * s[:, 1:2]
                del g, e
                g_shared = _summed(g_shared, g_sh)
                # linear's rule for the expert, then softmax's and linear's for the gate
                g_x = _summed(g_x, g_e @ ws[c][2 + 2 * t].T)
                yield x.T @ g_e
                yield g_e.sum(axis=0, keepdims=True)
                del g_e
                g_l = _softmax_pairs_rule(s, g_s)
                g_x += g_l @ ws[c][1 + 2 * t].T
                yield x.T @ g_l
                yield g_l.sum(axis=0, keepdims=True)
            g_x += g_shared @ ws[c][0].T
            yield x.T @ g_shared
            yield g_shared.sum(axis=0, keepdims=True)
            del x, shared, g_shared
            if g_parts is None:                  # each part's gradient: its rows of zeros += g
                g_parts = [np.zeros((n, d)) for _ in range(k)]
            for j, g_p in enumerate(g_parts):
                g_p[rows] += g_x[:, j * d:(j + 1) * d]
            del g_x
        yield from reversed(g_parts)
    # the inputs in the order the rule hands out their gradients
    inputs = [*(v for c in reversed(layers) for layer in reversed(c) for v in layer), *parts[::-1]]
    _ACTIVE_TAPE.nodes.append((_Outputs(map(_node, outs)), (tuple(map(_node, inputs)), rule)))
    return outs


def _summed(acc, g):
    """``acc + g`` in place, or g when nothing has been summed yet."""
    if acc is None:
        return g
    acc += g
    return acc


def gathered_linear(e: Var, z: Var, idx, w: Var, b: Var) -> Var:
    """concat(e[idx], z[idx]) @ w + b; repeated ids accumulate gradient. The rule
    keeps e, z and idx, not the gathered input, and rebuilds that for ``x^T g``."""
    idx = np.asarray(idx, dtype=np.int64)
    _check(e.value.shape[0] == z.value.shape[0] and b.value.shape == (1, w.value.shape[1])
           and w.value.shape[0] == e.value.shape[1] + z.value.shape[1],
           "gathered_linear", e.shape, z.shape, w.shape, b.shape)
    y = _gathered(e.value, z.value, idx) @ w.value
    y += b.value
    out = Var(y)
    def rule(g, e=e.value, z=z.value, idx=idx, w=w.value):
        g_x = g @ w.T                                  # one GEMM, split at e's width
        g_e, g_z = (_scatter_rows(h, idx, len(e)) for h in np.split(g_x, [e.shape[1]], axis=1))
        del g_x                                        # one gathered-size temporary at a time
        return g_e, g_z, _gathered(e, z, idx).T @ g, g.sum(axis=0, keepdims=True)
    _record(out, (e, z, w, b), rule)
    return out


def _gathered(e, z, idx):
    x = np.empty((len(idx), e.shape[1] + z.shape[1]))
    x[:, :e.shape[1]] = e[idx]
    x[:, e.shape[1]:] = z[idx]
    return x


def _scatter_rows(g, idx, n):
    """Row j of g summed into row idx[j] of n rows from 0.0 in order, as np.add.at into zeros."""
    d = g.shape[1]
    return np.bincount((idx[:, None] * d + np.arange(d)).ravel(), weights=g.ravel(),
                       minlength=n * d).reshape(n, d)


def info_nce(p_pos: Var, q_pos: Var, p_neg: Var, q_neg: Var) -> Var:
    """Mean InfoNCE (1x1): row j of p_pos, q_pos holds interaction j's user and item,
    rows j*m ... j*m + m-1 of p_neg, q_neg its m negative users and items. The rule
    keeps the inputs and logits; a negative meets its interaction's row by broadcasting."""
    pp, qp, pn, qn = (v.value for v in (p_pos, q_pos, p_neg, q_neg))
    (b, d), m = pp.shape, len(pn) // max(len(pp), 1)
    _check(b > 0 and qp.shape == (b, d) and pn.shape == qn.shape == (b * m, d),
           "info_nce", pp.shape, qp.shape, pn.shape, qn.shape)

    def paired(rows, pos):       # row j*m + k of rows (d or 1 wide) times row j of pos
        return (rows.reshape(b, m, rows.shape[1]) * pos[:, None, :]).reshape(b * m, d)
    logits = np.concatenate([(pp * qp).sum(axis=1, keepdims=True),      # the positive score
                             paired(pn, qp).sum(axis=1, keepdims=True).reshape(b, m),
                             paired(qn, pp).sum(axis=1, keepdims=True).reshape(b, m)], axis=1)
    top = logits.max(axis=1, keepdims=True)
    lse = top + np.log(np.sum(np.exp(logits - top), axis=1, keepdims=True))
    out = Var(np.array([[(lse - logits[:, :1]).sum() / b]]))
    def rule(g, logits=logits):
        g_mean = np.full((b, 1), g[0, 0] / b)
        g_logits = g_mean * _softmax_rows(logits)
        g_pos = (-g_mean) + g_logits[:, :1]
        g_nu, g_ni = g_logits[:, 1:m + 1].reshape(b * m, 1), g_logits[:, m + 1:].reshape(b * m, 1)
        rep = np.repeat(np.arange(b), m)
        return (_scatter_rows(g_ni * qn, rep, b) + g_pos * qp,
                _scatter_rows(g_nu * pn, rep, b) + g_pos * pp, paired(g_nu, qp), paired(g_ni, pp))
    _record(out, (p_pos, q_pos, p_neg, q_neg), rule)
    return out


def instant_update(x: Var, n_users, users, items, avg_u, avg_i,
                   w_u2u: Var, w_i2u: Var, w_i2i: Var, w_u2i: Var) -> Var:
    """One scenario's n x d states, users first, with the rows of a day's instant graph jumped.

    ``users`` and ``items`` are distinct ids, an item's row n_users + id;
    ``avg_u`` (users x items) and ``avg_i`` (items x users) are sparse partner
    means over their rows. A user's row r becomes
    r + ((r w_u2u - r) + relu((avg_u R_i) w_i2u)), R_i the items' rows, and an
    item's likewise with avg_i, R_u, w_i2i and w_u2i; every other row keeps its
    bytes. The rule keeps the involved rows, their means and the relu masks,
    and sums each gradient in the order of the chain of generic ops this op
    replaced: the item rows', then the users'. The input's gradient holds no -0.0.
    """
    users, items = (np.asarray(ids, dtype=np.int64) for ids in (users, items))
    (n, d), ws = x.value.shape, (w_u2u, w_i2u, w_i2i, w_u2i)
    _check(0 <= n_users <= n and avg_u.shape == (len(users), len(items))
           and avg_i.shape == avg_u.shape[::-1] and all(w.value.shape == (d, d) for w in ws),
           "instant_update", x.shape, avg_u.shape, avg_i.shape, *(w.shape for w in ws))
    w_uu, w_iu, w_ii, w_ui = (w.value for w in ws)
    rows_i = n_users + items
    r_u, r_i = x.value[users] + 0.0, x.value[rows_i] + 0.0   # -0.0 reads +0.0, as a 0/1 product
    m_u, m_i = avg_u @ r_i, avg_i @ r_u
    a_u, a_i = m_u @ w_iu, m_i @ w_ui
    y = x.value.copy()
    y[users] = r_u + ((r_u @ w_uu - r_u) + np.maximum(a_u, 0.0))
    y[rows_i] = r_i + ((r_i @ w_ii - r_i) + np.maximum(a_i, 0.0))
    out = Var(y)
    if _ACTIVE_TAPE is not None:
        def rule(g, pos_u=a_u > 0.0, pos_i=a_i > 0.0):
            g_ru, g_ri = g[users], g[rows_i]
            g_au, g_ai = g_ru * pos_u, g_ri * pos_i
            # a C-ordered w.T: OpenBLAS rounds a few-row g times a transposed w unlike a taller g
            acc_i = (g_ri + (-g_ri)) + g_ri @ w_ii.T.copy()
            acc_i += avg_u.T @ (g_au @ w_iu.T.copy())
            acc_u = (g_ru + (-g_ru)) + g_ru @ w_uu.T.copy()
            acc_u += avg_i.T @ (g_ai @ w_ui.T.copy())
            # g zeroed on the rows plus the rows scattered into zeros: + 0.0 turns g's -0.0
            # into +0.0, and the rows, summed onto g + (-g), hold no -0.0
            g_x = g + 0.0
            g_x[users], g_x[rows_i] = acc_u, acc_i
            return g_x, r_u.T @ g_ru, m_u.T @ g_au, r_i.T @ g_ri, m_i.T @ g_ai
        _record(out, (x, *ws), rule)
    return out


def graph_flow(x: Var, e: Var, alpha: Var, n, dt, order, tau_max) -> Var:
    """Advance dX/dt = (N diag(s) - I) X + E by ``dt`` in ceil(dt / tau_max) equal sub-steps.

    The gate s = sigmoid(alpha) on each message source comes from the n x 1
    logits ``alpha`` (+inf gives exactly 1), and alpha's gradient is
    sigmoid's rule, g_s * s * (1 - s), of the gate's. Each sub-step of length
    tau is one truncated Taylor series of order K in Horner form: y = X / K!,
    then y <- (X / k! + E tau / (k+1)!) + M y for k = K-1 ... 0, with the step
    matrix M = tau (N diag(s) - I) built once per call (:func:`_step_matrix`).
    Each term is the affine part first, then scipy's ``csr_matvecs`` adds M y
    into it; this rounds otherwise than tau (N (s * y) - y) + affine, within
    1e-13 normwise of that form (a test states it). ``n`` is scipy CSR or CSC
    and is never mutated; ``dt = 0`` returns ``x``. Under a tape the forward
    keeps each sub-step's input (the first is ``x``'s own array) and the last
    one's y_{K-1} ... y_1; the adjoint rebuilds y_K = input / K!, recomputes
    each earlier sub-step's y_{K-1} ... y_1 into those K-1 arrays (K-1
    products) and runs the transposed recurrence, with N^T, s and tau as
    before, in four owned buffers. A ``checkpoint`` around the flow keeps all
    this only while its replay runs.
    """
    _check(x.shape == e.shape and alpha.shape == (x.shape[0], 1)
           and n.shape == (x.shape[0],) * 2, "graph_flow", x.shape, e.shape, alpha.shape, n.shape)
    if getattr(n, "format", None) not in ("csr", "csc"):    # what _step_matrix and n.T take
        raise ConfigError(f"graph_flow needs a CSR or CSC matrix, got {type(n).__name__}")
    if not 1 <= order <= MAX_ORDER:
        raise ConfigError(f"series truncation order must lie in [1, {MAX_ORDER}], got {order}")
    if not math.isfinite(dt) or dt < 0:
        raise ConfigError(f"evolution interval must be finite and >= 0, got {dt}")
    if not math.isfinite(tau_max) or tau_max <= 0:
        raise ConfigError(f"tau_max must be finite and positive, got {tau_max}")
    if dt == 0:
        return x
    if dt / tau_max > MAX_SUBSTEPS:                          # ceil(r) > M iff r > M
        raise ConfigError(f"dt / tau_max = {dt / tau_max:.3g} is over {MAX_SUBSTEPS} sub-steps")
    steps = max(1, math.ceil(dt / tau_max))
    tau = dt / steps
    inv_fact = [1.0 / math.factorial(k) for k in range(order + 1)]
    s, ev, cur, shape = _sigmoid(alpha.value), e.value, x.value, x.shape
    m = _step_matrix(n, s, tau)
    scratch, inputs = (np.empty(shape), np.empty(shape)), []
    for i in range(steps):
        if _ACTIVE_TAPE is not None:
            inputs.append(cur)
        kept = [np.empty(shape) for _ in range(order - 1)] if inputs and i == steps - 1 else None
        cur = _horner_substep(cur, m, ev, tau, inv_fact, scratch, kept)
    out = Var(cur)

    def adjoint(g):
        nt, g_e, g_s = n.T, np.zeros(shape), np.zeros_like(s)
        y_top, buf, h, spare = (np.empty(shape) for _ in range(4))
        for i in range(steps - 1, -1, -1):
            start = inputs.pop()
            if i < steps - 1:
                _horner_substep(start, m, ev, tau, inv_fact, (buf, y_top), kept, stop=1)
            np.multiply(start, inv_fact[order], out=y_top)        # y_K, as the forward made it
            for k in range(order):
                h, spare = (spare, h) if g is h else (h, spare)   # N^T G not into G
                _product_into(nt, g, h)
                np.multiply(h, kept[k] if k < order - 1 else y_top, out=buf)
                g_s += tau * np.sum(buf, axis=1, keepdims=True)
                np.multiply(g, inv_fact[k], out=buf)
                if k == 0:
                    g_cur = np.add(buf, 0.0)     # 0.0 + G, so -0.0 reads +0.0 as before
                else:
                    g_cur += buf
                np.multiply(g, tau * inv_fact[k + 1], out=buf)
                g_e += buf
                h *= s                           # G <- tau (s * N^T G - G)
                h -= g
                h *= tau
                g = h
            np.multiply(g, inv_fact[order], out=buf)
            g_cur += buf                         # the adjoint of the sub-step's input
            g = g_cur
        return g, g_e, g_s * s * (1.0 - s)
    _record(out, (x, e, alpha), adjoint)
    return out


def _step_matrix(n, s, tau):
    """M = tau (N diag(s) - I) as the (indptr, indices, data) of a canonical CSR.

    An off-diagonal entry is tau * (n_ij * s_j), a diagonal one
    tau * (n_ii * s_i) - tau, and a row with no stored diagonal gets -tau. A
    canonical CSR ``n`` with every diagonal stored, as ``normalize_adjacency``
    makes them, lends M its ``indptr`` and ``indices``; any other ``n`` is
    canonicalized on a copy first. So M stores each row's columns ascending,
    which is the order ``csr_matvecs`` sums them in.
    """
    if n.format != "csr" or not n.has_canonical_format:
        n = n.tocsr(copy=True)
        n.sum_duplicates()
    rows = np.repeat(np.arange(n.shape[0]), np.diff(n.indptr))
    on_diag = n.indices == rows
    if np.count_nonzero(on_diag) < n.shape[0]:     # store a 0.0 on each missing diagonal
        missing = np.setdiff1d(np.arange(n.shape[0]), rows[on_diag])
        n = sp.coo_matrix((np.concatenate([n.data, np.zeros(len(missing))]),
                           (np.concatenate([rows, missing]),
                            np.concatenate([n.indices, missing]))), shape=n.shape).tocsr()
        return _step_matrix(n, s, tau)
    data = n.data * s[n.indices, 0]
    data *= tau
    data[on_diag] -= tau
    return n.indptr, n.indices, data


def _horner_substep(cur, m, ev, tau, inv_fact, scratch, kept=None, stop=0):
    """Iterate y_stop of a sub-step from ``cur``; y_0, the output, is its one fresh array.

    ``m``: :func:`_step_matrix`'s arrays. ``scratch``: a buffer for the
    ``E tau / (k+1)!`` term, and one that iterates share with the output by
    turns. ``kept[k - 1]`` takes y_k for k >= 1.
    """
    order = len(inv_fact) - 1
    term, other = scratch
    n, d = cur.shape
    out = np.empty(cur.shape) if stop == 0 else None
    y = other if kept is not None or order % 2 else out     # so y_1 is never in out
    np.multiply(cur, inv_fact[order], out=y)
    for k in range(order - 1, stop - 1, -1):
        t = out if k == 0 else kept[k - 1] if kept is not None else other if y is out else out
        np.multiply(cur, inv_fact[k], out=t)
        np.multiply(ev, tau * inv_fact[k + 1], out=term)
        t += term
        _sparsetools.csr_matvecs(n, n, d, *m, y.ravel(), t.ravel())      # t += M y
        y = t
    return y


def _product_into(n, x, out):
    """``out`` <- ``n @ x`` for CSR or CSC ``n``: scipy's kernel into zeros, as ``@`` runs it."""
    out.fill(0.0)
    getattr(_sparsetools, n.format + "_matvecs")(*n.shape, x.shape[1], n.indptr, n.indices,
                                                 n.data, x.ravel(), out.ravel())


# ---------------------------------------------------------------------------
# backward pass


def backward(loss, tape: Tape, params=None):
    """Run the tape in reverse from a 1x1 loss, or from the mean of a list of them:
    each of L losses is seeded with 1/L."""
    losses = loss if isinstance(loss, list) else [loss]
    if any(v.value.shape != (1, 1) for v in losses):
        raise ShapeError(f"loss must be 1x1, got {[v.value.shape for v in losses]}")
    return _backward([(v, np.full((1, 1), 1.0 / len(losses))) for v in losses], tape, params)


def _backward(seeds, tape, params):
    """Run the tape in reverse from ``seeds``, (Var, its gradient) pairs.

    Returns a dict mapping Var -> gradient array for the reached leaves that
    are still alive. Parameters in ``params`` the seeds do not reach get
    explicit zero gradients. Each node is popped as it runs, so the tape ends
    empty and cannot be consumed again. A checkpoint's node is replaced by
    the nodes of its replay, which take its outputs' gradients.
    """
    if tape.consumed:
        raise CpmrError("tape already consumed by a previous backward pass")
    if not tape.nodes:
        raise CpmrError("backward on an empty tape")
    tape.consumed = True
    grads = {_node(var): g for var, g in seeds}
    nodes = tape.nodes
    while nodes:
        out, (inputs, rule) = nodes.pop()
        if isinstance(out, _Outputs):
            gs = [grads.pop(node, None) for node in out]
            if all(g is None for g in gs):
                continue
            if isinstance(out, _Replay):         # a checkpoint: its replay's nodes run next
                pairs = [(_node(v), g) for v, g in zip(rule(inputs, nodes), gs)]
            else:
                pairs = zip(inputs, rule(gs))
        else:
            g = grads.pop(out, None)
            if g is None:
                continue
            pairs = zip(inputs, rule(g))
        for inp, contrib in pairs:               # a rule may hand out each as it makes it
            if contrib is not None:
                grads[inp] = grads[inp] + contrib if inp in grads else contrib
    result = {node.var(): g for node, g in grads.items() if node.var() is not None}
    for p in params or ():
        if p not in result:
            result[p] = np.zeros_like(p.value)
    return result


def grad_check(f, params, h=1e-5, max_coords=40, rng=None):
    """Max relative error between analytic and central-difference gradients.

    ``f(params)`` returns a Var or a tuple of Vars and must be deterministic.
    The function checked is the sum over the outputs of sum(w * out), with a
    fixed weight w for each output drawn uniform in [0.5, 1.5], so no sum
    hides an entry's error. ``f`` is re-run under a fresh tape for the
    analytic pass and twice, with no tape, per probed coordinate.
    """
    if not 1e-7 <= h <= 1e-3:
        raise CpmrError(f"finite-difference step {h} outside [1e-7, 1e-3]")
    if rng is None:
        rng = np.random.default_rng(0)

    def outputs():
        out = f(params)
        return out if isinstance(out, tuple) else (out,)

    with Tape() as tape:
        outs = outputs()
    weights = [rng.uniform(0.5, 1.5, out.shape) for out in outs]
    grads = _backward(list(zip(outs, weights)), tape, params)

    def weighted():
        return sum(float(np.sum(w * out.value)) for w, out in zip(weights, outputs()))

    worst = 0.0
    for p in params:
        g = grads[p]
        n = p.value.size
        coords = (np.arange(n) if n <= max_coords
                  else rng.choice(n, size=max_coords, replace=False))
        flat = p.value.reshape(-1)
        for c in coords:
            orig = flat[c]
            flat[c] = orig + h
            hi = weighted()
            flat[c] = orig - h
            lo = weighted()
            flat[c] = orig
            numeric = (hi - lo) / (2.0 * h)
            analytic = g.reshape(-1)[c]
            err = abs(analytic - numeric) / max(1.0, abs(analytic))
            worst = max(worst, err)
    return worst


# ---------------------------------------------------------------------------
# Adam

ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


class AdamState:
    """First/second moments and step counter for a named parameter set."""

    def __init__(self):
        self.step = 0
        self.m = {}
        self.v = {}


def adam_step(params, grads, lr, weight_decay, state: AdamState):
    """One Adam update in place. ``params``: dict name -> Var.

    The L2 term ``weight_decay * param`` is added to the gradient before
    the moment updates (classic Adam-with-L2). A non-finite gradient or second
    moment raises ``NumericalError`` before its parameter moves to NaN or freezes.
    """
    state.step += 1
    t = state.step
    b1, b2, eps = ADAM_BETA1, ADAM_BETA2, ADAM_EPS
    for name, p in params.items():
        g = grads[name]
        if g.shape != p.value.shape:
            raise ShapeError(f"adam_step: grad {g.shape} vs param {p.value.shape} for {name!r}")
        if weight_decay:
            g = g + weight_decay * p.value
        m = state.m.setdefault(name, np.zeros_like(p.value))
        v = state.v.setdefault(name, np.zeros_like(p.value))
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * g * g
        if not np.isfinite(v).all():             # as is g: a non-finite g makes v non-finite
            raise NumericalError(f"adam_step: non-finite gradient or second moment for {name!r}")
        mhat = m / (1.0 - b1 ** t)
        vhat = v / (1.0 - b2 ** t)
        p.value -= lr * mhat / (np.sqrt(vhat) + eps)


# ---------------------------------------------------------------------------
# checkpoints: named float64 matrices in a cpmr array file


def save_checkpoint(path, params, meta=None):
    """Write named tensors (dict name -> Var or ndarray) and JSON-able ``meta``."""
    arrays = {name: np.asarray(v.value if isinstance(v, Var) else v, dtype="<f8")
              for name, v in sorted(params.items())}
    arrayfile.save(path, "checkpoint", arrays, meta or {})


def read_checkpoint(path):
    """(meta, dict name -> ndarray), bit-exact; ``CpmrModel.load_params`` checks them."""
    return arrayfile.load(path, "checkpoint")
