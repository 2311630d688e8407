"""Reverse-mode automatic differentiation over dense matrices.

All values are 2-D float64 numpy arrays wrapped in :class:`Var`. Ops record
their backward rules on the active :class:`Tape` (a context manager); with no
active tape they run as plain numpy forward computations, which is the
no-grad path used during evaluation.

Sparse operands (scipy CSR/CSC) appear only as constants of ``spmm`` and
``graph_flow``; gradients flow through the dense operands.
"""

from __future__ import annotations

import math

import numpy as np

from . import arrayfile
from .errors import CpmrError, DataFormatError, ShapeError  # noqa: F401 (ad.DataFormatError)

_ACTIVE_TAPE = None


class Var:
    """A matrix value participating in differentiable computation."""

    __slots__ = ("value", "name")

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


class Tape:
    """Append-only record of ops for one backward pass.

    Use as a context manager; ops executed inside record themselves. The
    tape is consumed exactly once by :func:`backward`.
    """

    def __init__(self):
        self.nodes = []  # (out_var, [(in_var, vjp), ...])
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


def _record(out, pairs):
    if _ACTIVE_TAPE is not None:
        _ACTIVE_TAPE.nodes.append((out, pairs))


def _check(cond, op, *shapes):
    if not cond:
        raise ShapeError(f"{op}: incompatible shapes {[tuple(s) for s in shapes]}")


# ---------------------------------------------------------------------------
# op set


def matmul(a: Var, b: Var) -> Var:
    _check(a.value.shape[1] == b.value.shape[0], "matmul", a.shape, b.shape)
    out = Var(a.value @ b.value)
    _record(out, [(a, lambda g, b=b: g @ b.value.T),
                  (b, lambda g, a=a: a.value.T @ g)])
    return out


def spmm(s, x: Var) -> Var:
    """Sparse @ dense. ``s`` is a constant scipy sparse matrix."""
    _check(s.shape[1] == x.value.shape[0], "spmm", s.shape, x.shape)
    out = Var(np.asarray(s @ x.value))
    _record(out, [(x, lambda g, s=s: np.asarray(s.T @ g))])
    return out


def add(a: Var, b: Var) -> Var:
    _check(a.shape == b.shape, "add", a.shape, b.shape)
    out = Var(a.value + b.value)
    _record(out, [(a, lambda g: g), (b, lambda g: g)])
    return out


def sub(a: Var, b: Var) -> Var:
    _check(a.shape == b.shape, "sub", a.shape, b.shape)
    out = Var(a.value - b.value)
    _record(out, [(a, lambda g: g), (b, lambda g: -g)])
    return out


def scale(a: Var, c: float) -> Var:
    c = float(c)
    out = Var(a.value * c)
    _record(out, [(a, lambda g, c=c: g * c)])
    return out


def hadamard(a: Var, b: Var) -> Var:
    _check(a.shape == b.shape, "hadamard", a.shape, b.shape)
    out = Var(a.value * b.value)
    _record(out, [(a, lambda g, b=b: g * b.value),
                  (b, lambda g, a=a: g * a.value)])
    return out


def scale_rows(x: Var, v: Var) -> Var:
    """Multiply row i of x by v[i, 0]."""
    _check(v.value.shape == (x.value.shape[0], 1), "scale_rows", x.shape, v.shape)
    out = Var(x.value * v.value)
    _record(out, [(x, lambda g, v=v: g * v.value),
                  (v, lambda g, x=x: np.sum(g * x.value, axis=1, keepdims=True))])
    return out


def add_bias(x: Var, b: Var) -> Var:
    """Add a (1, m) row vector to every row of x."""
    _check(b.value.shape == (1, x.value.shape[1]), "add_bias", x.shape, b.shape)
    out = Var(x.value + b.value)
    _record(out, [(x, lambda g: g),
                  (b, lambda g: g.sum(axis=0, keepdims=True))])
    return out


def concat_cols(*parts: Var) -> Var:
    rows = parts[0].value.shape[0]
    _check(all(p.value.shape[0] == rows for p in parts), "concat_cols",
           *[p.shape for p in parts])
    out = Var(np.concatenate([p.value for p in parts], axis=1))
    pairs = []
    off = 0
    for p in parts:
        w = p.value.shape[1]
        pairs.append((p, lambda g, o=off, w=w: g[:, o:o + w]))
        off += w
    _record(out, pairs)
    return out


def concat_rows(*parts: Var) -> Var:
    cols = parts[0].value.shape[1]
    _check(all(p.value.shape[1] == cols for p in parts), "concat_rows",
           *[p.shape for p in parts])
    out = Var(np.concatenate([p.value for p in parts], axis=0))
    pairs = []
    off = 0
    for p in parts:
        h = p.value.shape[0]
        pairs.append((p, lambda g, o=off, h=h: g[o:o + h, :]))
        off += h
    _record(out, pairs)
    return out


def relu(x: Var) -> Var:
    out = Var(np.maximum(x.value, 0.0))
    _record(out, [(x, lambda g, x=x: g * (x.value > 0.0))])
    return out


def sigmoid(x: Var) -> Var:
    out = Var(_sigmoid(x.value))
    _record(out, [(x, lambda g, out=out: g * out.value * (1.0 - out.value))])
    return out


def _sigmoid(a):
    out = np.empty_like(a)
    pos = a >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-a[pos]))
    e = np.exp(a[~pos])
    out[~pos] = e / (1.0 + e)
    return out


def softmax_rows(x: Var) -> Var:
    out = Var(_softmax_rows(x.value))
    def vjp(g, out=out):
        s = out.value
        return s * (g - np.sum(g * s, axis=1, keepdims=True))
    _record(out, [(x, vjp)])
    return out


def _softmax_rows(a):
    m = a.max(axis=1, keepdims=True)
    e = np.exp(a - m)
    return e / e.sum(axis=1, keepdims=True)


def logsumexp_rows(x: Var) -> Var:
    m = x.value.max(axis=1, keepdims=True)
    out = Var(m + np.log(np.sum(np.exp(x.value - m), axis=1, keepdims=True)))
    _record(out, [(x, lambda g, x=x: g * _softmax_rows(x.value))])
    return out


def row_select(x: Var, idx) -> Var:
    """Gather rows; duplicate indices accumulate gradient."""
    idx = np.asarray(idx, dtype=np.int64)
    out = Var(x.value[idx])
    def vjp(g, x=x, idx=idx):
        z = np.zeros_like(x.value)
        np.add.at(z, idx, g)
        return z
    _record(out, [(x, vjp)])
    return out


def row_block(x: Var, start, stop) -> Var:
    """Rows start:stop of x as a view: ``row_select`` over an ``arange``, without the copy."""
    out = Var(x.value[start:stop])
    def vjp(g, x=x, start=start, stop=stop):
        z = np.zeros_like(x.value)
        z[start:stop] += g          # 0 + g, as np.add.at gives, signed zeros included
        return z
    _record(out, [(x, vjp)])
    return out


def col_select(x: Var, j: int) -> Var:
    out = Var(x.value[:, j:j + 1].copy())
    def vjp(g, x=x, j=j):
        z = np.zeros_like(x.value)
        z[:, j:j + 1] = g
        return z
    _record(out, [(x, vjp)])
    return out


def masked_add(base: Var, mask, delta: Var) -> Var:
    """base + mask * delta, with mask a constant (n, 1) 0/1 array."""
    mask = np.asarray(mask, dtype=np.float64).reshape(-1, 1)
    _check(base.shape == delta.shape and mask.shape[0] == base.value.shape[0],
           "masked_add", base.shape, mask.shape, delta.shape)
    out = Var(base.value + mask * delta.value)
    _record(out, [(base, lambda g: g),
                  (delta, lambda g, mask=mask: g * mask)])
    return out


def sum_cols(x: Var) -> Var:
    out = Var(x.value.sum(axis=1, keepdims=True))
    _record(out, [(x, lambda g, x=x: np.broadcast_to(g, x.value.shape).copy())])
    return out


def reshape(x: Var, shape) -> Var:
    out = Var(x.value.reshape(shape))
    _record(out, [(x, lambda g, x=x: g.reshape(x.value.shape))])
    return out


def sum_all(x: Var) -> Var:
    out = Var(np.array([[x.value.sum()]]))
    _record(out, [(x, lambda g, x=x: np.full_like(x.value, g[0, 0]))])
    return out


def mean_all(x: Var) -> Var:
    n = x.value.size
    out = Var(np.array([[x.value.sum() / n]]))
    _record(out, [(x, lambda g, x=x, n=n: np.full_like(x.value, g[0, 0] / n))])
    return out


def graph_flow(x: Var, e: Var, gate: Var, n, tau, steps, order) -> Var:
    """``steps`` Horner sub-steps of length ``tau`` of dX/dt = (N diag(gate) - I) X + E.

    Each sets y = X / K!, then y <- tau (N (gate * y) - y) + X / k! + tau E / (k+1)!
    for k = K-1 ... 0; under a tape only the K iterates of each sub-step are kept.
    """
    _check(x.shape == e.shape and gate.shape == (x.shape[0], 1)
           and n.shape == (x.shape[0],) * 2, "graph_flow", x.shape, e.shape, gate.shape, n.shape)
    inv_fact = [1.0 / math.factorial(k) for k in range(order + 1)]
    s, ev, cur = gate.value, e.value, x.value
    kept = [] if _ACTIVE_TAPE is not None else None
    for _ in range(steps):
        y = cur * inv_fact[order]
        for k in range(order - 1, -1, -1):
            if kept is not None:
                kept.append(y)
            y = ((np.asarray(n @ (y * s)) - y) * tau
                 + (cur * inv_fact[k] + ev * (tau * inv_fact[k + 1])))
        cur = y
    out = Var(cur)
    joint = []

    def adjoint(g, i):
        if not joint:                 # one transposed pass serves all three inputs
            nt, g_e, g_s = n.T, np.zeros_like(ev), np.zeros_like(s)
            for _ in range(steps):
                g_cur = 0.0
                for k in range(order):
                    h = np.asarray(nt @ g)
                    g_s += tau * np.sum(h * kept.pop(), axis=1, keepdims=True)
                    g_cur = g_cur + g * inv_fact[k]
                    g_e += g * (tau * inv_fact[k + 1])
                    g = (s * h - g) * tau            # G <- tau (gate * N^T G - G)
                g = g_cur + g * inv_fact[order]      # the adjoint of the sub-step's input
            joint.extend((g, g_e, g_s))
        return joint[i]
    _record(out, [(v, lambda g, i=i: adjoint(g, i)) for i, v in enumerate((x, e, gate))])
    return out


# ---------------------------------------------------------------------------
# backward pass


def backward(loss: Var, tape: Tape, params=None):
    """Run the tape in reverse from a 1x1 loss.

    Returns a dict mapping Var -> gradient array. Parameters in ``params``
    that the loss does not reach get explicit zero gradients. The tape is
    cleared and cannot be consumed again.
    """
    if tape.consumed:
        raise CpmrError("tape already consumed by a previous backward pass")
    if not tape.nodes:
        raise CpmrError("backward on an empty tape")
    if loss.value.shape != (1, 1):
        raise ShapeError(f"loss must be 1x1, got {loss.value.shape}")
    grads = {loss: np.ones((1, 1))}
    for out, pairs in reversed(tape.nodes):
        g = grads.pop(out, None)
        if g is None:
            continue
        for inp, vjp in pairs:
            contrib = vjp(g)
            if inp in grads:
                grads[inp] = grads[inp] + contrib
            else:
                grads[inp] = contrib
    tape.nodes.clear()
    tape.consumed = True
    if params is not None:
        for p in params:
            if p not in grads:
                grads[p] = np.zeros_like(p.value)
    return grads


def grad_check(f, params, h=1e-5, max_coords=40, rng=None):
    """Max relative error between analytic and central-difference gradients.

    ``f(params) -> Var`` must be deterministic; it is re-run under fresh
    tapes for the analytic pass and twice per probed coordinate.
    """
    if not 1e-7 <= h <= 1e-3:
        raise CpmrError(f"finite-difference step {h} outside [1e-7, 1e-3]")
    if rng is None:
        rng = np.random.default_rng(0)
    with Tape() as tape:
        loss = f(params)
    grads = backward(loss, tape, params=params)
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
            hi = float(f(params).value[0, 0])
            flat[c] = orig - h
            lo = float(f(params).value[0, 0])
            flat[c] = orig
            numeric = (hi - lo) / (2.0 * h)
            analytic = g.reshape(-1)[c]
            err = abs(analytic - numeric) / max(1.0, abs(analytic))
            worst = max(worst, err)
    return worst


# ---------------------------------------------------------------------------
# Adam


class AdamState:
    """First/second moments and step counter for a named parameter set."""

    def __init__(self, beta1=0.9, beta2=0.999, eps=1e-8):
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.step = 0
        self.m = {}
        self.v = {}


def adam_step(params, grads, lr, weight_decay, state: AdamState):
    """One Adam update in place. ``params``: dict name -> Var.

    The L2 term ``weight_decay * param`` is added to the gradient before
    the moment updates (classic Adam-with-L2).
    """
    state.step += 1
    t = state.step
    b1, b2, eps = state.beta1, state.beta2, state.eps
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


def load_checkpoint(path):
    """Read a checkpoint's tensors back as dict name -> ndarray (bit-exact)."""
    return read_checkpoint(path)[1]
