"""Minimal reverse-mode automatic differentiation over float64 numpy arrays.

Values compute eagerly; a Tape records the operations needed for one backward
pass. Ops only record while a tape is active (``with Tape() as tape:``) and only
when some input requires a gradient, so frozen or pure-data subgraphs cost
nothing. Outside a tape an op records nothing at all: its output is a plain
value with no gradient function, so inference frees each intermediate as soon
as it is used.

Each op passes _make one gradient function per operand, mapping the output's
gradient to that operand's. A recorded node keeps only the (operand, function)
pairs whose operand requires a gradient, so a constant such as the attention
mask costs no backward work; backward calls them in operand order, node by
node in reverse tape order. A leaf's requires_grad is thus read once, when a
node that uses it is recorded: freezing it later does not drop its gradient
from that tape. A tape may be entered several times before backward, but
backward consumes it: a second backward raises StaleTape.

Broadcasting follows numpy; gradients are summed back over broadcast axes.

Fused ops record a repeated composite as one node with a closed-form backward:
linear (matmul plus an optional bias), layer_norm, softmax, log_softmax,
logsumexp, and split_heads/merge_heads (attention's put-rows, reshape and
transpose). Each fused forward replays the composite's numpy operations in the
same order, so its value has the composite's bits; only the backward's
summation order differs. The hot backward closures (GELU, softmax) write
into a few buffers in place, in the operation order of the expressions they
replace, so they keep those expressions' bits: IEEE arithmetic rounds an
element the same way into a new array or an out= buffer.

Row stability: matmul gives a row the same bits alone or inside any batch.
With a 2-D right operand (every weight, and the logit product) matmul is a
linear node without a bias: the left operand's rows run in fixed 8-row tiles,
one same-shape BLAS gemm per tile. With stacked operands (attention) each
stacked slice is its own gemm. Backward is deterministic at a fixed BLAS
thread count but not batch invariant.
"""

from __future__ import annotations

import numpy as np

from .errors import DegenerateInput, ShapeMismatch, StaleTape

__all__ = [
    "Tape",
    "Var",
    "param",
    "constant",
    "backward",
    "add", "sub", "mul", "div", "neg", "matmul", "pow_const",
    "exp", "log", "sqrt", "tanh", "gelu", "log_sigmoid",
    "vsum", "vmean", "reshape", "transpose", "getitem", "put_rows",
    "linear", "layer_norm", "softmax", "log_softmax", "logsumexp",
    "split_heads", "merge_heads",
]

_TAPE_STACK: list["Tape"] = []

MATMUL_TILE = 8  # rows per gemm when matmul's right operand is 2-D


class Tape:
    """Records operations for a single backward pass."""

    def __init__(self):
        self._nodes: list[Var] = []
        self._consumed = False

    def __enter__(self):
        if self._consumed:
            raise StaleTape("this tape has already been used for a backward pass")
        _TAPE_STACK.append(self)
        return self

    def __exit__(self, *exc):
        popped = _TAPE_STACK.pop()
        assert popped is self
        return False

    def __len__(self):
        return len(self._nodes)


class Var:
    """A float64 array plus the bookkeeping to backpropagate through it."""

    __slots__ = ("value", "requires_grad", "_grad_fns")

    def __init__(self, value, requires_grad=False, _grad_fns=None):
        self.value = np.asarray(value, dtype=np.float64)
        self.requires_grad = requires_grad
        self._grad_fns = _grad_fns

    @property
    def shape(self):
        return self.value.shape

    def __repr__(self):
        return f"Var(shape={self.value.shape}, requires_grad={self.requires_grad})"

    # operator sugar -------------------------------------------------------
    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return div(self, other)

    def __rtruediv__(self, other):
        return div(other, self)

    def __neg__(self):
        return neg(self)

    def __matmul__(self, other):
        return matmul(self, other)

    def __pow__(self, p):
        return pow_const(self, p)

    def __getitem__(self, key):
        return getitem(self, key)

    def sum(self, axis=None, keepdims=False):
        return vsum(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims=False):
        return vmean(self, axis=axis, keepdims=keepdims)

    def reshape(self, *shape):
        return reshape(self, shape if len(shape) > 1 else shape[0])

    def transpose(self, axes):
        return transpose(self, axes)


def param(value) -> Var:
    """A trainable leaf."""
    return Var(value, requires_grad=True)


def constant(value) -> Var:
    """A data leaf that never receives a gradient."""
    return Var(value, requires_grad=False)


def _lift(x) -> Var:
    return x if isinstance(x, Var) else Var(x)


def _make(value, *edges) -> Var:
    """value as an op's output, given one (operand, function) pair per operand
    in operand order, each function mapping the output's gradient to that
    operand's. Inside a tape, the pairs whose operand requires a gradient now,
    when the node is recorded, are kept on a new tape node; with none, or
    outside a tape, the output is a plain value."""
    if not _TAPE_STACK:
        return Var(value)
    kept = tuple(e for e in edges if e[0].requires_grad)
    if not kept:
        return Var(value)
    out = Var(value, requires_grad=True, _grad_fns=kept)
    _TAPE_STACK[-1]._nodes.append(out)
    return out


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum grad back down to shape after numpy broadcasting."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    squeeze = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if squeeze:
        grad = grad.sum(axis=squeeze, keepdims=True)
    return grad


# ---------------------------------------------------------------------------
# arithmetic
# ---------------------------------------------------------------------------

def add(a, b) -> Var:
    a, b = _lift(a), _lift(b)
    av, bv = a.value, b.value
    return _make(av + bv, (a, lambda g: _unbroadcast(g, av.shape)),
                 (b, lambda g: _unbroadcast(g, bv.shape)))


def sub(a, b) -> Var:
    a, b = _lift(a), _lift(b)
    av, bv = a.value, b.value
    return _make(av - bv, (a, lambda g: _unbroadcast(g, av.shape)),
                 (b, lambda g: _unbroadcast(-g, bv.shape)))


def mul(a, b) -> Var:
    a, b = _lift(a), _lift(b)
    av, bv = a.value, b.value
    return _make(av * bv, (a, lambda g: _unbroadcast(g * bv, av.shape)),
                 (b, lambda g: _unbroadcast(g * av, bv.shape)))


def div(a, b) -> Var:
    a, b = _lift(a), _lift(b)
    av, bv = a.value, b.value
    return _make(av / bv, (a, lambda g: _unbroadcast(g / bv, av.shape)),
                 (b, lambda g: _unbroadcast(-g * av / (bv * bv), bv.shape)))


def neg(a) -> Var:
    a = _lift(a)
    return _make(-a.value, (a, lambda g: -g))


def pow_const(a, p: float) -> Var:
    a = _lift(a)
    p = float(p)
    return _make(a.value**p, (a, lambda g: g * p * a.value ** (p - 1.0)))


def _tiled_matmul(a: np.ndarray, w: np.ndarray) -> np.ndarray:
    """a (..., k) @ w (k, n) as one same-shape (8, k) @ (k, n) gemm per 8-row tile.

    The rows of a are flattened and zero-padded to whole tiles, so each row's
    bits depend only on its own values and w, never on how many rows share the
    call or where in a tile the row lands.
    """
    k, n = w.shape
    rows = a.reshape(-1, k)
    r = rows.shape[0]
    pad = -r % MATMUL_TILE
    if pad:
        rows = np.concatenate([rows, np.zeros((pad, k))])
    out = np.matmul(rows.reshape(-1, MATMUL_TILE, k), w).reshape(-1, n)
    return out[:r].reshape(a.shape[:-1] + (n,))


def matmul(a, b) -> Var:
    # Row stability: a 2-D right operand (every weight) makes this a linear
    # node without a bias, run in 8-row tiles; a stacked right operand gets one
    # gemm per stacked slice. Either way a row's result is bit-identical alone
    # or in any batch. Backward only needs determinism.
    a, b = _lift(a), _lift(b)
    av, bv = a.value, b.value
    if av.ndim < 2 or bv.ndim < 2:
        raise ShapeMismatch("matmul: operands must have at least 2 dimensions")
    if bv.ndim == 2:
        return linear(a, b)
    return _make(np.matmul(av, bv),
                 (a, lambda g: _unbroadcast(g @ np.swapaxes(bv, -1, -2), av.shape)),
                 (b, lambda g: _unbroadcast(np.swapaxes(av, -1, -2) @ g, bv.shape)))


def linear(x, w, b=None) -> Var:
    """x (..., k) @ w (k, n) + b (n,) as one node: an 8-row tiled product with
    the bias added in place, so rows keep batch-independent bits. Without b
    the node is the plain product and records x and w as its parents."""
    x, w = _lift(x), _lift(w)
    xv, wv = x.value, w.value
    k, n = wv.shape
    out_val = _tiled_matmul(xv, wv)
    edges = [(x, lambda g: g @ wv.T), (w, lambda g: xv.reshape(-1, k).T @ g.reshape(-1, n))]
    if b is not None:
        b = _lift(b)
        out_val += b.value
        edges.append((b, lambda g: g.reshape(-1, n).sum(axis=0)))
    return _make(out_val, *edges)


# ---------------------------------------------------------------------------
# elementwise nonlinearities
# ---------------------------------------------------------------------------

def exp(a) -> Var:
    a = _lift(a)
    out_val = np.exp(a.value)
    return _make(out_val, (a, lambda g: g * out_val))


def log(a) -> Var:
    a = _lift(a)
    return _make(np.log(a.value), (a, lambda g: g / a.value))


def sqrt(a) -> Var:
    a = _lift(a)
    out_val = np.sqrt(a.value)
    return _make(out_val, (a, lambda g: g * 0.5 / out_val))


def tanh(a) -> Var:
    a = _lift(a)
    out_val = np.tanh(a.value)
    return _make(out_val, (a, lambda g: g * (1.0 - out_val * out_val)))


_GELU_C = np.sqrt(2.0 / np.pi)


def gelu(a) -> Var:
    """Tanh-form GELU; the backward pass is the exact derivative of this form."""
    a = _lift(a)
    x = a.value
    # tanh(C * (x + 0.044715 * x * x * x)) in one buffer, in that operation order
    t = 0.044715 * x
    t *= x
    t *= x
    t += x
    t *= _GELU_C
    np.tanh(t, out=t)
    out_val = 0.5 * x
    out_val *= 1.0 + t

    def grad_fn(g):
        # g * (0.5 * (1 + t) + 0.5 * x * (1 - t * t) * C * (1 + 3 * 0.044715 * x * x))
        # in three buffers, each product and sum in that order (IEEE + and *
        # commute, so operand order within one operation cannot change a bit)
        d_inner = (3.0 * 0.044715) * x
        d_inner *= x
        d_inner += 1.0
        d_inner *= _GELU_C
        d = t * t
        np.subtract(1.0, d, out=d)
        tail = 0.5 * x
        tail *= d
        tail *= d_inner
        np.add(t, 1.0, out=d)
        d *= 0.5
        d += tail
        d *= g
        return d

    return _make(out_val, (a, grad_fn))


def _expit(x: np.ndarray) -> np.ndarray:
    """Numerically stable logistic sigmoid."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def log_sigmoid(a) -> Var:
    """log(sigmoid(x)) computed as -log1p(exp(-x)) without overflow."""
    a = _lift(a)
    return _make(-np.logaddexp(0.0, -a.value), (a, lambda g: g * _expit(-a.value)))


# ---------------------------------------------------------------------------
# reductions and shape ops
# ---------------------------------------------------------------------------

def vsum(a, axis=None, keepdims=False) -> Var:
    a = _lift(a)
    out_val = a.value.sum(axis=axis, keepdims=keepdims)

    def grad_fn(g):
        g = np.asarray(g)
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        return np.broadcast_to(g, a.value.shape).copy()

    return _make(out_val, (a, grad_fn))


def vmean(a, axis=None, keepdims=False) -> Var:
    a = _lift(a)
    if axis is None:
        count = a.value.size
    else:
        count = np.prod([a.value.shape[ax] for ax in np.atleast_1d(axis)])
    out_val = a.value.mean(axis=axis, keepdims=keepdims)

    def grad_fn(g):
        g = np.asarray(g) / count
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        return np.broadcast_to(g, a.value.shape).copy()

    return _make(out_val, (a, grad_fn))


def reshape(a, shape) -> Var:
    a = _lift(a)
    orig = a.value.shape
    return _make(a.value.reshape(shape), (a, lambda g: g.reshape(orig)))


def transpose(a, axes) -> Var:
    a = _lift(a)
    inverse = np.argsort(axes)
    return _make(np.transpose(a.value, axes), (a, lambda g: np.transpose(g, inverse)))


def getitem(a, key) -> Var:
    a = _lift(a)

    def grad_fn(g):
        # np.add.at's sums, each from 0.0 in index order, from bincount over
        # the flat indices the key selects, which adds in that order too at a
        # fraction of the cost
        flat = np.arange(a.value.size).reshape(a.value.shape)[key]
        full = np.bincount(np.ravel(flat), weights=np.ravel(g), minlength=a.value.size)
        return full.reshape(a.value.shape)

    return _make(a.value[key], (a, grad_fn))


def put_rows(a, rows, shape) -> Var:
    """Zeros of the given shape, read as (N, d), with a's (R, d) rows at distinct
    flat indices rows."""
    a = _lift(a)
    d = shape[-1]
    out_val = np.zeros(shape)
    out_val.reshape(-1, d)[rows] = a.value
    return _make(out_val, (a, lambda g: g.reshape(-1, d)[rows]))


# ---------------------------------------------------------------------------
# fused composites
# ---------------------------------------------------------------------------

def _logsumexp_value(v: np.ndarray, axis) -> np.ndarray:
    """log(sum(exp(v - m))) + m with keepdims, for the row max m (0 where a
    row is all -inf), in the composite's operation order. The max runs on a
    contiguous copy with axis moved to the front, where it is an elementwise
    maximum over slices rather than a reduction along a short axis (the
    attention's 8 slots); a max is exact in any order."""
    axis %= v.ndim
    front = np.ascontiguousarray(v.transpose((axis, *range(axis), *range(axis + 1, v.ndim))))
    m = np.maximum.reduce(front, axis=0).reshape(v.shape[:axis] + (1,) + v.shape[axis + 1:])
    m = np.where(np.isfinite(m), m, 0.0)
    z = v - m
    np.exp(z, out=z)
    lse = np.log(z.sum(axis=axis, keepdims=True))
    lse += m
    return lse


def logsumexp(a, axis, keepdims=False) -> Var:
    """Stable logsumexp; the subtracted max is treated as a constant, which
    leaves the gradient exact."""
    a = _lift(a)
    lse = _logsumexp_value(a.value, axis)

    def grad_fn(g):
        if not keepdims:
            g = np.expand_dims(g, axis)
        return g * np.exp(a.value - lse)

    return _make(lse if keepdims else np.squeeze(lse, axis), (a, grad_fn))


def log_softmax(a, axis) -> Var:
    a = _lift(a)
    out_val = a.value - _logsumexp_value(a.value, axis)
    return _make(out_val, (a, lambda g: g - np.exp(out_val) * g.sum(axis=axis, keepdims=True)))


def softmax(a, axis) -> Var:
    """exp(log_softmax(a)) with its bits, as one node; -inf entries get 0."""
    a = _lift(a)
    out_val = a.value - _logsumexp_value(a.value, axis)
    np.exp(out_val, out=out_val)

    def grad_fn(g):
        d = g * out_val
        np.subtract(g, d.sum(axis=axis, keepdims=True), out=d)
        d *= out_val
        return d

    return _make(out_val, (a, grad_fn))


def layer_norm(x, g, b, eps: float) -> Var:
    """(x - mean) / sqrt(var + eps) * g + b over the last axis, as one node."""
    x, g, b = _lift(x), _lift(g), _lift(b)
    xc = x.value - x.value.mean(axis=-1, keepdims=True)
    std = np.sqrt((xc * xc).mean(axis=-1, keepdims=True) + eps)
    xhat = xc / std
    out_val = xhat * g.value
    out_val += b.value

    def x_grad(gy):
        d = gy * g.value
        proj = (d * xhat).mean(axis=-1, keepdims=True)
        d -= d.mean(axis=-1, keepdims=True)
        d -= xhat * proj
        d /= std
        return d

    return _make(out_val, (x, x_grad), (g, lambda gy: _unbroadcast(gy * xhat, g.value.shape)),
                 (b, lambda gy: _unbroadcast(gy, b.value.shape)))


def split_heads(a, rows, shape, axes=(0, 2, 1, 3)) -> Var:
    """put_rows, reshape and transpose as one node: a's (R, H * dh) rows at
    distinct flat slots rows of zeros shaped (B, P, H, dh), viewed with axes
    permuted, (B, H, P, dh) by default."""
    a = _lift(a)
    d = a.value.shape[-1]
    padded = np.zeros((shape[0] * shape[1], d))
    padded[rows] = a.value
    inverse = np.argsort(axes)
    return _make(np.transpose(padded.reshape(shape), axes),
                 (a, lambda g: np.transpose(g, inverse).reshape(-1, d)[rows]))


def merge_heads(a, rows) -> Var:
    """split_heads' inverse: the rows at distinct flat slots rows of the
    (B, P, H * dh) merge of a (B, H, P, dh)."""
    a = _lift(a)
    B, H, P, dh = a.value.shape

    def grad_fn(g):
        full = np.zeros((B * P, H * dh))
        full[rows] = g
        return np.transpose(full.reshape(B, P, H, dh), (0, 2, 1, 3))

    merged = np.transpose(a.value, (0, 2, 1, 3)).reshape(B * P, H * dh)
    return _make(merged[rows], (a, grad_fn))


# ---------------------------------------------------------------------------
# backward
# ---------------------------------------------------------------------------

def backward(tape: Tape, root: Var) -> dict[int, np.ndarray]:
    """Run reverse accumulation from a scalar root.

    Returns a mapping id(leaf Var) -> gradient for every requires_grad leaf
    reached from the root. Leaves not reached (or a root outside the tape) get
    no entry; callers treat missing entries as zero.
    """
    if tape._consumed:
        raise StaleTape("backward was already called on this tape")
    tape._consumed = True
    if root.value.size != 1:
        raise DegenerateInput(f"backward: root must be scalar, got shape {root.value.shape}")

    grads: dict[int, np.ndarray] = {id(root): np.ones_like(root.value)}
    leaf_grads: dict[int, np.ndarray] = {}
    if root.requires_grad and root._grad_fns is None:
        leaf_grads[id(root)] = np.ones_like(root.value)

    for node in reversed(tape._nodes):
        g = grads.pop(id(node), None)
        if g is None:
            continue
        for parent, grad_fn in node._grad_fns:
            pg = grad_fn(g)
            target = leaf_grads if parent._grad_fns is None else grads
            key = id(parent)
            if key in target:
                target[key] = target[key] + pg
            else:
                target[key] = pg
    return leaf_grads
