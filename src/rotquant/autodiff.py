"""Minimal reverse-mode automatic differentiation over float64 numpy arrays.

The graph is built dynamically: every operation on a `Var` returns a new
`Var` holding the forward value plus one vector-Jacobian closure per parent.
The closures are built for every such op; ``backward`` then visits only the
nodes that can reach a parameter (``requires_grad=True`` leaf) and calls
only their closures, so constant subgraphs cost their closure allocations
but no backward work.

Straight-through estimators (`round_ste`, `clamp_ste`) are first-class ops:
their forward is the exact discrete map, their backward the surrogate used
for quantization-aware calibration.

The exported helpers accept either a `Var` or a plain ndarray and return
the matching kind, so numeric code can be written once and reused
both inside and outside a differentiation context.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "Var",
    "GradTracker",
    "GRAD_TRACKER",
    "parameter",
    "value_of",
    "backward",
    "matmul",
    "linear",
    "reshape",
    "swapaxes",
    "vsum",
    "vmean",
    "amin",
    "amax",
    "absolute",
    "sqrt",
    "exp",
    "softmax",
    "silu",
    "rmsnorm",
    "round_ste",
    "clamp_ste",
    "round_half_away",
]


#: Most elements of per-sequence x^T @ g products `linear`'s weight gradient holds at once.
LINEAR_CHUNK = 1 << 18


class GradTracker:
    """Counts live parameter-gradient elements.

    Used to assert the blockwise-optimization memory contract: at no point
    may more than one block's worth of parameter gradients be alive.
    """

    def __init__(self):
        self.live = 0
        self.peak = 0

    def alloc(self, n: int):
        self.live += n
        if self.live > self.peak:
            self.peak = self.live

    def free(self, n: int):
        self.live -= n

    def reset(self):
        self.live = 0
        self.peak = 0


GRAD_TRACKER = GradTracker()


class Var:
    """A node in the computation graph.

    `value` is always a float64 ndarray (0-d allowed).  `grad` is populated
    by `backward` only for nodes created with ``requires_grad=True``;
    gradients of other leaves are discarded.
    """

    __slots__ = ("value", "grad", "requires_grad", "needs_grad", "_parents", "_vjps")

    # make ndarray <op> Var dispatch to the Var reflected operators
    __array_ufunc__ = None
    __array_priority__ = 1000

    def __init__(self, value, requires_grad=False, _parents=(), _vjps=()):
        self.value = np.asarray(value, dtype=np.float64)
        self.requires_grad = requires_grad
        self._parents = _parents
        self._vjps = _vjps
        self.needs_grad = requires_grad or any(p.needs_grad for p in _parents)
        self.grad = None

    @property
    def shape(self):
        return self.value.shape

    @property
    def size(self):
        return self.value.size

    def set_grad(self, g):
        if self.grad is None and self.requires_grad:
            GRAD_TRACKER.alloc(self.value.size)
        self.grad = g if self.grad is None else self.grad + g

    def clear_grad(self):
        if self.grad is not None and self.requires_grad:
            GRAD_TRACKER.free(self.value.size)
        self.grad = None

    # -- operator sugar ---------------------------------------------------

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
        return mul(self, -1.0)

    def __matmul__(self, other):
        return matmul(self, other)

    def __pow__(self, p):
        return power(self, p)

    def __repr__(self):
        flag = ", param" if self.requires_grad else ""
        return f"Var(shape={self.value.shape}{flag})"


def parameter(value):
    """Create a leaf parameter whose gradient is accumulated by backward."""
    return Var(np.array(value, dtype=np.float64, copy=True), requires_grad=True)


def value_of(x):
    """Forward value of a Var, or the array itself."""
    return x.value if isinstance(x, Var) else np.asarray(x, dtype=np.float64)


def _is_var(*xs):
    return any(isinstance(x, Var) for x in xs)


def _lift(x):
    return x if isinstance(x, Var) else Var(x)


def _unbroadcast(g, shape):
    """Reduce a broadcast gradient back to `shape`."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


def _make(value, parents, vjps):
    return Var(value, _parents=tuple(parents), _vjps=tuple(vjps))


# -- arithmetic -----------------------------------------------------------
# The binary operators reach these through Var's dunder methods, so at
# least one operand is always a Var.


def add(a, b):
    a, b = _lift(a), _lift(b)
    return _make(
        a.value + b.value,
        (a, b),
        (lambda g: _unbroadcast(g, a.value.shape), lambda g: _unbroadcast(g, b.value.shape)),
    )


def sub(a, b):
    a, b = _lift(a), _lift(b)
    return _make(
        a.value - b.value,
        (a, b),
        (lambda g: _unbroadcast(g, a.value.shape), lambda g: _unbroadcast(-g, b.value.shape)),
    )


def mul(a, b):
    a, b = _lift(a), _lift(b)
    return _make(
        a.value * b.value,
        (a, b),
        (
            lambda g: _unbroadcast(g * b.value, a.value.shape),
            lambda g: _unbroadcast(g * a.value, b.value.shape),
        ),
    )


def div(a, b):
    a, b = _lift(a), _lift(b)
    return _make(
        a.value / b.value,
        (a, b),
        (
            lambda g: _unbroadcast(g / b.value, a.value.shape),
            lambda g: _unbroadcast(-g * a.value / (b.value * b.value), b.value.shape),
        ),
    )


def power(a, p):
    return _make(a.value**p, (a,), (lambda g: g * p * a.value ** (p - 1),))


def sqrt(a):
    if not _is_var(a):
        return np.sqrt(a)
    a = _lift(a)
    out = np.sqrt(a.value)
    return _make(out, (a,), (lambda g: g * 0.5 / out,))


def exp(a):
    if not _is_var(a):
        return np.exp(a)
    a = _lift(a)
    out = np.exp(a.value)
    return _make(out, (a,), (lambda g: g * out,))


def absolute(a):
    if not _is_var(a):
        return np.abs(a)
    a = _lift(a)
    return _make(np.abs(a.value), (a,), (lambda g: g * np.sign(a.value),))


def matmul(a, b):
    """Batched matrix product; both operands must be at least 2-D."""
    if not _is_var(a, b):
        return np.asarray(a) @ np.asarray(b)
    a, b = _lift(a), _lift(b)
    out = a.value @ b.value

    def da(g):
        return _unbroadcast(g @ b.value.swapaxes(-1, -2), a.value.shape)

    def db(g):
        # batched, not one flattened GEMM: flattening regroups the sums and moves final_mse
        return _unbroadcast(a.value.swapaxes(-1, -2) @ g, b.value.shape)

    return _make(out, (a, b), (da, db))


def _weight_grad(x, g):
    """x^T @ g summed over the leading axes: the bits of `_unbroadcast`'s sum of
    the batched product, which is never built.  The per-sequence products are
    made LINEAR_CHUNK elements at a time and added in sequence order."""
    if x.ndim == 2:
        return x.T @ g
    xt = x.reshape(-1, *x.shape[-2:]).swapaxes(-1, -2)
    g = g.reshape(-1, *g.shape[-2:])
    acc = np.zeros((xt.shape[1], g.shape[2]))
    step = max(1, LINEAR_CHUNK // acc.size)
    for i in range(0, len(xt), step):
        part = xt[i : i + step] @ g[i : i + step]
        part[0] += acc  # the running sum leads the chunk, and the chunk's sum continues it
        acc = part.sum(axis=0)
    return acc


def linear(x, w, b=None):
    """x @ w^T + b for a 2-D weight w [out, in]: one node that keeps only x and
    w, with the bits of matmul(x, swapaxes(w)) + b in its value and gradients."""
    if not _is_var(x, w, b):
        y = np.asarray(x) @ np.swapaxes(w, -1, -2)
        return y if b is None else y + b
    parents = tuple(_lift(p) for p in (x, w, b) if p is not None)
    xv, wv = parents[0].value, parents[1].value
    out = xv @ wv.swapaxes(-1, -2)
    vjps = [lambda g: _unbroadcast(g @ wv, xv.shape), lambda g: _weight_grad(xv, g).swapaxes(-1, -2)]
    if b is not None:
        out += parents[2].value
        vjps.append(lambda g: _unbroadcast(g, parents[2].value.shape))
    return _make(out, parents, vjps)


def reshape(a, shape):
    if not _is_var(a):
        return np.reshape(a, shape)
    a = _lift(a)
    return _make(a.value.reshape(shape), (a,), (lambda g: g.reshape(a.value.shape),))


def swapaxes(a, i, j):
    if not _is_var(a):
        return np.swapaxes(a, i, j)
    a = _lift(a)
    return _make(np.swapaxes(a.value, i, j), (a,), (lambda g: np.swapaxes(g, i, j),))


# -- reductions -----------------------------------------------------------


def _expand_reduced(g, src_shape, axis, keepdims):
    if axis is None:
        return np.broadcast_to(g, src_shape)
    if not keepdims:
        g = np.expand_dims(g, axis)
    return np.broadcast_to(g, src_shape)


def vsum(a, axis=None, keepdims=False):
    if not _is_var(a):
        return np.sum(a, axis=axis, keepdims=keepdims)
    a = _lift(a)
    out = np.sum(a.value, axis=axis, keepdims=keepdims)
    return _make(out, (a,), (lambda g: _expand_reduced(g, a.value.shape, axis, keepdims).copy(),))


def vmean(a, axis=None, keepdims=False):
    if not _is_var(a):
        return np.mean(a, axis=axis, keepdims=keepdims)
    a = _lift(a)
    out = np.mean(a.value, axis=axis, keepdims=keepdims)
    count = a.value.size if axis is None else a.value.shape[axis]

    def back(g):
        return _expand_reduced(g, a.value.shape, axis, keepdims) / count

    return _make(out, (a,), (back,))


def _extreme(a, axis, keepdims, fn):
    out = fn(a.value, axis=axis, keepdims=keepdims)
    out_full = fn(a.value, axis=axis, keepdims=True) if not keepdims else out

    def back(g):
        mask = (a.value == out_full).astype(np.float64)
        mask /= mask.sum(axis=axis, keepdims=True)  # split ties evenly
        return _expand_reduced(g, a.value.shape, axis, keepdims) * mask

    return _make(out, (a,), (back,))


def amin(a, axis=None, keepdims=False):
    if not _is_var(a):
        return np.amin(a, axis=axis, keepdims=keepdims)
    return _extreme(_lift(a), axis, keepdims, np.amin)


def amax(a, axis=None, keepdims=False):
    if not _is_var(a):
        return np.amax(a, axis=axis, keepdims=keepdims)
    return _extreme(_lift(a), axis, keepdims, np.amax)


# -- nonlinearities -------------------------------------------------------


def softmax(a, axis=-1):
    if not _is_var(a):
        e = np.exp(a - np.max(a, axis=axis, keepdims=True))
        return e / e.sum(axis=axis, keepdims=True)
    a = _lift(a)
    e = np.exp(a.value - np.max(a.value, axis=axis, keepdims=True))
    out = e / e.sum(axis=axis, keepdims=True)

    def back(g):
        return out * (g - np.sum(g * out, axis=axis, keepdims=True))

    return _make(out, (a,), (back,))


def silu(a):
    if not _is_var(a):
        return a / (1.0 + np.exp(-a))
    a = _lift(a)
    sig = 1.0 / (1.0 + np.exp(-a.value))
    out = a.value * sig

    def back(g):
        return g * sig * (1.0 + a.value * (1.0 - sig))

    return _make(out, (a,), (back,))


def rmsnorm(a, eps=1e-6):
    """x / sqrt(mean(x^2, last axis) + eps); the gain is folded elsewhere."""
    if not _is_var(a):
        ms = np.mean(a * a, axis=-1, keepdims=True)
        return a / np.sqrt(ms + eps)
    a = _lift(a)
    x = a.value
    inv = 1.0 / np.sqrt(np.mean(x * x, axis=-1, keepdims=True) + eps)
    out = x * inv

    def back(g):
        n = x.shape[-1]
        return g * inv - x * inv**3 * (np.sum(g * x, axis=-1, keepdims=True) / n)

    return _make(out, (a,), (back,))


# -- straight-through estimators ------------------------------------------


def round_half_away(x):
    """Round half away from zero, elementwise (deterministic tie rule)."""
    x = np.asarray(x)
    return np.floor(np.abs(x) + 0.5) * np.sign(x)


def round_ste(a):
    """Forward: round half away from zero.  Backward: identity."""
    if not _is_var(a):
        return round_half_away(a)
    a = _lift(a)
    return _make(round_half_away(a.value), (a,), (lambda g: g,))


def clamp_ste(a, lo, hi):
    """Forward: clamp to [lo, hi].  Backward: pass-through inside, inclusive."""
    if lo > hi:
        raise ValueError(f"clamp bounds reversed: lo={lo} > hi={hi}")
    if not _is_var(a):
        return np.clip(a, lo, hi)
    a = _lift(a)
    out = np.clip(a.value, lo, hi)

    def back(g):
        return g * ((a.value >= lo) & (a.value <= hi))

    return _make(out, (a,), (back,))


# -- backward pass ---------------------------------------------------------


def backward(loss):
    """Accumulate dloss/dp into `.grad` of every reachable parameter.

    Visits each node exactly once in reverse topological order.  Raises if
    `loss` is not a scalar node.
    """
    if not isinstance(loss, Var):
        raise TypeError("backward expects a Var")
    if loss.value.ndim != 0 and loss.value.size != 1:
        raise ValueError(f"loss must be scalar, got shape {loss.value.shape}")

    # iterative DFS topological sort over the grad-relevant subgraph
    order = []
    seen = set()
    stack = [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if p.needs_grad and id(p) not in seen:
                stack.append((p, False))

    grads = {id(loss): np.ones_like(loss.value)}
    for node in reversed(order):
        g = grads.pop(id(node), None)
        if g is None:
            continue
        if node.requires_grad:
            node.set_grad(g)
        for p, vjp in zip(node._parents, node._vjps):
            if not p.needs_grad:
                continue
            pg = vjp(g)
            if id(p) in grads:
                grads[id(p)] = grads[id(p)] + pg
            else:
                grads[id(p)] = pg
