"""Minimal reverse-mode automatic differentiation over float64 numpy arrays.

Every op is written once: it computes its value from `value_of` its
operands and passes it, the operands and one vector-Jacobian closure per
operand to `_node`.  With only arrays in, that value itself comes out, so
numeric code runs unchanged outside a differentiation context; otherwise
the node hangs on the `Var` operands only: an array is no graph node.
``backward`` visits only the nodes that can reach a parameter
(``requires_grad=True`` leaf) and calls only their closures.

`parallel_parts` gives a fit the loss function of a sum of parts: part 0
runs in the caller and each other part in a worker process forked for the
fit, sent the parameters' values at each step.  Every sum runs in part
order, so the result does not depend on where the parts run.

Straight-through estimators (`round_ste`, `clamp_ste`) are first-class ops:
their forward is the exact discrete map, their backward a pass-through.
Calibration quantizes through `quantizers.quantize_dynamic`'s closed-form
node instead; these serve the gradient-integrity check and the reference
chain its gradients are tested against.
"""

from __future__ import annotations

import contextlib
import functools
import os

import numpy as np

__all__ = [
    "Var",
    "GradTracker",
    "GRAD_TRACKER",
    "parameter",
    "value_of",
    "backward",
    "parallel_parts",
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


def _node(value, operands, vjps):
    """An op's result: `value` itself when no operand is a Var, else a node whose
    parents are the Var operands, each with its vector-Jacobian product from
    `vjps` (one per operand), in operand order."""
    parents = kept = ()
    for p, vjp in zip(operands, vjps):
        if isinstance(p, Var):
            parents += (p,)
            kept += (vjp,)
    return Var(value, _parents=parents, _vjps=kept) if parents else value


# -- arithmetic -----------------------------------------------------------


def add(a, b):
    av, bv = value_of(a), value_of(b)
    return _node(av + bv, (a, b), (lambda g: _unbroadcast(g, av.shape), lambda g: _unbroadcast(g, bv.shape)))


def sub(a, b):
    av, bv = value_of(a), value_of(b)
    return _node(av - bv, (a, b), (lambda g: _unbroadcast(g, av.shape), lambda g: _unbroadcast(-g, bv.shape)))


def mul(a, b):
    av, bv = value_of(a), value_of(b)
    return _node(av * bv, (a, b), (lambda g: _unbroadcast(g * bv, av.shape), lambda g: _unbroadcast(g * av, bv.shape)))


def div(a, b):
    av, bv = value_of(a), value_of(b)
    vjps = (lambda g: _unbroadcast(g / bv, av.shape), lambda g: _unbroadcast(-g * av / (bv * bv), bv.shape))
    return _node(av / bv, (a, b), vjps)


def power(a, p):
    av = value_of(a)
    return _node(av**p, (a,), (lambda g: g * p * av ** (p - 1),))


def sqrt(a):
    out = np.sqrt(value_of(a))
    return _node(out, (a,), (lambda g: g * 0.5 / out,))


def exp(a):
    out = np.exp(value_of(a))
    return _node(out, (a,), (lambda g: g * out,))


def absolute(a):
    av = value_of(a)
    return _node(np.abs(av), (a,), (lambda g: g * np.sign(av),))


def matmul(a, b):
    """Batched matrix product; both operands must be at least 2-D."""
    av, bv = value_of(a), value_of(b)

    def da(g):
        return _unbroadcast(g @ bv.swapaxes(-1, -2), av.shape)

    def db(g):
        # batched, not one flattened GEMM: flattening regroups the sums and moves final_mse
        return _unbroadcast(av.swapaxes(-1, -2) @ g, bv.shape)

    return _node(av @ bv, (a, b), (da, db))


def linear(x, w, b=None):
    """x @ w^T + b for a 2-D weight w [out, in]: one node that keeps only x and
    w.  x is viewed as [tokens x in], so the value and the x and w gradients
    are one 2-D GEMM each."""
    xv, wv = value_of(x), value_of(w)
    x2 = xv.reshape(-1, xv.shape[-1])
    out = (x2 @ wv.T).reshape(*xv.shape[:-1], wv.shape[0])

    def dx(g):
        return (g.reshape(-1, g.shape[-1]) @ wv).reshape(xv.shape)

    def dw(g):
        return g.reshape(-1, g.shape[-1]).T @ x2

    if b is None:
        return _node(out, (x, w), (dx, dw))
    bv = value_of(b)
    out += bv
    return _node(out, (x, w, b), (dx, dw, lambda g: _unbroadcast(g, bv.shape)))


def reshape(a, shape):
    av = value_of(a)
    return _node(av.reshape(shape), (a,), (lambda g: g.reshape(av.shape),))


def swapaxes(a, i, j):
    return _node(np.swapaxes(value_of(a), i, j), (a,), (lambda g: np.swapaxes(g, i, j),))


# -- reductions -----------------------------------------------------------


def vsum(a):
    av = value_of(a)
    return _node(np.sum(av), (a,), (lambda g: np.broadcast_to(g, av.shape).copy(),))


def vmean(a):
    av = value_of(a)
    return _node(np.mean(av), (a,), (lambda g: np.broadcast_to(g, av.shape) / av.size,))


def _extreme(a, axis, keepdims, fn):
    av = value_of(a)

    def back(g):
        mask = (av == fn(av, axis=axis, keepdims=True)).astype(np.float64)
        mask /= mask.sum(axis=axis, keepdims=True)  # split ties evenly
        return (g if axis is None or keepdims else np.expand_dims(g, axis)) * mask

    return _node(fn(av, axis=axis, keepdims=keepdims), (a,), (back,))


def amin(a, axis=None, keepdims=False):
    return _extreme(a, axis, keepdims, np.amin)


def amax(a, axis=None, keepdims=False):
    return _extreme(a, axis, keepdims, np.amax)


# -- nonlinearities -------------------------------------------------------


def softmax(a, axis=-1):
    av = value_of(a)
    e = np.exp(av - np.max(av, axis=axis, keepdims=True))
    out = e / e.sum(axis=axis, keepdims=True)
    return _node(out, (a,), (lambda g: out * (g - np.sum(g * out, axis=axis, keepdims=True)),))


def silu(a):
    """a / (1 + exp(-a)); all in one buffer when a is an array."""
    av = value_of(a)
    den = np.negative(av)
    with np.errstate(over="ignore"):  # below about -709 exp(-a) is inf, which gives the limit 0
        np.exp(den, out=den)
    den += 1.0
    out = av / den if _is_var(a) else np.divide(av, den, out=den)
    # silu' = sig * (1 + a * (1 - sig)) with sig = 1 / den, and a * sig = out
    return _node(out, (a,), (lambda g: g * (1.0 + av - out) / den,))


def rmsnorm(a, eps=1e-6):
    """x / sqrt(mean(x^2, last axis) + eps); the gain is folded elsewhere."""
    x = value_of(a)
    rms = np.sqrt(np.mean(x * x, axis=-1, keepdims=True) + eps)
    out = x / rms
    # d(x / rms) = (g - out * mean(g * out)) / rms
    return _node(out, (a,), (lambda g: (g - out * np.mean(g * out, axis=-1, keepdims=True)) / rms,))


# -- straight-through estimators ------------------------------------------


def round_half_away(x):
    """Round half away from zero, elementwise (deterministic tie rule)."""
    x = np.asarray(x)
    return np.floor(np.abs(x) + 0.5) * np.sign(x)


def round_ste(a):
    """Forward: round half away from zero.  Backward: identity."""
    return _node(round_half_away(value_of(a)), (a,), (lambda g: g,))


def clamp_ste(a, lo, hi):
    """Forward: clamp to [lo, hi].  Backward: pass-through inside, inclusive."""
    if lo > hi:
        raise ValueError(f"clamp bounds reversed: lo={lo} > hi={hi}")
    av = value_of(a)
    return _node(np.clip(av, lo, hi), (a,), (lambda g: g * ((av >= lo) & (av <= hi)),))


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
    for leaf, g in _gradients(loss, np.ones_like(loss.value)):
        leaf.set_grad(g)


def _topological(root):
    """The nodes that lead from a parameter to `root`, each after its parents."""
    order = []
    seen = set()
    stack = [(root, False)]
    while stack:  # iterative DFS over the grad-relevant subgraph
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
    return order


def _gradients(root, g_root):
    """[(parameter, d(root)/d(parameter) times g_root)] of every parameter
    `root` reaches, in reverse topological order; sets no `.grad`."""
    leaves = []
    grads = {id(root): g_root}
    for node in reversed(_topological(root)):
        g = grads.pop(id(node), None)
        if g is None:
            continue
        if node.requires_grad:
            leaves.append((node, g))
        for p, vjp in zip(node._parents, node._vjps):
            if not p.needs_grad:
                continue
            pg = vjp(g)
            if id(p) in grads:
                grads[id(p)] = grads[id(p)] + pg
            else:
                grads[id(p)] = pg
    return leaves


# -- parallel parts ----------------------------------------------------------


def _replier(build, params):
    """reply(request) of the part `build`: ("loss", parameter values, numpy's
    error modes) gets its value, ("grad", g, modes) [(parameter index,
    gradient)] of its graph; as (True, result) or (False, the exception)."""
    index = {id(p): k for k, p in enumerate(params)}
    root = None

    def reply(request):
        nonlocal root
        kind, arg, modes = request
        try:
            with np.errstate(**modes):
                if kind == "grad":
                    return True, [(index[id(leaf)], g) for leaf, g in _gradients(root, arg)]
                root = None  # the last graph goes before the next is built
                for p, value in zip(params, arg):
                    p.value = value
                root = build()
                return True, root.value
        except Exception as err:
            return False, err

    return reply


def _fork(reply, conns):
    """(pid, pipe) of a worker process that answers each request on the
    pipe with `reply` until the pipe closes.  It closes `conns`, the
    caller's pipes to earlier workers, so that each closes as EOF."""
    from multiprocessing.connection import Pipe  # here: 5 ms that only a sharded fit needs

    ours, theirs = Pipe()
    pid = os.fork()
    if pid:
        theirs.close()
        return pid, ours
    try:  # the worker leaves by os._exit: no atexit hook runs and no inherited buffer is flushed twice
        for conn in [ours, *conns]:
            conn.close()
        while True:
            theirs.send(reply(theirs.recv()))
    finally:
        os._exit(0)


def _replies(here, conns, request):
    """The parts' results for `request` in part order: the `here` replies
    run in the caller while the workers on `conns` run.  Every part has
    finished when the first error, in part order, is raised."""
    try:
        for conn in conns:
            conn.send(request)
        replies = [reply(request) for reply in here] + [conn.recv() for conn in conns]
    except (EOFError, OSError) as err:
        raise RuntimeError("parallel_parts: a worker process died") from err
    for ok, result in replies:
        if not ok:
            raise result
    return [result for _, result in replies]


@contextlib.contextmanager
def parallel_parts(parts, params):
    """The loss function of a fit on the sum of `parts`: zero-argument
    callables that build scalar Vars from `params`, the fit's parameters.

    One part is the loss function.  Otherwise a loss is one node over
    `params` whose value and gradients (before the next loss) sum the
    parts' in part order; part 0 runs in the caller.  With a CPU per part
    and `os.fork`, each other part runs meanwhile in a process forked on
    entry and joined on exit, sent the parameters' values and numpy's
    error modes at each call; else all run in order here, with the same bits.
    """
    if len(parts) == 1:
        yield parts[0]
        return
    here, workers, conns = [_replier(build, params) for build in parts], [], []

    def loss_fn():
        values = _replies(here, conns, ("loss", [p.value for p in params], np.geterr()))
        value = functools.reduce(lambda a, b: a + b, values)
        total = []

        def vjp(k, g):  # backward calls the vjps in parameter order, with one g
            if k == 0:  # each parameter's gradient (None: no part reaches it), summed in part order
                total[:] = [None] * len(params)
                for part in _replies(here, conns, ("grad", g, np.geterr())):
                    for i, pg in part:
                        total[i] = pg if total[i] is None else total[i] + pg
            return total[k]

        return _node(value, tuple(params), [functools.partial(vjp, k) for k in range(len(params))])

    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    try:
        if hasattr(os, "fork") and cpus >= len(parts):
            while len(here) > 1:
                workers.append(_fork(here.pop(1), conns))
                conns.append(workers[-1][1])
        yield loss_fn
    finally:
        for pid, conn in workers:
            conn.close()
            os.waitpid(pid, 0)
