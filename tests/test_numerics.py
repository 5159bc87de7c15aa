"""Channel statistics, straight-through ops, autodiff, and the optimizer."""

import ctypes
import itertools
import sys
import time
import types
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rotquant import autodiff as ad
from rotquant import optim
from rotquant.optim import OptimizationError, ParamGroup, cosine_lr, optimize
from rotquant.analysis import channel_stats
from rotquant.quantizers import QuantSpec, quantize_dynamic
from rotquant.transforms import cayley, fwht, hadamard_matrix


# -- channel statistics -------------------------------------------------------


def test_channel_stats_constant_matrix():
    cs = channel_stats(np.full((2, 2), 3.7))
    assert np.all(cs.vars == 0.0)
    assert cs.var_of_means == 0.0
    assert cs.total_var == 0.0


def test_channel_stats_hand_case():
    x = np.array([[-1.0, 1.0], [1.0, 3.0]])
    cs = channel_stats(x)
    assert np.allclose(cs.means, [0.0, 2.0])
    assert np.allclose(cs.vars, [1.0, 1.0])
    assert cs.var_of_means == pytest.approx(1.0)
    assert cs.total_var == pytest.approx(2.0)


def test_channel_stats_decomposition_vs_flat_variance():
    x = np.random.default_rng(42).normal(size=(64, 16))
    cs = channel_stats(x)
    direct = x.var()  # oracle: variance over the flattened matrix
    assert cs.total_var == pytest.approx(direct, rel=1e-12)
    assert cs.total_var == pytest.approx(cs.vars.mean() + cs.var_of_means, rel=1e-10)


def test_channel_stats_empty_rejected():
    with pytest.raises(ValueError, match="empty input"):
        channel_stats(np.zeros((0, 4)))
    with pytest.raises(ValueError, match="empty input"):
        channel_stats(np.zeros(5))


def test_decomposition_identity_many_matrices():
    rng = np.random.default_rng(0)
    for _ in range(1000):
        x = rng.normal(
            loc=rng.uniform(-3, 3),
            scale=rng.uniform(0.1, 5),
            size=(rng.integers(2, 50), rng.integers(2, 40)),
        )
        cs = channel_stats(x)
        lhs, rhs = cs.total_var, cs.vars.mean() + cs.var_of_means
        assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), 1e-300)


# -- straight-through estimators ------------------------------------------------


def test_round_ste_values():
    assert ad.round_ste(np.array(2.6)) == 3.0
    assert ad.round_ste(np.array(-0.5)) == -1.0  # half away from zero
    assert ad.round_ste(np.array(0.5)) == 1.0
    assert ad.round_ste(np.array(-2.5)) == -3.0


def test_round_ste_gradient_is_identity():
    x = ad.parameter(np.array([0.2, -1.7, 3.5]))
    ad.backward(ad.vsum(ad.round_ste(x)))
    assert np.array_equal(x.grad, np.ones(3))


@settings(max_examples=200, deadline=None)
@given(st.floats(min_value=-1e12, max_value=1e12, allow_nan=False))
def test_round_ste_idempotent(v):
    once = ad.round_ste(np.array(v))
    assert np.array_equal(ad.round_ste(once), once)


def test_clamp_ste_values_and_gradients():
    x = ad.parameter(np.array([5.0, 1.5, 3.0, -1.0]))
    y = ad.clamp_ste(x, 0.0, 3.0)
    assert np.array_equal(y.value, [3.0, 1.5, 3.0, 0.0])
    ad.backward(ad.vsum(y))
    # boundary x == hi keeps gradient 1 (inclusive)
    assert np.array_equal(x.grad, [0.0, 1.0, 1.0, 0.0])


def test_clamp_ste_rejects_reversed_bounds():
    with pytest.raises(ValueError):
        ad.clamp_ste(np.zeros(3), 2.0, 1.0)


# -- autodiff gradient integrity ---------------------------------------------------


def _fd_grad(f, x0, eps=1e-5):
    g = np.zeros_like(x0)
    it = np.nditer(x0, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        xp, xm = x0.copy(), x0.copy()
        xp[idx] += eps
        xm[idx] -= eps
        g[idx] = (f(xp) - f(xm)) / (2 * eps)
        it.iternext()
    return g


SMOOTH_OPS = {
    "mul": lambda x: ad.vmean(x * x),
    "div": lambda x: ad.vmean(1.0 / (x * x + 2.0)),
    "sqrt": lambda x: ad.vmean(ad.sqrt(x * x + 1.0)),
    "exp": lambda x: ad.vmean(ad.exp(0.3 * x)),
    "abs_smoothpart": lambda x: ad.vmean(ad.absolute(x + 5.0)),  # away from the kink
    "matmul": lambda x: ad.vmean(ad.matmul(x, ad.swapaxes(x, -1, -2))),
    "softmax": lambda x: ad.vmean(ad.softmax(x, axis=-1) ** 2),
    "silu": lambda x: ad.vmean(ad.silu(x)),
    "rmsnorm": lambda x: ad.vmean(ad.rmsnorm(x) ** 3),
    "reshape_sum": lambda x: ad.vsum(ad.reshape(x, (-1,)) ** 2) * (1.0 / x.size),
    "power": lambda x: ad.vmean(x**3),
}


@pytest.mark.parametrize("name", sorted(SMOOTH_OPS))
def test_gradients_match_finite_differences(name):
    fn = SMOOTH_OPS[name]
    x0 = np.random.default_rng(3).uniform(0.5, 2.0, size=(4, 6))

    def value(xv):
        return float(ad.value_of(fn(ad.Var(xv))))

    p = ad.Var(x0, requires_grad=True)
    ad.backward(fn(p))
    fd = _fd_grad(value, x0)
    denom = np.maximum(np.abs(fd), 1e-8)
    assert np.max(np.abs(p.grad - fd) / denom) < 1e-4, name


def test_silu_is_quiet_where_exp_overflows():
    # exp(-a) overflows to inf below about -709, which gives the limit
    # a / inf = -0.0: silent, with a zero gradient, and the array and Var
    # paths give the same bits as the formula everywhere
    x = np.array([-1000.0, -709.0, -1.5, 0.0, 2.5])
    with np.errstate(over="ignore"):
        plain = x / (1.0 + np.exp(-x))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        y = ad.silu(x)
        p = ad.parameter(x)
        out = ad.silu(p)
        ad.backward(ad.vsum(out))
    assert np.array_equal(y.view(np.uint64), plain.view(np.uint64))
    assert np.array_equal(out.value.view(np.uint64), plain.view(np.uint64))
    assert y[0] == out.value[0] == 0.0 and p.grad[0] == 0.0
    assert np.all(np.isfinite(p.grad))


def test_matmul_chain_gradient_vs_finite_differences():
    rng = np.random.default_rng(11)
    a0 = rng.normal(size=(3, 4))
    b0 = rng.normal(size=(4, 5))
    c0 = rng.normal(size=(5, 2))

    def loss_from(av):
        y = ad.matmul(ad.matmul(ad.Var(av), ad.Var(b0)), ad.Var(c0))
        return float(ad.value_of(ad.vsum(y * y)))

    a = ad.Var(a0, requires_grad=True)
    y = ad.matmul(ad.matmul(a, ad.Var(b0)), ad.Var(c0))
    ad.backward(ad.vsum(y * y))
    fd = _fd_grad(loss_from, a0)
    assert np.max(np.abs(a.grad - fd) / np.maximum(np.abs(fd), 1e-8)) < 1e-4


def _bits(a):
    return np.asarray(a, dtype=np.float64).view(np.uint64)


@pytest.mark.parametrize("through_rtn", [False, True], ids=["weight", "rtn-weight"])
@pytest.mark.parametrize("with_bias", [False, True], ids=["no-bias", "bias"])
@pytest.mark.parametrize("x_shape", [(5, 4, 8), (4, 8), (8,)], ids=["3d", "2d", "1d"])
def test_linear_is_one_2d_gemm_per_product(x_shape, with_bias, through_rtn):
    # x is viewed as [tokens x in]: value x2 @ w^T, x gradient g2 @ w, weight
    # gradient g2^T @ x2, bit for bit; a 1-D x is a single token
    rng = np.random.default_rng(31)
    x0, w0, b0 = rng.normal(size=x_shape), rng.normal(size=(6, 8)), rng.normal(size=6)
    weights = rng.normal(size=(*x_shape[:-1], 6))  # dloss/dy
    spec = QuantSpec(4, "symmetric", "per-channel")

    def weight_used(w):
        # a per-row quantizer sums the weight gradient along rows: its layout counts
        return quantize_dynamic(w, spec) if through_rtn else w

    x, w = ad.parameter(x0), ad.parameter(w0)
    b = ad.parameter(b0) if with_bias else None
    w_used = weight_used(w)
    y = ad.linear(x, w_used, b)
    ad.backward(ad.vsum(y * weights))

    x2, g2, wv = x0.reshape(-1, 8), weights.reshape(-1, 6), ad.value_of(w_used)
    value = x2 @ wv.T
    if with_bias:
        value += b0
        assert np.array_equal(_bits(b.grad), _bits(g2.sum(axis=0)))
    assert np.array_equal(_bits(y.value), _bits(value.reshape(*x_shape[:-1], 6)))
    assert np.array_equal(_bits(x.grad), _bits((g2 @ wv).reshape(x_shape)))
    w_ref = ad.parameter(w0)  # the weight node's own backward of the explicit product
    ad.backward(ad.vsum(weight_used(w_ref) * (g2.T @ x2)))
    assert np.array_equal(_bits(w.grad), _bits(w_ref.grad))
    plain = ad.linear(x0, w0, b0 if with_bias else None)
    assert np.array_equal(_bits(plain), _bits((x2 @ w0.T + (b0 if with_bias else 0.0)).reshape(y.shape)))


@settings(max_examples=60, deadline=None)
@given(
    lead=st.lists(st.integers(1, 6), min_size=1, max_size=3),
    n_in=st.integers(1, 40),
    n_out=st.integers(1, 40),
    with_bias=st.booleans(),
    seed=st.integers(0, 2**16),
)
def test_linear_matches_the_batched_matmul_chain(lead, n_in, n_out, with_bias, seed):
    # the flat GEMMs regroup the sums of matmul(x, swapaxes(w)) + b: equal to rounding
    rng = np.random.default_rng(seed)
    x0, w0, b0 = rng.normal(size=(*lead, n_in)), rng.normal(size=(n_out, n_in)), rng.normal(size=n_out)
    weights = rng.normal(size=(*lead, n_out))

    def chain(x, w, b):
        y = ad.matmul(x, ad.swapaxes(w, -1, -2))
        return y if b is None else y + b

    def run(lin):
        x, w = ad.parameter(x0), ad.parameter(w0)
        b = ad.parameter(b0) if with_bias else None
        y = lin(x, w, b)
        ad.backward(ad.vsum(y * weights))
        return [y.value, x.grad, w.grad] + ([b.grad] if with_bias else [])

    for got, ref in zip(run(ad.linear), run(chain), strict=True):
        np.testing.assert_allclose(got, ref, rtol=1e-12, atol=1e-12 * np.max(np.abs(ref)))


# -- one body per op: arrays give an array, a node hangs only on Var operands ------

_RNG = np.random.default_rng(41)
_X = _RNG.uniform(0.5, 2.0, size=(2, 4, 8))
_ROW = _RNG.uniform(0.5, 2.0, size=8)

#: name: (the op as a function of its operands, the operands as arrays)
GRAPH_OPS = {
    "add": (ad.add, (_X, _ROW)),
    "sub": (ad.sub, (_X, _ROW)),
    "mul": (ad.mul, (_X, _ROW)),
    "div": (ad.div, (_X, _ROW)),
    "power": (lambda a: ad.power(a, 3), (_X,)),
    "matmul": (ad.matmul, (_X, _RNG.normal(size=(8, 3)))),
    "linear": (ad.linear, (_X, _RNG.normal(size=(3, 8)), _RNG.normal(size=3))),
    "linear-no-bias": (ad.linear, (_X, _RNG.normal(size=(3, 8)))),
    "reshape": (lambda a: ad.reshape(a, (8, 8)), (_X,)),
    "swapaxes": (lambda a: ad.swapaxes(a, -1, -2), (_X,)),
    "vsum": (ad.vsum, (_X,)),
    "vmean": (ad.vmean, (_X,)),
    "amin": (lambda a: ad.amin(a, axis=-1), (_X,)),
    "amax": (lambda a: ad.amax(a, axis=-1, keepdims=True), (_X,)),
    "absolute": (ad.absolute, (_X - 1.0,)),
    "sqrt": (ad.sqrt, (_X,)),
    "exp": (ad.exp, (_X,)),
    "softmax": (ad.softmax, (_X,)),
    "silu": (ad.silu, (_X,)),
    "rmsnorm": (ad.rmsnorm, (_X,)),
    "round_ste": (ad.round_ste, (3.0 * _X,)),
    "clamp_ste": (lambda a: ad.clamp_ste(a, 0.7, 1.5), (_X,)),
    "fwht": (fwht, (_X,)),
    "cayley": (lambda a: cayley(a, hadamard_matrix(4)), (_RNG.normal(size=(4, 4)),)),
    "quantize_dynamic": (
        lambda x, alpha, shift, gain: quantize_dynamic(x, QuantSpec(4, "asymmetric", "per-token"), alpha, shift, gain),
        (_X, np.array(0.9), 0.1 * _ROW, _ROW),
    ),
}


@pytest.mark.parametrize("name", sorted(GRAPH_OPS))
def test_nodes_hang_only_on_var_operands(name):
    op, arrays = GRAPH_OPS[name]
    plain = op(*arrays)
    assert not isinstance(plain, ad.Var)
    for is_var in itertools.product((False, True), repeat=len(arrays)):
        if not any(is_var):
            continue
        operands = [ad.Var(a) if v else a for a, v in zip(arrays, is_var)]
        node = op(*operands)
        assert node._parents == tuple(p for p in operands if isinstance(p, ad.Var)), is_var
        assert len(node._vjps) == len(node._parents)
        assert np.array_equal(_bits(node.value), _bits(plain)), is_var


def test_backward_visits_each_node_once():
    calls = []
    x = ad.parameter(np.array([1.0, 2.0]))

    def counted_vjp(g):
        calls.append(1)
        return g

    mid = ad.Var(x.value * 1.0, _parents=(x,), _vjps=(counted_vjp,))
    # diamond: two consumers of `mid`
    out = ad.vsum(mid * 2.0 + mid * 3.0)
    ad.backward(out)
    assert len(calls) == 1  # grad accumulated across consumers, one visit
    assert np.array_equal(x.grad, [5.0, 5.0])


def test_nonparameter_leaf_gradients_discarded():
    x = ad.parameter(np.ones(3))
    c = ad.Var(np.ones(3))  # plain leaf
    ad.backward(ad.vsum(x * c))
    assert x.grad is not None
    assert c.grad is None


def test_backward_rejects_nonscalar():
    x = ad.parameter(np.ones(3))
    with pytest.raises(ValueError, match="scalar"):
        ad.backward(x * 2.0)


# -- parallel parts -----------------------------------------------------------------


def _cpus(monkeypatch, n):
    """Make autodiff see n CPUs."""
    monkeypatch.setattr(ad.os, "sched_getaffinity", lambda pid: set(range(n)))


def test_parallel_sum_of_one_part_is_the_part_itself():
    p = ad.parameter(np.ones(3))
    loss = ad.vsum(p * p)
    assert ad.parallel_sum([lambda: loss]) is loss


@pytest.mark.parametrize("cpus", [1, 2])
def test_parallel_sum_adds_values_and_gradients_in_part_order(monkeypatch, cpus):
    _cpus(monkeypatch, cpus)
    rng = np.random.default_rng(0)
    w, b = ad.parameter(rng.normal(size=(3, 4))), ad.parameter(rng.normal(size=3))
    x = rng.normal(size=(6, 4))
    parts = [lambda: ad.vsum(ad.linear(x[:2], w, b) ** 2), lambda: ad.vmean(ad.linear(x[2:], w) ** 2)]
    loss = ad.parallel_sum(parts)
    assert {id(p) for p in loss._parents} == {id(w), id(b)}  # the parameters the parts reach
    roots = [part() for part in parts]
    assert np.array_equal(_bits(loss.value), _bits(roots[0].value + roots[1].value))
    ad.backward(loss)
    got = w.grad, b.grad
    w.clear_grad(), b.clear_grad()
    per_part = []
    for root in roots:
        ad.backward(root)
        per_part.append(w.grad)
        w.clear_grad()
    assert np.array_equal(_bits(got[0]), _bits(per_part[0] + per_part[1]))
    assert np.array_equal(_bits(got[1]), _bits(b.grad))  # only part 0 reaches b
    b.clear_grad()


def test_parallel_sum_keeps_its_bits_under_thread_switching(monkeypatch):
    # more parts than workers, switching threads every microsecond: each part
    # reads only the shared parameters, so every repeat gives the serial bits
    rng = np.random.default_rng(1)
    w = ad.parameter(rng.normal(size=(8, 16)))
    xs = rng.normal(size=(6, 32, 16))
    parts = [lambda x=x: ad.vmean(ad.silu(ad.linear(x, w)) ** 2) for x in xs]

    def run():
        loss = ad.parallel_sum(parts)
        ad.backward(loss)
        out = _bits(loss.value), _bits(w.grad)
        w.clear_grad()
        return out

    _cpus(monkeypatch, 1)
    expect = run()
    _cpus(monkeypatch, 3)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        runs = [run() for _ in range(20)]
    finally:
        sys.setswitchinterval(interval)
    assert all(np.array_equal(a, b) for got in runs for a, b in zip(got, expect))


@pytest.mark.parametrize("cpus", [1, 2])
def test_parallel_sum_overflow_in_part_1_stops_optimize_at_its_step(monkeypatch, cpus):
    # optimize's errstate must reach the worker: there an overflow would only warn
    _cpus(monkeypatch, cpus)
    p = ad.parameter(1.0)
    parts = [lambda: p * p, lambda: ad.exp(p * 1000.0)]
    with pytest.raises(OptimizationError, match="overflow encountered in exp at step 0"):
        optimize(lambda: ad.parallel_sum(parts), [ParamGroup([p], 0.1)], 3)


def test_parallel_sum_raises_the_first_error_in_part_order_once_every_part_is_done(monkeypatch):
    _cpus(monkeypatch, 2)
    p = ad.parameter(1.0)

    def handler(kind, flag):  # numpy's error callback lives in the caller's context too
        raise ValueError(f"{kind} in a part")

    with np.errstate(over="call", call=handler):
        with pytest.raises(ValueError, match="overflow in a part"):
            ad.parallel_sum([lambda: p * p, lambda: ad.exp(p * 1000.0)])

    done = []

    def slow_failure():
        time.sleep(0.05)
        done.append(1)
        raise ValueError("part 1")

    def part0():
        raise TypeError("part 0")

    with pytest.raises(TypeError, match="part 0"):
        ad.parallel_sum([part0, slow_failure])
    assert done == [1]


# -- optimizer --------------------------------------------------------------------


def test_optimize_convex_quadratic():
    p = ad.parameter(0.0)
    result = optimize(lambda: (p - 3.0) ** 2, [ParamGroup([p], 0.1)], 200)
    assert 2.99 <= float(p.value) <= 3.01
    assert result.losses[-1] <= result.losses[0]


def test_cosine_schedule_decays():
    lrs = [cosine_lr(1e-2, s, 10) for s in range(10)]
    assert lrs[0] == pytest.approx(1e-2)
    assert lrs[9] < 1e-3
    assert all(b < a for a, b in zip(lrs, lrs[1:]))


def test_optimize_rejects_nonscalar_loss():
    p = ad.parameter(np.ones(3))
    with pytest.raises(OptimizationError, match="scalar"):
        optimize(lambda: p * 2.0, [ParamGroup([p], 0.1)], 2)


def test_optimize_aborts_on_nan_with_step_index():
    p = ad.parameter(1.0)
    calls = {"n": 0}

    def loss_fn():
        calls["n"] += 1
        if calls["n"] >= 3:
            return ad.Var(np.nan) * p
        return p * p

    with pytest.raises(OptimizationError, match="step 2"):
        optimize(loss_fn, [ParamGroup([p], 0.1)], 10)


def test_optimize_deterministic_trajectories():
    def run():
        rng = np.random.default_rng(5)
        w = ad.parameter(rng.normal(size=(4, 4)))
        t = rng.normal(size=(4, 4))

        def loss_fn():
            d = w - t
            return ad.vmean(d * d)

        res = optimize(loss_fn, [ParamGroup([w], 1e-2)], 50)
        return np.array(res.losses), w.value.copy()

    l1, w1 = run()
    l2, w2 = run()
    assert np.array_equal(l1, l2)
    assert np.array_equal(w1, w2)


def test_optimize_keeps_bounded_parameters_inside_their_bounds():
    # the loss pulls p above 1 and q below 0; every evaluated point, and so
    # the value after every step, stays in [0, 1]
    p = ad.parameter(0.5)
    q = ad.parameter(np.array([0.5, 0.9]))
    seen = []

    def loss_fn():
        seen.append(np.append(p.value, q.value))
        return (p - 3.0) ** 2 + ad.vsum((q + 2.0) ** 2)

    optimize(loss_fn, [ParamGroup([p, q], 0.5, bounds=(0.0, 1.0))], 20)
    seen = np.array(seen)
    assert len(seen) == 21
    assert np.all((seen >= 0.0) & (seen <= 1.0))
    assert float(p.value) == 1.0 and np.array_equal(q.value, [0.0, 0.0])

    free = ad.parameter(0.5)  # without bounds the same pull leaves [0, 1]
    optimize(lambda: (free - 3.0) ** 2, [ParamGroup([free], 0.5)], 20)
    assert float(free.value) > 1.0


def test_optimize_restores_best_seen_parameters():
    p = ad.parameter(0.0)

    # large lr overshoots; best-checkpointing must still end at the best seen
    result = optimize(lambda: (p - 1.0) ** 2, [ParamGroup([p], 0.9)], 8)
    assert float((float(p.value) - 1.0) ** 2) == pytest.approx(result.best_loss, abs=1e-12)
    assert result.best_loss <= result.losses[0]


def test_optimize_scores_the_point_after_the_last_update():
    # a small lr walks p toward 1 monotonically, so the last point is the best
    p = ad.parameter(0.0)
    result = optimize(lambda: (p - 1.0) ** 2, [ParamGroup([p], 0.01)], 5)
    assert len(result.losses) == 6
    assert result.best_step == 5 and result.best_loss == result.losses[-1] == (float(p.value) - 1.0) ** 2


def test_optimize_ignores_a_nan_after_the_last_update():
    p = ad.parameter(0.0)
    seen = []

    def loss_fn():
        seen.append(float(p.value))
        return ad.Var(np.nan) * p if len(seen) == 6 else (p - 1.0) ** 2

    result = optimize(loss_fn, [ParamGroup([p], 0.01)], 5)
    assert len(seen) == 6 and len(result.losses) == 5
    assert result.best_step == 4 and float(p.value) == seen[4] != seen[5]


def _scripted(losses, p, seen):
    """A loss function whose n-th evaluation scores exactly losses[n] and
    pulls p down with gradient 1; it records p at each evaluation."""

    def loss_fn():
        seen.append(float(p.value))
        return ad.Var(np.float64(losses[len(seen) - 1]), _parents=(p,), _vjps=(lambda g: g,))

    return loss_fn


# new bests at steps 0, 1, 2 and 5; every later step scores above step 5's
_SCRIPT = [5.0, 4.0, 1.0, 3.0, 2.0, 0.5, 4.0, 3.0, 2.0, 6.0, 7.0]


@pytest.mark.parametrize(
    "patience, best_step, evaluations",
    [(1, 2, 4), (3, 5, 9), (5, 5, 11), (20, 5, 11), (None, 5, 11)],
    ids=["1", "3", "5", "20", "None"],
)
def test_optimize_stops_patience_steps_after_its_best(patience, best_step, evaluations):
    # best_step + patience + 1 evaluations, never more than steps + 1; a new
    # best restarts the count, and the best point is restored
    p = ad.parameter(0.0)
    seen = []
    result = optimize(_scripted(_SCRIPT, p, seen), [ParamGroup([p], 0.1)], len(_SCRIPT) - 1, patience=patience)
    assert len(seen) == len(result.losses) == evaluations
    if patience is not None:
        assert evaluations == min(best_step + patience + 1, len(_SCRIPT))
    assert result.losses == _SCRIPT[:evaluations]
    assert result.best_step == best_step and result.best_loss == _SCRIPT[best_step]
    assert len(set(seen)) == len(seen) and float(p.value) == seen[best_step]


def test_optimize_raises_on_a_nan_before_its_early_end():
    p = ad.parameter(0.0)
    with pytest.raises(OptimizationError, match="NaN loss at step 3"):
        optimize(_scripted([3.0, 2.0, 2.5, np.nan, 1.0], p, []), [ParamGroup([p], 0.1)], 4, patience=2)


def test_optimize_never_scores_a_nan_after_its_early_end():
    p = ad.parameter(0.0)
    seen = []
    result = optimize(_scripted([3.0, 2.0, 2.5, 2.5, np.nan], p, seen), [ParamGroup([p], 0.1)], 4, patience=2)
    assert len(seen) == 4 and result.best_step == 1 and float(p.value) == seen[1]


def test_optimize_stops_at_a_zero_loss():
    # no squared error scores below 0, so the run ends with no further update
    p = ad.parameter(0.0)
    seen = []
    result = optimize(_scripted([3.0, 0.0, np.nan], p, seen), [ParamGroup([p], 0.1)], 2)
    assert len(seen) == 2 and result.losses == [3.0, 0.0]
    assert result.best_step == 1 and float(p.value) == seen[1]


class _WeakVar(ad.Var):
    """A Var that a weakref can point to."""

    __slots__ = ("__weakref__",)


def test_optimize_frees_each_step_graph_before_building_the_next():
    p = ad.parameter(np.ones(8))
    losses, alive = [], []

    def loss_fn():
        alive.extend(ref() is not None for ref in losses[-1:])
        total = ad.vsum((p - 3.0) ** 2)
        loss = _WeakVar(total.value, _parents=(total,), _vjps=(lambda g: g,))
        losses.append(weakref.ref(loss))
        return loss

    optimize(loss_fn, [ParamGroup([p], 0.1)], 5)
    assert alive == [False] * 5  # steps 1..5 and the final evaluation


@pytest.fixture
def fresh_heap_helper():
    optim._keep_freed_heap.cache_clear()
    yield
    optim._keep_freed_heap.cache_clear()


def _optimize_twice():
    p = ad.parameter(0.0)
    for _ in range(2):
        optimize(lambda: (p - 1.0) ** 2, [ParamGroup([p], 0.1)], 3)
    return float(p.value)


def test_optimize_keeps_the_freed_heap_once_per_process(monkeypatch, fresh_heap_helper):
    calls = []

    def mallopt(param, value):
        calls.append((param, value))
        return 1

    monkeypatch.setattr(optim.ctypes, "CDLL", lambda name: types.SimpleNamespace(mallopt=mallopt))
    _optimize_twice()
    assert calls == [(optim._M_TRIM_THRESHOLD, 512 << 20), (optim._M_MMAP_THRESHOLD, 32 << 20), (optim._M_ARENA_MAX, 1)]


def _no_libc(name):
    raise OSError("no C library")


@pytest.mark.parametrize(
    "cdll", [lambda name: types.SimpleNamespace(), _no_libc], ids=["no-mallopt", "no-libc"]
)
def test_optimize_runs_where_there_is_no_mallopt(monkeypatch, fresh_heap_helper, cdll):
    expected = _optimize_twice()
    optim._keep_freed_heap.cache_clear()
    monkeypatch.setattr(optim.ctypes, "CDLL", cdll)
    assert _optimize_twice() == expected


def test_glibc_accepts_the_heap_settings():
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is None:
        pytest.skip("no mallopt in this C library")
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    # mallopt returns 0 for a value it refuses, such as an mmap threshold above its maximum
    assert mallopt(optim._M_TRIM_THRESHOLD, optim._TRIM_THRESHOLD) == 1
    assert mallopt(optim._M_MMAP_THRESHOLD, optim._MMAP_THRESHOLD) == 1
    assert mallopt(optim._M_ARENA_MAX, optim._ARENA_MAX) == 1
