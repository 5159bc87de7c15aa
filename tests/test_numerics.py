"""Channel statistics, straight-through ops, autodiff, and the optimizer."""

import ctypes
import types
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rotquant import autodiff as ad
from rotquant import optim
from rotquant.optim import OptimizationError, ParamGroup, cosine_lr, optimize
from rotquant.analysis import channel_stats
from rotquant.quantizers import QuantSpec, rtn_quantize


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
@pytest.mark.parametrize("x_shape", [(5, 4, 8), (4, 8)], ids=["3d", "2d"])
def test_linear_matches_matmul_chain_bit_for_bit(x_shape, with_bias, through_rtn):
    rng = np.random.default_rng(31)
    x0, w0, b0 = rng.normal(size=x_shape), rng.normal(size=(6, 8)), rng.normal(size=6)
    weights = rng.normal(size=(*x_shape[:-1], 6))

    def chain(x, w, b):
        y = ad.matmul(x, ad.swapaxes(w, -1, -2))
        return y if b is None else y + b

    def run(lin):
        x, w = ad.parameter(x0), ad.parameter(w0)
        b = ad.parameter(b0) if with_bias else None
        # a per-row quantizer sums the weight gradient along rows: its layout counts
        w_used = rtn_quantize(w, QuantSpec(4, "symmetric", "per-channel")) if through_rtn else w
        y = lin(x, w_used, b)
        ad.backward(ad.vsum(y * weights))
        return [y.value, x.grad, w.grad] + ([b.grad] if with_bias else [])

    for got, ref in zip(run(ad.linear), run(chain), strict=True):
        assert np.array_equal(_bits(got), _bits(ref))
    plain = ad.linear(x0, w0, b0 if with_bias else None)
    assert np.array_equal(_bits(plain), _bits(ad.value_of(chain(x0, w0, b0 if with_bias else None))))


@pytest.mark.parametrize(
    "x_shape, n, chunk",
    [
        ((10, 4, 5), 6, 3 * 5 * 6),  # 3 sequences a chunk; the batch is no multiple of it
        ((7, 3, 2, 5), 4, 2 * 5 * 4),  # two leading axes, summed as one
        ((128, 8, 64), 256, None),
        ((128, 8, 256), 64, None),
        ((8, 8, 32), 64, None),
        ((4, 8), 6, None),  # 2-D: one product, nothing to sum
    ],
)
def test_weight_grad_adds_chunks_in_batched_sum_order(monkeypatch, x_shape, n, chunk):
    if chunk is not None:
        monkeypatch.setattr(ad, "LINEAR_CHUNK", chunk)
    rng = np.random.default_rng(37)
    x = rng.normal(size=x_shape)
    x[..., 0] = 0.0  # signed zeros: 0 * negative g
    g = rng.normal(size=(*x_shape[:-1], n))
    ref = x.swapaxes(-1, -2) @ g
    ref = ref.sum(axis=tuple(range(ref.ndim - 2))) if ref.ndim > 2 else ref
    assert np.array_equal(_bits(ad._weight_grad(x, g)), _bits(ref))


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
    assert calls == [(optim._M_TRIM_THRESHOLD, 512 << 20), (optim._M_MMAP_THRESHOLD, 32 << 20)]


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
