"""Clipping energy, variance decomposition, noise propagation, optimal scaling."""

import tracemalloc

import numpy as np
import pytest

from rotquant.analysis import (
    clipping_energy,
    emit_report,
    gaussian_clip_energy,
    noise_propagation,
    optimal_scale,
    variance_decomposition,
)
from rotquant.model import QuantConfig
from rotquant.quantizers import QuantSpec, resolve_params
from rotquant.transforms import random_hadamard

W4A4KV4 = QuantConfig.for_bits(4, 4, 4, head_dim=4)


# -- clipped energy -------------------------------------------------------------


def test_clipping_energy_all_inside():
    assert clipping_energy(np.linspace(-1, 1, 100), -2.0, 2.0) == 0.0


def test_clipping_energy_hand_case():
    x = np.array([-3.0, -1.0, 1.0, 3.0])
    assert clipping_energy(x, -2.0, 2.0) == pytest.approx(18.0 / 20.0)


def test_clipping_energy_gaussian_monte_carlo():
    x = np.random.default_rng(10).standard_normal(1_000_000)
    frac = clipping_energy(x, -2.2, 2.2)
    assert frac == pytest.approx(0.184, abs=0.005)


def test_clipping_energy_errors():
    with pytest.raises(ValueError, match="zero energy"):
        clipping_energy(np.zeros(10), -1.0, 1.0)
    with pytest.raises(ValueError, match="bounds"):
        clipping_energy(np.ones(10), 1.0, -1.0)
    with pytest.raises(ValueError, match="samples"):
        clipping_energy(np.zeros(0), -1.0, 1.0)


def test_gaussian_clip_energy_values():
    assert gaussian_clip_energy(10.0) < 1e-20
    assert gaussian_clip_energy(2.2) == pytest.approx(0.1838, abs=5e-4)
    assert gaussian_clip_energy(1e-6) == pytest.approx(1.0, abs=1e-5)
    with pytest.raises(ValueError):
        gaussian_clip_energy(0.0)


@pytest.mark.parametrize("t", [1.0, 1.5, 2.0, 2.2, 3.0])
def test_closed_form_matches_monte_carlo(t):
    x = np.random.default_rng(123).standard_normal(1_000_000)
    mc = clipping_energy(x, -t, t)
    assert abs(gaussian_clip_energy(t) - mc) < 0.005  # half a percentage point


# -- variance decomposition --------------------------------------------------------


def test_decomposition_zero_mean_channels():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(500, 8))
    x -= x.mean(axis=0)
    _, _, frac = variance_decomposition(x)
    assert frac == pytest.approx(0.0, abs=1e-12)


def test_decomposition_hand_case():
    x = np.array([[-1.0, 1.0], [1.0, 3.0]])
    mean_var, vom, frac = variance_decomposition(x)
    assert mean_var == pytest.approx(1.0)
    assert vom == pytest.approx(1.0)
    assert frac == pytest.approx(0.5)


def test_decomposition_injected_offsets():
    # unit-variance channels plus offsets with population variance exactly 9
    rng = np.random.default_rng(5)
    n_tokens, n_ch = 100_000, 64
    offsets = rng.normal(size=n_ch)
    offsets = (offsets - offsets.mean()) / offsets.std() * 3.0
    x = rng.normal(size=(n_tokens, n_ch)) + offsets
    _, _, frac = variance_decomposition(x)
    assert frac == pytest.approx(9.0 / 10.0, rel=0.05)


def test_decomposition_invariant_under_global_shift():
    rng = np.random.default_rng(1)
    x = rng.normal(size=(200, 16)) + rng.normal(size=16)
    _, _, f1 = variance_decomposition(x)
    _, _, f2 = variance_decomposition(x + 123.456)
    assert f1 == pytest.approx(f2, rel=1e-9)


def test_mean_channel_variance_invariant_under_rotation():
    # the average per-channel variance (the rounding-error floor term) is
    # preserved by any orthogonal map: row norms and the mean-vector norm
    # are both invariant; the variance-of-means term is what rotation
    # cannot control
    rng = np.random.default_rng(2)
    x = rng.normal(size=(300, 32)) + rng.normal(size=32) * 2.0
    rot = random_hadamard(32, 3)
    m1, _, _ = variance_decomposition(x)
    m2, _, _ = variance_decomposition(np.asarray(rot.apply(x)))
    assert m2 == pytest.approx(m1, rel=1e-9)


def test_decomposition_constant_matrix_fraction_zero():
    _, _, frac = variance_decomposition(np.full((10, 4), 2.5))
    assert frac == 0.0


def test_decomposition_input_validation():
    with pytest.raises(ValueError):
        variance_decomposition(np.ones((5, 1)))


# -- noise propagation -----------------------------------------------------------------


def test_noise_propagation_one_sided():
    rng = np.random.default_rng(3)
    w = rng.normal(size=64)
    a = rng.normal(size=64)
    predicted, empirical = noise_propagation(w, a, s_w=0.0, s_a=0.2, trials=40_000, seed=0)
    assert predicted == pytest.approx(np.mean(w**2) * 0.2**2 / 12.0, rel=1e-12)
    assert empirical == pytest.approx(predicted, rel=0.03)


def test_noise_propagation_zero_noise():
    w = np.ones(8)
    a = np.ones(8)
    predicted, empirical = noise_propagation(w, a, 0.0, 0.0, trials=10)
    assert predicted == 0.0
    assert empirical == 0.0


def test_noise_propagation_two_sided_monte_carlo():
    rng = np.random.default_rng(4)
    w = rng.normal(size=64)
    a = rng.normal(size=64)
    predicted, empirical = noise_propagation(w, a, 0.1, 0.1, trials=100_000, seed=1)
    assert empirical == pytest.approx(predicted, rel=0.05)


def test_noise_propagation_shape_check():
    with pytest.raises(ValueError, match="conformable"):
        noise_propagation(np.ones(4), np.ones(5), 0.1, 0.1)


@pytest.mark.parametrize(
    "kwargs, match",
    [
        ({"trials": 0}, "trial"),
        ({"trials": -5}, "trial"),
        ({"s_w": -0.1}, "s_w"),
        ({"s_a": -0.1}, "s_a"),
        ({"s_w": float("nan")}, "s_w"),
        ({"s_a": float("inf")}, "s_a"),
    ],
)
def test_noise_propagation_input_validation(kwargs, match):
    args = {"s_w": 0.1, "s_a": 0.1, "trials": 10} | kwargs
    with pytest.raises(ValueError, match=match):
        noise_propagation(np.ones((3, 4)), np.ones(4), **args)


def _serial_noise_oracle(w, a, s_w, s_a, trials, seed):
    """The trial loop with one uniform() call per noise block."""
    w = np.asarray(w, dtype=np.float64)
    a = np.asarray(a, dtype=np.float64)
    n = a.shape[0]
    rng = np.random.default_rng(seed)
    w2 = w.reshape(-1, n)
    clean = w2 @ a
    err_sq = np.zeros(w2.shape[0])
    done = 0
    chunk = max(1, int(2_000_000 // max(w2.size, n)))
    while done < trials:
        c = min(chunk, trials - done)
        ew = rng.uniform(-0.5 * s_w, 0.5 * s_w, size=(c, *w2.shape)) if s_w > 0 else np.zeros((c, 1, 1))
        ea = rng.uniform(-0.5 * s_a, 0.5 * s_a, size=(c, n)) if s_a > 0 else np.zeros((c, n))
        noisy = (w2 + ew) @ (a + ea)[:, :, None]
        err_sq += np.sum((noisy[:, :, 0] - clean) ** 2, axis=0)
        done += c
    return err_sq


@pytest.mark.parametrize(
    "shape, trials",
    [
        ((384, 128), 41),  # quantize-wide qkv: 40 trials per chunk
        ((128, 128), 250),  # quantize-wide o
        ((2048, 128), 23),  # quantize-wide up: 7 trials per chunk
        ((128, 1024), 31),  # quantize-wide down: 15 trials per chunk
        ((192, 64), 500),  # quantize-default qkv
        ((64,), 1001),  # one output row
        ((300, 128), 1),
        ((300, 128), 2),
        ((300, 128), 3),
    ],
)
@pytest.mark.parametrize("s_w, s_a", [(0.07, 0.2), (0.0, 0.2), (0.07, 0.0), (0.0, 0.0)])
def test_noise_propagation_matches_serial_loop(shape, trials, s_w, s_a):
    rng = np.random.default_rng(trials)
    w = rng.normal(size=shape)
    a = rng.normal(size=shape[-1])
    err_sq = _serial_noise_oracle(w, a, s_w, s_a, trials, seed=5)
    _, empirical = noise_propagation(w, a, s_w, s_a, trials=trials, seed=5)
    assert empirical == float(np.mean(err_sq) / trials / shape[-1])


def test_noise_propagation_memory_is_one_chunk():
    rng = np.random.default_rng(6)
    w = rng.normal(size=(2048, 128))  # 7 trials per chunk: 14.7 MiB of weight draws
    a = rng.normal(size=128)
    tracemalloc.start()
    try:
        noise_propagation(w, a, 0.05, 0.1, trials=2000, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20 << 20  # one chunk of noisy weights, not a second copy


# -- AM-GM optimal scale -------------------------------------------------------------------


def test_optimal_scale_direct_formula():
    w = np.full((16, 1), 4.0)
    a = np.full((16, 1), 1.0)
    assert optimal_scale(w, a)[0] == pytest.approx(2.0)


def test_optimal_scale_equal_rms():
    rng = np.random.default_rng(6)
    w = rng.normal(size=(50, 8))
    assert np.allclose(optimal_scale(w, w), 1.0)


def test_optimal_scale_exchange_symmetry():
    rng = np.random.default_rng(7)
    w = rng.normal(size=(30, 8)) * 3.0
    a = rng.normal(size=(40, 8))
    s = optimal_scale(w, a)
    s_swapped = optimal_scale(a, w)
    assert np.allclose(s_swapped, 1.0 / s, rtol=1e-12)


def test_optimal_scale_perturbation_never_improves():
    rng = np.random.default_rng(8)
    for _ in range(20):
        w = rng.normal(size=16) * rng.uniform(0.2, 5.0)
        a = rng.normal(size=16) * rng.uniform(0.2, 5.0)
        if np.any(w == 0) or np.any(a == 0):
            continue
        s = optimal_scale(w, a)

        def predicted(scale):
            # s is the activation-side multiplier
            p, _ = noise_propagation(w / scale, a * scale, 0.1, 0.1, trials=1)
            return p

        base = predicted(s)
        assert predicted(s * 1.1) >= base - 1e-12
        assert predicted(s * 0.9) >= base - 1e-12


def test_optimal_scale_degenerate_channel():
    a = np.ones((4, 3))
    a[:, 1] = 0.0
    with pytest.raises(ValueError, match="degenerate channel"):
        optimal_scale(np.ones((4, 3)), a)


# -- report emission -----------------------------------------------------------------------


def test_emit_report_constant_layer():
    act = np.full((100, 8), 3.0)
    report = emit_report([(0, "qkv", act, None)], W4A4KV4)
    rec = report.records[0]
    assert rec.rounding_energy == 0.0
    assert rec.clipping_energy_fraction == 0.0
    assert rec.var_of_means_fraction == 0.0


def test_emit_report_misaligned_layer():
    rng = np.random.default_rng(9)
    act = rng.normal(size=(5000, 32)) + rng.normal(size=32) * 4.0
    w = rng.normal(size=(16, 32))
    report = emit_report([(0, "qkv", act, w)], W4A4KV4)
    rec = report.records[0]
    assert rec.var_of_means_fraction > 0.5
    assert 0.0 <= rec.clipping_energy_fraction <= 1.0
    assert rec.predicted_noise_var is not None
    assert rec.measured_noise_var is None
    assert rec.var_of_means_fraction == pytest.approx(
        rec.var_of_means / (rec.mean_channel_var + rec.var_of_means), rel=1e-10
    )


def test_emit_report_stores_the_measured_noise_var():
    rng = np.random.default_rng(11)
    act = rng.normal(size=(400, 16))
    w = rng.normal(size=(8, 16))
    report = emit_report([(0, "o", act, w, 0.125), (0, "v_cache", act, None, None)], W4A4KV4)
    assert [r.measured_noise_var for r in report.records] == [0.125, None]
    # the prediction is noise_propagation's closed form at the site's mean
    # quantizer steps and its channel-RMS token
    s_w = float(np.mean(resolve_params(w, QuantSpec(4, "symmetric", "per-channel")).scale))
    s_a = float(np.mean(resolve_params(act, QuantSpec(4, "asymmetric", "per-token")).scale))
    a_repr = np.sqrt(np.mean(act * act, axis=0))
    assert report.records[0].predicted_noise_var == noise_propagation(w, a_repr, s_w, s_a, trials=1)[0]


def test_emit_report_requires_layers():
    with pytest.raises(ValueError):
        emit_report([], W4A4KV4)


def test_emit_report_deterministic():
    rng = np.random.default_rng(10)
    act = rng.normal(size=(800, 16))
    w = rng.normal(size=(8, 16))
    r1 = emit_report([(0, "o", act, w)], W4A4KV4)
    r2 = emit_report([(0, "o", act, w)], W4A4KV4)
    assert r1.records[0].predicted_noise_var == r2.records[0].predicted_noise_var
    assert np.array_equal(r1.records[0].channel_vars, r2.records[0].channel_vars)
