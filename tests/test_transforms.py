"""Hadamard transforms, PCA basis, rotations, Cayley map."""

import tracemalloc
import warnings

import numpy as np
import pytest

from rotquant import autodiff as ad
from rotquant.transforms import (
    Rotation,
    cayley,
    fwht,
    hadamard_matrix,
    pca_basis,
    random_hadamard,
)


def kron_hadamard(n):
    """Independent dense construction via Kronecker powers of H_2."""
    h = np.array([[1.0, 1.0], [1.0, -1.0]])
    m = np.array([[1.0]])
    while m.shape[0] < n:
        m = np.kron(m, h)
    return m / np.sqrt(n)


# -- fast transform ---------------------------------------------------------------


def test_fwht_two_point():
    assert np.allclose(fwht(np.array([1.0, 1.0])), [np.sqrt(2.0), 0.0])


def test_fwht_one_hot_magnitudes():
    e1 = np.zeros(4)
    e1[1] = 1.0
    out = fwht(e1)
    assert np.allclose(np.abs(out), 0.5)


def test_fwht_matches_dense_oracle():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(5, 256))
    dense = x @ kron_hadamard(256)
    assert np.max(np.abs(fwht(x) - dense)) < 1e-10


def test_fwht_matches_kron_oracle_every_size():
    # n up to 4096 takes the Kronecker recursion past two 32-point factors
    rng = np.random.default_rng(4)
    for k in range(1, 13):
        n = 2**k
        x = rng.normal(size=(3, n))
        assert np.max(np.abs(fwht(x) - x @ kron_hadamard(n))) < 1e-13, n


def test_hadamard_matrix_entries_exact():
    for k in range(13):
        n = 2**k
        h = hadamard_matrix(n)
        assert set(np.unique(h)) <= {1.0 / np.sqrt(n), -1.0 / np.sqrt(n)}, n
        assert np.array_equal(h * np.sqrt(n), np.sign(kron_hadamard(n))), n


def test_fwht_var_backward_large():
    rng = np.random.default_rng(6)
    x = ad.parameter(rng.normal(size=(4, 1024)))
    w = rng.normal(size=(4, 1024))
    ad.backward(ad.vsum(fwht(x) * w))
    # d/dx sum(w * (x @ H)) = w @ H.T = w @ H
    assert np.max(np.abs(x.grad - w @ kron_hadamard(1024))) < 1e-12


def test_fwht_memory_bounded():
    x = np.random.default_rng(0).normal(size=(1024, 1024))
    fwht(x)
    tracemalloc.start()
    try:
        out = fwht(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the output plus one input-sized temporary; no dense n x n matrix
    assert peak < out.nbytes + x.nbytes + (1 << 20)


def test_fwht_rejects_non_power_of_two():
    with pytest.raises(ValueError, match="dimension must be 2\\^k"):
        fwht(np.zeros(12))


def test_fwht_involution_and_norm():
    rng = np.random.default_rng(1)
    for n in (2, 8, 64, 512):
        x = rng.normal(size=n)
        y = fwht(x)
        assert np.max(np.abs(fwht(y) - x)) < 1e-9
        assert np.linalg.norm(y) == pytest.approx(np.linalg.norm(x), rel=1e-12)


def test_fwht_differentiable():
    x = ad.parameter(np.random.default_rng(2).normal(size=8))
    y = fwht(x)
    ad.backward(ad.vsum(y * y))
    # H orthogonal: d/dx ||Hx||^2 = 2x
    assert np.allclose(x.grad, 2.0 * x.value)


# -- rotation objects ----------------------------------------------------------------


def _all_rotations(n, seed=0):
    u = np.linalg.qr(np.random.default_rng(seed).normal(size=(n, n)))[0]
    return [
        Rotation(hadamard_matrix(n)),
        random_hadamard(n, seed),
        Rotation(u @ hadamard_matrix(n)),
        Rotation(u),
    ]


def test_rotations_preserve_norm_and_are_orthogonal():
    rng = np.random.default_rng(3)
    for rot in _all_rotations(16):
        x = rng.normal(size=(7, 16))
        y = rot.apply(x)
        assert np.allclose(np.linalg.norm(y, axis=1), np.linalg.norm(x, axis=1), rtol=1e-8)
        m = rot.matrix
        assert np.max(np.abs(m @ m.T - np.eye(16))) < 1e-8
        # inverse undoes apply
        back = rot.inverse().apply(y)
        assert np.max(np.abs(back - x)) < 1e-10


def test_random_hadamard_deterministic_per_seed():
    r1 = random_hadamard(64, 7)
    r2 = random_hadamard(64, 7)
    r3 = random_hadamard(64, 8)
    assert np.array_equal(r1.matrix, r2.matrix)
    assert not np.array_equal(r1.matrix, r3.matrix)


def test_random_hadamard_inverse_roundtrip():
    rot = random_hadamard(32, 5)
    x = np.random.default_rng(0).normal(size=(4, 32))
    assert np.max(np.abs(rot.inverse().apply(rot.apply(x)) - x)) < 1e-10


def test_random_hadamard_disperses_spike():
    rot = random_hadamard(64, 11)
    spike = np.zeros(64)
    spike[9] = 8.0  # amplitude 8 * delta with delta = 1
    out = rot.apply(spike)
    assert np.max(np.abs(out)) == pytest.approx(1.0)


def test_outlier_dispersion_statistics():
    # spike amplitude 50*delta over n=256 spreads to ~3.1*delta per channel;
    # the Gaussian bulk adds a max-of-256 tail, so maxima concentrate a bit
    # below 6*delta but are not bounded by it (measured: medians < 6, all
    # observed maxima < 7.7 over these seeds)
    n, amp = 256, 50.0
    maxima = []
    for seed in range(100):
        rng = np.random.default_rng(seed)
        x = rng.normal(0.0, 1.0, n)
        x[3] += amp
        maxima.append(np.max(np.abs(fwht(x))))
    maxima = np.array(maxima)
    assert np.all(maxima < 7.7)
    assert np.median(maxima) < 6.0
    assert np.all(maxima < 0.2 * amp)  # far below the unrotated spike


# -- PCA basis --------------------------------------------------------------------


def test_pca_identity_weight():
    u = pca_basis([np.eye(8)])
    c = np.eye(8)
    off = u.T @ c @ u - np.diag(np.diag(u.T @ c @ u))
    assert np.max(np.abs(off)) < 1e-9
    assert np.max(np.abs(u.T @ u - np.eye(8))) < 1e-9


def test_pca_two_by_two_closed_form():
    # C = R(t) diag(4, 1) R(t)^T for a known angle: eigenvalues {4, 1}
    t = 0.3
    r = np.array([[np.cos(t), -np.sin(t)], [np.sin(t), np.cos(t)]])
    c = r @ np.diag([4.0, 1.0]) @ r.T
    w = np.linalg.cholesky(c).T  # W^T W == C
    u = pca_basis([w])
    vals = np.diag(u.T @ c @ u)
    assert vals[0] == pytest.approx(4.0, abs=1e-9)
    assert vals[1] == pytest.approx(1.0, abs=1e-9)


def test_pca_random_reconstruction():
    rng = np.random.default_rng(9)
    ws = [rng.normal(size=(10, 16)) for _ in range(3)]
    c = sum(w.T @ w for w in ws)
    u = pca_basis(ws)
    assert np.max(np.abs(u.T @ u - np.eye(16))) < 1e-9
    d = u.T @ c @ u
    off = d - np.diag(np.diag(d))
    assert np.max(np.abs(off)) < 1e-8 * np.trace(c)
    # eigenvalues descending
    assert np.all(np.diff(np.diag(d)) <= 1e-8)


def test_pca_dimension_mismatch():
    with pytest.raises(ValueError, match="disagree"):
        pca_basis([np.ones((3, 4)), np.ones((3, 5))])
    with pytest.raises(ValueError):
        pca_basis([])


def test_pca_basis_spectrum_and_sign_rule():
    rng = np.random.default_rng(4)
    ws = [rng.normal(size=(12, 12)) for _ in range(2)]
    c = sum(w.T @ w for w in ws)
    u = pca_basis(ws)
    vals = np.diag(u.T @ c @ u)
    ref = np.sort(np.linalg.eigvalsh(c))[::-1]
    assert np.allclose(vals, ref, rtol=1e-10, atol=1e-10)  # descending, eigvalsh spectrum
    assert np.max(np.abs(u @ np.diag(vals) @ u.T - c)) < 1e-8
    # each column's largest-magnitude component is positive
    peak = u[np.argmax(np.abs(u), axis=0), np.arange(12)]
    assert np.all(peak > 0)
    # diagonal covariance: the basis is the positive permutation sorting it
    u = pca_basis([np.diag([1.0, 3.0, 2.0])])
    assert np.array_equal(u, [[0.0, 0.0, 1.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])


def test_rotation_rejects_nonorthogonal():
    bad = np.eye(16)
    bad[0, 1] = 1e-3  # ||U^T U - I||_inf > 1e-6
    with pytest.raises(ValueError, match="orthogonal"):
        Rotation(bad)


@pytest.mark.parametrize(
    "fill", [1e200, -1e200, np.inf, np.nan, 1.0 + 1e-3], ids=["huge", "huge-negative", "inf", "nan", "above-one"]
)
def test_rotation_rejects_out_of_range_entries_without_a_warning(fill):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the Gram product of 1e200s overflowed on its way to the error
        with pytest.raises(ValueError, match="not orthogonal"):
            Rotation(np.full((4, 4), fill))


# -- Cayley parameterization -----------------------------------------------------------


def test_cayley_zero_gives_base_exactly():
    base = hadamard_matrix(8)
    r = cayley(np.zeros((8, 8)), base)
    assert np.array_equal(r, base)


def test_cayley_two_by_two_closed_form():
    # S = [[0, t], [-t, 0]] maps to rotation by 2*atan(t):
    # [[1-t^2, 2t], [-2t, 1-t^2]] / (1+t^2)
    for t in (1.0, 0.5, -0.7):
        a = np.array([[0.0, t], [-t, 0.0]])
        r = cayley(a, np.eye(2))
        c = (1 - t * t) / (1 + t * t)
        s = 2 * t / (1 + t * t)
        assert np.allclose(r, [[c, s], [-s, c]], atol=1e-12)


def test_cayley_orthogonal_for_random_parameter():
    rng = np.random.default_rng(6)
    for _ in range(5):
        r = cayley(rng.normal(size=(8, 8)), hadamard_matrix(8))
        assert np.max(np.abs(r @ r.T - np.eye(8))) < 1e-9


def test_cayley_gradient_matches_finite_differences():
    rng = np.random.default_rng(8)
    a0 = rng.normal(size=(6, 6)) * 0.5
    base = np.linalg.qr(rng.normal(size=(6, 6)))[0]
    target = rng.normal(size=(6, 6))

    def loss_value(av):
        r = cayley(av, base)
        return float(np.sum((r - target) ** 2))

    a = ad.parameter(a0)
    r = cayley(a, base)
    d = r - ad.Var(target)
    ad.backward(ad.vsum(d * d))

    eps = 1e-6
    fd = np.zeros_like(a0)
    for i in range(6):
        for j in range(6):
            ap, am = a0.copy(), a0.copy()
            ap[i, j] += eps
            am[i, j] -= eps
            fd[i, j] = (loss_value(ap) - loss_value(am)) / (2 * eps)
    denom = np.maximum(np.abs(fd), 1e-7)
    assert np.max(np.abs(a.grad - fd) / denom) < 1e-3


def test_cayley_rejects_nonfinite():
    with pytest.raises(ValueError, match="finite"):
        cayley(np.full((4, 4), np.nan), np.eye(4))


def test_cayley_rejects_nonorthogonal_base():
    base = np.eye(4)
    base[0, 1] = 1e-3
    for a in (np.zeros((4, 4)), ad.parameter(np.zeros((4, 4)))):
        with pytest.raises(ValueError, match="orthogonal"):
            cayley(a, base)
