"""Orthogonal transforms: fast Walsh-Hadamard, PCA bases, Cayley rotations.

Conventions
-----------
Data is row-major: activations are [tokens x n] and a rotation with matrix M
acts as ``x @ M``.  Weights stored [out x in] absorb an input-side rotation
as ``W @ M`` and an output-side rotation as ``M.T @ W``; both leave the
floating-point product unchanged when paired.

The normalized Sylvester-Hadamard matrix is symmetric and involutory, so the
fast transform along the last axis computes both ``x @ H`` and ``H @ x.T``.
It factors as a Kronecker product, H_n = H_{n/b} (x) H_b, so the transform
is one small matmul per factor against cached +-1 Sylvester matrices of at
most HADAMARD_FACTOR rows, with the 1/sqrt(n) normalization applied once at
the end.  No dense n x n matrix is built: at n = 1024 the factored form is
faster than a dense matmul and pins 8 KiB instead of 8 MiB.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np

from .autodiff import Var

__all__ = [
    "is_power_of_two",
    "fwht",
    "hadamard_matrix",
    "Rotation",
    "random_hadamard",
    "pca_basis",
    "compose_rres",
    "CayleyParam",
    "cayley",
]


def is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


def _check_pow2(n: int):
    if not is_power_of_two(n):
        raise ValueError(f"dimension must be 2^k, got {n}")


#: Largest Kronecker factor of the fast Hadamard transform.
HADAMARD_FACTOR = 32


@cache
def _sylvester(n: int):
    """Read-only unnormalized (+-1) Sylvester-Hadamard matrix of order n."""
    h = np.ones((1, 1))
    while h.shape[0] < n:
        h = np.block([[h, h], [h, -h]])
    h.flags.writeable = False
    return h


def _sylvester_apply(y):
    """y @ H_n for the +-1 Sylvester matrix, y of shape [rows x n].

    With b = HADAMARD_FACTOR and m = n / b, H_n = H_m (x) H_b: the columns
    of y viewed as [rows x m x b] take H_b on the low index and H_m on the
    high index (recursively once m exceeds b).  Products of +-1 and exact
    sums keep every entry of H itself exact.
    """
    rows, n = y.shape
    if n <= HADAMARD_FACTOR:
        return y @ _sylvester(n)
    m = n // HADAMARD_FACTOR
    y = y.reshape(rows, m, HADAMARD_FACTOR) @ _sylvester(HADAMARD_FACTOR)
    if m <= HADAMARD_FACTOR:
        y = _sylvester(m) @ y  # H_m is symmetric
    else:
        y = _sylvester_apply(y.swapaxes(1, 2).reshape(-1, m))
        y = y.reshape(rows, HADAMARD_FACTOR, m).swapaxes(1, 2)
    return y.reshape(rows, n)


def _fwht_array(x):
    """Normalized Walsh-Hadamard transform along the last axis."""
    x = np.asarray(x, dtype=np.float64)
    n = x.shape[-1]
    _check_pow2(n)
    y = _sylvester_apply(x.reshape(-1, n))
    y /= np.sqrt(n)
    return y.reshape(x.shape)


def fwht(x):
    """Apply the normalized Hadamard transform along the last axis.

    Accepts a Var (differentiable: H is symmetric orthogonal, so the
    backward pass is the same transform applied to the gradient).
    """
    if isinstance(x, Var):
        out = _fwht_array(x.value)
        return Var(out, _parents=(x,), _vjps=(lambda g: _fwht_array(g),))
    return _fwht_array(x)


def hadamard_matrix(n: int):
    """Dense normalized Sylvester-Hadamard matrix (entries +-n^{-1/2})."""
    _check_pow2(n)
    return _fwht_array(np.eye(n))


# -- rotations ----------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class Rotation:
    """An orthogonal map acting on the last axis of row-major data: x @ matrix."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=np.float64)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"rotation matrix must be square, got shape {m.shape}")
        _assert_orthogonal(m)
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def apply(self, x):
        return x @ self.matrix

    def inverse(self) -> "Rotation":
        return Rotation(self.matrix.T)


def _assert_orthogonal(m, tol=1e-6):
    # no orthogonal matrix has an entry above 1 in magnitude; a NaN fails the
    # comparison too, and the Gram product below cannot overflow
    if not np.all(np.abs(m) <= 1.0 + tol):
        raise ValueError("matrix is not orthogonal (an entry is not finite or exceeds 1 in magnitude)")
    gram = m.T @ m
    err = np.max(np.abs(gram - np.eye(m.shape[0])))
    if err > tol:
        raise ValueError(f"matrix is not orthogonal (max |U^T U - I| = {err:.3e})")


def random_hadamard(n: int, seed: int) -> Rotation:
    """Seeded random-sign Hadamard rotation H @ diag(signs), deterministic per seed."""
    _check_pow2(n)
    rng = np.random.default_rng(seed)
    signs = rng.integers(0, 2, size=n) * 2.0 - 1.0
    return Rotation(hadamard_matrix(n) * signs[None, :])


def pca_basis(weights):
    """Eigenbasis of the summed weight covariance C = sum_k W_k^T W_k.

    Every W_k is [out x n] with the same input width n; rows are read as
    uncentered samples over input channels.  Columns of the returned U are
    orthonormal eigenvectors ordered by descending eigenvalue, each signed
    so that its largest-magnitude component is positive.
    """
    if not weights:
        raise ValueError("at least one weight matrix required")
    mats = [np.asarray(w, dtype=np.float64) for w in weights]
    n = mats[0].shape[1]
    for w in mats:
        if w.ndim != 2 or w.shape[1] != n:
            raise ValueError(f"weight input widths disagree: {w.shape[1]} != {n}")
    cov = np.zeros((n, n))
    for w in mats:
        cov += w.T @ w
    _, u = np.linalg.eigh(cov)
    u = u[:, ::-1]  # eigh sorts ascending
    peak = u[np.argmax(np.abs(u), axis=0), np.arange(n)]
    return u * np.where(peak < 0, -1.0, 1.0)


def compose_rres(u) -> Rotation:
    """Residual-stream rotation: principal basis then Hadamard.

    Activation-side application order is fixed as U^T then H; in the
    row-major convention both the residual stream and the input-side
    weights multiply by U @ H on the right.
    """
    u = np.asarray(u, dtype=np.float64)
    _check_pow2(u.shape[0])
    _assert_orthogonal(u)  # rejects ||U^T U - I||_inf > 1e-6
    return Rotation(u @ hadamard_matrix(u.shape[0]))


# -- Cayley parameterization -------------------------------------------------


@dataclass
class CayleyParam:
    """Unconstrained square parameter interpreted through its skew part.

    cayley(a=0) reproduces `base` exactly, so initializing at zero with a
    Hadamard base starts training from the fixed-Hadamard rotation.
    """

    a: object  # [n x n] ndarray or Var
    base: np.ndarray  # fixed orthogonal right factor

    def __post_init__(self):
        self.base = np.asarray(self.base, dtype=np.float64)
        _assert_orthogonal(self.base)


def _cayley_forward(a_val, base):
    n = a_val.shape[0]
    if a_val.shape != (n, n) or base.shape != (n, n):
        raise ValueError("cayley parameter and base must be square and same size")
    if not np.all(np.isfinite(a_val)):
        raise ValueError("cayley parameter must be finite")
    s = 0.5 * (a_val - a_val.T)
    eye = np.eye(n)
    m = np.linalg.solve(eye - s, eye + s)  # LU with partial pivoting
    return s, m, m @ base


def cayley(param: CayleyParam):
    """(I - S)^{-1} (I + S) @ base with S the skew part of the parameter.

    Orthogonal for every finite parameter; differentiable when the
    parameter is a Var (closed-form vector-Jacobian product through the
    linear solve).
    """
    base = param.base
    a = param.a
    if isinstance(a, Var):
        s, m, r = _cayley_forward(a.value, base)
        eye = np.eye(s.shape[0])

        def back(g):
            gm = g @ base.T
            gs = np.linalg.solve(eye + s, gm @ (eye + m).T)
            return 0.5 * (gs - gs.T)

        return Var(r, _parents=(a,), _vjps=(back,))
    _, _, r = _cayley_forward(np.asarray(a, dtype=np.float64), base)
    return r
