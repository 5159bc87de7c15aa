"""Uniform integer quantizers, clip-threshold search, and GPTQ rounding.

`resolve_params` and `fake_quantize` (quantize then dequantize in floating
point) are plain ndarray functions that reduce each group with
np.amin/np.amax.  Inside a differentiable calibration objective,
`quantize_dynamic` is the one quantizer graph node, for activation sites,
KV caches and round-to-nearest weights alike.  An activation site's bias
correction b and unpaired scale s ride inside it as a shift and a gain,
(QD(x * s - b) + b) / s.  Its forward is the same arithmetic as the
primitive chain, and its vector-Jacobian products are that chain's
(range reduction, scale floor, round, clamp, dequantize in closed form)
term by term, for the input, the clip factor, b and s, with the same
bits.  It keeps the shifted input, uint8 codes, an in-range mask and
each group's extreme positions (argmin/argmax, the same bits as the
reductions).  Its input gradient gives each extreme's gradient to its
one position; only the rare group whose extreme is tied splits it
evenly over the hits, counted in the backward, as the min/max
reduction's gradient does.

Quantized tensors are float64 arrays whose values lie exactly on the
lattice {zero + k * scale, k in 0..2^b - 1}; files store weights as codes
plus the raw scale each symmetric row lattice follows from (`QuantSpec.lattice`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .autodiff import Var, _is_var, _unbroadcast, round_half_away, value_of

__all__ = [
    "QuantSpec",
    "QuantParams",
    "QuantizationError",
    "SCALE_FLOOR",
    "resolve_params",
    "fake_quantize",
    "quantize_dynamic",
    "search_clip",
    "rtn_quantize",
    "gptq_quantize",
    "quant_proxy_loss",
]

SCALE_FLOOR = 1e-12
#: Most elements one clip-search pass holds at once (grid points x samples);
#: larger inputs are scanned one grid point at a time.
CLIP_CHUNK = 1 << 16
#: Columns per GPTQ error-feedback block, GPTQ's own lazy-batch width.
GPTQ_BLOCK = 128

_SCHEMES = ("symmetric", "asymmetric")
_GRANULARITIES = ("per-channel", "per-token", "per-head")


class QuantizationError(RuntimeError):
    pass


@dataclass(frozen=True)
class QuantSpec:
    """Static quantizer configuration.

    Every group is a slice of the last axis: a row for per-channel and
    per-token, and a contiguous block of head_dim columns for per-head
    (heads never straddle groups).  The clip factor is passed per call.
    """

    bits: int
    scheme: str
    granularity: str
    head_dim: int | None = None

    def __post_init__(self):
        if not 2 <= self.bits <= 8:
            raise ValueError(f"bits must be in 2..8, got {self.bits}")
        if self.scheme not in _SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}")
        if self.granularity not in _GRANULARITIES:
            raise ValueError(f"unknown granularity {self.granularity!r}")
        if self.granularity == "per-head" and not self.head_dim:
            raise ValueError("per-head granularity requires head_dim")

    @property
    def levels(self):
        return 2**self.bits

    def lattice(self, raw) -> "QuantParams":
        """(scale, zero) of symmetric groups with raw scale `raw` (max |x|
        times the step), derived as `resolve_params` does."""
        return QuantParams(scale=np.clip(raw, SCALE_FLOOR, np.inf), zero=raw * (-(2 ** (self.bits - 1))))


@dataclass
class QuantParams:
    """Resolved (scale, zero) per group, broadcastable against the grouped view.

    zero is the dequantized value of integer code 0: the quantization lower
    bound for asymmetric groups, -scale * 2^{b-1} for symmetric ones.
    """

    scale: np.ndarray
    zero: np.ndarray


def _grouped(x, spec):
    """View of x with one quantization group per trailing-axis slice."""
    shape = x.shape
    if spec.granularity == "per-head":
        n = shape[-1]
        if n % spec.head_dim != 0:
            raise ValueError(f"last axis {n} not divisible by head_dim {spec.head_dim}")
        return x.reshape(*shape[:-1], n // spec.head_dim, spec.head_dim)
    return x


def _step_factor(spec):
    """The raw scale per unit of clip-scaled range: 1/(2^b - 1) or 1/(2^{b-1} - 1)."""
    return 1.0 / (spec.levels - 1 if spec.scheme == "asymmetric" else 2 ** (spec.bits - 1) - 1)


def _raw_params(extremes, spec, a):
    """(raw scale, zero) per group from the group extremes.

    extremes are (min, max) for asymmetric groups and (max |x|,) for
    symmetric ones, each with a trailing axis of 1: reductions in
    `resolve_params`, values read at the `_locate_extreme` positions in
    `quantize_dynamic`'s graph node.  The raw scale is the clip-scaled
    range step before the SCALE_FLOOR clamp.
    """
    if spec.scheme == "asymmetric":
        mn, mx = extremes
        return a * (mx - mn) * _step_factor(spec), a * mn
    raw = a * extremes[0] * _step_factor(spec)
    return raw, raw * (-(2 ** (spec.bits - 1)))


def resolve_params(x, spec: QuantSpec, alpha=1.0) -> QuantParams:
    """Resolve (scale, zero) groups for x under spec and clip factor alpha.

    Degenerate all-equal groups get a tiny positive scale floor so constant
    inputs reproduce exactly.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.size == 0:
        raise QuantizationError("empty group")
    view = _grouped(x, spec)
    if spec.scheme == "asymmetric":
        extremes = (np.amin(view, axis=-1, keepdims=True), np.amax(view, axis=-1, keepdims=True))
    else:
        extremes = (np.amax(np.abs(view), axis=-1, keepdims=True),)
    raw, zero = _raw_params(extremes, spec, alpha)
    return QuantParams(scale=np.clip(raw, SCALE_FLOOR, np.inf), zero=zero)


def _rounded(view, scale, zero):
    """Integer codes of the grouped view before the clamp to 0..2^b - 1."""
    return round_half_away((view - zero) / scale)


def fake_quantize(x, params: QuantParams, spec: QuantSpec):
    """Quantize-dequantize onto the lattice {zero + k*scale, k in 0..2^b-1}."""
    x = np.asarray(x, dtype=np.float64)
    q = np.clip(_rounded(_grouped(x, spec), params.scale, params.zero), 0.0, spec.levels - 1.0)
    return (q * params.scale + params.zero).reshape(x.shape)


def _locate_extreme(rows, find):
    """Each row's first extreme: (value, flat position).

    rows is a C-contiguous [groups, group size] array and find is
    np.argmin or np.argmax; the value read at the position holds the same
    bits as np.amin/np.amax.
    """
    n_rows, n = rows.shape
    pos = find(rows, axis=1)
    pos += np.arange(0, n_rows * n, n)
    return rows.reshape(-1)[pos], pos


def _tie_split(values, extreme, g):
    """Gradient of a min/max reduction over the last axis: ties split it evenly.

    Each element equal to the extreme gets g * (1 / hits).  Only tied rows
    come here; `_add_extreme_grad` gives every other row's g to its one
    extreme directly, which is the same bits since g * (1 / 1) is g.
    """
    hit = (values == extreme).astype(np.float64)
    hit /= np.sum(hit, axis=-1, keepdims=True)
    return g * hit


def _add_extreme_grad(g_rows, rows, pos, g_ext, signed=False):
    """Add the gradient g_ext of each row's extreme into g_rows, in place.

    g_rows and rows are [groups, group size], pos holds each row's extreme
    position from `_locate_extreme` and g_ext one value per row.  signed:
    the extreme is max |x|, so each hit also takes the sign of its x.
    Tied rows hit their extreme other than exactly once (equal extremes,
    or a NaN); rows are counted one by one only when the hits over all
    rows are not one per row.
    """
    values = np.abs(rows) if signed else rows
    ext = values.reshape(-1)[pos]
    hits = values == ext[:, None]
    tied = pos[:0]
    if np.count_nonzero(hits) != len(rows) or np.isnan(ext).any():
        tied = np.flatnonzero(np.count_nonzero(hits, axis=1) != 1)
    at, g_at = pos, g_ext
    if tied.size:
        at, g_at = np.delete(pos, tied), np.delete(g_ext, tied)
    if signed:
        g_at = g_at * np.sign(rows.reshape(-1)[at])
    g_rows.reshape(-1)[at] += g_at
    if tied.size:
        split = _tie_split(values[tied], ext[tied, None], g_ext[tied, None])
        g_rows[tied] += split * np.sign(rows[tied]) if signed else split


def _ste_partials(g, view, raw, scale, zero, inside, q, spec):
    """dL/d(view) through the codes; per group dL/dzero and dL/d(range).

    range is the clip-scaled extent alpha * (max - min), or alpha *
    max|x| for symmetric groups; the raw scale is range * step.
    Straight-through: round passes the gradient, the code clamp passes
    it only inside [0, 2^b - 1], the scale floor only where it is idle.
    A symmetric zero is -2^{b-1} times the raw scale, so its gradient
    joins the raw scale's.  The arithmetic follows the primitive chain
    term by term.
    """

    def group_sum(t):
        return np.sum(t, axis=-1, keepdims=True)

    # dL/d((x - zero) / scale); one expression: g may be a strided view, and
    # the layout of g_t sets the order in which group_sum adds
    g_t = g * scale * inside
    g_u = g_t / scale
    g_zero = group_sum(g) - group_sum(g_u)
    g_raw = group_sum(g * q) - group_sum(g_t * (view - zero) / (scale * scale))
    g_raw = g_raw * (raw >= SCALE_FLOOR)
    if spec.scheme == "symmetric":
        g_raw = g_raw + g_zero * (-(2 ** (spec.bits - 1)))
    return g_u, g_zero, g_raw * _step_factor(spec)


def _unshift(out, shift, gain):
    """(out + shift) / gain, in place on the fresh array out; None skips a step."""
    if shift is not None:
        out += shift
    if gain is not None:
        out /= gain
    return out


def quantize_dynamic(x, spec: QuantSpec, alpha=1.0, shift=None, gain=None):
    """Dynamic quantization: resolve the groups of x, then fake-quantize it.

    alpha is the clip factor.  A site passes its bias correction b as
    `shift` and its unpaired scale s as `gain`: (QD(x * s - b) + b) / s.
    With any operand a Var the result is one graph node (see above).
    """
    xv, av, bv, sv = (None if t is None else value_of(t) for t in (x, alpha, shift, gain))
    v = xv if sv is None else xv * sv
    v = v if bv is None else v - bv
    if not _is_var(x, alpha, shift, gain):
        return _unshift(fake_quantize(v, resolve_params(v, spec, alpha), spec), bv, sv)

    if v.size == 0:
        raise QuantizationError("empty group")
    shape, view = v.shape, _grouped(np.ascontiguousarray(v), spec)
    group_shape = (*view.shape[:-1], 1)
    rows = view.reshape(-1, view.shape[-1])
    if spec.scheme == "asymmetric":
        found = (_locate_extreme(rows, np.argmin), _locate_extreme(rows, np.argmax))
    else:
        found = (_locate_extreme(np.abs(rows), np.argmax),)
    raw, zero = _raw_params(tuple(e.reshape(group_shape) for e, _ in found), spec, av)
    positions = [pos for _, pos in found]  # the node keeps positions, not values
    scale = np.clip(raw, SCALE_FLOOR, np.inf)
    q = _rounded(view, scale, zero)
    inside = (q >= 0.0) & (q <= spec.levels - 1.0)  # the node keeps this mask, not the unclamped codes
    np.clip(q, 0.0, spec.levels - 1.0, out=q)
    out = _unshift((q * scale + zero).reshape(shape), bv, sv)
    with np.errstate(invalid="ignore"):  # a NaN input has no code, and its loss is NaN
        codes = q.astype(np.uint8)  # the node keeps these; g * codes promotes them exactly

    operands = (x, alpha, shift, gain)  # backward explores them last first, as it does the chain's
    need = [isinstance(p, Var) and p.needs_grad for p in operands]
    x_shape, x_kept = xv.shape, (xv if need[3] else None)  # only the gain's gradient reads x

    def per_row(t):
        return np.broadcast_to(t, group_shape).reshape(-1)

    def grads(g):  # {operand index: gradient} of every operand that needs one
        got = {}
        g_q = g if sv is None else g / sv
        g_u, g_zero, g_range = _ste_partials(g_q.reshape(view.shape), view, raw, scale, zero, inside, codes, spec)
        if need[1]:
            ext = [rows.reshape(-1)[pos].reshape(group_shape) for pos in positions]
            if spec.scheme == "asymmetric":
                mn, mx = ext
                got[1] = _unbroadcast(g_zero * mn, av.shape) + _unbroadcast(g_range * (mx - mn), av.shape)
            else:
                got[1] = _unbroadcast(g_range * np.abs(ext[0]), av.shape)
        if need[0] or need[2] or need[3]:
            g_rows = g_u.reshape(rows.shape)  # a fresh array, so the extremes add in place
            if spec.scheme == "asymmetric":
                _add_extreme_grad(g_rows, rows, positions[0], per_row(g_zero * av - g_range * av))
                _add_extreme_grad(g_rows, rows, positions[1], per_row(g_range * av))
            else:
                _add_extreme_grad(g_rows, rows, positions[0], per_row(g_range * av), signed=True)
            g_v = g_rows.reshape(shape)
            if need[2]:  # the add's term, then the subtraction's
                got[2] = _unbroadcast(g_q, bv.shape) + _unbroadcast(-g_v, bv.shape)
            if need[3]:  # the division's term (its QD + b recomputed from the codes), then the product's
                pre = _unshift((codes * scale + zero).reshape(shape), bv, None)
                got[3] = _unbroadcast(-g * pre / (sv * sv), sv.shape) + _unbroadcast(g_v * x_kept, sv.shape)
            if need[0]:
                got[0] = _unbroadcast(g_v if sv is None else g_v * sv, x_shape)
        return got

    pending = []  # backward hands every operand's vjp the same g: one grads() serves them all

    def vjp(i, g):
        if not pending or pending[0] is not g:
            pending[:] = [g, grads(g)]
        g_i = pending[1].pop(i)
        if not pending[1]:
            pending.clear()
        return g_i

    links = [(p, partial(vjp, i)) for i, p in enumerate(operands) if isinstance(p, Var)]
    return Var(out, _parents=tuple(p for p, _ in links), _vjps=tuple(f for _, f in links))


# -- clip-threshold search ---------------------------------------------------


def search_clip(samples, bits, grid_points=128, lo=0.5, hi=4.0):
    """Grid search for the error-minimizing clip threshold.

    Scans theta over [lo, hi] standard deviations of the samples
    (grid_points values, exhaustive, no early exit) and returns the
    arg-min threshold in absolute units.  For INT4 standard-Gaussian input
    the optimum lands near 2.2 sigma.

    Each theta quantizes onto the signed b-bit lattice (codes
    -2^{b-1}..2^{b-1}-1, step theta / 2^{b-1}, round half away from zero)
    and scores the mean error magnitude (unsquared norm).  The grid is
    scanned in blocks of at most CLIP_CHUNK elements.
    """
    x = np.asarray(samples, dtype=np.float64).ravel()
    if x.size < 1000:
        raise QuantizationError(f"need at least 1000 samples, got {x.size}")
    sigma = float(x.std())
    if sigma == 0.0:
        raise QuantizationError("zero-variance samples")
    thetas = np.linspace(lo, hi, grid_points) * sigma
    half = 2 ** (bits - 1)
    # rounding commutes with the sign, so work on magnitudes: each sample's
    # code magnitude is capped at 2^{b-1} - 1 when positive, 2^{b-1} when not
    mag = np.abs(x)
    cap = np.where(x >= 0.0, half - 1.0, float(half))
    rows = max(1, CLIP_CHUNK // x.size)
    buf = np.empty((rows, x.size))
    errors = np.empty(grid_points)
    for i in range(0, grid_points, rows):
        step = (thetas[i : i + rows] / half)[:, None]
        err = buf[: len(step)]
        np.divide(mag, step, out=err)
        err += 0.5
        np.floor(err, out=err)
        np.minimum(err, cap, out=err)
        err *= step
        np.subtract(mag, err, out=err)
        np.abs(err, out=err)
        errors[i : i + rows] = np.mean(err, axis=1)
    return float(thetas[int(np.argmin(errors))])


# -- weight rounding ----------------------------------------------------------


def rtn_quantize(w, spec: QuantSpec):
    """Round-to-nearest onto the per-group lattice (GPTQ's baseline).

    Differentiable through the straight-through estimator when w is a Var.
    """
    return quantize_dynamic(w, spec)


def gptq_quantize(w, x_calib, spec: QuantSpec, damp=0.01):
    """Greedy column-wise weight rounding with Hessian error feedback.

    Returns (q, raw): q on the row lattices `spec.lattice(raw[:, None])`.

    H = X^T X is damped by `damp` times its mean diagonal (dead input
    columns get a unit diagonal and zero weights).  GPTQ feeds each
    column's error forward through U, the upper Cholesky factor of H^{-1};
    V = U^{-1} is upper triangular with H = V V^T, one Cholesky of the
    reversed Hessian, so no inverse is formed.  With F = V / diag(V),
    column j rounds w_j + sum_{i<j} (w_i - q_i) F_ij, the same values in
    exact arithmetic.  Per block of GPTQ_BLOCK columns, one GEMM brings in
    the earlier blocks' errors and each column updates the rest of its
    block (rank 1).  Rows round independently on lattices resolved from
    the incoming weights, so matrices that share H can be stacked.

    Greedy compensation is not universally better than direct rounding at
    small column counts, so each output row keeps whichever of the
    compensated or direct solution has the lower proxy loss e H e^T
    (deterministic; a no-op whenever H is diagonal, where the two
    solutions coincide).
    """
    if spec.scheme != "symmetric" or spec.granularity != "per-channel":
        raise QuantizationError("gptq expects per-channel symmetric weight quantization")
    w_orig = np.array(w, dtype=np.float64, copy=True)
    w = np.array(w_orig, copy=True)
    x = np.asarray(x_calib, dtype=np.float64)
    if x.ndim != 2 or x.size == 0:
        raise QuantizationError("calibration inputs must be a nonempty [tokens x in] matrix")
    if x.shape[1] != w.shape[1]:
        raise QuantizationError(f"calibration width {x.shape[1]} != weight width {w.shape[1]}")

    cols = w.shape[1]
    h_raw = x.T @ x
    h = h_raw.copy()
    dead = np.diag(h) == 0.0
    if dead.any():
        h[dead, dead] = 1.0
        w[:, dead] = 0.0
    h[np.diag_indices(cols)] += damp * float(np.mean(np.diag(h)))

    try:
        v = np.linalg.cholesky(h[::-1, ::-1])[::-1, ::-1]  # H = V V^T, V upper triangular
    except np.linalg.LinAlgError as err:
        raise QuantizationError("ill-conditioned Hessian") from err
    feed = v / np.diag(v)

    raw = np.amax(np.abs(w_orig), axis=1) * _step_factor(spec)  # resolve_params' raw scale
    params = spec.lattice(raw[:, None])
    q = np.empty_like(w)
    for b0 in range(0, cols, GPTQ_BLOCK):
        b1 = min(b0 + GPTQ_BLOCK, cols)
        block = w[:, b0:b1] + (w[:, :b0] - q[:, :b0]) @ feed[:b0, b0:b1]
        for j in range(b0, b1):
            q[:, j] = fake_quantize(block[:, j - b0, None], params, spec)[:, 0]
            block[:, j - b0 + 1 :] += np.outer(w[:, j] - q[:, j], feed[j, j + 1 : b1])

    q_direct = fake_quantize(w_orig, params, spec)
    keep_direct = _row_proxy_loss(w_orig - q_direct, h_raw) < _row_proxy_loss(w_orig - q, h_raw)
    q[keep_direct] = q_direct[keep_direct]
    return q, raw


def _row_proxy_loss(e, h):
    """Per-row e_i H e_i^T: one GEMM, then a row-wise dot product."""
    return np.einsum("ij,ij->i", e @ h, e)


def quant_proxy_loss(w, w_hat, x_calib):
    """tr((W - What) H (W - What)^T) with H = X^T X: GPTQ's objective."""
    w = np.asarray(w, dtype=np.float64)
    w_hat = np.asarray(w_hat, dtype=np.float64)
    x = np.asarray(x_calib, dtype=np.float64)
    e = w - w_hat
    return float(np.sum((e @ x.T) ** 2))
