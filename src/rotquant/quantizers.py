"""Uniform integer quantizers, clip-threshold search, and GPTQ rounding.

`resolve_params` and `fake_quantize` (quantize then dequantize in floating
point) are plain ndarray functions that reduce each group with
np.amin/np.amax.  Inside a differentiable calibration objective,
`quantize_dynamic` is the one quantizer graph node, for activation sites,
KV caches and round-to-nearest weights alike.  An activation site's bias
correction b and unpaired scale s ride inside it as a shift and a gain,
(QD(x * s - b) + b) / s.  Its value has the bits of the array path.  Its
gradients are the straight-through estimator's, in closed form per group
(`_ste_grads`): the input takes g where the clamp keeps the code, the zero
takes the rest, and the scale takes sum(g * code) less the kept g times
the unrounded code, unless the scale floor binds; the clip factor, b and
s follow from these.  It keeps the shifted input, uint8 codes, an
in-range mask and each group's extremes with their positions
(argmin/argmax, the same bits as the reductions).  Its input gradient
gives each extreme's gradient to its one position; only the rare group
whose extreme is tied splits it evenly over the hits, counted in the
backward, as the min/max reduction's gradient does.  One rounding helper,
`_codes`, serves the node, `fake_quantize` and GPTQ.

Quantized tensors are float64 arrays whose values lie exactly on the
lattice {zero + k * scale, k in 0..2^b - 1}; files store weights as codes
plus the raw scale each symmetric row lattice follows from (`QuantSpec.lattice`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .autodiff import Var, _is_var, _node, _unbroadcast, value_of

__all__ = [
    "QuantSpec",
    "QuantParams",
    "QuantizationError",
    "SCALE_FLOOR",
    "resolve_params",
    "fake_quantize",
    "quantize_dynamic",
    "search_clip",
    "gptq_quantize",
    "quant_proxy_loss",
]

SCALE_FLOOR = 1e-12
#: Columns per GPTQ error-feedback block: narrower than GPTQ's own 128, so the
#: block-start GEMM carries most of the feedback.  A wide model's four calls
#: (384x128, 128x128, 2048x128, 128x1024; 1024 tokens, 1 BLAS thread, median
#: of 8) took 159, 132, 128 and 126 ms at 128, 64, 32 and 16 columns, with the
#: same codes; below 64 that is run-to-run noise, and 32 sits in the middle.
GPTQ_BLOCK = 32

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
    `resolve_params`, values read at the argmin/argmax positions in
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


def _codes(view, scale, zero):
    """Integer codes floor((view - zero) / scale + 1/2) before the clamp to
    0..2^b - 1, in one fresh buffer.

    Where the clamp keeps a code this is round half away from zero; below
    -1/2 both clamp to 0, and between -1/2 and 0 the tie rule's -0 code is
    +0 here, which dequantizes to the same bits.
    """
    c = np.subtract(view, zero)
    c /= scale
    c += 0.5
    return np.floor(c, out=c)


def fake_quantize(x, params: QuantParams, spec: QuantSpec):
    """Quantize-dequantize onto the lattice {zero + k*scale, k in 0..2^b-1}."""
    x = np.asarray(x, dtype=np.float64)
    q = _codes(_grouped(x, spec), params.scale, params.zero)
    np.clip(q, 0.0, spec.levels - 1.0, out=q)  # in place: a fresh array raised quantize-wide's peak RSS 11%
    q *= params.scale
    q += params.zero
    return q.reshape(x.shape)


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

    g_rows and rows are [groups, group size], pos holds each row's first
    extreme as a flat position and g_ext one value per row.  signed: the
    extreme is max |x|, so each hit also takes the sign of its x.  Tied
    rows hit their extreme other than exactly once (equal extremes, or a
    NaN); rows are counted one by one only when the hits over all rows are
    not one per row.
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


def _ste_grads(g, rows, raw, scale, zero, inside, codes, spec):
    """Straight-through gradients of the dequantized rows codes * scale + zero.

    g is dL/d(output) and rows the quantized input, both [groups, group
    size]; raw, scale and zero hold one value per row.  Returns dL/d(rows)
    through the codes, and per row dL/dzero and dL/d(range), where range is
    the clip-scaled extent alpha * (max - min), or alpha * max|x| for
    symmetric rows, and the raw scale is range * step.  Round passes the
    gradient, the code clamp passes it only `inside` 0..2^b - 1 and the
    scale floor only where it is idle.  A symmetric zero is -2^{b-1} times
    the raw scale, so its gradient joins the raw scale's.
    """
    ones = np.ones(rows.shape[1])  # row sums as products: one BLAS pass each
    g_v = g * inside
    g_zero = g @ ones - g_v @ ones
    g_raw = np.einsum("ij,ij->i", g, codes) - np.einsum("ij,ij->i", g_v, rows - zero[:, None]) / scale
    g_raw *= raw >= SCALE_FLOOR
    if spec.scheme == "symmetric":
        g_raw += g_zero * (-(2 ** (spec.bits - 1)))
    return g_v, g_zero, g_raw * _step_factor(spec)


def _channel_sum(t, shape, times=None):
    """_unbroadcast(t * times, shape), or of t alone; one BLAS or einsum pass
    over the [tokens x channels] view when shape is the last axis alone."""
    if shape != t.shape[-1:]:
        return _unbroadcast(t if times is None else t * times, shape)
    rows = t.reshape(-1, shape[0])
    if times is None:
        return np.ones(len(rows)) @ rows
    return np.einsum("ij,ij->j", rows, times.reshape(rows.shape))


def _unshift(out, shift, gain):
    """(out + shift) / gain, in place on the fresh array out; None skips a step."""
    if shift is not None:
        out += shift
    if gain is not None:
        out /= gain
    return out


def _all_equal(t, c):
    """Whether t is an array (no Var) whose every entry is c, sign of zero included."""
    return isinstance(t, np.ndarray) and bool(np.all(t == c)) and not np.signbit(t).any()


def quantize_dynamic(x, spec: QuantSpec, alpha=1.0, shift=None, gain=None):
    """Dynamic quantization: resolve the groups of x, then fake-quantize it.

    alpha is the clip factor.  A site passes its bias correction b as
    `shift` and its unpaired scale s as `gain`: (QD(x * s - b) + b) / s.
    With any operand a Var the result is one graph node (see above).  An
    array shift of +0s or gain of 1s is left out: both steps are exact.
    """
    shift = None if _all_equal(shift, 0.0) else shift
    gain = None if _all_equal(gain, 1.0) else gain
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
    first = np.arange(0, rows.size, rows.shape[1])  # flat position of each row's start
    if spec.scheme == "asymmetric":
        positions = (rows.argmin(axis=1) + first, rows.argmax(axis=1) + first)
        extremes = tuple(rows.reshape(-1)[pos] for pos in positions)
    else:
        positions = (np.abs(rows).argmax(axis=1) + first,)
        extremes = (np.abs(rows.reshape(-1)[positions[0]]),)
    raw, zero = (t.reshape(-1) for t in _raw_params(tuple(e.reshape(group_shape) for e in extremes), spec, av))
    scale = np.clip(raw, SCALE_FLOOR, np.inf)
    c = _codes(rows, scale[:, None], zero[:, None])
    q = np.clip(c, 0.0, spec.levels - 1.0)
    inside = q == c  # the node keeps this mask, not the unclamped codes
    with np.errstate(invalid="ignore"):  # a NaN input has no code, and its loss is NaN
        codes = q.astype(np.uint8)
    out = np.multiply(q, scale[:, None], out=c)
    out += zero[:, None]
    out = _unshift(out.reshape(shape), bv, sv)

    operands = (x, alpha, shift, gain)  # backward explores them last first, as it does the chain's
    need = [isinstance(p, Var) and p.needs_grad for p in operands]
    x_shape = xv.shape
    x_kept, out_kept = (xv, out) if need[3] else (None, None)  # only the gain's gradient reads them

    def per_row(t):
        return np.broadcast_to(t, group_shape).reshape(-1)

    def grads(g):  # {operand index: gradient} of every operand that needs one
        got = {}
        g_q = g if sv is None else g / sv
        g_v, g_zero, g_range = _ste_grads(g_q.reshape(rows.shape), rows, raw, scale, zero, inside, codes, spec)
        if need[1]:
            if spec.scheme == "asymmetric":
                mn, mx = extremes
                g_alpha = g_zero * mn + g_range * (mx - mn)
            else:
                g_alpha = g_range * extremes[0]
            got[1] = _unbroadcast(g_alpha.reshape(group_shape), av.shape)
        if need[0] or need[2] or need[3]:
            a = per_row(av)
            if spec.scheme == "asymmetric":
                _add_extreme_grad(g_v, rows, positions[0], (g_zero - g_range) * a)
                _add_extreme_grad(g_v, rows, positions[1], g_range * a)
            else:
                _add_extreme_grad(g_v, rows, positions[0], g_range * a, signed=True)
            g_v = g_v.reshape(shape)
            if need[2]:  # b enters the output twice: added back, and subtracted before QD
                got[2] = _channel_sum(g_q, bv.shape) - _channel_sum(g_v, bv.shape)
            if need[3]:  # d/ds of (QD(x * s - b) + b) / s
                got[3] = _channel_sum(g_v, sv.shape, x_kept) - _channel_sum(g_q, sv.shape, out_kept)
            if need[0]:  # g_v's last use
                got[0] = _unbroadcast(g_v if sv is None else np.multiply(g_v, sv, out=g_v), x_shape)
        return got

    pending = []  # backward hands every operand's vjp the same g: one grads() serves them all

    def vjp(i, g):
        if not pending or pending[0] is not g:
            pending[:] = [g, grads(g)]
        g_i = pending[1].pop(i)
        if not pending[1]:
            pending.clear()
        return g_i

    return _node(out, operands, (partial(vjp, 0), partial(vjp, 1), partial(vjp, 2), partial(vjp, 3)))


# -- clip-threshold search ---------------------------------------------------


def search_clip(samples, bits, grid_points=128):
    """Grid search for the error-minimizing clip threshold.

    Scans theta over 0.5 to 4 standard deviations of the samples
    (grid_points values, exhaustive, no early exit) and returns the
    arg-min threshold in absolute units.  For INT4 standard-Gaussian input
    the optimum lands near 2.2 sigma.

    Each theta quantizes onto the signed b-bit lattice (codes
    -2^{b-1}..2^{b-1}-1, step theta / 2^{b-1}, round half away from zero)
    and scores the mean error magnitude (unsquared norm).  Each pass
    scans one theta in place, in one buffer the size of the samples.
    """
    x = np.asarray(samples, dtype=np.float64).ravel()
    if x.size < 1000:
        raise QuantizationError(f"need at least 1000 samples, got {x.size}")
    sigma = float(x.std())
    if sigma == 0.0:
        raise QuantizationError("zero-variance samples")
    thetas = np.linspace(0.5, 4.0, grid_points) * sigma
    half = 2 ** (bits - 1)
    # rounding commutes with the sign, so work on magnitudes: each sample's
    # code magnitude is capped at 2^{b-1} - 1 when positive, 2^{b-1} when not
    mag = np.abs(x)
    cap = np.where(x >= 0.0, half - 1.0, float(half))
    err = np.empty_like(mag)
    errors = np.empty(grid_points)
    for i, theta in enumerate(thetas):
        step = theta / half
        np.divide(mag, step, out=err)
        err += 0.5
        np.floor(err, out=err)
        np.minimum(err, cap, out=err)
        err *= step
        np.subtract(mag, err, out=err)
        np.abs(err, out=err)
        errors[i] = np.mean(err)
    return float(thetas[int(np.argmin(errors))])


# -- weight rounding ----------------------------------------------------------


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
        # transposed, one contiguous row per column, for the in-block updates
        block = (w[:, b0:b1] + (w[:, :b0] - q[:, :b0]) @ feed[:b0, b0:b1]).T.copy()
        err = w[:, b0:b1].T.copy()
        for k, j in enumerate(range(b0, b1)):
            q[:, j] = fake_quantize(block[k, :, None], params, spec)[:, 0]
            err[k] -= q[:, j]
            block[k + 1 :] += np.outer(feed[j, j + 1 : b1], err[k])

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
