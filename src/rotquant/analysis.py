"""Closed-form and Monte-Carlo quantization-error analysis.

Covers per-channel activation statistics, the rounding/clipping energy
split, the variance-of-means share of rounding error, uniform-noise
propagation through a linear layer, the AM-GM-optimal paired channel
scaling, and the per-site error report.  The report's noise prediction is
the closed form alone; the error a site produced in a run is measured by
the caller and stored with it.  All variances are population (biased) so
the decomposition

    total_var == mean(channel_vars) + var_of_means

is an exact algebraic identity rather than an approximation.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from .model import KV_SITES
from .quantizers import resolve_params

__all__ = [
    "ChannelStats",
    "channel_stats",
    "clipping_energy",
    "gaussian_clip_energy",
    "variance_decomposition",
    "noise_propagation",
    "optimal_scale",
    "SiteRecord",
    "BlockMse",
    "ErrorReport",
    "REPORT_SCHEMA",
    "emit_report",
]


@dataclass(frozen=True)
class ChannelStats:
    means: np.ndarray       # per-channel mean
    vars: np.ndarray        # per-channel population variance
    total_var: float        # population variance over all elements
    var_of_means: float     # population variance of the channel means


def channel_stats(x) -> ChannelStats:
    """Population statistics of a [tokens x channels] matrix.

    Channels are columns.  Raises on empty input.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.size == 0:
        raise ValueError("empty input")
    means = x.mean(axis=0)
    return ChannelStats(
        means=means,
        vars=x.var(axis=0),
        total_var=float(x.var()),
        var_of_means=float(means.var()),
    )


def clipping_energy(samples, lo, hi):
    """Fraction of squared mass outside [lo, hi]: sum(x^2 outside) / sum(x^2)."""
    x = np.asarray(samples, dtype=np.float64).ravel()
    if x.size == 0:
        raise ValueError("no samples")
    if not lo < hi:
        raise ValueError(f"invalid bounds: lo={lo} >= hi={hi}")
    total = float(np.sum(x * x))
    if total == 0.0:
        raise ValueError("zero energy")
    outside = (x < lo) | (x > hi)
    return float(np.sum(x[outside] ** 2) / total)


def _phi(t):
    return math.exp(-0.5 * t * t) / math.sqrt(2.0 * math.pi)


def _ncdf(t):
    # erf from the C library is exact to double precision, well inside the
    # 1e-12 accuracy contract
    return 0.5 * (1.0 + math.erf(t / math.sqrt(2.0)))


def gaussian_clip_energy(t):
    """Two-sided clipped-energy fraction of a standard normal at +-t.

    Closed form 2*(t*phi(t) + 1 - Phi(t)); at t = 2.2 about 18.4% of the
    total energy lies beyond the bounds.
    """
    if t <= 0:
        raise ValueError(f"threshold must be positive, got {t}")
    return 2.0 * (t * _phi(t) + 1.0 - _ncdf(t))


def variance_decomposition(x):
    """Split total variance into mean channel variance plus Var of channel means.

    Returns (mean_channel_var, var_of_means, fraction) where fraction is
    var_of_means / total_var, at most 1 -- the share of rounding error
    attributable to misaligned channel means.  A constant matrix has
    fraction 0.
    """
    return _decompose(x)[1:]


def _decompose(x):
    """(ChannelStats, mean_channel_var, var_of_means, fraction) of x."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] < 2 or x.size == 0:
        raise ValueError("expected a [tokens x channels] matrix with >= 2 columns")
    cs = channel_stats(x)
    mean_channel_var = float(cs.vars.mean())
    # the two variances round separately, so the ratio may land an ulp above 1
    fraction = 0.0 if cs.total_var == 0.0 else min(1.0, cs.var_of_means / cs.total_var)
    return cs, mean_channel_var, cs.var_of_means, fraction


def noise_propagation(w, a, s_w, s_a, trials=10_000, seed=0):
    """Predicted vs simulated output-noise variance for w @ a.

    Both quantization noises are modeled as independent uniform draws on
    (-s/2, s/2).  The prediction is the per-coordinate expansion
    E[w^2] s_a^2/12 + E[a^2] s_w^2/12 + (s_w^2/12)(s_a^2/12); the empirical
    value is the Monte-Carlo variance of the product error normalized the
    same way (per contraction coordinate).

    The trials run in chunks of about 2e6 weight draws.  One PCG64 stream
    draws each chunk's weight noise and then its activation noise (a zero
    scale draws nothing); only one chunk of noisy weights is alive at a time.
    """
    w = np.asarray(w, dtype=np.float64)
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 1 or w.shape[-1] != a.shape[0]:
        raise ValueError("shapes not conformable for the product")
    if trials < 1:
        raise ValueError(f"need at least one trial, got {trials}")
    for name, s in (("s_w", s_w), ("s_a", s_a)):
        if not (math.isfinite(s) and s >= 0.0):
            raise ValueError(f"{name} must be finite and non-negative, got {s}")
    n = a.shape[0]
    w2 = w.reshape(-1, n)
    chunk = max(1, int(2_000_000 // max(w2.size, n)))
    gen = np.random.default_rng(seed)

    def noisy(base, s, c):  # c draws of base + uniform(-s/2, s/2)
        if s == 0:
            return base
        x = gen.random((c,) + base.shape)
        x *= s
        x += -0.5 * s
        x += base
        return x

    clean = w2 @ a
    err_sq = np.zeros(w2.shape[0])
    for done in range(0, trials, chunk):
        c = min(chunk, trials - done)
        err = (noisy(w2, s_w, c) @ noisy(a, s_a, c)[..., None])[..., 0] - clean
        err_sq += np.sum(np.square(err), axis=0)
    empirical = float(np.mean(err_sq) / trials / n)
    return _predicted_noise_var(w, a, s_w, s_a), empirical


def _predicted_noise_var(w, a, s_w, s_a):
    """Closed-form output-noise variance of w @ a per contraction coordinate."""
    vw = s_w * s_w / 12.0
    va = s_a * s_a / 12.0
    return float(np.mean(w * w) * va + np.mean(a * a) * vw + vw * va)


def optimal_scale(w, a):
    """Per-channel paired scale minimizing the propagated-noise sum.

    s_i^2 = RMS(w channel i) / RMS(a channel i).  s is the activation-side
    multiplier: applying (w / s, a * s) equalizes the channel magnitudes
    |w_i / s_i| = |a_i * s_i| = sqrt(|w_i a_i|), the AM-GM equality
    condition that minimizes the dominant propagated-noise terms.
    Channels are the last axis; 1-D inputs are single-sample channels.
    """
    rw = _channel_rms(w)
    ra = _channel_rms(a)
    if np.any(ra == 0.0) or np.any(rw == 0.0):
        raise ValueError("degenerate channel")
    return np.sqrt(rw / ra)


def _channel_rms(x):
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 1:
        return np.abs(x)
    flat = x.reshape(-1, x.shape[-1])
    return np.sqrt(np.mean(flat * flat, axis=0))


# -- report emission ----------------------------------------------------------


@dataclass
class SiteRecord:
    """Error analysis of one quantizer site.

    predicted_noise_var is noise_propagation's closed form for the site's
    weights and channel-RMS token.  measured_noise_var is the error its
    linear produced in the run, mean((lin @ W_q^T - in @ W_fp^T)^2) /
    channels.  Both are None for cache sites, the latter also in `analyze`.
    """

    block: int
    site: str
    rounding_energy: float
    clipping_energy_fraction: float
    var_of_means_fraction: float
    mean_channel_var: float
    var_of_means: float
    predicted_noise_var: float | None = None
    measured_noise_var: float | None = None
    channel_means: np.ndarray | None = None
    channel_vars: np.ndarray | None = None


@dataclass
class BlockMse:
    block: int
    mse_baseline: float  # neutral parameters, round-to-nearest weights
    mse_after_gptq: float
    mse_final: float


#: Report file schema, the only one read_report takes.
REPORT_SCHEMA = 3


@dataclass
class ErrorReport:
    records: list = field(default_factory=list)
    blocks: list = field(default_factory=list)


_CLIP_SIGMAS = 2.2  # analysis bounds: mean +- 2.2 sigma-hat per channel pool


def _mean_scale(x, spec):
    """(mean step, mean squared step) of x's groups under spec; 0 for None."""
    if spec is None:
        return 0.0, 0.0
    scale = np.asarray(resolve_params(x, spec).scale)
    return float(np.mean(scale)), float(np.mean(scale**2))


@contextmanager
def _site_numerics(block, site):
    """Run a site's arithmetic with a float overflow or invalid value raised as
    a RuntimeError that names the site."""
    with np.errstate(over="raise", invalid="raise"):
        try:
            yield
        except FloatingPointError as err:
            raise RuntimeError(f"block {block}, site {site}: {err}") from None


def _analyze_site(block, site, act, weight, measured, qcfg):
    act = np.asarray(act, dtype=np.float64)
    cs, mean_channel_var, var_of_means, fraction = _decompose(act)

    rounding_energy = clip_frac = 0.0
    predicted = None
    if cs.total_var > 0.0:
        s_a, s_a2 = _mean_scale(act, qcfg.kv if site in KV_SITES else qcfg.act)
        rounding_energy = s_a2 / 12.0
        sd = math.sqrt(cs.total_var)
        mu = float(act.mean())
        clip_frac = clipping_energy(act - mu, -_CLIP_SIGMAS * sd, _CLIP_SIGMAS * sd)
        if weight is not None:
            w = np.asarray(weight, dtype=np.float64)
            s_w, _ = _mean_scale(w, qcfg.weight)
            a_repr = _channel_rms(act)  # representative token
            predicted = _predicted_noise_var(w, a_repr, s_w, s_a)

    return SiteRecord(
        block=block,
        site=site,
        rounding_energy=rounding_energy,
        clipping_energy_fraction=clip_frac,
        var_of_means_fraction=fraction,
        mean_channel_var=mean_channel_var,
        var_of_means=var_of_means,
        predicted_noise_var=predicted,
        measured_noise_var=measured,
        channel_means=cs.means.copy(),
        channel_vars=cs.vars.copy(),
    )


def emit_report(layers, qcfg) -> ErrorReport:
    """Analyze quantizer sites into a structured report.

    `layers` is an iterable of (block_index, site_name, activations,
    weight_or_None[, measured_noise_var]) rows; activations are [tokens x
    channels] and the optional fifth entry is stored as the record's
    measured_noise_var (None when absent).  `qcfg` is the run's
    QuantConfig: a site in KV_SITES is analysed with `qcfg.kv`, any other
    with `qcfg.act`, and its weight with `qcfg.weight`.  A None spec has
    no rounding energy and adds no noise on its side.  One record is
    emitted per site.  Deterministic given its inputs.  A site whose
    arithmetic overflows raises a RuntimeError naming it.
    """
    layers = list(layers)
    if not layers:
        raise ValueError("at least one layer required")
    report = ErrorReport()
    for block, site, act, weight, *rest in layers:
        measured = rest[0] if rest else None
        with _site_numerics(block, site):
            report.records.append(_analyze_site(block, site, act, weight, measured, qcfg))
    return report
