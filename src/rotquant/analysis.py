"""Closed-form and Monte-Carlo quantization-error analysis.

Covers the rounding/clipping energy split, the variance-of-means share of
rounding error, uniform-noise propagation through a linear layer, and the
AM-GM-optimal paired channel scaling.
"""

from __future__ import annotations

import contextlib
import math
import os
from dataclasses import dataclass, field

import numpy as np

from .quantizers import QuantSpec, resolve_params
from .stats import channel_stats

__all__ = [
    "clipping_energy",
    "gaussian_clip_energy",
    "variance_decomposition",
    "noise_propagation",
    "optimal_scale",
    "SiteRecord",
    "BlockMse",
    "ErrorReport",
    "emit_report",
]


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
    var_of_means / total_var -- the share of rounding error attributable to
    misaligned channel means.  A constant matrix has fraction 0.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] < 2 or x.size == 0:
        raise ValueError("expected a [tokens x channels] matrix with >= 2 columns")
    cs = channel_stats(x)
    mean_channel_var = float(cs.vars.mean())
    if cs.total_var == 0.0:
        return mean_channel_var, cs.var_of_means, 0.0
    return mean_channel_var, cs.var_of_means, cs.var_of_means / cs.total_var


NOISE_MAX_WORKERS = 4  # threads of one noise_propagation call, at most


def noise_propagation(w, a, s_w, s_a, trials=10_000, seed=0):
    """Predicted vs simulated output-noise variance for w @ a.

    Both quantization noises are modeled as independent uniform draws on
    (-s/2, s/2).  The prediction is the per-coordinate expansion
    E[w^2] s_a^2/12 + E[a^2] s_w^2/12 + (s_w^2/12)(s_a^2/12); the empirical
    value is the Monte-Carlo variance of the product error normalized the
    same way (per contraction coordinate).

    The trials run in chunks of about 2e6 weight draws, each chunk split
    across up to NOISE_MAX_WORKERS threads.  Every thread draws its trials'
    noise from the point of the seed's PCG64 stream where a serial loop
    would, and the squared errors are summed in trial order, so the result
    is bit-identical whatever the number of cores.
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
    vw = s_w * s_w / 12.0
    va = s_a * s_a / 12.0
    predicted = float(np.mean(w * w) * va + np.mean(a * a) * vw + vw * va)

    w2 = w.reshape(-1, n)
    chunk = max(1, int(2_000_000 // max(w2.size, n)))
    workers = min(_cpu_count(), chunk, trials, NOISE_MAX_WORKERS)
    err_sq = _noise_err_sq(w2, a, s_w, s_a, trials, seed, chunk, workers)
    empirical = float(np.mean(err_sq) / trials / n)
    return predicted, empirical


def _cpu_count():
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _noise_err_sq(w2, a, s_w, s_a, trials, seed, chunk, workers):
    """Per-output sum over trials of the squared error of (w2 + ew) @ (a + ea).

    The draws are those of one serial PCG64 stream: a chunk of c trials
    starting at trial d reads c weight-noise matrices and then c
    activation-noise vectors from offset d * per_trial (a zero scale draws
    nothing).  Each chunk is cut into at most `workers` slices of trials;
    a slice fills its rows of the shared buffers from its own copy of the
    stream, advanced to its offsets, and the chunk's squared errors are
    summed over trials here, in order.  The buffers hold one chunk.
    """
    out, n = w2.shape
    nw = out * n if s_w > 0 else 0
    na = n if s_a > 0 else 0
    per_trial = nw + na
    state = np.random.PCG64(seed).state
    rows = min(chunk, trials)
    clean = w2 @ a
    wbuf = np.empty((rows, out, n)) if nw else np.broadcast_to(w2, (rows, out, n))
    abuf = np.empty((rows, n)) if na else np.broadcast_to(a, (rows, n))
    noisy = np.empty((rows, out, 1))
    err_sq = np.zeros(out)

    def run_slice(d, c, i0, i1):
        bits = np.random.PCG64()
        bits.state = state
        gen = np.random.Generator(bits.advance(d * per_trial + i0 * nw))
        if nw:
            ew = wbuf[i0:i1]
            gen.random(out=ew)
            ew *= s_w
            ew += -0.5 * s_w  # the rounding of uniform(-s_w/2, s_w/2), then w2 + ew
            ew += w2
        if na:
            bits.advance((c - i1) * nw + i0 * na)
            ea = abuf[i0:i1]
            gen.random(out=ea)
            ea *= s_a
            ea += -0.5 * s_a
            ea += a
        np.matmul(wbuf[i0:i1], abuf[i0:i1, :, None], out=noisy[i0:i1])
        err = noisy[i0:i1, :, 0]
        err -= clean
        np.square(err, out=err)

    if workers > 1:
        from concurrent.futures import ThreadPoolExecutor

        pool = ThreadPoolExecutor(max_workers=workers)
    else:
        pool = contextlib.nullcontext()
    with pool:
        done = 0
        while done < trials:
            c = min(chunk, trials - done)
            k = min(workers, c)
            cuts = [c * j // k for j in range(k + 1)]
            jobs = [(done, c, i0, i1) for i0, i1 in zip(cuts, cuts[1:])]
            if k == 1:
                run_slice(*jobs[0])
            else:
                list(pool.map(lambda job: run_slice(*job), jobs))
            err_sq += np.sum(noisy[:c, :, 0], axis=0)
            done += c
    return err_sq


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
    """Error analysis of one quantizer site."""

    block: int
    site: str
    rounding_energy: float
    clipping_energy_fraction: float
    var_of_means_fraction: float
    mean_channel_var: float
    var_of_means: float
    predicted_noise_var: float | None = None
    empirical_noise_var: float | None = None
    channel_means: np.ndarray | None = None
    channel_vars: np.ndarray | None = None


@dataclass
class BlockMse:
    block: int
    mse_baseline: float
    mse_after_gptq: float
    mse_final: float


@dataclass
class ErrorReport:
    schema: int = 1
    records: list = field(default_factory=list)
    blocks: list = field(default_factory=list)


_CLIP_SIGMAS = 2.2  # analysis bounds: mean +- 2.2 sigma-hat per channel pool


def _analyze_site(block, site, act, weight, bits, noise_trials, seed):
    act = np.asarray(act, dtype=np.float64)
    cs = channel_stats(act)
    mean_channel_var, var_of_means, fraction = variance_decomposition(act)

    spec = QuantSpec(bits=bits, scheme="asymmetric", granularity="per-token")
    qp = resolve_params(act, spec)
    rounding_energy = float(np.mean(np.asarray(qp.scale) ** 2) / 12.0)
    if cs.total_var == 0.0:
        rounding_energy = 0.0
        clip_frac = 0.0
    else:
        sd = math.sqrt(cs.total_var)
        mu = float(act.mean())
        clip_frac = clipping_energy(act - mu, -_CLIP_SIGMAS * sd, _CLIP_SIGMAS * sd)

    predicted = empirical = None
    if weight is not None and cs.total_var > 0.0:
        w = np.asarray(weight, dtype=np.float64)
        wspec = QuantSpec(bits=bits, scheme="symmetric", granularity="per-channel")
        s_w = float(np.mean(np.asarray(resolve_params(w, wspec).scale)))
        s_a = float(np.mean(np.asarray(qp.scale)))
        a_repr = np.sqrt(np.mean(act * act, axis=0))  # representative token (channel RMS)
        predicted, empirical = noise_propagation(w, a_repr, s_w, s_a, trials=noise_trials, seed=seed)

    return SiteRecord(
        block=block,
        site=site,
        rounding_energy=rounding_energy,
        clipping_energy_fraction=clip_frac,
        var_of_means_fraction=fraction,
        mean_channel_var=mean_channel_var,
        var_of_means=var_of_means,
        predicted_noise_var=predicted,
        empirical_noise_var=empirical,
        channel_means=cs.means.copy(),
        channel_vars=cs.vars.copy(),
    )


def emit_report(layers, bits=4, noise_trials=2000, seed=0) -> ErrorReport:
    """Analyze quantizer sites into a structured report.

    `layers` is an iterable of (block_index, site_name, activations,
    weight_or_None); activations are [tokens x channels].  One record is
    emitted per site.  Deterministic given inputs and seed.
    """
    layers = list(layers)
    if not layers:
        raise ValueError("at least one layer required")
    report = ErrorReport()
    for block, site, act, weight in layers:
        report.records.append(_analyze_site(block, site, act, weight, bits, noise_trials, seed))
    return report
