"""Staged blockwise quantization: rotations, scale training, GPTQ, corrections.

Per block, in order: (1) record floating-point targets, (2) train the paired
symmetric scales and the value-rotation parameter against the output MSE,
(3) quantize weights with Hessian-aware rounding, (4) train bias
corrections, unpaired scales, and clip factors.  Quantized outputs of block
k feed block k+1's calibration inputs so later blocks compensate earlier
errors; floating-point targets always come from the pristine model.

Only one block's parameters ever require gradients, which is the memory
contract that replaces full-model backpropagation: the allocation tracker
asserts the peak gradient footprint stays bounded by a single block.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from . import autodiff as ad
from .analysis import BlockMse, ErrorReport, emit_report
from .model import (
    ACT_SITES,
    BIAS_NAMES,
    WEIGHT_NAMES,
    BlockParams,
    BlockWeights,
    ModelBundle,
    QuantConfig,
    effective_weights,
    fold_norms,
    forward_fp_block,
    forward_quant_block,
    fuse_rres,
    mse,
)
from .optim import OptimizationError, OptimSchedule, ParamGroup, optimize
from .quantizers import gptq_quantize, search_clip
from .transforms import Rotation, compose_rres, hadamard_matrix, pca_basis, random_hadamard

__all__ = [
    "StageSchedule",
    "PipelineConfig",
    "BlockStats",
    "PipelineResult",
    "ABLATION_MODES",
    "mode_config",
    "compute_rres",
    "build_rres",
    "prepare_bundle",
    "quantize_blockwise",
    "site_layers",
    "run_pipeline",
    "ablate",
]

#: Table-row order of the ablation feature ladder; each mode trains a
#: superset of the previous mode's parameters.
ABLATION_MODES = ("rotation-only", "learned-rv", "bias", "unpaired-scale", "scale")

_ALPHA_MIN = 1e-3
_SCALE_MIN = 1e-6


@dataclass(frozen=True)
class StageSchedule:
    """Training schedule; learning rates follow the deployment defaults
    (1e-2 for scaling and clipping, 1e-3 for bias, cosine-decayed)."""

    stage1_epochs: int = 3
    stage2_epochs: int = 5
    steps_per_epoch: int = 10
    lr_scale: float = 1e-2
    lr_bias: float = 1e-3
    lr_clip: float = 1e-2


@dataclass(frozen=True)
class PipelineConfig:
    qcfg: QuantConfig
    schedule: StageSchedule = StageSchedule()
    rres_kind: str = "pca-hadamard"  # pca-hadamard | hadamard | random-hadamard
    rres_seed: int = 0
    train_rv: bool = True
    train_scale: bool = True
    train_bias: bool = True
    train_unpaired: bool = True
    train_clip: bool = True
    gptq_damp: float = 0.01
    with_report: bool = True

    def __post_init__(self):
        if self.rres_kind not in ("pca-hadamard", "hadamard", "random-hadamard"):
            raise ValueError(f"unknown rres kind {self.rres_kind!r}")


def mode_config(base: PipelineConfig, mode: str) -> PipelineConfig:
    """Feature toggles for one ablation mode."""
    if mode not in ABLATION_MODES:
        raise ValueError(f"unknown ablation mode {mode!r} (choose from {ABLATION_MODES})")
    ladder = {
        "rotation-only": {},
        "learned-rv": {"train_rv"},
        "bias": {"train_rv", "train_bias", "train_clip"},
        "unpaired-scale": {"train_rv", "train_bias", "train_clip", "train_unpaired"},
        "scale": {"train_rv", "train_bias", "train_clip", "train_unpaired", "train_scale"},
    }[mode]
    flags = {
        f: (f in ladder)
        for f in ("train_rv", "train_scale", "train_bias", "train_unpaired", "train_clip")
    }
    return replace(base, **flags)


@dataclass
class BlockStats:
    block: int
    mse_baseline: float  # neutral parameters, round-to-nearest weights
    mse_after_gptq: float
    mse_final: float
    stage1_losses: list = field(default_factory=list)
    stage2_losses: list = field(default_factory=list)


@dataclass
class PipelineResult:
    bundle: ModelBundle
    params: list  # BlockParams per block
    report: ErrorReport
    rotation: Rotation
    block_stats: list
    final_mse: float
    grad_peak_elements: int
    max_block_param_elements: int


def compute_rres(bundle: ModelBundle) -> Rotation:
    """Residual rotation from the covariance of all residual-reading weights."""
    if not bundle.meta["norms_folded"]:
        raise RuntimeError("fold norms first")
    readers = []
    for bw in bundle.blocks:
        readers.extend([bw.wq, bw.wk, bw.wv, bw.wgate, bw.wup])
    return compose_rres(pca_basis(readers))


def build_rres(bundle: ModelBundle, cfg: PipelineConfig) -> Rotation:
    n = bundle.config.hidden
    if cfg.rres_kind == "hadamard":
        return Rotation(hadamard_matrix(n))
    if cfg.rres_kind == "random-hadamard":
        return random_hadamard(n, cfg.rres_seed)
    return compute_rres(bundle)


def prepare_bundle(bundle: ModelBundle, cfg: PipelineConfig):
    """Fold norms, choose the residual rotation, fuse it into the weights."""
    folded = fold_norms(bundle)
    rotation = build_rres(folded, cfg)
    return fuse_rres(folded, rotation), rotation


def _clip(lo, hi):
    def project(v):
        return np.clip(v, lo, hi)

    return project


def _clip_seeds(sites, qcfg: QuantConfig):
    """Clip-factor seeds from the grid-searched threshold, one search per site.

    alpha maps the searched absolute threshold onto the observed dynamic
    range of each site's pooled samples.  Returns {BlockParams field: alpha}
    for the sites whose samples support a search.
    """
    targets = [("alpha_" + s, s, qcfg.act) for s in ACT_SITES]
    targets += [("alpha_k", "k_cache", qcfg.kv), ("alpha_v", "v_cache", qcfg.kv)]
    seeds = {}
    for attr, site, spec in targets:
        if spec is None:
            continue
        samples = sites[site + ".in"].ravel()
        if samples.size > 200_000:
            samples = samples[:: samples.size // 200_000 + 1]
        if samples.size < 1000 or samples.std() == 0.0:
            continue
        theta = search_clip(samples, spec.bits)
        limit = float(np.max(np.abs(samples)))
        if limit > 0.0:
            seeds[attr] = np.float64(np.clip(theta / limit, _ALPHA_MIN, 1.0))
    return seeds


def _stage1(bundle, index, bp, qcfg, x_in, y_fp, cfg):
    """Train paired scales and the value-rotation parameter (pre-GPTQ)."""
    groups = []
    if cfg.train_scale:
        s_o = ad.parameter(bp.s_o)
        s_down = ad.parameter(bp.s_down)
        bp.s_o, bp.s_down = s_o, s_down
        groups.append(ParamGroup([s_o, s_down], cfg.schedule.lr_scale, project=_clip(_SCALE_MIN, np.inf)))
    if cfg.train_rv:
        a_v = ad.parameter(bp.a_v)
        bp.a_v = a_v
        groups.append(ParamGroup([a_v], cfg.schedule.lr_scale))
    if not groups:
        return []

    def loss_fn():
        y = forward_quant_block(bundle, index, bp, qcfg, x_in)
        return mse(y, y_fp)

    sched = OptimSchedule(steps=cfg.schedule.stage1_epochs * cfg.schedule.steps_per_epoch)
    result = optimize(loss_fn, groups, sched)
    for name in ("s_o", "s_down", "a_v"):
        setattr(bp, name, np.array(ad.value_of(getattr(bp, name)), copy=True))
    return result.losses


def _seed_bias(bp: BlockParams, sites):
    """Seed bias corrections at the measured channel means of each site input.

    The gradient steps then refine them; starting at the means is what makes
    the correction cancel the variance-of-means term outright.
    """
    for site in ACT_SITES:
        setattr(bp, "bc_" + site, sites[site + ".in"].mean(axis=0))
    return bp


def _stage2(bundle, index, bp, qcfg, x_in, y_fp, weights_q, cfg):
    """Train bias corrections, unpaired scales, and clip factors (post-GPTQ)."""
    if qcfg.act is None and qcfg.kv is None:
        return []  # corrections only touch activation/cache quantizers
    if cfg.train_clip or cfg.train_bias:
        _, sites = _block_eval(bundle, index, bp, qcfg, x_in, weights_q, collect=True)
        # candidate starts: bias and clip seeds evaluated separately so a
        # poor seed on one family cannot discard a good seed on the other;
        # the neutral candidate keeps the stage from regressing past the
        # post-GPTQ loss
        candidates = [bp.as_arrays()]
        if cfg.train_bias and qcfg.act is not None:
            candidates.append(_seed_bias(bp.as_arrays(), sites))
        if cfg.train_clip:
            seeds = _clip_seeds(sites, qcfg)
            candidates.extend([replace(c, **seeds) for c in candidates])
        scores = [
            _block_mse(bundle, index, c, qcfg, x_in, y_fp, weights_q) for c in candidates
        ]
        best = candidates[int(np.argmin(scores))]
        for k in vars(best):
            setattr(bp, k, getattr(best, k))

    groups = []
    if cfg.train_bias:
        bias = [ad.parameter(getattr(bp, f)) for f in ("bc_qkv", "bc_o", "bc_up", "bc_down")]
        for f, p in zip(("bc_qkv", "bc_o", "bc_up", "bc_down"), bias):
            setattr(bp, f, p)
        groups.append(ParamGroup(bias, cfg.schedule.lr_bias))
    if cfg.train_unpaired:
        sa = [ad.parameter(getattr(bp, f)) for f in ("sa_o", "sa_down")]
        for f, p in zip(("sa_o", "sa_down"), sa):
            setattr(bp, f, p)
        groups.append(ParamGroup(sa, cfg.schedule.lr_scale, project=_clip(_SCALE_MIN, np.inf)))
    if cfg.train_clip:
        alphas = [ad.parameter(getattr(bp, f)) for f in BlockParams.ALPHA_FIELDS]
        for f, p in zip(BlockParams.ALPHA_FIELDS, alphas):
            setattr(bp, f, p)
        groups.append(ParamGroup(alphas, cfg.schedule.lr_clip, project=_clip(_ALPHA_MIN, 1.0)))
    if not groups:
        return []

    def loss_fn():
        y = forward_quant_block(bundle, index, bp, qcfg, x_in, weight_override=weights_q)
        return mse(y, y_fp)

    sched = OptimSchedule(steps=cfg.schedule.stage2_epochs * cfg.schedule.steps_per_epoch)
    result = optimize(loss_fn, groups, sched)
    for f in bp.__dataclass_fields__:
        setattr(bp, f, np.array(ad.value_of(getattr(bp, f)), copy=True))
    return result.losses


def _block_eval(bundle, index, bp, qcfg, x_in, weights_q, collect=False):
    rec = {} if collect else None
    y = forward_quant_block(bundle, index, bp, qcfg, x_in, weight_override=weights_q, rec=rec)
    return ad.value_of(y), rec


def _block_mse(bundle, index, bp, qcfg, x_in, y_fp, weights_q=None):
    y, _ = _block_eval(bundle, index, bp, qcfg, x_in, weights_q)
    return float(np.mean((y - y_fp) ** 2))


def quantize_blockwise(bundle: ModelBundle, calib, cfg: PipelineConfig):
    """Quantize a prepared (norm-folded, rotation-fused) bundle block by block.

    `calib` is [sequences x seq_len x hidden] in the rotated basis.
    Returns a PipelineResult whose bundle stores fully fused, lattice-valued
    weights; the returned BlockParams carry the trained corrections applied
    online at inference (b^c, s^a, alpha).
    """
    calib = np.asarray(calib, dtype=np.float64)
    if calib.ndim != 3 or calib.size == 0:
        raise ValueError("calibration must be a nonempty [sequences x seq_len x hidden] tensor")
    if calib.shape[-1] != bundle.config.hidden:
        raise ValueError(f"calibration width {calib.shape[-1]} != hidden {bundle.config.hidden}")
    if not (bundle.meta["norms_folded"] and bundle.meta["rres_fused"]):
        raise RuntimeError("bundle must be norm-folded and rotation-fused (see prepare_bundle)")

    qcfg = cfg.qcfg
    config = bundle.config
    ad.GRAD_TRACKER.reset()

    # floating-point targets from the pristine chain
    fp_out = []
    x = calib
    for i in range(len(bundle.blocks)):
        x = ad.value_of(forward_fp_block(bundle, i, x))
        fp_out.append(x)

    out_blocks = []
    all_params = []
    stats = []
    x_q = calib
    for i, bw in enumerate(bundle.blocks):
        bp = BlockParams.neutral(config)
        y_fp = fp_out[i]

        baseline = _block_mse(bundle, i, bp, qcfg, x_q, y_fp)
        try:
            s1_losses = _stage1(bundle, i, bp, qcfg, x_q, y_fp, cfg)
        except OptimizationError as err:
            raise OptimizationError(f"block {i}, scale/rotation stage: {err}") from err

        weights_q = _gptq_block(bundle, i, bp, qcfg, x_q, cfg)
        after_gptq = _block_mse(bundle, i, bp, qcfg, x_q, y_fp, weights_q)

        try:
            s2_losses = _stage2(bundle, i, bp, qcfg, x_q, y_fp, weights_q, cfg)
        except OptimizationError as err:
            raise OptimizationError(f"block {i}, correction stage: {err}") from err
        final = _block_mse(bundle, i, bp, qcfg, x_q, y_fp, weights_q)

        x_q, _ = _block_eval(bundle, i, bp, qcfg, x_q, weights_q)
        out_blocks.append(_finalize_block(bw, weights_q))
        all_params.append(bp.as_arrays())
        stats.append(BlockStats(i, baseline, after_gptq, final, s1_losses, s2_losses))

    out = ModelBundle(config, out_blocks, dict(bundle.meta))
    out.meta["rv_scale_fused"] = True
    out.meta["weights_quantized"] = qcfg.weight is not None

    max_block = max(bp.n_params() for bp in all_params)
    peak = ad.GRAD_TRACKER.peak
    if peak > max_block:
        raise AssertionError(
            f"gradient footprint {peak} exceeds one block's parameters ({max_block})"
        )

    final_mse = float(np.mean((x_q - fp_out[-1]) ** 2))
    if cfg.with_report:
        report = _pipeline_report(out, all_params, qcfg, calib, stats)
    else:
        report = ErrorReport(blocks=[BlockMse(s.block, s.mse_baseline, s.mse_after_gptq, s.mse_final) for s in stats])
    return PipelineResult(
        bundle=out,
        params=all_params,
        report=report,
        rotation=None,
        block_stats=stats,
        final_mse=final_mse,
        grad_peak_elements=peak,
        max_block_param_elements=max_block,
    )


def _gptq_block(bundle, index, bp, qcfg, x_in, cfg):
    """Hessian-aware rounding of one block's effective weights.

    Returns the full effective weight/bias dict with the seven matrices
    replaced by their lattice versions (biases stay floating point).
    """
    bw = bundle.blocks[index]
    eff = effective_weights(bw, bp, bundle.config)
    eff = {k: None if v is None else np.asarray(ad.value_of(v)) for k, v in eff.items()}
    if qcfg.weight is None:
        return eff
    rec = {}
    forward_quant_block(bundle, index, bp, qcfg, x_in, rec=rec)  # round-to-nearest weights
    for site, weight_names in ACT_SITES.items():
        x_site = rec[site + ".lin"]
        for name in weight_names:
            eff[name] = gptq_quantize(eff[name], x_site, qcfg.weight, damp=cfg.gptq_damp)
    return eff


def _finalize_block(bw: BlockWeights, weights_q) -> BlockWeights:
    out = bw.copy()
    for name in WEIGHT_NAMES + BIAS_NAMES:
        w = weights_q[name]
        setattr(out, name, None if w is None else np.array(w, copy=True))
    return out


def site_layers(bundle: ModelBundle, params, qcfg: QuantConfig, x):
    """Quantizer-site inputs of a quantized forward, as analysis-report rows.

    Returns (block, site, activations, weight) tuples: blocks in order, and
    within a block the sites sorted by name.  `activations` is the site's
    [tokens x channels] input and `weight` stacks the matrices the site
    feeds (None for the cache sites).
    """
    layers = []
    for i, bp in enumerate(params):
        rec = {}
        x = ad.value_of(forward_quant_block(bundle, i, bp, qcfg, x, rec=rec))
        for key in sorted(k for k in rec if k.endswith(".in")):
            site = key[: -len(".in")]
            names = ACT_SITES.get(site)
            weight = np.vstack([getattr(bundle.blocks[i], nm) for nm in names]) if names else None
            layers.append((i, site, rec[key], weight))
    return layers


def _pipeline_report(bundle_q, params, qcfg, calib, stats) -> ErrorReport:
    layers = site_layers(bundle_q, params, qcfg, calib)
    report = emit_report(layers, bits=qcfg.act.bits if qcfg.act else 4)
    report.blocks = [BlockMse(s.block, s.mse_baseline, s.mse_after_gptq, s.mse_final) for s in stats]
    return report


def run_pipeline(bundle: ModelBundle, calib, cfg: PipelineConfig) -> PipelineResult:
    """End-to-end: prepare the bundle, rotate the calibration set, quantize.

    `calib` is [sequences x seq_len x hidden] in the original basis.
    """
    prepared, rotation = prepare_bundle(bundle, cfg)
    calib = np.asarray(calib, dtype=np.float64)
    calib_rot = rotation.apply(calib)
    result = quantize_blockwise(prepared, calib_rot, cfg)
    result.rotation = rotation
    return result


def ablate(bundle: ModelBundle, calib, cfg: PipelineConfig, modes=None):
    """Run the pipeline once per ablation mode; returns per-mode final MSE.

    Each mode is an independent run (a single mode returns exactly what a
    direct quantize call with that configuration returns).
    """
    modes = list(modes) if modes is not None else list(ABLATION_MODES)
    rows = []
    for mode in modes:
        result = run_pipeline(bundle, calib, mode_config(cfg, mode))
        rows.append({"mode": mode, "final_mse": result.final_mse})
    return rows
