"""Staged blockwise quantization: rotations, scale training, GPTQ, corrections.

Per block, in order: (1) compute its floating-point target, (2) train the
paired symmetric scales and the value-rotation parameter against the output
MSE, (3) quantize weights with Hessian-aware rounding, (4) train bias
corrections, unpaired scales, and clip factors, (5) run one final forward,
whose site inputs the report analyses before the next block starts.
Quantized outputs of block k feed block k+1's calibration inputs so later
blocks compensate earlier errors; floating-point targets always come from
the pristine model.

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


def _train(bp: BlockParams, groups, loss_fn, steps, label):
    """Train groups of bp fields in place; returns the loss curve.

    `groups` holds (field names, learning rate, (lo, hi) bounds or None)
    triples, or None for a group that is switched off.  The fields become
    Vars for the run, and the best values are written back as arrays.  A
    NaN loss is re-raised under `label`.
    """
    groups = [g for g in groups if g is not None]
    param_groups = []
    for names, lr, bounds in groups:
        params = [ad.parameter(getattr(bp, f)) for f in names]
        for f, p in zip(names, params):
            setattr(bp, f, p)
        param_groups.append(ParamGroup(params, lr, project=None if bounds is None else _clip(*bounds)))
    if not param_groups:
        return []
    try:
        result = optimize(loss_fn, param_groups, OptimSchedule(steps=steps))
    except OptimizationError as err:
        raise OptimizationError(f"{label}: {err}") from err
    for names, _, _ in groups:
        for f in names:
            setattr(bp, f, np.array(ad.value_of(getattr(bp, f)), copy=True))
    return result.losses


def _seed_bias(bp: BlockParams, sites):
    """Seed bias corrections at the measured channel means of each site input.

    The gradient steps then refine them; starting at the means is what makes
    the correction cancel the variance-of-means term outright.
    """
    for site in ACT_SITES:
        setattr(bp, "bc_" + site, sites[site + ".in"].mean(axis=0))
    return bp


def _quantize_block(bundle, i, x_fp, x_q, cfg):
    """Fit block i against its floating-point target, then fix it.

    Stages: baseline, (1) paired scales and value rotation, GPTQ, (2) bias
    corrections, unpaired scales and clip factors.  Returns (FP output,
    quantized output, BlockParams, quantized weights, BlockStats, report
    records); the records are empty unless cfg.with_report.
    """
    qcfg, sched = cfg.qcfg, cfg.schedule
    y_fp = ad.value_of(forward_fp_block(bundle, i, x_fp))
    bp = BlockParams.neutral(bundle.config)

    def forward(params, weights=None, rec=None):
        y = ad.value_of(forward_quant_block(bundle, i, params, qcfg, x_q, weight_override=weights, rec=rec))
        return y, mse(y, y_fp)

    def loss(weights):
        return lambda: mse(forward_quant_block(bundle, i, bp, qcfg, x_q, weight_override=weights), y_fp)

    _, baseline = forward(bp)
    positive = (_SCALE_MIN, np.inf)
    groups = [
        (("s_o", "s_down"), sched.lr_scale, positive) if cfg.train_scale else None,
        (("a_v",), sched.lr_scale, None) if cfg.train_rv else None,
    ]
    steps = sched.stage1_epochs * sched.steps_per_epoch
    s1_losses = _train(bp, groups, loss(None), steps, f"block {i}, scale/rotation stage")

    weights_q = _gptq_block(bundle, i, bp, qcfg, x_q, cfg)
    # corrections only touch activation/cache quantizers
    correcting = qcfg.act is not None or qcfg.kv is not None
    sites = {} if correcting and (cfg.train_clip or cfg.train_bias) else None
    _, after_gptq = forward(bp, weights_q, sites)

    s2_losses = []
    if correcting:
        if sites is not None:
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
            scores = [after_gptq] + [forward(c, weights_q)[1] for c in candidates[1:]]
            bp = candidates[int(np.argmin(scores))]
            del sites  # free the records before stage 2 builds its graphs
        groups = [
            (("bc_qkv", "bc_o", "bc_up", "bc_down"), sched.lr_bias, None) if cfg.train_bias else None,
            (("sa_o", "sa_down"), sched.lr_scale, positive) if cfg.train_unpaired else None,
            (BlockParams.ALPHA_FIELDS, sched.lr_clip, (_ALPHA_MIN, 1.0)) if cfg.train_clip else None,
        ]
        steps = sched.stage2_epochs * sched.steps_per_epoch
        s2_losses = _train(bp, groups, loss(weights_q), steps, f"block {i}, correction stage")

    rec = {} if cfg.with_report else None
    y_q, final = forward(bp, weights_q, rec)
    records = []
    if rec is not None:
        bits = qcfg.act.bits if qcfg.act else 4
        records = emit_report(_site_rows(i, rec, weights_q), bits=bits).records
    stats = BlockStats(i, baseline, after_gptq, final, s1_losses, s2_losses)
    return y_fp, y_q, bp.as_arrays(), weights_q, stats, records


def quantize_blockwise(bundle: ModelBundle, calib, cfg: PipelineConfig):
    """Quantize a prepared (norm-folded, rotation-fused) bundle block by block.

    `calib` is [sequences x seq_len x hidden] in the rotated basis.
    Returns a PipelineResult whose bundle stores fully fused, lattice-valued
    weights; the returned BlockParams carry the trained corrections applied
    online at inference (b^c, s^a, alpha).  With cfg.with_report, each
    block's quantizer sites are analysed from its final forward.
    """
    calib = np.asarray(calib, dtype=np.float64)
    if calib.ndim != 3 or calib.size == 0:
        raise ValueError("calibration must be a nonempty [sequences x seq_len x hidden] tensor")
    if calib.shape[-1] != bundle.config.hidden:
        raise ValueError(f"calibration width {calib.shape[-1]} != hidden {bundle.config.hidden}")
    if not (bundle.meta["norms_folded"] and bundle.meta["rres_fused"]):
        raise RuntimeError("bundle must be norm-folded and rotation-fused (see prepare_bundle)")

    ad.GRAD_TRACKER.reset()
    out_blocks, all_params, stats, records = [], [], [], []
    x_fp = x_q = calib  # floating-point targets always come from the pristine chain
    for i, bw in enumerate(bundle.blocks):
        x_fp, x_q, bp, weights_q, block_stats, block_records = _quantize_block(bundle, i, x_fp, x_q, cfg)
        out_blocks.append(_finalize_block(bw, weights_q))
        all_params.append(bp)
        stats.append(block_stats)
        records.extend(block_records)

    out = ModelBundle(bundle.config, out_blocks, dict(bundle.meta))
    out.meta["rv_scale_fused"] = True
    out.meta["weights_quantized"] = cfg.qcfg.weight is not None

    max_block = max(bp.n_params() for bp in all_params)
    peak = ad.GRAD_TRACKER.peak
    if peak > max_block:
        raise AssertionError(
            f"gradient footprint {peak} exceeds one block's parameters ({max_block})"
        )

    blocks = [BlockMse(s.block, s.mse_baseline, s.mse_after_gptq, s.mse_final) for s in stats]
    return PipelineResult(
        bundle=out,
        params=all_params,
        report=ErrorReport(records=records, blocks=blocks),
        rotation=None,
        block_stats=stats,
        final_mse=mse(x_q, x_fp),
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

    Returns the `_site_rows` of every block, blocks in order.
    """
    layers = []
    for i, bp in enumerate(params):
        rec = {}
        x = ad.value_of(forward_quant_block(bundle, i, bp, qcfg, x, rec=rec))
        layers.extend(_site_rows(i, rec, vars(bundle.blocks[i])))
    return layers


def _site_rows(index, rec, weights):
    """(block, site, activations, weight) rows of one block's site records.

    Sites are sorted by name.  `activations` is the site's [tokens x
    channels] input and `weight` stacks the matrices of `weights` that the
    site feeds (None for the cache sites).
    """
    rows = []
    for key in sorted(k for k in rec if k.endswith(".in")):
        site = key[: -len(".in")]
        names = ACT_SITES.get(site)
        weight = np.vstack([weights[nm] for nm in names]) if names else None
        rows.append((index, site, rec[key], weight))
    return rows


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
