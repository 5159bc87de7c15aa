"""Staged blockwise quantization: rotations, scale training, GPTQ, corrections.

Per block, in order: (1) compute its floating-point target, (2) train the
paired symmetric scales and the value-rotation parameter against the output
MSE, (3) quantize weights with Hessian-aware rounding on the site inputs
of the forward at step 2's parameters, (4) train bias corrections, unpaired
scales, and clip factors until 3 steps pass without a new best, (5) run
one final forward (the after-GPTQ forward when step 4 trains nothing),
whose site records the report analyses before the next block starts.
Quantized outputs of block k feed block k+1's calibration inputs so later
blocks compensate earlier errors; floating-point targets always come from
the pristine model.

Only one block's parameters ever require gradients, which is the memory
contract that replaces full-model backpropagation: the allocation tracker
asserts the peak gradient footprint stays bounded by a single block.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from . import autodiff as ad
from .analysis import BlockMse, ErrorReport, _site_numerics, emit_report
from .model import (
    ACT_SITES,
    BlockParams,
    BlockWeights,
    ModelBundle,
    QuantConfig,
    _attention_prefix,
    effective_weights,
    fold_norms,
    forward_fp_block,
    forward_quant_block,
    fuse_rres,
    mse,
)
from .optim import OptimizationError, ParamGroup, optimize
from .quantizers import gptq_quantize
from .transforms import Rotation, hadamard_matrix, pca_basis, random_hadamard

__all__ = [
    "StageSchedule",
    "PipelineConfig",
    "PipelineResult",
    "ABLATION_MODES",
    "RRES_KINDS",
    "mode_config",
    "prepare_bundle",
    "quantize_blockwise",
    "site_layers",
    "run_pipeline",
    "ablate",
]

#: The ablation feature ladder in table-row order: the training flags each
#: mode sets, a superset of the previous mode's; the last sets them all.
_LADDER = {
    "rotation-only": (),
    "learned-rv": ("train_rv",),
    "bias": ("train_rv", "train_bias", "train_clip"),
    "unpaired-scale": ("train_rv", "train_bias", "train_clip", "train_unpaired"),
    "scale": ("train_rv", "train_bias", "train_clip", "train_unpaired", "train_scale"),
}
ABLATION_MODES = tuple(_LADDER)
RRES_KINDS = ("pca-hadamard", "hadamard", "random-hadamard")

_ALPHA_MIN = 1e-3
_SCALE_MIN = 1e-6
#: stage 2 ends after this many steps without a new best (see StageSchedule)
_STAGE2_PATIENCE = 3
#: A training loss over at least this many tokens (and two sequences) is two
#: sequence shards, the second in a forked worker (`_training_parts`).  One
#: stage-1 step (loss and backward, default block 0; 2 vCPU, one BLAS thread;
#: two runs) as one graph vs two shards, by token count:
#:     64: 0.96-1.07x   128: 0.88-1.17x   256: 1.42-1.47x
#:    512: 1.81-1.91x   1024: 1.84-1.91x (57.6-67.1 vs 30.1-36.4 ms)
_SHARD_MIN_TOKENS = 512


@dataclass(frozen=True)
class StageSchedule:
    """Training schedule; learning rates follow the deployment defaults
    (1e-2 for scaling and clipping, 1e-3 for bias, cosine-decayed).

    Stage 2 ends once `_STAGE2_PATIENCE` (3) steps pass without a new
    best; stage 1 always runs all its steps.  The rule was chosen on the
    toy, against the earlier patience of 10: over the default config at
    seeds 0-39 (80 stage-2 fits), a fit keeps its result exactly when no
    two consecutive new bests lie more than 3 steps apart, as in 73 fits.
    The outputs of 33 seeds stay byte-identical; the other 7 (12, 14, 27,
    29, 31, 33, 39) move held-out MSE by -5.5% to +15.6%, +0.6% in
    geometric mean over all 40, and `quantize` takes about a fifth less
    time.  No patience below 10 keeps all 40 seeds.  On TINY it changes
    17 of criterion 09's 200 fits, +0.40% in geometric mean.  Stage 1's
    best steps fall at 12-30 of 30 (seeds 0-9, 20 fits), so it is not cut.
    """

    stage1_epochs: int = 3
    stage2_epochs: int = 5
    steps_per_epoch: int = 10
    lr_scale: float = 1e-2
    lr_bias: float = 1e-3
    lr_clip: float = 1e-2

    def __post_init__(self):
        for name in ("stage1_epochs", "stage2_epochs", "steps_per_epoch"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name}: must be >= 0, got {getattr(self, name)}")
        for name in ("lr_scale", "lr_bias", "lr_clip"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name}: must be > 0, got {getattr(self, name)}")


@dataclass(frozen=True)
class PipelineConfig:
    qcfg: QuantConfig
    schedule: StageSchedule = StageSchedule()
    rres_kind: str = "pca-hadamard"  # one of RRES_KINDS
    rres_seed: int = 0
    train_rv: bool = True
    train_scale: bool = True
    train_bias: bool = True
    train_unpaired: bool = True
    train_clip: bool = True
    with_report: bool = True

    def __post_init__(self):
        if self.rres_kind not in RRES_KINDS:
            kinds = ", ".join(RRES_KINDS)
            raise ValueError(f"rres_kind: unknown kind {self.rres_kind!r} (choose from {kinds})")


def mode_config(base: PipelineConfig, mode: str) -> PipelineConfig:
    """Feature toggles for one ablation mode."""
    if mode not in _LADDER:
        raise ValueError(f"mode: unknown ablation mode {mode!r} (choose from {', '.join(ABLATION_MODES)})")
    return replace(base, **{flag: flag in _LADDER[mode] for flag in _LADDER[ABLATION_MODES[-1]]})


@dataclass
class PipelineResult:
    bundle: ModelBundle
    params: list  # BlockParams per block
    report: ErrorReport
    final_mse: float
    grad_peak_elements: int
    max_block_param_elements: int


def prepare_bundle(bundle: ModelBundle, cfg: PipelineConfig) -> ModelBundle:
    """Fold norms, choose the residual rotation, fuse it into the weights.

    The rotation is H, a random-sign H, or ("pca-hadamard") U @ H with U
    the principal basis of the folded residual readers.  The returned
    bundle holds the rotation it fused (`rotation`).
    """
    if bundle.rotation is not None:
        raise RuntimeError("the bundle already has a residual rotation fused in; pass the original model")
    folded = fold_norms(bundle)
    n = bundle.config.hidden
    if cfg.rres_kind == "hadamard":
        rotation = Rotation(hadamard_matrix(n))
    elif cfg.rres_kind == "random-hadamard":
        rotation = random_hadamard(n, cfg.rres_seed)
    else:
        readers = [getattr(bw, name) for bw in folded.blocks for name in ACT_SITES["qkv"] + ACT_SITES["up"]]
        rotation = Rotation(pca_basis(readers) @ hadamard_matrix(n))
    return fuse_rres(folded, rotation)


def _train(bp: BlockParams, groups, parts, steps, label, patience=None):
    """Train groups of bp fields in place on the sum of `parts`.

    `groups` holds (field names, learning rate, (lo, hi) bounds or None)
    triples, or None for a group that is switched off.  The fields become
    Vars for the run, and the best values are written back as arrays.  A
    NaN loss is re-raised under `label`; `patience` is `optimize`'s.
    """
    groups = [g for g in groups if g is not None]
    param_groups = []
    for names, lr, bounds in groups:
        params = [ad.parameter(getattr(bp, f)) for f in names]
        for f, p in zip(names, params):
            setattr(bp, f, p)
        param_groups.append(ParamGroup(params, lr, bounds))
    try:
        with ad.parallel_parts(parts, [p for grp in param_groups for p in grp.params]) as loss_fn:
            optimize(loss_fn, param_groups, steps, patience=patience)
    except OptimizationError as err:
        raise OptimizationError(f"{label}: {err}") from err
    for names, _, _ in groups:
        for f in names:
            setattr(bp, f, np.array(ad.value_of(getattr(bp, f)), copy=True))


def _seed_bias(bp: BlockParams, sites):
    """Seed bias corrections at the measured channel means of each site input.

    The gradient steps then refine them; starting at the means is what makes
    the correction cancel the variance-of-means term outright.
    """
    for site in ACT_SITES:
        setattr(bp, "bc_" + site, sites[site + ".in"].mean(axis=0))
    return bp


def _quantize_block(bundle, out, i, x_fp, x_q, cfg):
    """Fit block i of `bundle` against its floating-point target, then fix it.

    Stages: baseline, (1) paired scales and value rotation, GPTQ, (2) bias
    corrections, unpaired scales and clip factors.  Each parameter state
    runs one forward, whose site records feed what follows it.  Until GPTQ
    the forwards round the block's effective weights on the fly; GPTQ
    appends the quantized block to the output bundle `out`, and every later
    forward runs it from there, as `rotquant eval` runs the written file.
    Returns (FP output, quantized output, BlockParams, BlockMse, report
    records); the records are empty unless cfg.with_report.
    """
    qcfg, sched = cfg.qcfg, cfg.schedule
    y_fp = ad.value_of(forward_fp_block(bundle, i, x_fp))
    bp = BlockParams.neutral(bundle.config)

    def forward(source, params, rec=None):
        y = ad.value_of(forward_quant_block(source, i, params, qcfg, x_q, rec=rec))
        return y, mse(y, y_fp)

    rec = {}
    _, baseline = forward(bundle, bp, rec)
    positive = (_SCALE_MIN, np.inf)
    groups = [
        (("s_o", "s_down"), sched.lr_scale, positive) if cfg.train_scale else None,
        (("a_v",), sched.lr_scale, None) if cfg.train_rv else None,
    ]
    if any(groups):
        rec = {}  # free the baseline records while stage 1 trains
        # no stage-1 field reaches the attention prefix: once per shard, freed with the fit
        prefixes = [_attention_prefix(bundle, i, bp, qcfg, x_q[s]) for s in _shards(x_q)]
        steps = sched.stage1_epochs * sched.steps_per_epoch
        parts = _training_parts(bundle, i, bp, qcfg, x_q, y_fp, prefixes)
        _train(bp, groups, parts, steps, f"block {i}, scale/rotation stage")
        del parts, prefixes
        forward(bundle, bp, rec)

    # stage 2 trains none of the fields effective_weights reads
    eff = effective_weights(bundle.blocks[i], bp, bundle.config)
    out.blocks.append(_gptq_block(eff, rec, qcfg.weight))

    def group(on, names, lr, bounds):  # only the fields an enabled quantizer reads
        names = tuple(f for f in names if (qcfg.kv if f in ("alpha_k", "alpha_v") else qcfg.act) is not None)
        return (names, lr, bounds) if on and names else None

    groups = [
        group(cfg.train_bias, ("bc_qkv", "bc_o", "bc_up", "bc_down"), sched.lr_bias, None),
        group(cfg.train_unpaired, ("sa_o", "sa_down"), sched.lr_scale, positive),
        group(cfg.train_clip, BlockParams.ALPHA_FIELDS, sched.lr_clip, (_ALPHA_MIN, 1.0)),
    ]
    rec = {}
    y_q, after_gptq = forward(out, bp, rec)
    final = after_gptq

    # without a field to train the after-GPTQ forward is also the final one
    if any(groups):
        # start at the bias seed only when it scores below the neutral
        # point, so the stage cannot end above the after-GPTQ loss
        if cfg.train_bias and qcfg.act is not None:
            seeded = _seed_bias(bp.as_arrays(), rec)
            if forward(out, seeded)[1] < after_gptq:
                bp = seeded
        rec = {}  # free the records before stage 2 builds its graphs
        steps = sched.stage2_epochs * sched.steps_per_epoch
        parts = _training_parts(out, i, bp, qcfg, x_q, y_fp)
        _train(bp, groups, parts, steps, f"block {i}, correction stage", patience=_STAGE2_PATIENCE)
        y_q, final = forward(out, bp, rec)

    records = []
    if cfg.with_report:
        rows = _site_rows(i, rec, vars(out.blocks[i]))
        records = emit_report([(*row, _measured_noise_var(rec, *row, eff)) for row in rows], qcfg).records
    return y_fp, y_q, bp.as_arrays(), BlockMse(i, baseline, after_gptq, final), records


def _shards(x):
    """The sequence slices a training loss on x is built from: all of x under
    `_SHARD_MIN_TOKENS` tokens or two sequences, else its two halves.  The
    split depends on x's shape alone, never on the CPU count."""
    sequences, seq_len = x.shape[:2]
    if sequences < 2 or sequences * seq_len < _SHARD_MIN_TOKENS:
        return [slice(0, sequences)]
    return [slice(0, sequences // 2), slice(sequences // 2, sequences)]


def _training_parts(source, i, bp, qcfg, x, y, prefixes=None):
    """The `ad.parallel_parts` parts whose sum is the output MSE of block i
    of `source` on x against y: the MSE of each of `_shards`, weighted by
    its token share.  Each shard runs its own forward, so the parts share
    no node but bp's parameters.  `prefixes` holds each shard's
    `forward_quant_block` prefix, or is None."""
    prefixes = prefixes or (None, None)

    def part(s, prefix):
        share = (s.stop - s.start) / len(x)
        return mse(forward_quant_block(source, i, bp, qcfg, x[s], prefix=prefix), y[s]) * share

    return [partial(part, s, prefix) for s, prefix in zip(_shards(x), prefixes)]


def quantize_blockwise(bundle: ModelBundle, calib, cfg: PipelineConfig):
    """Quantize a prepared (norm-folded, rotation-fused) bundle block by block.

    `calib` is [sequences x seq_len x hidden] in the rotated basis.
    Returns a PipelineResult whose bundle stores fully fused, lattice-valued
    weights; the returned BlockParams carry the trained corrections applied
    online at inference (b^c, s^a, alpha).  With cfg.with_report, each
    block's quantizer sites are analysed from its final forward.
    """
    calib = _calibration(calib, bundle.config.hidden)
    if not bundle.norms_folded or bundle.rotation is None or bundle.qcfg is not None:
        raise RuntimeError("bundle must be norm-folded, rotation-fused and not quantized (see prepare_bundle)")

    ad.GRAD_TRACKER.reset()
    out = ModelBundle(bundle.config, [], bundle.rotation, cfg.qcfg)
    all_params, blocks, records = [], [], []
    x_fp = x_q = calib  # floating-point targets always come from the pristine chain
    for i in range(len(bundle.blocks)):
        x_fp, x_q, bp, block_mse, block_records = _quantize_block(bundle, out, i, x_fp, x_q, cfg)
        all_params.append(bp)
        blocks.append(block_mse)
        records.extend(block_records)

    max_block = max(bp.n_params() for bp in all_params)
    peak = ad.GRAD_TRACKER.peak
    if peak > max_block:
        raise AssertionError(
            f"gradient footprint {peak} exceeds one block's parameters ({max_block})"
        )

    return PipelineResult(
        bundle=out,
        params=all_params,
        report=ErrorReport(records=records, blocks=blocks),
        final_mse=mse(x_q, x_fp),
        grad_peak_elements=peak,
        max_block_param_elements=max_block,
    )


def _calibration(calib, hidden):
    """`calib` as a float64 [sequences x seq_len x hidden] array, or a ValueError."""
    calib = np.asarray(calib, dtype=np.float64)
    if calib.ndim != 3 or calib.size == 0:
        raise ValueError("calibration must be a nonempty [sequences x seq_len x hidden] tensor")
    if calib.shape[-1] != hidden:
        raise ValueError(f"calibration width {calib.shape[-1]} != hidden {hidden}")
    return calib


def _gptq_block(eff, rec, spec) -> BlockWeights:
    """The quantized block: Hessian-aware rounding of one block's effective
    weights `eff`, with the site inputs `rec` recorded by the forward at the
    same parameters.

    The seven matrices sit on their lattice, with the raw scales of their
    rows in `scales`; biases stay floating point.  Without a weight
    quantizer the block holds `eff` as it is and no scales.  A site's
    matrices share its Hessian, so GPTQ rounds them stacked.
    """
    block = {name: None if v is None else np.array(v, dtype=np.float64) for name, v in eff.items()}
    if spec is None:
        return BlockWeights(**block)
    scales = {}
    for site, weight_names in ACT_SITES.items():
        mats = [eff[name] for name in weight_names]
        q, raw = gptq_quantize(np.concatenate(mats), rec[site + ".lin"], spec)
        cuts = np.cumsum([len(m) for m in mats[:-1]])
        block.update(zip(weight_names, np.split(q, cuts)))
        scales.update(zip(weight_names, np.split(raw, cuts)))
    return BlockWeights(**block, scales=scales)


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


def _measured_noise_var(rec, block, site, act, weight, weights_fp):
    """SiteRecord.measured_noise_var of a `_site_rows` row's linear (None for
    caches); a RuntimeError naming the site when it overflows."""
    names = ACT_SITES.get(site)
    if names is None:
        return None
    with _site_numerics(block, site):
        err = rec[site + ".lin"] @ weight.T
        err -= act @ np.vstack([weights_fp[nm] for nm in names]).T
        return float(np.mean(np.square(err, out=err)) / weight.shape[1])


def run_pipeline(bundle: ModelBundle, calib, cfg: PipelineConfig) -> PipelineResult:
    """End-to-end: prepare the bundle, rotate the calibration set, quantize.

    `calib` is [sequences x seq_len x hidden] in the original basis.
    """
    calib = _calibration(calib, bundle.config.hidden)  # before any work
    prepared = prepare_bundle(bundle, cfg)
    calib_rot = prepared.rotation.apply(calib)
    return quantize_blockwise(prepared, calib_rot, cfg)


def ablate(bundle: ModelBundle, calib, cfg: PipelineConfig, modes=None):
    """Run the pipeline once per ablation mode; returns per-mode final MSE.

    Each mode is an independent run without a report (a single mode returns
    the final_mse of a direct quantize call with that configuration).
    """
    modes = list(modes) if modes is not None else list(ABLATION_MODES)
    rows = []
    for mode in modes:
        result = run_pipeline(bundle, calib, replace(mode_config(cfg, mode), with_report=False))
        rows.append({"mode": mode, "final_mse": result.final_mse})
    return rows
