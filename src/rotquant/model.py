"""Desk-scale transformer blocks with explicit quantization sites.

Each block is RMSNorm -> multi-head causal attention -> RMSNorm -> gated
SiLU MLP, matching the decoder families the quantization scheme targets.
No rotary embeddings: the per-head QK rotation is applied directly to the
query/key activations, which exercises the same quantization mechanics
without the positional bookkeeping.

Rotation/scale bookkeeping (row-major convention, y = x @ W.T + b):

* residual rotation M: stream carries x @ M; readers absorb W @ M, writers
  absorb M.T @ W (and b @ M); RMSNorm gains must be folded first.
* per-head value rotation R and paired scale s (o path): the value weight
  becomes R.T @ diag(1/s) @ W_v per head and the o weight W_o @ diag(s) @ R
  per head, an exact cancellation.
* paired scale s for the down path: 1/s folds into the up-projection rows,
  s plus the online Hadamard fold into the down-projection columns.
* unpaired scale s^a and bias correction b^c act only inside the quantizer:
  u_hat = (FQ(s^a * u - b^c) + b^c) / s^a, which is the identity when the
  quantizer is disabled, for any parameter values.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, replace

import numpy as np

from . import autodiff as ad
from .autodiff import value_of
from .quantizers import QuantSpec, quantize_dynamic
from .transforms import Rotation, cayley, fwht, hadamard_matrix, is_power_of_two

__all__ = [
    "ModelConfig",
    "BlockWeights",
    "ModelBundle",
    "SynthSpec",
    "BlockParams",
    "QuantConfig",
    "WEIGHT_NAMES",
    "BIAS_NAMES",
    "ACT_SITES",
    "KV_SITES",
    "gen_synthetic",
    "gen_calibration",
    "build_toy_model",
    "fold_norms",
    "fuse_rres",
    "effective_weights",
    "forward_fp",
    "forward_fp_block",
    "forward_quant",
    "forward_quant_block",
    "mse",
]

WEIGHT_NAMES = ("wq", "wk", "wv", "wo", "wgate", "wup", "wdown")
BIAS_NAMES = ("bq", "bk", "bv", "bo", "bgate", "bup", "bdown")
#: activation quantizer sites; each feeds the listed weights
ACT_SITES = {"qkv": ("wq", "wk", "wv"), "o": ("wo",), "up": ("wgate", "wup"), "down": ("wdown",)}
KV_SITES = ("k_cache", "v_cache")


#: The largest array dimension numpy can index.
_MAX_DIM = np.iinfo(np.intp).max


@dataclass(frozen=True)
class ModelConfig:
    hidden: int = 64
    heads: int = 4
    mlp_dim: int = 256
    n_blocks: int = 2
    eps: float = 1e-6

    def __post_init__(self):
        for name in ("hidden", "mlp_dim"):  # the report's channel statistics need two channels
            if getattr(self, name) < 2:
                raise ValueError(f"{name}: must be >= 2, got {getattr(self, name)}")
        if self.heads < 1 or self.hidden % self.heads:
            raise ValueError(f"heads: hidden {self.hidden} not divisible by {self.heads}")
        if self.n_blocks < 1:
            raise ValueError(f"n_blocks: must be >= 1, got {self.n_blocks}")
        if not self.eps > 0:
            raise ValueError(f"eps: must be > 0, got {self.eps}")
        for name in ("hidden", "mlp_dim", "head_dim"):
            value = getattr(self, name)
            if not is_power_of_two(value):
                raise ValueError(f"{name}: dimension must be 2^k, got {value}")
            if value > _MAX_DIM:
                raise ValueError(f"{name}: dimension must be at most {_MAX_DIM}, got {value}")

    @property
    def head_dim(self) -> int:
        return self.hidden // self.heads


@dataclass
class BlockWeights:
    wq: np.ndarray
    wk: np.ndarray
    wv: np.ndarray
    wo: np.ndarray
    wgate: np.ndarray
    wup: np.ndarray
    wdown: np.ndarray
    bq: np.ndarray | None = None
    bk: np.ndarray | None = None
    bv: np.ndarray | None = None
    bo: np.ndarray | None = None
    bgate: np.ndarray | None = None
    bup: np.ndarray | None = None
    bdown: np.ndarray | None = None
    g_attn: np.ndarray | None = None
    g_mlp: np.ndarray | None = None
    #: {weight name: raw scale per row} of the weights that sit on their
    #: symmetric per-row lattice (QuantSpec.lattice)
    scales: dict | None = None


@dataclass
class ModelBundle:
    config: ModelConfig
    blocks: list
    #: the residual rotation fused into the weights (fuse_rres sets it)
    rotation: Rotation | None = None
    #: the quantizers the bundle was calibrated for (quantize_blockwise sets it);
    #: its value rotation and scales are then fused, its weights on their lattice
    qcfg: QuantConfig | None = None

    @property
    def norms_folded(self) -> bool:
        """No block holds a norm gain (fold_norms moved them into the weights)."""
        return all(bw.g_attn is None and bw.g_mlp is None for bw in self.blocks)


# -- synthetic data -----------------------------------------------------------


@dataclass(frozen=True)
class SynthSpec:
    """Gaussian bulk plus persistent outlier channels plus channel mean offsets."""

    channels: int
    tokens: int
    seed: int = 0
    outlier_channels: tuple = ()
    amplitudes: tuple = ()
    base_std: float = 1.0
    mean_offsets: object = None  # length-`channels` vector or None

    def __post_init__(self):
        if len(self.outlier_channels) != len(self.amplitudes):
            raise ValueError("one amplitude per outlier channel required")
        if len(self.outlier_channels) > self.channels // 16:
            raise ValueError(
                f"too many outlier channels: {len(self.outlier_channels)} > {self.channels // 16}"
            )
        for i in self.outlier_channels:
            if not 0 <= i < self.channels:
                raise ValueError(f"outlier channel {i} out of range [0, {self.channels})")
        for a in self.amplitudes:
            if not a > 1.0:
                raise ValueError(f"outlier amplitude must exceed 1, got {a}")
        if self.mean_offsets is not None and np.shape(self.mean_offsets) != (self.channels,):
            raise ValueError("mean_offsets must have one entry per channel")
        if not self.base_std > 0:
            raise ValueError(f"base_std: must be > 0, got {self.base_std}")

    @classmethod
    def misaligned(cls, channels, tokens, seed=0, offset_std=4.0, base_std=1.0, n_outliers=2):
        """Default synthetic model: strong channel-mean misalignment + outliers.

        Note that persistent outlier spikes are themselves channel-mean
        offsets; set both offset_std=0 and n_outliers=0 for a mean-aligned
        pure-Gaussian stream.
        """
        if not offset_std >= 0:
            raise ValueError(f"offset_std: must be >= 0, got {offset_std}")
        if n_outliers < 0:
            raise ValueError(f"n_outliers: must be >= 0, got {n_outliers}")
        rng = np.random.default_rng(seed + 7919)
        offsets = rng.normal(0.0, offset_std, size=channels) if offset_std > 0 else None
        k = min(n_outliers, channels // 16)
        outliers = tuple(rng.choice(channels, size=k, replace=False).tolist()) if k else ()
        amps = tuple(float(a) for a in rng.uniform(10.0, 24.0, size=k))
        return cls(
            channels=channels,
            tokens=tokens,
            seed=seed,
            outlier_channels=outliers,
            amplitudes=amps,
            base_std=base_std,
            mean_offsets=offsets,
        )


def gen_synthetic(spec: SynthSpec) -> np.ndarray:
    """Draw [tokens x channels] activations: x = g + sum_i a_i * delta * e_i."""
    rng = np.random.default_rng(spec.seed)
    loc = 0.0 if spec.mean_offsets is None else np.asarray(spec.mean_offsets, dtype=np.float64)
    x = rng.normal(0.0, spec.base_std, size=(spec.tokens, spec.channels)) + loc
    for i, a in zip(spec.outlier_channels, spec.amplitudes):
        x[:, i] += a * spec.base_std
    return x


def gen_calibration(spec: SynthSpec, sequences: int, seq_len: int) -> np.ndarray:
    """Synthetic calibration set shaped [sequences x seq_len x channels]."""
    full = replace(spec, tokens=sequences * seq_len)
    return gen_synthetic(full).reshape(sequences, seq_len, spec.channels)


# -- toy model ----------------------------------------------------------------


def build_toy_model(config: ModelConfig, seed: int, outlier_columns=0) -> ModelBundle:
    """Seeded random bundle with Xavier-style init and small random biases.

    Residual writers (wo, wdown) are shrunk by sqrt(2 * n_blocks) to keep
    the stacked output variance in the same decade as the input.
    Per-head value-path gains are drawn from [1/3, 3] (attention heads are
    never balanced in practice; the imbalance is what gives per-channel
    scaling at the o projection something to fix).
    `outlier_columns` scales up that many random input columns of wq and
    wdown to exercise Hessian-aware weight rounding.
    """
    rng = np.random.default_rng(seed)
    n, m = config.hidden, config.mlp_dim
    shrink = 1.0 / np.sqrt(2.0 * config.n_blocks)

    def draw(fan_out, fan_in, scale=1.0):
        std = np.sqrt(2.0 / (fan_in + fan_out))
        return rng.normal(0.0, std * scale, size=(fan_out, fan_in))

    blocks = []
    for _ in range(config.n_blocks):
        head_gain = np.exp(rng.uniform(-np.log(3.0), np.log(3.0), size=config.heads))
        wv = draw(n, n) * np.repeat(head_gain, config.head_dim)[:, None]
        bw = BlockWeights(
            wq=draw(n, n),
            wk=draw(n, n),
            wv=wv,
            wo=draw(n, n, shrink),
            wgate=draw(m, n),
            wup=draw(m, n),
            wdown=draw(n, m, shrink),
            g_attn=rng.uniform(0.7, 1.3, size=n),
            g_mlp=rng.uniform(0.7, 1.3, size=n),
            bq=rng.normal(0.0, 0.02, size=n),
            bk=rng.normal(0.0, 0.02, size=n),
            bv=rng.normal(0.0, 0.02, size=n),
            bo=rng.normal(0.0, 0.02, size=n),
            bgate=rng.normal(0.0, 0.02, size=m),
            bup=rng.normal(0.0, 0.02, size=m),
            bdown=rng.normal(0.0, 0.02, size=n),
        )
        if outlier_columns:
            for w, width in ((bw.wq, n), (bw.wdown, m)):
                cols = rng.choice(width, size=min(outlier_columns, width), replace=False)
                w[:, cols] *= 6.0
        blocks.append(bw)
    return ModelBundle(config, blocks)


# -- learnable per-block parameters --------------------------------------------


@dataclass
class BlockParams:
    """Per-block calibration parameters; fields may hold Vars during training."""

    bc_qkv: object
    bc_o: object
    bc_up: object
    bc_down: object
    s_o: object
    s_down: object
    sa_o: object
    sa_down: object
    alpha_qkv: object
    alpha_o: object
    alpha_up: object
    alpha_down: object
    alpha_k: object
    alpha_v: object
    a_v: object

    ALPHA_FIELDS = ("alpha_qkv", "alpha_o", "alpha_up", "alpha_down", "alpha_k", "alpha_v")

    @classmethod
    def neutral(cls, config: ModelConfig) -> "BlockParams":
        n, m, d = config.hidden, config.mlp_dim, config.head_dim
        return cls(
            bc_qkv=np.zeros(n),
            bc_o=np.zeros(n),
            bc_up=np.zeros(n),
            bc_down=np.zeros(m),
            s_o=np.ones(n),
            s_down=np.ones(m),
            sa_o=np.ones(n),
            sa_down=np.ones(m),
            alpha_qkv=np.float64(1.0),
            alpha_o=np.float64(1.0),
            alpha_up=np.float64(1.0),
            alpha_down=np.float64(1.0),
            alpha_k=np.float64(1.0),
            alpha_v=np.float64(1.0),
            a_v=np.zeros((d, d)),
        )

    def as_arrays(self) -> "BlockParams":
        """Snapshot with every field materialized as an ndarray."""
        vals = {k: np.array(value_of(getattr(self, k)), copy=True) for k in self.__dataclass_fields__}
        return BlockParams(**vals)

    def n_params(self) -> int:
        return sum(np.size(value_of(getattr(self, k))) for k in self.__dataclass_fields__)


@dataclass(frozen=True)
class QuantConfig:
    """Quantizer specs per site family; None means pass-through (no quantization)."""

    act: QuantSpec | None
    kv: QuantSpec | None
    weight: QuantSpec | None

    @classmethod
    def for_bits(cls, w_bits, a_bits, kv_bits, head_dim) -> "QuantConfig":
        """Paper-default granularities; bits >= 16 disables that quantizer."""
        for name, bits in (("w_bits", w_bits), ("a_bits", a_bits), ("kv_bits", kv_bits)):
            if not (2 <= bits <= 8 or bits >= 16):
                raise ValueError(f"{name}: must be 2..8 (or >= 16 for pass-through), got {bits}")

        def act(bits):
            return None if bits >= 16 else QuantSpec(bits, "asymmetric", "per-token")

        def kv(bits):
            return None if bits >= 16 else QuantSpec(bits, "asymmetric", "per-head", head_dim=head_dim)

        def wt(bits):
            return None if bits >= 16 else QuantSpec(bits, "symmetric", "per-channel")

        return cls(act=act(a_bits), kv=kv(kv_bits), weight=wt(w_bits))


# -- norm folding and rotation fusion ------------------------------------------


def fold_norms(bundle: ModelBundle) -> ModelBundle:
    """Fold RMSNorm gains into the adjacent input-side weights.

    Precondition for sharing one residual rotation across blocks: after
    folding, the norm is a pure x / rms(x), which commutes with rotation.
    The folded blocks hold no gains, so folding again changes nothing.
    """
    out = copy.deepcopy(bundle)
    for bw in out.blocks:
        for gain, readers in ((bw.g_attn, ACT_SITES["qkv"]), (bw.g_mlp, ACT_SITES["up"])):
            if gain is not None:
                for name in readers:
                    setattr(bw, name, getattr(bw, name) * gain[None, :])
        bw.g_attn = bw.g_mlp = None
    return out


def fuse_rres(bundle: ModelBundle, rotation: Rotation) -> ModelBundle:
    """Absorb the residual rotation into the weights.

    Residual readers (the qkv and up weights) take M on the input axis;
    residual writers (wo, wdown, and their biases) take M^T on the output
    axis.  The fused bundle consumes and produces the rotated stream.  On
    a bundle already rotated by M0, the fused rotation is M0 @ M.  A
    quantized bundle is refused: rotating would move its weights off their
    lattice.
    """
    if bundle.qcfg is not None:
        raise RuntimeError("the bundle is quantized; a rotation would move its weights off their lattice")
    if not bundle.norms_folded:
        raise RuntimeError("fold norms first")
    if rotation.dim != bundle.config.hidden:
        raise ValueError(f"rotation dim {rotation.dim} != hidden {bundle.config.hidden}")
    m = rotation.matrix
    out = copy.deepcopy(bundle)
    for bw in out.blocks:
        for name in ACT_SITES["qkv"] + ACT_SITES["up"]:
            setattr(bw, name, getattr(bw, name) @ m)
        bw.wo = m.T @ bw.wo
        bw.wdown = m.T @ bw.wdown
        if bw.bo is not None:
            bw.bo = bw.bo @ m
        if bw.bdown is not None:
            bw.bdown = bw.bdown @ m
    out.rotation = rotation if bundle.rotation is None else Rotation(bundle.rotation.matrix @ m)
    return out


def effective_weights(bw: BlockWeights, bp: BlockParams, config: ModelConfig):
    """Weights and biases with the value rotation and paired scales applied.

    Returns {name: array} for all of WEIGHT_NAMES and BIAS_NAMES (biases may
    be None).  The value bias rides the value path, so it is scaled and
    rotated along with wv; the up bias is scaled with wup.  Entries are Vars
    whenever the incoming parameters are Vars, keeping rotation and scale
    trainable.
    """
    out = {name: getattr(bw, name) for name in WEIGHT_NAMES + BIAS_NAMES}
    n, m, h, d = config.hidden, config.mlp_dim, config.heads, config.head_dim

    rv = cayley(bp.a_v, hadamard_matrix(d))
    rv_t = ad.swapaxes(rv, -1, -2)
    inv_s_o = 1.0 / bp.s_o
    wv_heads = ad.reshape(bw.wv, (h, d, n)) * ad.reshape(inv_s_o, (h, d, 1))
    out["wv"] = ad.reshape(ad.matmul(rv_t, wv_heads), (n, n))
    if bw.bv is not None:
        bv_heads = ad.reshape(bw.bv * inv_s_o, (h, 1, d))
        out["bv"] = ad.reshape(ad.matmul(bv_heads, rv), (n,))

    s_o_heads = ad.reshape(bp.s_o, (h, d))
    wo_heads = ad.reshape(bw.wo, (n, h, d)) * s_o_heads
    out["wo"] = ad.reshape(ad.matmul(wo_heads, rv), (n, n))

    inv_s_down = 1.0 / bp.s_down
    out["wup"] = bw.wup * ad.reshape(inv_s_down, (m, 1))
    if bw.bup is not None:
        out["bup"] = bw.bup * inv_s_down
    out["wdown"] = fwht(bw.wdown * ad.reshape(bp.s_down, (1, m)))
    return out


# -- forward passes -------------------------------------------------------------


def mse(a, b):
    """Mean squared error; differentiable when either side is a Var."""
    diff = a - b
    return ad.vmean(diff * diff) if isinstance(diff, ad.Var) else float(np.mean(diff * diff))


def _as_batched(x):
    x = x if isinstance(x, ad.Var) else np.asarray(x, dtype=np.float64)
    if len(x.shape) == 2:
        return ad.reshape(x, (1, *x.shape)), True
    if len(x.shape) == 3:
        return x, False
    raise ValueError(f"expected [seq x n] or [batch x seq x n] input, got shape {x.shape}")


def _causal_mask(seq_len):
    mask = np.zeros((seq_len, seq_len))
    mask[np.triu_indices(seq_len, k=1)] = -1e30
    return mask


def _heads(t, heads, head_dim):
    """[batch x seq x n] head-packed -> [batch x heads x seq x head_dim]."""
    return ad.swapaxes(ad.reshape(t, (t.shape[0], t.shape[1], heads, head_dim)), 1, 2)


def _attention_weights(q, k, heads, head_dim):
    """Causal softmax weights [batch x heads x seq x seq] of head-packed q and k."""
    scores = ad.matmul(_heads(q, heads, head_dim), ad.swapaxes(_heads(k, heads, head_dim), -1, -2))
    return ad.softmax(scores * (1.0 / np.sqrt(head_dim)) + _causal_mask(q.shape[1]), axis=-1)


def _attention_mix(weights, v, heads, head_dim):
    """The attention output [batch x seq x n] of softmax weights over head-packed v."""
    ctx = ad.matmul(weights, _heads(v, heads, head_dim))
    return ad.reshape(ad.swapaxes(ctx, 1, 2), v.shape)


def _record(rec, name, x):
    if rec is not None:
        v = value_of(x)
        rec[name] = v.reshape(-1, v.shape[-1]).copy()


def _site_quantize(u, spec, bc, sa, alpha, rec, name):
    """Activation quantizer with bias correction and unpaired scaling.

    The correction pair (subtract b^c, divide by s^a before the linear;
    algebraically re-added through the fused bias) cancels exactly when the
    quantizer is disabled.
    """
    _record(rec, name + ".in", u)
    if spec is None:
        _record(rec, name + ".lin", u)
        return u
    u_hat = quantize_dynamic(u, spec, alpha=alpha, shift=bc, gain=sa)
    _record(rec, name + ".lin", u_hat)
    return u_hat


def _kv_quantize(t, spec, alpha, rec, name):
    _record(rec, name + ".in", t)
    if spec is None:
        return t
    return quantize_dynamic(t, spec, alpha=alpha)


def forward_fp_block(bundle: ModelBundle, index: int, x):
    """Floating-point reference forward of one block (no online rotations)."""
    if bundle.qcfg is not None:
        raise RuntimeError("FP reference forward requires a pristine (unquantized) bundle")
    xb, squeeze = _as_batched(x)
    bw = bundle.blocks[index]
    config = bundle.config
    seq = xb.shape[1]
    n = config.hidden

    u = ad.rmsnorm(xb, config.eps)
    if bw.g_attn is not None:
        u = u * bw.g_attn
    attn = _attention_weights(ad.linear(u, bw.wq, bw.bq), ad.linear(u, bw.wk, bw.bk), config.heads, config.head_dim)
    ctx = _attention_mix(attn, ad.linear(u, bw.wv, bw.bv), config.heads, config.head_dim)
    xb = xb + ad.linear(ctx, bw.wo, bw.bo)

    u2 = ad.rmsnorm(xb, config.eps)
    if bw.g_mlp is not None:
        u2 = u2 * bw.g_mlp
    hidden = ad.silu(ad.linear(u2, bw.wgate, bw.bgate)) * ad.linear(u2, bw.wup, bw.bup)
    y = xb + ad.linear(hidden, bw.wdown, bw.bdown)
    return ad.reshape(y, (seq, n)) if squeeze else y


def forward_fp(bundle: ModelBundle, x):
    """Floating-point forward through all blocks."""
    for i in range(len(bundle.blocks)):
        x = forward_fp_block(bundle, i, x)
    return x


def _attention_prefix(bundle, index, bp, qcfg, xb, rec=None):
    """(qkv-site quantized input, causal softmax weights) of block `index` on
    the batched xb: the attention before its value path.  It reads bc_qkv,
    alpha_qkv and alpha_k, and no field stage 1 trains."""
    config, bw = bundle.config, bundle.blocks[index]
    h, d = config.heads, config.head_dim
    u = ad.rmsnorm(xb, config.eps)
    if bw.g_attn is not None:
        u = u * bw.g_attn
    u = _site_quantize(u, qcfg.act, bp.bc_qkv, None, bp.alpha_qkv, rec, "qkv")
    rtn = bundle.qcfg is None and qcfg.weight is not None  # effective_weights leaves wq, wk as they are
    wq, wk = (quantize_dynamic(w, qcfg.weight) if rtn else w for w in (bw.wq, bw.wk))

    def headwise_hadamard(t):  # online QK rotation, per head
        return ad.reshape(fwht(ad.reshape(t, (*t.shape[:2], h, d))), t.shape)

    q = headwise_hadamard(ad.linear(u, wq, bw.bq))
    k = _kv_quantize(headwise_hadamard(ad.linear(u, wk, bw.bk)), qcfg.kv, bp.alpha_k, rec, "k_cache")
    return u, _attention_weights(q, k, h, d)


def forward_quant_block(
    bundle: ModelBundle,
    index: int,
    bp: BlockParams,
    qcfg: QuantConfig,
    x,
    rec=None,
    prefix=None,
):
    """Quantized forward of one block.

    A quantized bundle (one with a qcfg) holds its weights fused and on
    their lattice: they are used as they are, bp's s/a_v fields are
    ignored, and `qcfg` must be the bundle's.  An unquantized bundle's
    effective weights are round-to-nearest-quantized on the fly (the stages
    before the Hessian-aware pass).  `prefix` is `_attention_prefix` of the
    same block, bp and x, computed once for many forwards; it takes no
    record, and none of the fields it reads may be a Var.
    """
    xb, squeeze = _as_batched(x)
    config = bundle.config
    bw = bundle.blocks[index]
    h, d, n = config.heads, config.head_dim, config.hidden
    if qcfg.kv is not None and qcfg.kv.head_dim != d:
        raise ValueError(f"kv head_dim {qcfg.kv.head_dim} != model head_dim {d}: KV groups would straddle heads")
    if bundle.qcfg is not None and qcfg != bundle.qcfg:
        raise ValueError(f"the bundle was quantized for {bundle.qcfg}, not {qcfg}")
    if prefix is not None and rec is not None:
        raise ValueError("a precomputed prefix records no qkv or k-cache input; pass rec without it")
    trained = [f for f in ("bc_qkv", "alpha_qkv", "alpha_k") if isinstance(getattr(bp, f), ad.Var)]
    if prefix is not None and trained:
        raise ValueError(f"a precomputed prefix would drop the gradients of {', '.join(trained)}")

    if bundle.qcfg is not None:
        weights = {name: getattr(bw, name) for name in WEIGHT_NAMES + BIAS_NAMES}
    else:
        weights = effective_weights(bw, bp, config)
        if qcfg.weight is not None:  # the prefix rounds wq and wk
            weights.update({nm: quantize_dynamic(weights[nm], qcfg.weight) for nm in WEIGHT_NAMES[2:]})

    u, attn = _attention_prefix(bundle, index, bp, qcfg, xb, rec) if prefix is None else prefix
    v = _kv_quantize(ad.linear(u, weights["wv"], weights["bv"]), qcfg.kv, bp.alpha_v, rec, "v_cache")
    ctx = _attention_mix(attn, v, h, d)
    ctx = _site_quantize(ctx, qcfg.act, bp.bc_o, bp.sa_o, bp.alpha_o, rec, "o")
    xb = xb + ad.linear(ctx, weights["wo"], weights["bo"])

    u2 = ad.rmsnorm(xb, config.eps)
    if bw.g_mlp is not None:
        u2 = u2 * bw.g_mlp
    u2 = _site_quantize(u2, qcfg.act, bp.bc_up, None, bp.alpha_up, rec, "up")
    gate = ad.linear(u2, weights["wgate"], weights["bgate"])
    up = ad.linear(u2, weights["wup"], weights["bup"])
    hidden = ad.silu(gate) * up

    hidden = fwht(hidden)  # online down rotation
    hidden = _site_quantize(hidden, qcfg.act, bp.bc_down, bp.sa_down, bp.alpha_down, rec, "down")
    y = xb + ad.linear(hidden, weights["wdown"], weights["bdown"])
    return ad.reshape(y, (xb.shape[1], n)) if squeeze else y


def forward_quant(bundle, params, qcfg, x):
    """Quantized forward through all blocks; `params` is one BlockParams per block."""
    if len(params) != len(bundle.blocks):
        raise ValueError(f"need {len(bundle.blocks)} BlockParams, got {len(params)}")
    for i, bp in enumerate(params):
        x = forward_quant_block(bundle, i, bp, qcfg, x)
    return x
