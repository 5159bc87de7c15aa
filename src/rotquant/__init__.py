"""Rotation-based post-training quantization with blockwise bias correction,
asymmetric scaling, and a quantization-error analysis suite."""

from .analysis import (
    BlockMse,
    ChannelStats,
    ErrorReport,
    SiteRecord,
    channel_stats,
    clipping_energy,
    emit_report,
    gaussian_clip_energy,
    noise_propagation,
    optimal_scale,
    variance_decomposition,
)
from .bundle_io import (
    BundleFormatError,
    read_bundle,
    read_calibration,
    read_params,
    read_report,
    write_bundle,
    write_calibration,
    write_params,
    write_report,
)
from .model import (
    BlockParams,
    BlockWeights,
    ModelBundle,
    ModelConfig,
    QuantConfig,
    SynthSpec,
    build_toy_model,
    effective_weights,
    fold_norms,
    forward_fp,
    forward_quant,
    fuse_rres,
    gen_calibration,
    gen_synthetic,
)
from .optim import OptimizationError, ParamGroup, cosine_lr, optimize
from .pipeline import (
    ABLATION_MODES,
    PipelineConfig,
    PipelineResult,
    StageSchedule,
    ablate,
    prepare_bundle,
    quantize_blockwise,
    run_pipeline,
    site_layers,
)
from .quantizers import (
    QuantParams,
    QuantSpec,
    QuantizationError,
    fake_quantize,
    gptq_quantize,
    quant_proxy_loss,
    quantize_dynamic,
    resolve_params,
    search_clip,
)
from .transforms import (
    Rotation,
    cayley,
    fwht,
    hadamard_matrix,
    pca_basis,
    random_hadamard,
)

__version__ = "0.1.0"
