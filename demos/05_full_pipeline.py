# The full blockwise quantization pipeline on a toy transformer stack.
#
# Stages per block: train the paired scales and the value rotation against
# the floating-point outputs, quantize weights with Hessian-aware rounding,
# then train bias corrections, unpaired scales, and clip factors.  Quantized
# outputs of each block feed the next block's calibration so later blocks
# compensate earlier errors.

import numpy as np

from rotquant import (
    ModelConfig,
    PipelineConfig,
    QuantConfig,
    StageSchedule,
    SynthSpec,
    build_toy_model,
    gen_calibration,
    run_pipeline,
)

config = ModelConfig(hidden=64, heads=4, mlp_dim=256, n_blocks=2)
bundle = build_toy_model(config, seed=0)
spec = SynthSpec.misaligned(config.hidden, 64 * 8, seed=0)
calib = gen_calibration(spec, sequences=64, seq_len=8)

cfg = PipelineConfig(
    qcfg=QuantConfig.for_bits(4, 4, 4, config.head_dim),  # W4 A4 KV4
    schedule=StageSchedule(stage1_epochs=3, stage2_epochs=5, steps_per_epoch=8),
)
result = run_pipeline(bundle, calib, cfg)

print("per-block calibration MSE against the floating-point outputs")
print(f"{'block':>6} {'neutral':>12} {'after gptq':>12} {'trained':>12}")
for s in result.report.blocks:
    print(f"{s.block:>6} {s.mse_baseline:>12.5f} {s.mse_after_gptq:>12.5f} {s.mse_final:>12.5f}")
print(f"\nend-to-end calibration MSE: {result.final_mse:.5f}")

print("\nwhat the corrections learned (block 0):")
bp = result.params[0]
print(f"  bias correction norms   : qkv {np.linalg.norm(bp.bc_qkv):.2f}, "
      f"o {np.linalg.norm(bp.bc_o):.2f}, up {np.linalg.norm(bp.bc_up):.2f}, "
      f"down {np.linalg.norm(bp.bc_down):.2f}")
print(f"  paired scale spread     : o [{bp.s_o.min():.2f}, {bp.s_o.max():.2f}], "
      f"down [{bp.s_down.min():.2f}, {bp.s_down.max():.2f}]")
print(f"  clip factors            : " + ", ".join(
    f"{name.split('_', 1)[1]} {float(getattr(bp, name)):.2f}" for name in bp.ALPHA_FIELDS))

print(f"\ngradient-memory peak during optimization: {result.grad_peak_elements} elements")
print(f"one block's parameter count             : {result.max_block_param_elements} elements")
print("(the whole model never needs simultaneous gradients)")

print("\nper-site error analysis from the report:")
for rec in result.report.records:
    if rec.block == 0:
        noise = ""
        if rec.measured_noise_var is not None:
            noise = (f"   linear noise measured {rec.measured_noise_var:.2e}"
                     f" (closed form {rec.predicted_noise_var:.2e})")
        print(f"  block0.{rec.site:<8s} var-of-means share {rec.var_of_means_fraction:6.1%}   "
              f"clipped energy {rec.clipping_energy_fraction:6.1%}{noise}")
