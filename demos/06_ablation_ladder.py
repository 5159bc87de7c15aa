# The feature ladder: what each mechanism buys on a misaligned toy model.
#
# Modes add one mechanism at a time on top of fixed rotations: a learnable
# per-head value rotation, bias corrections, unpaired activation scaling,
# and paired weight/activation scaling.  On models whose channel means are
# badly misaligned, bias correction is the step that matters most -- the
# same signature the method shows on real mean-misaligned checkpoints.

import numpy as np

from rotquant import (
    ABLATION_MODES,
    ModelConfig,
    PipelineConfig,
    QuantConfig,
    StageSchedule,
    SynthSpec,
    ablate,
    build_toy_model,
    gen_calibration,
)

config = ModelConfig(hidden=32, heads=2, mlp_dim=64, n_blocks=1)
cfg = PipelineConfig(
    qcfg=QuantConfig.for_bits(4, 4, 4, config.head_dim),
    schedule=StageSchedule(steps_per_epoch=4),
)

seeds = range(3)
means = np.zeros(len(ABLATION_MODES))
for seed in seeds:
    bundle = build_toy_model(config, seed)
    calib = gen_calibration(SynthSpec.misaligned(32, 64, seed=seed), 8, 8)
    rows = ablate(bundle, calib, cfg)
    means += np.array([r["final_mse"] for r in rows]) / len(list(seeds))

print(f"W4A4KV4 calibration MSE, mean over {len(list(seeds))} seeds")
print(f"{'mode':>16} {'mse':>10} {'vs rotation-only':>18}")
for mode, mse in zip(ABLATION_MODES, means):
    print(f"{mode:>16} {mse:>10.5f} {mse / means[0]:>17.2f}x")
print("\nbias correction delivers the large drop; scaling refines the rest.")
