# Hessian-aware weight rounding vs round-to-nearest.
#
# Rounding each weight to its nearest lattice point ignores how errors
# interact through the layer's input correlations.  GPTQ rounds one column
# at a time and feeds each column's error back into the not-yet-quantized
# columns through the inverse calibration Hessian, so correlated inputs can
# cancel part of the damage.

import numpy as np

from rotquant import QuantSpec, gptq_quantize, quant_proxy_loss, quantize_dynamic

spec = QuantSpec(bits=4, scheme="symmetric", granularity="per-channel")
rng = np.random.default_rng(0)

print("proxy loss tr((W - Q) H (W - Q)^T), 16x16 weights, correlated calibration")
print(f"{'seed':>6} {'rtn':>12} {'gptq':>12} {'ratio':>8}")
ratios = []
for seed in range(8):
    r = np.random.default_rng(seed)
    w = r.normal(size=(16, 16))
    mix = np.eye(16) + 0.5 * r.normal(size=(16, 16))
    x = r.normal(size=(256, 16)) @ mix  # correlated input channels
    q_rtn = np.asarray(quantize_dynamic(w, spec))
    q_gptq, _ = gptq_quantize(w, x, spec)
    lr = quant_proxy_loss(w, q_rtn, x)
    lg = quant_proxy_loss(w, q_gptq, x)
    ratios.append(lg / lr)
    print(f"{seed:>6} {lr:>12.3f} {lg:>12.3f} {lg / lr:>8.3f}")
print(f"\nmean loss ratio: {np.mean(ratios):.3f} (never above 1.0 by construction)")

# with uncorrelated inputs there is nothing to feed back: both coincide
from rotquant import hadamard_matrix

w = rng.normal(size=(8, 8))
x_iso = hadamard_matrix(8) * 3.0  # exactly isotropic calibration
same = np.array_equal(gptq_quantize(w, x_iso, spec)[0], np.asarray(quantize_dynamic(w, spec)))
print(f"diagonal Hessian -> gptq == rtn exactly: {same}")
