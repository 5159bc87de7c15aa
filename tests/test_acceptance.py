"""Acceptance criteria, one test per criterion at its stated tolerance.

Each criterion registers a PASS line that the conftest terminal-summary
hook prints after the run; assertion failures surface as ordinary pytest
failures.
"""

import time
from dataclasses import replace

import numpy as np
import pytest

from conftest import ACCEPTANCE_LINES

from rotquant import autodiff as ad
from rotquant.analysis import (
    clipping_energy,
    gaussian_clip_energy,
    noise_propagation,
    optimal_scale,
    variance_decomposition,
)
from rotquant.cli import main as cli_main
from rotquant.model import (
    BlockParams,
    ModelConfig,
    QuantConfig,
    SynthSpec,
    build_toy_model,
    fold_norms,
    forward_fp,
    forward_quant,
    forward_quant_block,
    fuse_rres,
    gen_calibration,
)
from rotquant.pipeline import (
    ABLATION_MODES,
    PipelineConfig,
    StageSchedule,
    ablate,
    run_pipeline,
)
from rotquant.quantizers import (
    QuantParams,
    QuantSpec,
    fake_quantize,
    gptq_quantize,
    quant_proxy_loss,
    quantize_dynamic,
    resolve_params,
    search_clip,
)
from rotquant.analysis import channel_stats
from rotquant.transforms import random_hadamard


def _report(num, detail):
    line = f"PASS criterion {num:02d}: {detail}"
    ACCEPTANCE_LINES.append(line)
    print(line)


TINY = ModelConfig(hidden=32, heads=2, mlp_dim=64, n_blocks=1)
TINY_W4 = QuantConfig.for_bits(4, 4, 4, TINY.head_dim)
TINY_SCHED = StageSchedule(steps_per_epoch=4)


def _tiny_setup(seed, sequences=8, seq_len=8, **synth_kw):
    bundle = build_toy_model(TINY, seed)
    spec = SynthSpec.misaligned(TINY.hidden, sequences * seq_len, seed=seed, **synth_kw)
    return bundle, gen_calibration(spec, sequences, seq_len)


def test_criterion_01_gaussian_clip_energy():
    start = time.time()
    analytic = gaussian_clip_energy(2.2)
    x = np.random.default_rng(2024).standard_normal(1_000_000)
    mc = clipping_energy(x, -2.2 * x.std(), 2.2 * x.std())
    elapsed = time.time() - start
    assert abs(analytic - 0.184) <= 0.005
    assert abs(mc - 0.184) <= 0.005
    assert elapsed < 5.0
    _report(1, f"clipped energy at 2.2 sigma: analytic {analytic:.4f}, monte-carlo {mc:.4f} ({elapsed:.2f}s)")


def test_criterion_02_optimal_clip_threshold():
    start = time.time()
    x = np.random.default_rng(99).standard_normal(1_000_000)
    theta = search_clip(x, 4)
    ratio = theta / x.std()
    elapsed = time.time() - start
    assert 2.1 <= ratio <= 2.3
    assert elapsed < 30.0
    _report(2, f"INT4 Gaussian clip threshold {ratio:.4f} sigma in [2.1, 2.3] ({elapsed:.1f}s)")


def test_criterion_03_variance_identity():
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(1000):
        x = rng.normal(
            loc=rng.uniform(-2, 2),
            scale=rng.uniform(0.2, 4.0),
            size=(rng.integers(4, 50), rng.integers(2, 40)),
        )
        cs = channel_stats(x)
        rhs = cs.vars.mean() + cs.var_of_means
        worst = max(worst, abs(cs.total_var - rhs) / max(abs(cs.total_var), 1e-300))
    assert worst <= 1e-10
    _report(3, f"variance decomposition identity over 1000 matrices, worst rel err {worst:.2e}")


def test_criterion_04_rounding_energy_law():
    x = np.random.default_rng(5).uniform(0.0, 15.0, size=(1, 1_000_000))
    spec = QuantSpec(4, "asymmetric", "per-token")
    err = fake_quantize(x, QuantParams(scale=1.0, zero=0.0), spec) - x
    energy = float(np.mean(err**2))
    assert energy == pytest.approx(1.0 / 12.0, rel=0.05)
    _report(4, f"in-range rounding energy {energy:.5f} vs s^2/12 = {1/12:.5f} (within 5%)")


def test_criterion_05_noise_propagation():
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(5):
        w = rng.normal(size=64) * rng.uniform(0.5, 2.0)
        a = rng.normal(size=64) * rng.uniform(0.5, 2.0)
        s_w, s_a = rng.uniform(0.05, 0.2, size=2)
        predicted, empirical = noise_propagation(w, a, s_w, s_a, trials=100_000, seed=3)
        rel = abs(predicted - empirical) / predicted
        worst = max(worst, rel)
    assert worst < 0.05
    _report(5, f"uniform-noise propagation: worst prediction error {worst*100:.2f}% over 5 instances")


def test_criterion_06_optimal_scale_optimality():
    rng = np.random.default_rng(21)
    checked = 0
    for _ in range(100):
        w = rng.normal(size=16) * rng.uniform(0.2, 5.0)
        a = rng.normal(size=16) * rng.uniform(0.2, 5.0)
        if np.any(w == 0.0) or np.any(a == 0.0):
            continue
        s = optimal_scale(w, a)

        def predicted(scale):
            p, _ = noise_propagation(w / scale, a * scale, 0.1, 0.1, trials=1)
            return p

        base = predicted(s)
        assert predicted(1.1 * s) >= base - 1e-12
        assert predicted(0.9 * s) >= base - 1e-12
        checked += 1
    assert checked >= 95
    _report(6, f"+-10% perturbation of the paired scale never reduced predicted noise ({checked} instances)")


def test_criterion_07_fused_rotation_equivalence():
    worst = 0.0
    for seed in range(100):
        folded = fold_norms(build_toy_model(TINY, seed))
        rot = random_hadamard(TINY.hidden, seed + 500)
        fused = fuse_rres(folded, rot)
        x = np.random.default_rng(seed).normal(size=(2, 8, TINY.hidden))
        y_oracle = np.asarray(rot.apply(forward_fp(folded, x)))
        y_fused = np.asarray(forward_fp(fused, np.asarray(rot.apply(x))))
        worst = max(worst, float(np.max(np.abs(y_oracle - y_fused)) / np.max(np.abs(y_oracle))))
        # value-rotation fusion: the quantizer-path forward with the neutral
        # (Hadamard) value rotation folded into wv/wo must agree as well
        neutral = [BlockParams.neutral(TINY)]
        y_rv = np.asarray(forward_quant(fused, neutral, QuantConfig(None, None, None), rot.apply(x)))
        worst = max(worst, float(np.max(np.abs(y_rv - y_fused)) / np.max(np.abs(y_fused))))
    assert worst < 1e-6
    _report(7, f"fused vs explicit-rotation forward: worst relative deviation {worst:.2e} over 100 seeds")


def test_criterion_08_bias_correction_algebraic_equivalence():
    worst = 0.0
    passthrough = QuantConfig(None, None, None)
    for seed in range(100):
        rng = np.random.default_rng(seed + 900)
        folded = fold_norms(build_toy_model(TINY, seed % 10))
        rot = random_hadamard(TINY.hidden, seed)
        fused = fuse_rres(folded, rot)
        x = np.asarray(rot.apply(rng.normal(size=(2, 8, TINY.hidden))))
        y_fp = np.asarray(forward_fp(fused, x))
        bp = BlockParams.neutral(TINY)
        bp.bc_qkv = rng.normal(size=32)
        bp.bc_o = rng.normal(size=32)
        bp.bc_up = rng.normal(size=32)
        bp.bc_down = rng.normal(size=64)
        bp.s_o = rng.uniform(0.5, 2.0, 32)
        bp.s_down = rng.uniform(0.5, 2.0, 64)
        bp.sa_o = rng.uniform(0.5, 2.0, 32)
        bp.sa_down = rng.uniform(0.5, 2.0, 64)
        bp.a_v = rng.normal(size=(TINY.head_dim, TINY.head_dim))
        y_q = np.asarray(forward_quant(fused, [bp], passthrough, x))
        worst = max(worst, float(np.max(np.abs(y_q - y_fp)) / np.max(np.abs(y_fp))))
    assert worst < 1e-6
    _report(8, f"correction terms cancel exactly with quantizers disabled: worst rel dev {worst:.2e} (100 trials)")


def test_criterion_09_bias_correction_effect():
    # part 1: mean-valued bias corrections remove the variance-of-means term
    worst_frac = 0.0
    for seed in range(3):
        folded = fold_norms(build_toy_model(TINY, seed))
        rot = random_hadamard(TINY.hidden, seed + 77)
        bundle = fuse_rres(folded, rot)
        spec = SynthSpec.misaligned(TINY.hidden, 256, seed=seed)
        x = np.asarray(rot.apply(gen_calibration(spec, 16, 16)))
        bp = BlockParams.neutral(TINY)
        for _ in range(2):
            rec = {}
            forward_quant_block(bundle, 0, bp, TINY_W4, x, rec=rec)
            for site in ("qkv", "o", "up", "down"):
                setattr(bp, "bc_" + site, rec[site + ".in"].mean(axis=0))
        rec = {}
        forward_quant_block(bundle, 0, bp, TINY_W4, x, rec=rec)
        for site in ("qkv", "o", "up", "down"):
            u = rec[site + ".in"] - getattr(bp, "bc_" + site)
            _, _, frac = variance_decomposition(u)
            worst_frac = max(worst_frac, frac)
    assert worst_frac < 0.01

    # part 2: trained bias corrections beat the same pipeline with b^c = 0
    cfg = PipelineConfig(qcfg=TINY_W4, schedule=TINY_SCHED, with_report=False)
    wins = 0
    ratios = []
    for seed in range(100):
        bundle, calib = _tiny_setup(seed)
        full = run_pipeline(bundle, calib, cfg)
        frozen = run_pipeline(bundle, calib, replace(cfg, train_bias=False))
        ratios.append(full.final_mse / frozen.final_mse)
        wins += full.final_mse < frozen.final_mse
    assert wins >= 95
    _report(
        9,
        f"corrected-site var-of-means fraction <= {worst_frac:.4f}; "
        f"trained bias beat frozen-zero bias in {wins}/100 seeds (mean mse ratio {np.mean(ratios):.2f})",
    )


def test_criterion_10_ablation_ordering():
    cfg = PipelineConfig(qcfg=TINY_W4, schedule=TINY_SCHED, with_report=False)
    seeds = range(5)
    means = np.zeros(len(ABLATION_MODES))
    for seed in seeds:
        bundle, calib = _tiny_setup(seed)
        rows = ablate(bundle, calib, cfg)
        means += np.array([r["final_mse"] for r in rows]) / len(list(seeds))
    assert np.all(means[1:] <= means[:-1]), means
    detail = " -> ".join(f"{m:.5f}" for m in means)
    _report(10, f"ablation ladder mean MSE non-increasing over 5 seeds: {detail}")


def test_criterion_11_rres_robustness():
    # rotation-only mode (the deterministic fuse + GPTQ path) isolates the
    # rotation choice from optimizer trajectories; random-rotation results
    # average two sign draws per seed
    from rotquant.pipeline import mode_config

    cfg = mode_config(PipelineConfig(qcfg=TINY_W4, schedule=TINY_SCHED, with_report=False), "rotation-only")
    std_mse, rnd_mse = [], []
    for seed in range(5):
        bundle, calib = _tiny_setup(seed, offset_std=2.0)
        std_mse.append(run_pipeline(bundle, calib, replace(cfg, rres_kind="hadamard")).final_mse)
        draws = [
            run_pipeline(bundle, calib, replace(cfg, rres_kind="random-hadamard", rres_seed=seed * 10 + k)).final_mse
            for k in range(2)
        ]
        rnd_mse.append(float(np.mean(draws)))
    ms, mr = float(np.mean(std_mse)), float(np.mean(rnd_mse))
    rel = abs(ms - mr) / max(ms, mr)
    assert rel <= 0.10
    _report(11, f"standard vs random Hadamard residual rotation: mean MSE {ms:.5f} vs {mr:.5f} ({rel*100:.1f}% apart)")


def test_criterion_12_gptq_dominance_and_optimality():
    spec = QuantSpec(4, "symmetric", "per-channel")
    for seed in range(50):
        rng = np.random.default_rng(seed)
        w = rng.normal(size=(8, 8))
        x = rng.normal(size=(64, 8)) @ rng.normal(size=(8, 8))
        lg = quant_proxy_loss(w, gptq_quantize(w, x, spec)[0], x)
        lr = quant_proxy_loss(w, np.asarray(quantize_dynamic(w, spec)), x)
        assert lg <= lr + 1e-12, f"seed {seed}"

    # enumerable 1x2 / 2-bit instances: output matches the lattice optimum
    from itertools import product

    spec2 = QuantSpec(2, "symmetric", "per-channel")
    for w_row, corr, seed in (
        ([0.6, 1.0], 0.75, 11),
        ([-0.45, 0.9], -0.6, 21),
        ([0.3, -1.0], 0.5, 33),
    ):
        w = np.array([w_row])
        cov = np.array([[1.0, corr], [corr, 1.0]])
        x = np.random.default_rng(seed).normal(size=(64, 2)) @ np.linalg.cholesky(cov).T
        qp = resolve_params(w, spec2)
        s = float(np.asarray(qp.scale).ravel()[0])
        z = float(np.asarray(qp.zero).ravel()[0])
        best = min(
            quant_proxy_loss(w, np.array([[z + i * s, z + j * s]]), x)
            for i, j in product(range(4), range(4))
        )
        loss = quant_proxy_loss(w, gptq_quantize(w, x, spec2)[0], x)
        assert loss == pytest.approx(best, abs=1e-10)
    _report(12, "hessian-aware rounding <= RTN on 50 random 8x8 instances; brute-force optimal on 1x2/2-bit")


def test_criterion_13_gradient_integrity():
    # smooth ops against central finite differences (step 1e-5, rel < 1e-4)
    rng = np.random.default_rng(31)
    x0 = rng.uniform(0.5, 2.0, size=(4, 6))
    cases = {
        "matmul": lambda x: ad.vmean(ad.matmul(x, ad.swapaxes(x, -1, -2))),
        "softmax": lambda x: ad.vmean(ad.softmax(x, axis=-1) ** 2),
        "silu": lambda x: ad.vmean(ad.silu(x)),
        "rmsnorm": lambda x: ad.vmean(ad.rmsnorm(x) ** 3),
        "exp-sqrt": lambda x: ad.vmean(ad.sqrt(ad.exp(0.3 * x) + 1.0)),
        "div": lambda x: ad.vmean(1.0 / (x * x + 1.0)),
    }
    worst = 0.0
    for name, fn in cases.items():
        p = ad.Var(x0, requires_grad=True)
        ad.backward(fn(p))
        fd = np.zeros_like(x0)
        eps = 1e-5
        for i in range(x0.shape[0]):
            for j in range(x0.shape[1]):
                xp, xm = x0.copy(), x0.copy()
                xp[i, j] += eps
                xm[i, j] -= eps
                fd[i, j] = (
                    float(ad.value_of(fn(ad.Var(xp)))) - float(ad.value_of(fn(ad.Var(xm))))
                ) / (2 * eps)
        rel = np.max(np.abs(p.grad - fd) / np.maximum(np.abs(fd), 1e-8))
        worst = max(worst, rel)
        assert rel < 1e-4, name

    # straight-through surrogates are exact
    p = ad.parameter(np.array([0.3, -1.6, 2.5]))
    ad.backward(ad.vsum(ad.round_ste(p)))
    assert np.array_equal(p.grad, np.ones(3))
    p2 = ad.parameter(np.array([-2.0, 0.5, 3.0, 5.0]))
    ad.backward(ad.vsum(ad.clamp_ste(p2, 0.0, 3.0)))
    assert np.array_equal(p2.grad, np.array([0.0, 1.0, 1.0, 0.0]))
    _report(13, f"autodiff matches finite differences (worst rel {worst:.2e}); STE surrogates exact")


def test_criterion_14_memory_contract():
    bundle, calib = _tiny_setup(3)
    two_block = ModelConfig(hidden=32, heads=2, mlp_dim=64, n_blocks=2)
    bundle = build_toy_model(two_block, 3)
    cfg = PipelineConfig(qcfg=TINY_W4, schedule=TINY_SCHED, with_report=False)
    result = run_pipeline(bundle, calib, cfg)
    assert result.grad_peak_elements > 0
    assert result.grad_peak_elements <= result.max_block_param_elements
    total_params = sum(bp.n_params() for bp in result.params)
    assert result.grad_peak_elements < total_params  # never the whole model
    _report(
        14,
        f"peak live gradient footprint {result.grad_peak_elements} elements "
        f"<= one block's parameters ({result.max_block_param_elements})",
    )


def test_criterion_15_end_to_end_determinism(tmp_path):
    import json

    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(
        json.dumps(
            {
                "hidden": 32,
                "heads": 2,
                "mlp_dim": 64,
                "n_blocks": 1,
                "calib_sequences": 8,
                "seq_len": 8,
                "steps_per_epoch": 2,
            }
        )
    )
    gen_dir = tmp_path / "g"
    assert cli_main(["gen", "--config", str(cfg_path), "--out", str(gen_dir), "--seed", "0"]) == 0
    args = [
        "quantize",
        "--config",
        str(cfg_path),
        "--model",
        str(gen_dir / "model.rqb"),
        "--calib",
        str(gen_dir / "calib.rqb"),
        "--seed",
        "0",
    ]
    out1, out2 = tmp_path / "q1", tmp_path / "q2"
    assert cli_main(args + ["--out", str(out1)]) == 0
    assert cli_main(args + ["--out", str(out2)]) == 0
    identical = []
    for name in ("quantized.rqb", "params.rqb", "report.json", "report.csv", "report_profiles.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name
        identical.append(name)
    _report(15, f"repeated quantize produced byte-identical outputs: {', '.join(identical)}")
