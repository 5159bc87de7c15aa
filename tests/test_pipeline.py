"""Staged blockwise quantization: rotations, GPTQ, corrections, ablation."""

import hashlib
from dataclasses import fields, replace

import numpy as np
import pytest

from rotquant import autodiff as ad
from rotquant.analysis import BlockMse, SiteRecord, emit_report
from rotquant.model import (
    BlockParams,
    ModelConfig,
    QuantConfig,
    SynthSpec,
    build_toy_model,
    forward_fp,
    forward_quant,
    gen_calibration,
)
from rotquant.pipeline import (
    ABLATION_MODES,
    PipelineConfig,
    StageSchedule,
    ablate,
    compute_rres,
    mode_config,
    prepare_bundle,
    quantize_blockwise,
    run_pipeline,
    site_layers,
)
from rotquant.transforms import hadamard_matrix

SMALL = ModelConfig(hidden=32, heads=2, mlp_dim=64, n_blocks=2)
SCHED = StageSchedule(steps_per_epoch=4)


def _setup(seed=0, config=SMALL, sequences=8, seq_len=8):
    bundle = build_toy_model(config, seed)
    spec = SynthSpec.misaligned(config.hidden, sequences * seq_len, seed=seed)
    calib = gen_calibration(spec, sequences, seq_len)
    return bundle, calib


def _cfg(bits=(4, 4, 4), config=SMALL, **kw):
    qc = QuantConfig.for_bits(*bits, config.head_dim)
    kw.setdefault("schedule", SCHED)
    kw.setdefault("with_report", False)
    return PipelineConfig(qcfg=qc, **kw)


def _hash(arr):
    return hashlib.sha256(np.ascontiguousarray(arr).tobytes()).hexdigest()


# -- residual rotation ------------------------------------------------------------


def test_compute_rres_diagonal_covariance():
    # diagonal weight covariance: the principal basis is a signed permutation,
    # so the composed rotation keeps all entries at +-n^{-1/2}
    from rotquant.model import fold_norms

    bundle = build_toy_model(SMALL, seed=0)
    n = SMALL.hidden
    d = np.diag(np.linspace(2.0, 1.0, n))
    for bw in bundle.blocks:
        for name in ("wq", "wk", "wv", "wgate", "wup"):
            setattr(bw, name, np.eye(*getattr(bw, name).shape) @ d)
        bw.g_attn = np.ones(n)
        bw.g_mlp = np.ones(n)
    folded = fold_norms(bundle)
    rot = compute_rres(folded)
    m = rot.matrix
    assert np.max(np.abs(m @ m.T - np.eye(n))) < 1e-8
    assert np.allclose(np.abs(m), 1.0 / np.sqrt(n), atol=1e-8)


def test_compute_rres_orthogonal_on_toy_bundle():
    from rotquant.model import fold_norms

    bundle, _ = _setup(1)
    rot = compute_rres(fold_norms(bundle))
    m = rot.matrix
    assert np.max(np.abs(m @ m.T - np.eye(SMALL.hidden))) < 1e-8


def test_rres_concentrates_weight_energy():
    # rotating reader weights into the principal basis concentrates their
    # per-input-channel energy: the top-quartile share strictly increases
    from rotquant.model import fold_norms

    bundle, _ = _setup(2)
    folded = fold_norms(bundle)
    readers = []
    for bw in folded.blocks:
        readers.extend([bw.wq, bw.wk, bw.wv, bw.wgate, bw.wup])
    rot = compute_rres(folded)
    u = rot.matrix @ hadamard_matrix(SMALL.hidden)  # M = U @ H with H involutory

    def top_share(mats):
        energy = sum((m**2).sum(axis=0) for m in mats)
        energy = np.sort(energy)[::-1]
        k = len(energy) // 4
        return energy[:k].sum() / energy.sum()

    before = top_share(readers)
    after = top_share([w @ u for w in readers])
    assert after > before


def test_site_layers_numeric_block_order():
    # 11 blocks: a string sort of the site keys would put block 10 after block 1
    config = ModelConfig(hidden=32, heads=2, mlp_dim=64, n_blocks=11)
    bundle = build_toy_model(config, seed=0)
    params = [BlockParams.neutral(config) for _ in bundle.blocks]
    x = np.random.default_rng(0).normal(size=(2, 4, 32))
    layers = site_layers(bundle, params, QuantConfig(None, None, None), x)
    sites = ["down", "k_cache", "o", "qkv", "up", "v_cache"]
    assert [(b, s) for b, s, _, _ in layers] == [(b, s) for b in range(11) for s in sites]
    for _, site, act, weight in layers:
        assert act.shape[0] == 8
        assert (weight is None) == (site in ("k_cache", "v_cache"))


# -- blockwise quantization ------------------------------------------------------------


def test_passthrough_pipeline_is_lossless():
    bundle, calib = _setup(3)
    cfg = _cfg(bits=(16, 16, 16))
    result = run_pipeline(bundle, calib, cfg)
    assert result.final_mse < 1e-10
    for s in result.block_stats:
        assert s.mse_baseline < 1e-10
        assert s.mse_final < 1e-10


def test_stagewise_mse_ordering():
    # strict improvement at every stage boundary on the misaligned model
    bundle, calib = _setup(4)
    result = run_pipeline(bundle, calib, _cfg())
    s0 = result.block_stats[0]
    assert s0.mse_final < s0.mse_after_gptq < s0.mse_baseline
    for s in result.block_stats:
        assert s.mse_final <= s.mse_after_gptq <= s.mse_baseline


def test_schedule_defaults():
    sched = StageSchedule()
    assert sched.stage1_epochs == 3
    assert sched.stage2_epochs == 5
    assert sched.lr_scale == pytest.approx(1e-2)
    assert sched.lr_clip == pytest.approx(1e-2)
    assert sched.lr_bias == pytest.approx(1e-3)


def test_blockwise_locality():
    bundle, calib = _setup(5)
    prepared, rotation = prepare_bundle(bundle, _cfg())
    hashes = [
        {name: _hash(getattr(bw, name)) for name in ("wq", "wk", "wv", "wo", "wgate", "wup", "wdown")}
        for bw in prepared.blocks
    ]
    quantize_blockwise(prepared, rotation.apply(calib), _cfg())
    for bw, snap in zip(prepared.blocks, hashes):
        for name, digest in snap.items():
            assert _hash(getattr(bw, name)) == digest  # inputs never mutated


def test_pipeline_deterministic():
    bundle, calib = _setup(6)
    r1 = run_pipeline(bundle, calib, _cfg())
    r2 = run_pipeline(bundle, calib, _cfg())
    assert r1.final_mse == r2.final_mse
    for b1, b2 in zip(r1.bundle.blocks, r2.bundle.blocks):
        assert np.array_equal(b1.wq, b2.wq)
        assert np.array_equal(b1.wdown, b2.wdown)
    for p1, p2 in zip(r1.params, r2.params):
        assert np.array_equal(p1.bc_qkv, p2.bc_qkv)
        assert np.array_equal(p1.sa_o, p2.sa_o)


def test_memory_contract():
    bundle, calib = _setup(7)
    result = run_pipeline(bundle, calib, _cfg())
    assert result.grad_peak_elements > 0
    assert result.grad_peak_elements <= result.max_block_param_elements
    assert ad.GRAD_TRACKER.live == 0  # all gradients released


def test_quantized_bundle_runs_standalone():
    bundle, calib = _setup(8)
    cfg = _cfg(with_report=True)
    result = run_pipeline(bundle, calib, cfg)
    assert result.bundle.meta["weights_quantized"]
    assert result.bundle.meta["rv_scale_fused"]
    x = rotated = result.rotation.apply(calib)
    y = forward_quant(result.bundle, result.params, cfg.qcfg, x)
    prepared, _ = prepare_bundle(bundle, cfg)
    y_fp = forward_fp(prepared, rotated)
    mse = float(np.mean((np.asarray(y) - np.asarray(y_fp)) ** 2))
    assert mse == pytest.approx(result.final_mse, rel=1e-9)
    # report carries one record per quantizer site
    sites = {(r.block, r.site) for r in result.report.records}
    assert (0, "qkv") in sites and (1, "down") in sites and (0, "k_cache") in sites
    assert len(result.report.blocks) == 2


def test_calibration_validation():
    bundle, calib = _setup(9)
    prepared, rotation = prepare_bundle(bundle, _cfg())
    with pytest.raises(ValueError, match="sequences"):
        quantize_blockwise(prepared, np.zeros((0, 8, 32)), _cfg())
    with pytest.raises(ValueError, match="width"):
        quantize_blockwise(prepared, np.zeros((4, 8, 16)), _cfg())
    with pytest.raises(RuntimeError, match="fold"):
        quantize_blockwise(bundle, rotation.apply(calib), _cfg())


# -- ablation ---------------------------------------------------------------------------


def test_ablation_single_mode_matches_direct_call():
    bundle, calib = _setup(10, config=ModelConfig(hidden=32, heads=2, mlp_dim=64, n_blocks=1))
    cfg = _cfg(config=SMALL)
    rows = ablate(bundle, calib, cfg, modes=["bias"])
    direct = run_pipeline(bundle, calib, mode_config(cfg, "bias"))
    assert rows[0]["final_mse"] == direct.final_mse


def test_ablation_mode_toggles():
    cfg = _cfg()
    ro = mode_config(cfg, "rotation-only")
    assert not (ro.train_rv or ro.train_scale or ro.train_bias or ro.train_unpaired or ro.train_clip)
    full = mode_config(cfg, "scale")
    assert full.train_rv and full.train_scale and full.train_bias and full.train_unpaired
    with pytest.raises(ValueError, match="unknown ablation mode"):
        mode_config(cfg, "nonsense")


def test_ablation_ladder_improves():
    # mean calibration MSE over seeds is non-increasing down the ladder
    cfg = _cfg(config=ModelConfig(hidden=32, heads=2, mlp_dim=64, n_blocks=1))
    one_block = ModelConfig(hidden=32, heads=2, mlp_dim=64, n_blocks=1)
    means = np.zeros(len(ABLATION_MODES))
    seeds = (0, 1)
    for seed in seeds:
        bundle, calib = _setup(seed, config=one_block)
        rows = ablate(bundle, calib, cfg)
        means += np.array([r["final_mse"] for r in rows]) / len(seeds)
    assert list(r["mode"] for r in rows) == list(ABLATION_MODES)
    assert np.all(means[1:] <= means[:-1])
    assert means[-1] < 0.5 * means[0]


@pytest.mark.parametrize(
    "failing_call, stage",
    [(1, "scale/rotation stage"), (2, "correction stage")],
    ids=["scale-rotation", "correction"],
)
def test_nan_loss_reports_block_and_stage(monkeypatch, failing_call, stage):
    from rotquant import pipeline as pl
    from rotquant.optim import OptimizationError

    calls = []
    optimize = pl.optimize

    def boom(*args, **kwargs):
        calls.append(1)
        if len(calls) == failing_call:
            raise OptimizationError("NaN loss at step 1")
        return optimize(*args, **kwargs)

    monkeypatch.setattr(pl, "optimize", boom)
    bundle, calib = _setup(13)
    with pytest.raises(OptimizationError, match=f"block 0, {stage}: NaN loss at step 1"):
        run_pipeline(bundle, calib, _cfg())


def test_rres_kinds_all_run():
    bundle, calib = _setup(12, config=ModelConfig(hidden=32, heads=2, mlp_dim=64, n_blocks=1))
    for kind in ("pca-hadamard", "hadamard", "random-hadamard"):
        cfg = replace(_cfg(config=SMALL), rres_kind=kind)
        result = run_pipeline(bundle, calib, cfg)
        assert np.isfinite(result.final_mse)
        if kind == "hadamard":
            assert np.allclose(result.rotation.matrix, hadamard_matrix(32))


def test_one_clip_search_per_site_per_block(monkeypatch):
    from rotquant import pipeline as pl

    calls = []
    search = pl.search_clip

    def counting(samples, bits, *args, **kwargs):
        calls.append(bits)
        return search(samples, bits, *args, **kwargs)

    monkeypatch.setattr(pl, "search_clip", counting)
    bundle, calib = _setup(3)
    run_pipeline(bundle, calib, _cfg(bits=(4, 4, 4)))
    # four activation sites plus the k and v caches, once each per block
    assert calls == [4] * 6 * SMALL.n_blocks


@pytest.mark.parametrize(
    "mode, with_report, calls",
    [("scale", False, 82), ("scale", True, 82), ("rotation-only", True, 8)],
)
def test_one_forward_per_step_and_state(monkeypatch, mode, with_report, calls):
    # per block: baseline 1, stage 1 12 steps + 1, GPTQ 1, after GPTQ 1 (also
    # the neutral stage-2 candidate), 3 seeded candidates, stage 2 20 steps
    # + 1, final 1 (also the report's site pass and the next block's input)
    from rotquant import pipeline as pl

    count = []
    forward = pl.forward_quant_block

    def counting(*args, **kwargs):
        count.append(1)
        return forward(*args, **kwargs)

    monkeypatch.setattr(pl, "forward_quant_block", counting)
    bundle, calib = _setup(3)
    run_pipeline(bundle, calib, mode_config(_cfg(with_report=with_report), mode))
    assert len(count) == calls


@pytest.mark.parametrize("bits, report_bits", [((4, 4, 4), 4), ((4, 16, 4), 4), ((4, 8, 4), 8)])
def test_report_equals_a_fresh_site_pass(bits, report_bits):
    bundle, calib = _setup(3)
    cfg = _cfg(bits=bits, with_report=True)
    result = run_pipeline(bundle, calib, cfg)
    layers = site_layers(result.bundle, result.params, cfg.qcfg, result.rotation.apply(calib))
    fresh = emit_report(layers, bits=report_bits)
    assert len(result.report.records) == len(fresh.records) == 6 * SMALL.n_blocks
    for got, want in zip(result.report.records, fresh.records):
        for f in fields(SiteRecord):
            a, b = getattr(got, f.name), getattr(want, f.name)
            if isinstance(b, np.ndarray):
                assert a.dtype == b.dtype and np.array_equal(a, b), f.name
            else:
                assert a == b, f.name
    assert result.report.blocks == [
        BlockMse(s.block, s.mse_baseline, s.mse_after_gptq, s.mse_final) for s in result.block_stats
    ]
