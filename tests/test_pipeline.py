"""Staged blockwise quantization: rotations, GPTQ, corrections, ablation."""

import hashlib
import tracemalloc
from dataclasses import fields, replace

import numpy as np
import pytest

from rotquant import autodiff as ad
from rotquant import pipeline
from rotquant.analysis import SiteRecord, emit_report
from rotquant.model import (
    ACT_SITES,
    BlockParams,
    ModelConfig,
    QuantConfig,
    SynthSpec,
    build_toy_model,
    effective_weights,
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
    compute_rres,
    mode_config,
    prepare_bundle,
    quantize_blockwise,
    run_pipeline,
    site_layers,
)
from rotquant.quantizers import SCALE_FLOOR
from rotquant.transforms import hadamard_matrix, random_hadamard

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
    for s in result.report.blocks:
        assert s.mse_baseline < 1e-10
        assert s.mse_final < 1e-10


def test_stagewise_mse_ordering():
    # strict improvement at every stage boundary on the misaligned model
    bundle, calib = _setup(4)
    result = run_pipeline(bundle, calib, _cfg())
    s0 = result.report.blocks[0]
    assert s0.mse_final < s0.mse_after_gptq < s0.mse_baseline
    for s in result.report.blocks:
        assert s.mse_final <= s.mse_after_gptq <= s.mse_baseline


def test_schedule_defaults():
    sched = StageSchedule()
    assert sched.stage1_epochs == 3
    assert sched.stage2_epochs == 5
    assert sched.lr_scale == pytest.approx(1e-2)
    assert sched.lr_clip == pytest.approx(1e-2)
    assert sched.lr_bias == pytest.approx(1e-3)


@pytest.mark.parametrize(
    "build, field",
    [
        (lambda: StageSchedule(stage2_epochs=-1), "stage2_epochs"),
        (lambda: StageSchedule(lr_bias=0), "lr_bias"),
        (lambda: _cfg(gptq_damp=2.0), "gptq_damp"),
        (lambda: _cfg(rres_kind="fourier"), "rres_kind"),
        (lambda: QuantConfig.for_bits(4, 12, 4, 16), "a_bits"),
        (lambda: SynthSpec.misaligned(32, 64, base_std=0), "base_std"),
        (lambda: SynthSpec.misaligned(32, 64, offset_std=-1), "offset_std"),
    ],
    ids=["epochs-negative", "lr_bias-zero", "gptq_damp-2", "rres_kind-fourier", "a_bits-12",
         "base_std-zero", "offset_std-negative"],
)
def test_library_types_reject_bad_settings(build, field):
    with pytest.raises(ValueError, match=field):
        build()


def test_blockwise_locality():
    bundle, calib = _setup(5)
    prepared = prepare_bundle(bundle, _cfg())
    hashes = [
        {name: _hash(getattr(bw, name)) for name in ("wq", "wk", "wv", "wo", "wgate", "wup", "wdown")}
        for bw in prepared.blocks
    ]
    quantize_blockwise(prepared, prepared.rotation.apply(calib), _cfg())
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


def test_one_training_step_stays_in_its_memory_bound(monkeypatch):
    """Traced peak of one step (loss() + backward) of each stage, block 0 of
    the default run.  numpy reports its buffers to tracemalloc.  Measured:
    39.2 MiB (stage 1) and 42.3 MiB (stage 2); with a graph node per
    primitive op, float64 codes and the batched weight-gradient temporary
    they were 63.1 and 59.7 MiB."""
    from rotquant.cli import RunConfig

    rc = RunConfig()
    bundle = build_toy_model(rc.model_config(), rc.seed, outlier_columns=rc.weight_outlier_cols)
    calib = gen_calibration(rc.synth_spec(), rc.calib_sequences, rc.seq_len)
    peaks = []

    class Stop(Exception):
        pass

    def one_step(loss_fn, groups, steps):
        tracemalloc.start()
        try:
            ad.backward(loss_fn())
            peaks.append(tracemalloc.get_traced_memory()[1] / 2**20)
        finally:
            tracemalloc.stop()
        for p in (p for grp in groups for p in grp.params):
            p.clear_grad()
        if len(peaks) == 2:
            raise Stop

    monkeypatch.setattr(pipeline, "optimize", one_step)
    with pytest.raises(Stop):
        run_pipeline(bundle, calib, replace(rc.pipeline_config(), with_report=False))
    stage1, stage2 = peaks
    assert stage1 < 43.0  # 10% above the measured value
    assert stage2 < 46.5  # 10% above the measured value


def test_quantized_bundle_runs_standalone():
    bundle, calib = _setup(8)
    cfg = _cfg(with_report=True)
    result = run_pipeline(bundle, calib, cfg)
    assert result.bundle.qcfg == cfg.qcfg
    assert all(bw.scales for bw in result.bundle.blocks)
    x = rotated = result.rotation.apply(calib)
    y = forward_quant(result.bundle, result.params, cfg.qcfg, x)
    prepared = prepare_bundle(bundle, cfg)
    y_fp = forward_fp(prepared, rotated)
    mse = float(np.mean((np.asarray(y) - np.asarray(y_fp)) ** 2))
    assert mse == result.final_mse
    # report carries one record per quantizer site
    sites = {(r.block, r.site) for r in result.report.records}
    assert (0, "qkv") in sites and (1, "down") in sites and (0, "k_cache") in sites
    assert len(result.report.blocks) == 2


def _block_bytes(bw):
    """Every array of a BlockWeights, scales included, as (dtype, shape, bytes)."""
    arrays = {k: v for k, v in vars(bw).items() if k != "scales"}
    arrays.update({f"{k}.scale": v for k, v in (bw.scales or {}).items()})
    return {k: None if v is None else (v.dtype.str, v.shape, v.tobytes()) for k, v in arrays.items()}


@pytest.mark.parametrize("mode, on_quantized, total", [("scale", 52, 82), ("rotation-only", 2, 4)])
def test_forwards_after_gptq_run_the_stored_block(monkeypatch, mode, on_quantized, total):
    # GPTQ appends each block to the output bundle: the after-GPTQ forward,
    # the stage-2 candidate scores, the stage-2 loss and the final forward
    # all run the block that is stored, as `rotquant eval` runs the file
    calls = []

    def recording(bundle, index, *args, **kwargs):
        calls.append((index, _block_bytes(bundle.blocks[index]) if bundle.qcfg is not None else None))
        return forward_quant_block(bundle, index, *args, **kwargs)

    monkeypatch.setattr(pipeline, "forward_quant_block", recording)
    bundle, calib = _setup()
    result = run_pipeline(bundle, calib, mode_config(_cfg(), mode))
    stored = [(i, block) for i, block in calls if block is not None]
    assert (len(stored), len(calls)) == (on_quantized, total)
    for i, block in stored:
        assert block == _block_bytes(result.bundle.blocks[i]), i


def test_fuse_rres_refuses_a_quantized_bundle():
    # a rotation would move the stored weights off their lattice
    bundle, calib = _setup()
    result = run_pipeline(bundle, calib, mode_config(_cfg(), "rotation-only"))
    with pytest.raises(RuntimeError, match="quantized"):
        fuse_rres(result.bundle, random_hadamard(SMALL.hidden, 1))


def test_calibration_validation():
    bundle, calib = _setup(9)
    prepared = prepare_bundle(bundle, _cfg())
    with pytest.raises(ValueError, match="sequences"):
        quantize_blockwise(prepared, np.zeros((0, 8, 32)), _cfg())
    with pytest.raises(ValueError, match="width"):
        quantize_blockwise(prepared, np.zeros((4, 8, 16)), _cfg())
    with pytest.raises(RuntimeError, match="fold"):
        quantize_blockwise(bundle, prepared.rotation.apply(calib), _cfg())


# -- ablation ---------------------------------------------------------------------------


def test_ablation_single_mode_matches_direct_call():
    bundle, calib = _setup(10, config=ModelConfig(hidden=32, heads=2, mlp_dim=64, n_blocks=1))
    cfg = _cfg(config=SMALL)
    rows = ablate(bundle, calib, cfg, modes=["bias"])
    direct = run_pipeline(bundle, calib, mode_config(cfg, "bias"))
    assert rows[0]["final_mse"] == direct.final_mse


def test_ablation_builds_no_report(monkeypatch):
    # ablate keeps only final_mse, so it builds no report even when the
    # caller's config asks for one; each row equals a reported direct run
    from rotquant import pipeline as pl

    bundle, calib = _setup(10, config=ModelConfig(hidden=32, heads=2, mlp_dim=64, n_blocks=1))
    cfg = _cfg(config=SMALL, with_report=True)
    direct = [run_pipeline(bundle, calib, mode_config(cfg, mode)).final_mse for mode in ABLATION_MODES]

    def forbidden(*args, **kwargs):
        raise AssertionError("ablate built a report")

    monkeypatch.setattr(pl, "emit_report", forbidden)
    rows = ablate(bundle, calib, cfg)
    assert [r["final_mse"] for r in rows] == direct


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


def test_only_a_trained_mode_sets_the_allocator(monkeypatch):
    from rotquant import optim

    calls = []
    monkeypatch.setattr(optim, "_keep_freed_heap", lambda: calls.append(1))
    bundle, calib = _setup(4, config=ModelConfig(hidden=32, heads=2, mlp_dim=64, n_blocks=1))
    cfg = _cfg(schedule=StageSchedule(steps_per_epoch=1))
    run_pipeline(bundle, calib, mode_config(cfg, "rotation-only"))
    assert calls == []
    run_pipeline(bundle, calib, mode_config(cfg, "scale"))
    assert calls  # every optimize call asks; the helper itself runs once per process


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


def test_one_gptq_call_per_site_per_block(monkeypatch):
    # the matrices of one site share its Hessian: one stacked call per site,
    # and each matrix's rows equal a separate call on that matrix alone
    from rotquant import pipeline as pl

    calls = []
    gptq = pl.gptq_quantize

    def recording(w, x, spec, **kwargs):
        q, raw = gptq(w, x, spec, **kwargs)
        calls.append((w, x, spec, kwargs, q))
        return q, raw

    monkeypatch.setattr(pl, "gptq_quantize", recording)
    bundle, calib = _setup(3)
    run_pipeline(bundle, calib, _cfg(bits=(4, 4, 4)))
    assert len(calls) == len(ACT_SITES) * SMALL.n_blocks
    for (w, x, spec, kwargs, q), names in zip(calls, list(ACT_SITES.values()) * SMALL.n_blocks):
        for w_part, q_part in zip(np.split(w, len(names)), np.split(q, len(names))):
            assert np.array_equal(q_part, gptq(w_part, x, spec, **kwargs)[0])


@pytest.mark.parametrize(
    "mode, with_report, calls",
    [
        ("rotation-only", True, 4),
        ("learned-rv", False, 32),
        ("bias", False, 82),
        ("unpaired-scale", False, 82),
        ("scale", False, 82),
        ("scale", True, 82),
        ("stage-1-off", False, 54),  # scale with train_rv and train_scale off
    ],
)
def test_one_forward_per_step_and_state(monkeypatch, mode, with_report, calls):
    # per block: baseline 1, stage 1 12 steps + 1, the forward at the trained
    # parameters 1 (GPTQ's records; without stage 1 the baseline's), after
    # GPTQ 1 (also the neutral stage-2 candidate), 3 seeded candidates,
    # stage 2 20 steps + 1, final 1 (also the report's site pass and the next
    # block's input); without stage 2 the after-GPTQ forward is the final one
    from rotquant import pipeline as pl

    count = []
    forward = pl.forward_quant_block

    def counting(*args, **kwargs):
        count.append(1)
        return forward(*args, **kwargs)

    monkeypatch.setattr(pl, "forward_quant_block", counting)
    bundle, calib = _setup(3)
    cfg = _cfg(with_report=with_report)
    if mode == "stage-1-off":
        cfg = replace(cfg, train_rv=False, train_scale=False)
    else:
        cfg = mode_config(cfg, mode)
    run_pipeline(bundle, calib, cfg)
    assert len(count) == calls


# the ids keep each case's name stable; the trailing number is its activation
# bits, or 4 when activations are not quantized
@pytest.mark.parametrize("bits", [(4, 4, 4), (4, 16, 4), (4, 8, 4)], ids=["bits0-4", "bits1-4", "bits2-8"])
def test_report_equals_a_fresh_site_pass(bits):
    bundle, calib = _setup(3)
    cfg = _cfg(bits=bits, with_report=True)
    result = run_pipeline(bundle, calib, cfg)
    layers = site_layers(result.bundle, result.params, cfg.qcfg, result.rotation.apply(calib))
    fresh = emit_report(layers, cfg.qcfg)
    assert len(result.report.records) == len(fresh.records) == 6 * SMALL.n_blocks
    for got, want in zip(result.report.records, fresh.records):
        for f in fields(SiteRecord):
            if f.name == "measured_noise_var":
                continue  # needs the FP weights, see test_measured_noise_var_is_the_run_error
            a, b = getattr(got, f.name), getattr(want, f.name)
            if isinstance(b, np.ndarray):
                assert a.dtype == b.dtype and np.array_equal(a, b), f.name
            else:
                assert a == b, f.name


def _steps(x, bits, group, symmetric=False):
    """Quantizer steps per group of `group` trailing columns, at clip factor
    1, from the definition; zeros when `bits` disables the quantizer."""
    if bits >= 16:
        return np.zeros(1)
    g = x.reshape(x.shape[0], -1, group)
    if symmetric:
        raw = np.abs(g).max(axis=-1) / (2 ** (bits - 1) - 1)
    else:
        raw = (g.max(axis=-1) - g.min(axis=-1)) / (2**bits - 1)
    return np.maximum(raw, SCALE_FLOOR)


@pytest.mark.parametrize("bits", [(4, 4, 4), (8, 4, 4), (4, 16, 4), (4, 4, 8)])
def test_report_analyses_each_site_with_the_runs_quantizers(bits):
    # each record's rounding energy and closed-form noise, recomputed from
    # the run's own spec for the site: per-token activations, per-head
    # caches, per-channel symmetric weights; a disabled side contributes 0
    w_bits, a_bits, kv_bits = bits
    bundle, calib = _setup(3)
    cfg = _cfg(bits=bits, with_report=True)
    result = run_pipeline(bundle, calib, cfg)
    layers = site_layers(result.bundle, result.params, cfg.qcfg, result.rotation.apply(calib))
    assert len(layers) == len(result.report.records) == 6 * SMALL.n_blocks
    for (block, site, act, weight), rec in zip(layers, result.report.records):
        assert (rec.block, rec.site) == (block, site)
        if site in ("k_cache", "v_cache"):
            s_a = _steps(act, kv_bits, SMALL.head_dim)
        else:
            s_a = _steps(act, a_bits, act.shape[1])
        assert rec.rounding_energy == pytest.approx(np.mean(s_a**2) / 12.0, rel=1e-12, abs=0.0), site
        if weight is None:
            assert rec.predicted_noise_var is None
            continue
        vw = np.mean(_steps(weight, w_bits, weight.shape[1], symmetric=True)) ** 2 / 12.0
        va = np.mean(s_a) ** 2 / 12.0
        a_rms2 = np.mean(act * act, axis=0)
        want = np.mean(weight * weight) * va + np.mean(a_rms2) * vw + vw * va
        assert rec.predicted_noise_var == pytest.approx(want, rel=1e-12, abs=0.0), site


def test_trained_clip_factors_and_scales_stay_in_bounds():
    # with these learning rates the unclamped updates take a clip factor
    # above 1 and the scales below 0: clip factors stay in [1e-3, 1] and
    # scales at least 1e-6
    bundle, calib = _setup(1)
    sched = StageSchedule(steps_per_epoch=4, lr_scale=3.0, lr_clip=0.1)
    result = run_pipeline(bundle, calib, _cfg(schedule=sched))
    for bp in result.params:
        for name in BlockParams.ALPHA_FIELDS:
            assert 1e-3 <= float(getattr(bp, name)) <= 1.0, name
        for name in ("s_o", "s_down", "sa_o", "sa_down"):
            assert np.all(getattr(bp, name) >= 1e-6), name


@pytest.mark.parametrize("bits", [(4, 4, 4), (4, 16, 4), (4, 8, 4)])
def test_measured_noise_var_is_the_run_error(bits):
    # recompute each site's realized linear error from a separate forward of
    # the quantized bundle and the FP effective weights at the final params
    bundle, calib = _setup(3)
    cfg = _cfg(bits=bits, with_report=True)
    result = run_pipeline(bundle, calib, cfg)
    prepared = prepare_bundle(bundle, cfg)
    got = {(r.block, r.site): r.measured_noise_var for r in result.report.records}
    x = prepared.rotation.apply(calib)
    for i, bp in enumerate(result.params):
        rec = {}
        x = ad.value_of(forward_quant_block(result.bundle, i, bp, cfg.qcfg, x, rec=rec))
        eff = effective_weights(prepared.blocks[i], bp, prepared.config)
        for site, names in ACT_SITES.items():
            w_q = np.vstack([getattr(result.bundle.blocks[i], nm) for nm in names])
            w_fp = np.vstack([ad.value_of(eff[nm]) for nm in names])
            err = rec[site + ".lin"] @ w_q.T - rec[site + ".in"] @ w_fp.T
            want = np.mean(err**2) / w_fp.shape[1]
            assert want > 0.0
            assert got[(i, site)] == pytest.approx(want, rel=1e-12, abs=0.0), (i, site)
        assert got[(i, "k_cache")] is None and got[(i, "v_cache")] is None


@pytest.mark.parametrize("seed", [0, 3])
@pytest.mark.parametrize("flag", ["train_unpaired", "train_bias"])
def test_stage2_trains_only_fields_an_enabled_quantizer_reads(flag, seed):
    # activations pass through and the KV cache is on: no enabled quantizer
    # reads the bias corrections or the unpaired scales, so stage 2 has
    # nothing to train and the after-GPTQ forward is the final one
    bundle, calib = _setup(seed)
    flags = dict.fromkeys(("train_rv", "train_scale", "train_bias", "train_unpaired", "train_clip"), False)
    result = run_pipeline(bundle, calib, _cfg(bits=(4, 16, 4), **dict(flags, **{flag: True})))
    assert [s.mse_final for s in result.report.blocks] == [s.mse_after_gptq for s in result.report.blocks]
    assert result.final_mse == result.report.blocks[-1].mse_after_gptq
    neutral = BlockParams.neutral(SMALL)
    for bp in result.params:
        for f in fields(BlockParams):
            assert np.array_equal(getattr(bp, f.name), getattr(neutral, f.name)), f.name


def test_report_runs_no_noise_monte_carlo(monkeypatch):
    from rotquant import analysis

    def forbidden(*args, **kwargs):
        raise AssertionError("the quantize report ran the noise Monte Carlo")

    monkeypatch.setattr(analysis, "noise_propagation", forbidden)
    bundle, calib = _setup(3)
    result = run_pipeline(bundle, calib, _cfg(with_report=True))
    assert len(result.report.records) == 6 * SMALL.n_blocks
