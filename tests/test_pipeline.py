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
    _attention_prefix,
    build_toy_model,
    effective_weights,
    forward_fp,
    forward_fp_block,
    forward_quant,
    forward_quant_block,
    fuse_rres,
    gen_calibration,
    mse,
)
from rotquant.pipeline import (
    ABLATION_MODES,
    PipelineConfig,
    StageSchedule,
    ablate,
    mode_config,
    prepare_bundle,
    quantize_blockwise,
    run_pipeline,
    site_layers,
)
from rotquant.quantizers import SCALE_FLOOR
from rotquant.transforms import hadamard_matrix, pca_basis, random_hadamard

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
    bundle = build_toy_model(SMALL, seed=0)
    n = SMALL.hidden
    d = np.diag(np.linspace(2.0, 1.0, n))
    for bw in bundle.blocks:
        for name in ("wq", "wk", "wv", "wgate", "wup"):
            setattr(bw, name, np.eye(*getattr(bw, name).shape) @ d)
        bw.g_attn = np.ones(n)
        bw.g_mlp = np.ones(n)
    m = prepare_bundle(bundle, _cfg()).rotation.matrix
    assert np.max(np.abs(m @ m.T - np.eye(n))) < 1e-8
    assert np.allclose(np.abs(m), 1.0 / np.sqrt(n), atol=1e-8)


def test_compute_rres_orthogonal_on_toy_bundle():
    bundle, _ = _setup(1)
    m = prepare_bundle(bundle, _cfg()).rotation.matrix
    assert np.max(np.abs(m @ m.T - np.eye(SMALL.hidden))) < 1e-8


def _folded_readers(bundle):
    """The residual readers of the norm-folded bundle, block by block in the
    order wq, wk, wv, wgate, wup."""
    from rotquant.model import fold_norms

    return [getattr(bw, name) for bw in fold_norms(bundle).blocks for name in ("wq", "wk", "wv", "wgate", "wup")]


def test_pca_hadamard_rres_is_pca_basis_then_hadamard():
    # bit for bit: the covariance sums the readers in block order, wq to wup
    bundle, _ = _setup(3)
    rot = prepare_bundle(bundle, _cfg()).rotation
    assert np.array_equal(rot.matrix, pca_basis(_folded_readers(bundle)) @ hadamard_matrix(SMALL.hidden))


def test_rres_concentrates_weight_energy():
    # rotating reader weights into the principal basis concentrates their
    # per-input-channel energy: the top-quartile share strictly increases
    bundle, _ = _setup(2)
    readers = _folded_readers(bundle)
    rot = prepare_bundle(bundle, _cfg()).rotation
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
        (lambda: _cfg(rres_kind="fourier"), "rres_kind"),
        (lambda: QuantConfig.for_bits(4, 12, 4, 16), "a_bits"),
        (lambda: SynthSpec.misaligned(32, 64, base_std=0), "base_std"),
        (lambda: SynthSpec.misaligned(32, 64, offset_std=-1), "offset_std"),
    ],
    ids=["epochs-negative", "lr_bias-zero", "rres_kind-fourier", "a_bits-12",
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


#: 64 x 8 = 512 tokens: the smallest set whose training loss is two shards
SHARDED = ModelConfig(hidden=16, heads=2, mlp_dim=32, n_blocks=1)
STAGE_FIELDS = {
    "stage 1": ("s_o", "s_down", "a_v"),
    "stage 2": ("bc_qkv", "bc_o", "bc_up", "bc_down", "sa_o", "sa_down") + BlockParams.ALPHA_FIELDS,
}


def _sharded_block(stage, sequences=64):
    """(source, BlockParams with the stage's fields as parameters, qcfg, x, y)
    of block 0 of the SHARDED model; stage 2 runs the quantized bundle."""
    bundle, calib = _setup(0, SHARDED, sequences=sequences, seq_len=8)
    cfg = _cfg(config=SHARDED)
    prepared = prepare_bundle(bundle, cfg)
    x = prepared.rotation.apply(calib)
    y = ad.value_of(forward_fp_block(prepared, 0, x))
    if stage == "stage 1":
        source, bp = prepared, BlockParams.neutral(SHARDED)
    else:
        result = quantize_blockwise(prepared, x, cfg)
        source, bp = result.bundle, result.params[0]
    for f in STAGE_FIELDS[stage]:
        setattr(bp, f, ad.parameter(getattr(bp, f)))
    return source, bp, cfg.qcfg, x, y


def _leaf_grads(loss, bp, fields):
    ad.backward(loss)
    grads = {f: getattr(bp, f).grad for f in fields}
    for f in fields:
        getattr(bp, f).clear_grad()
    return grads


def _training_loss(source, bp, qcfg, x, y, prefixes=None):
    """(loss, {field: gradient}) of block 0's training loss, as a fit sees it."""
    fields = [f for f in vars(bp) if isinstance(getattr(bp, f), ad.Var)]
    parts = pipeline._training_parts(source, 0, bp, qcfg, x, y, prefixes)
    with ad.parallel_parts(parts, [getattr(bp, f) for f in fields]) as loss_fn:
        loss = loss_fn()
        return loss, _leaf_grads(loss, bp, fields)


@pytest.mark.parametrize("stage", list(STAGE_FIELDS))
def test_sharded_training_loss_matches_one_graph(stage):
    source, bp, qcfg, x, y = _sharded_block(stage)
    fields = STAGE_FIELDS[stage]
    live = ad.GRAD_TRACKER.live
    one = mse(forward_quant_block(source, 0, bp, qcfg, x), y)
    assert len(pipeline._training_parts(source, 0, bp, qcfg, x, y)) == 2
    sharded, got = _training_loss(source, bp, qcfg, x, y)
    assert len(sharded._parents) == len(fields)  # one node over the parameters
    assert float(sharded.value) == pytest.approx(float(one.value), rel=1e-12)
    expect = _leaf_grads(one, bp, fields)
    for f in fields:
        assert np.linalg.norm(got[f] - expect[f]) <= 1e-12 * np.linalg.norm(expect[f]), f
    assert ad.GRAD_TRACKER.live == live  # every gradient the test made is released


def _graph(root):
    """{id: node} of every node `root` reaches."""
    nodes, stack = {}, [root]
    while stack:
        node = stack.pop()
        if id(node) not in nodes:
            nodes[id(node)] = node
            stack.extend(node._parents)
    return nodes


@pytest.mark.parametrize("stage", list(STAGE_FIELDS))
def test_sharded_loss_parts_share_only_parameters(stage):
    # each part runs its own forward, so a worker process builds the graph the caller would
    source, bp, qcfg, x, y = _sharded_block(stage)
    roots = [part() for part in pipeline._training_parts(source, 0, bp, qcfg, x, y)]
    assert len(roots) == 2
    first, second = map(_graph, roots)
    shared = [first[k] for k in first.keys() & second.keys()]
    assert len(shared) == len(STAGE_FIELDS[stage])
    assert all(node.requires_grad for node in shared)


@pytest.mark.parametrize("sequences, shards", [(8, 1), (64, 2)], ids=["one-shard", "two-shards"])
def test_stage1_prefix_keeps_the_loss_and_its_gradients(sequences, shards):
    # each shard's attention prefix, computed once, gives the loss and the
    # gradients that computing it in every forward gives, bit for bit
    source, bp, qcfg, x, y = _sharded_block("stage 1", sequences)
    prefixes = [_attention_prefix(source, 0, bp, qcfg, x[s]) for s in pipeline._shards(x)]
    assert len(prefixes) == shards
    plain = _training_loss(source, bp, qcfg, x, y)
    hoisted = _training_loss(source, bp, qcfg, x, y, prefixes)
    assert np.array_equal(plain[0].value, hoisted[0].value)
    for f in STAGE_FIELDS["stage 1"]:
        assert np.array_equal(hoisted[1][f], plain[1][f]), f


def test_a_stage1_step_skips_the_prefix_a_record_forward_runs(monkeypatch):
    # a stage-1 training forward rounds 5 weights, the v cache and the o, up
    # and down inputs, and rotates the down weights and inputs; a record
    # forward also rounds wq, wk, the qkv input and the k cache, and rotates
    # q and k
    from rotquant import model

    counts = {"quantize_dynamic": 0, "fwht": 0}
    for name, original in [(name, getattr(model, name)) for name in counts]:
        def counting(*args, name=name, original=original, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(model, name, counting)

    def made_by(fn):
        before = dict(counts)
        fn()
        return {name: counts[name] - before[name] for name in counts}

    class Stop(Exception):
        pass

    def one_forward(loss_fn, groups, steps, patience):
        per_forward.append(made_by(loss_fn))
        raise Stop

    per_forward = []
    monkeypatch.setattr(pipeline, "optimize", one_forward)
    bundle, calib = _setup()  # 64 tokens: one shard, one forward per loss
    cfg = _cfg()
    with pytest.raises(Stop):
        run_pipeline(bundle, calib, cfg)
    prepared = prepare_bundle(bundle, cfg)
    x = prepared.rotation.apply(calib)
    record = made_by(lambda: forward_quant_block(prepared, 0, BlockParams.neutral(SMALL), cfg.qcfg, x, rec={}))
    assert per_forward == [{"quantize_dynamic": 9, "fwht": 2}]
    assert record == {"quantize_dynamic": 13, "fwht": 4}


def test_a_prefix_is_refused_with_records():
    # the records need the qkv and k-cache inputs, which the prefix skips
    source, bp, qcfg, x, _ = _sharded_block("stage 1", sequences=8)
    prefix = _attention_prefix(source, 0, bp, qcfg, x)
    with pytest.raises(ValueError, match="records no qkv or k-cache input"):
        forward_quant_block(source, 0, bp, qcfg, x, rec={}, prefix=prefix)


@pytest.mark.parametrize("field", ["bc_qkv", "alpha_qkv", "alpha_k"])
def test_a_prefix_is_refused_when_a_field_it_reads_trains(field):
    # a fixed prefix would silently drop the field's gradient
    source, bp, qcfg, x, _ = _sharded_block("stage 1", sequences=8)
    prefix = _attention_prefix(source, 0, bp, qcfg, x)
    setattr(bp, field, ad.parameter(getattr(bp, field)))
    with pytest.raises(ValueError, match=f"drop the gradients of {field}$"):
        forward_quant_block(source, 0, bp, qcfg, x, prefix=prefix)


def test_sharded_run_keeps_the_memory_contract(monkeypatch):
    bundle, calib = _setup(0, SHARDED, sequences=64, seq_len=8)
    cfg = _cfg(config=SHARDED)
    sharded = run_pipeline(bundle, calib, cfg)
    assert ad.GRAD_TRACKER.live == 0
    monkeypatch.setattr(pipeline, "_SHARD_MIN_TOKENS", 10**9)
    one_graph = run_pipeline(bundle, calib, cfg)
    assert sharded.grad_peak_elements == one_graph.grad_peak_elements <= sharded.max_block_param_elements


def test_one_training_step_stays_in_its_memory_bound(monkeypatch):
    """Traced peak of one step (loss() + backward) of each stage, block 0 of
    the default run.  numpy reports its buffers to tracemalloc.  The step
    runs both sequence shards in this process (one CPU), so the bound
    covers both parts.  Measured: 34.2-36.6 MiB (stage 1) and
    38.5 MiB (stage 2) as two sequence shards on two threads, 35.3 and
    38.4 MiB as one graph; with a graph node per primitive op, float64
    codes and the batched weight-gradient temporary they were 63.1 and
    59.7 MiB."""
    from rotquant.cli import RunConfig

    monkeypatch.setattr(ad.os, "sched_getaffinity", lambda pid: {0})

    rc = RunConfig()
    bundle = build_toy_model(rc.model_config(), rc.seed, outlier_columns=rc.weight_outlier_cols)
    calib = gen_calibration(rc.synth_spec(), rc.calib_sequences, rc.seq_len)
    peaks = []

    class Stop(Exception):
        pass

    def one_step(loss_fn, groups, steps, patience):
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
    assert stage1 < 43.0  # 10% above the 39.2 MiB measured when the bound was set
    assert stage2 < 46.5  # 10% above the 42.3 MiB measured when the bound was set


def test_quantized_bundle_runs_standalone():
    bundle, calib = _setup(8)
    cfg = _cfg(with_report=True)
    result = run_pipeline(bundle, calib, cfg)
    assert result.bundle.qcfg == cfg.qcfg
    assert all(bw.scales for bw in result.bundle.blocks)
    x = rotated = result.bundle.rotation.apply(calib)
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


# the ids keep each case's name stable; a number in an id is the count from
# before stage 2 dropped its clip-seeded starts (2 forwards per block) and
# ended early (now 3 steps after its best: after 5 of its 21 evaluations, in each block)
@pytest.mark.parametrize(
    "mode, on_quantized, total", [("scale", 16, 46), ("rotation-only", 2, 4)], ids=["scale-52-82", "rotation-only-2-4"]
)
def test_forwards_after_gptq_run_the_stored_block(monkeypatch, mode, on_quantized, total):
    # GPTQ appends each block to the output bundle: the after-GPTQ forward,
    # the bias seed's score, the stage-2 loss and the final forward
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


def test_run_pipeline_checks_the_calibration_width_before_any_work(monkeypatch):
    bundle, _ = _setup()

    def refuse(*args):
        raise AssertionError("prepare_bundle ran on a malformed calibration set")

    monkeypatch.setattr(pipeline, "prepare_bundle", refuse)
    with pytest.raises(ValueError, match="^calibration width 16 != hidden 32$"):
        run_pipeline(bundle, np.zeros((4, 8, 16)), _cfg())
    with pytest.raises(ValueError, match="sequences"):
        run_pipeline(bundle, np.zeros((8, 32)), _cfg())


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
            assert np.allclose(result.bundle.rotation.matrix, hadamard_matrix(32))


def test_run_pipeline_runs_no_clip_search(monkeypatch):
    # the clip factors start at 1 and are trained; no grid search seeds them
    from rotquant import quantizers

    def forbidden(*args, **kwargs):
        raise AssertionError("run_pipeline ran a clip search")

    for module in (quantizers, pipeline):
        monkeypatch.setattr(module, "search_clip", forbidden, raising=False)
    bundle, calib = _setup(3)
    run_pipeline(bundle, calib, _cfg(bits=(4, 4, 4)))


@pytest.mark.parametrize("shift, seeded", [(1.0, True), (100.0, False), (0.0, False)], ids=["seed", "overshoot", "tie"])
def test_stage2_starts_at_the_bias_seed_only_when_it_scores_lower(monkeypatch, shift, seeded):
    # the seed's corrections are scaled by `shift`: 1 keeps the channel
    # means, 100 overshoots them, and 0 is the neutral point itself, whose
    # tie with the after-GPTQ loss goes to neutral
    one_block = ModelConfig(hidden=32, heads=2, mlp_dim=64, n_blocks=1)
    seeds, starts = [], []
    seed_bias, train = pipeline._seed_bias, pipeline._train

    def seeding(bp, sites):
        point = seed_bias(bp, sites)
        for site in ACT_SITES:
            setattr(point, "bc_" + site, shift * getattr(point, "bc_" + site))
        seeds.append((point, point.as_arrays()))
        return point

    def recording(bp, groups, loss_fn, steps, label, **kwargs):
        if label.endswith("correction stage"):
            starts.append((bp, bp.as_arrays()))
        return train(bp, groups, loss_fn, steps, label, **kwargs)

    monkeypatch.setattr(pipeline, "_seed_bias", seeding)
    monkeypatch.setattr(pipeline, "_train", recording)
    bundle, calib = _setup(0, config=one_block)
    cfg = _cfg(config=one_block)
    result = run_pipeline(bundle, calib, cfg)
    [(seed, seed_values)], [(start, start_values)] = seeds, starts

    prepared = prepare_bundle(bundle, cfg)
    x = prepared.rotation.apply(calib)
    y_q = forward_quant_block(result.bundle, 0, seed_values, cfg.qcfg, x)
    score = float(np.mean((np.asarray(y_q) - np.asarray(forward_fp(prepared, x))) ** 2))
    assert (score < result.report.blocks[0].mse_after_gptq) == seeded
    assert (start is seed) == seeded
    neutral = BlockParams.neutral(one_block)
    for f in ("bc_qkv", "bc_o", "bc_up", "bc_down", "sa_o", "sa_down") + BlockParams.ALPHA_FIELDS:
        want = getattr(seed_values if seeded else neutral, f)
        assert np.array_equal(getattr(start_values, f), want), f


def test_only_stage2_ends_3_steps_after_its_best(monkeypatch):
    calls = []
    optimize = pipeline.optimize

    def recording(loss_fn, groups, steps, **kwargs):
        calls.append((steps, kwargs))
        return optimize(loss_fn, groups, steps, **kwargs)

    monkeypatch.setattr(pipeline, "optimize", recording)
    bundle, calib = _setup(3)
    run_pipeline(bundle, calib, _cfg())
    assert calls == [(12, {"patience": None}), (20, {"patience": 3})] * SMALL.n_blocks


def test_stage2_ending_after_its_best_keeps_every_bit(monkeypatch):
    # one block, seed 0: stage 2's best of 20 steps is step 3, so at a
    # patience of 3 (10) it ends after 7 (14) evaluations and restores the
    # point the full 20 steps restore
    one_block = ModelConfig(hidden=32, heads=2, mlp_dim=64, n_blocks=1)
    bundle, calib = _setup(0, config=one_block)
    optimize = pipeline.optimize
    runs = []
    for patience in (3, 10, None):
        evaluations = []

        def recording(*args, **kwargs):
            result = optimize(*args, **kwargs)
            evaluations.append(len(result.losses))
            return result

        monkeypatch.setattr(pipeline, "optimize", recording)
        monkeypatch.setattr(pipeline, "_STAGE2_PATIENCE", patience)
        runs.append((run_pipeline(bundle, calib, _cfg(config=one_block)), evaluations))
    (full, full_evaluations) = runs.pop()
    assert [evaluations for _, evaluations in runs] == [[13, 7], [13, 14]] and full_evaluations == [13, 21]
    for cut, _ in runs:
        assert cut.final_mse == full.final_mse
        for f in fields(BlockParams):
            assert _hash(getattr(cut.params[0], f.name)) == _hash(getattr(full.params[0], f.name)), f.name


def test_gptq_block_width_keeps_the_written_codes(monkeypatch, tmp_path):
    # the feedback block width only regroups GPTQ's sums: a rotation-only run
    # writes the same quantized bundle at GPTQ's own 128 columns as at
    # GPTQ_BLOCK, on a down site of 256 columns
    from rotquant import quantizers
    from rotquant.bundle_io import write_bundle

    config = ModelConfig(hidden=32, heads=2, mlp_dim=256, n_blocks=1)
    written = []
    for width in (128, quantizers.GPTQ_BLOCK):
        monkeypatch.setattr(quantizers, "GPTQ_BLOCK", width)
        bundle, calib = _setup(5, config, sequences=32, seq_len=16)
        result = run_pipeline(bundle, calib, mode_config(_cfg(config=config), "rotation-only"))
        write_bundle(tmp_path / "quantized.rqb", result.bundle)
        written.append((tmp_path / "quantized.rqb").read_bytes())
    assert written[0] == written[1]


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
        ("bias", False, 45),
        ("unpaired-scale", False, 45),
        ("scale", False, 47),
        ("scale", True, 47),
        ("stage-1-off", False, 16),  # scale with train_rv and train_scale off
    ],
    # the ids keep each case's name stable; a number in an id is the count
    # from before stage 2 dropped its clip-seeded starts (2 forwards per
    # block) and ended early after its best
    ids=["rotation-only-True-4", "learned-rv-False-32", "bias-False-82", "unpaired-scale-False-82",
         "scale-False-82", "scale-True-82", "stage-1-off-False-54"],
)
def test_one_forward_per_step_and_state(monkeypatch, mode, with_report, calls):
    # per block: baseline 1, stage 1 12 steps + 1, the forward at the trained
    # parameters 1 (GPTQ's records; without stage 1 the baseline's), after
    # GPTQ 1 (also the neutral stage-2 start's score), the bias seed's score 1,
    # stage 2 up to 20 steps + 1 (it ends 3 steps after its best: 9, 11 and
    # 8 evaluations over the two blocks here), final 1 (also the report's
    # site pass and the next block's input); without stage 2 the after-GPTQ
    # forward is the final one
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
    layers = site_layers(result.bundle, result.params, cfg.qcfg, result.bundle.rotation.apply(calib))
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
    layers = site_layers(result.bundle, result.params, cfg.qcfg, result.bundle.rotation.apply(calib))
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
