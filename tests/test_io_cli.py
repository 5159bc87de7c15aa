"""File formats, run configuration, and the command-line surface."""

import json
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from rotquant.analysis import BlockMse, ErrorReport, SiteRecord
from rotquant.bundle_io import (
    BundleFormatError,
    ConfigError,
    RunConfig,
    read_bundle,
    read_calibration,
    read_params,
    read_report,
    write_bundle,
    write_calibration,
    write_params,
    write_report,
)
from rotquant.cli import main
from rotquant.model import BlockParams, ModelConfig, build_toy_model

CFG = ModelConfig(hidden=32, heads=2, mlp_dim=64, n_blocks=2)


# -- bundle container -----------------------------------------------------------------


def test_bundle_roundtrip_bit_exact_after_f32(tmp_path):
    bundle = build_toy_model(CFG, seed=0)
    path = tmp_path / "m.rqb"
    write_bundle(path, bundle)
    loaded = read_bundle(path)
    for a, b in zip(bundle.blocks, loaded.blocks):
        for name in ("wq", "wk", "wv", "wo", "wgate", "wup", "wdown", "bq", "g_attn"):
            ref = getattr(a, name).astype("<f4").astype(np.float64)
            assert np.array_equal(ref, getattr(b, name)), name
    assert loaded.config == bundle.config
    assert loaded.meta == bundle.meta

    # writing the loaded bundle reproduces the file byte for byte
    path2 = tmp_path / "m2.rqb"
    write_bundle(path2, loaded)
    assert path.read_bytes() == path2.read_bytes()


def test_bundle_tensor_alignment(tmp_path):
    bundle = build_toy_model(CFG, seed=1)
    path = tmp_path / "m.rqb"
    write_bundle(path, bundle)
    raw = path.read_bytes()
    header_len = struct.unpack_from("<Q", raw, 8)[0]
    header = json.loads(raw[16 : 16 + header_len])
    offsets = [t["offset"] for t in header["tensors"]]
    assert all(off % 64 == 0 for off in offsets)
    assert offsets == sorted(offsets)
    ends = [t["offset"] + t["nbytes"] for t in header["tensors"]]
    assert all(e <= len(raw) for e in ends)
    assert all(o >= e for o, e in zip(offsets[1:], ends[:-1]))  # non-overlapping


def test_bundle_bad_magic(tmp_path):
    path = tmp_path / "bad.rqb"
    path.write_bytes(b"NOTMAGIC" + b"\x00" * 64)
    with pytest.raises(BundleFormatError, match="magic"):
        read_bundle(path)


def test_bundle_truncated_header(tmp_path):
    bundle = build_toy_model(CFG, seed=2)
    path = tmp_path / "m.rqb"
    write_bundle(path, bundle)
    raw = bytearray(path.read_bytes())
    struct.pack_into("<Q", raw, 8, len(raw) * 2)  # header overruns the file
    path.write_bytes(bytes(raw))
    with pytest.raises(BundleFormatError, match="offset"):
        read_bundle(path)


def test_bundle_truncated_body(tmp_path):
    bundle = build_toy_model(CFG, seed=3)
    path = tmp_path / "m.rqb"
    write_bundle(path, bundle)
    path.write_bytes(path.read_bytes()[:-512])
    with pytest.raises(BundleFormatError, match="overruns"):
        read_bundle(path)


def test_bundle_rejects_nonfinite_values(tmp_path):
    bundle = build_toy_model(CFG, seed=4)
    bundle.blocks[0].wq[0, 0] = np.nan
    path = tmp_path / "m.rqb"
    write_bundle(path, bundle)
    with pytest.raises(BundleFormatError, match="non-finite"):
        read_bundle(path)


def _mutated(raw, mutate):
    """Container bytes with the JSON header replaced by mutate(header); the
    tensor layout is kept when the new header is no longer than the old."""
    (n,) = struct.unpack_from("<Q", raw, 8)
    enc = json.dumps(mutate(json.loads(raw[16 : 16 + n])), separators=(",", ":")).encode("utf-8")
    enc += b" " * (n - len(enc))
    return raw[:8] + struct.pack("<Q", len(enc)) + enc + raw[16 + n :]


def _rewrite_header(path, mutate):
    path.write_bytes(_mutated(path.read_bytes(), mutate))


def _drop(key, index=None):
    def mutate(header):
        del (header if index is None else header["tensors"][index])[key]
        return header

    return mutate


def _drop_tensor(name):
    def mutate(header):
        header["tensors"] = [t for t in header["tensors"] if t["name"] != name]
        return header

    return mutate


def _set_config(**fields):
    def mutate(header):
        header["config"].update(fields)
        return header

    return mutate


def _write_model(path):
    write_bundle(path, build_toy_model(CFG, seed=0))


def _write_params(path):
    write_params(path, [BlockParams.neutral(CFG) for _ in range(CFG.n_blocks)])


@pytest.mark.parametrize(
    "write, read, mutate, match",
    [
        (_write_model, read_bundle, _drop("offset", index=0), "offset"),
        (_write_model, read_bundle, _drop("config"), "config"),
        (_write_model, read_bundle, lambda h: dict(h, meta={}), "meta"),
        (_write_model, read_bundle, lambda h: dict(h, tensors=5), "tensor table"),
        (_write_params, read_params, _drop_tensor("block0.bc_qkv"), "block0.bc_qkv"),
        (_write_model, read_bundle, _set_config(hidden=64), "block0.wq has shape"),
        (_write_model, read_bundle, _set_config(mlp_dim=32), "block0.wgate has shape"),
    ],
    ids=[
        "no-offset",
        "no-config",
        "no-meta-flags",
        "tensors-not-list",
        "params-missing-tensor",
        "config-hidden-disagrees",
        "config-mlp-disagrees",
    ],
)
def test_malformed_header_is_format_error(tmp_path, write, read, mutate, match):
    path = tmp_path / "m.rqb"
    write(path)
    _rewrite_header(path, mutate)
    with pytest.raises(BundleFormatError, match=match):
        read(path)


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)


def _paths(node, prefix=()):
    yield prefix
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield from _paths(child, prefix + (key,))


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_header_mutations_fail_only_with_format_error(tmp_path, data):
    write, read = data.draw(
        st.sampled_from([(_write_model, read_bundle), (_write_params, read_params)])
    )
    template = tmp_path / f"{write.__name__}.rqb"
    if not template.exists():
        write(template)

    def mutate(header):
        where = data.draw(st.sampled_from(list(_paths(header))))
        if not where:
            return data.draw(_JSON)
        parent = header
        for key in where[:-1]:
            parent = parent[key]
        if data.draw(st.booleans()):
            del parent[where[-1]]
        else:
            parent[where[-1]] = data.draw(_JSON)
        return header

    path = tmp_path / "mutated.rqb"
    path.write_bytes(_mutated(template.read_bytes(), mutate))
    try:
        read(path)
    except BundleFormatError:
        pass
    finally:
        path.unlink()  # rewriting a file in place is slow on some filesystems


def test_calibration_roundtrip(tmp_path):
    calib = np.random.default_rng(0).normal(size=(4, 8, 32))
    path = tmp_path / "c.rqb"
    write_calibration(path, calib, synth_meta={"seed": 0})
    loaded = read_calibration(path)
    assert np.array_equal(loaded, calib.astype("<f4").astype(np.float64))


def test_params_roundtrip(tmp_path):
    params = [BlockParams.neutral(CFG) for _ in range(2)]
    params[0].bc_qkv = np.random.default_rng(1).normal(size=32)
    params[1].alpha_o = np.float64(0.75)
    path = tmp_path / "p.rqb"
    write_params(path, params)
    loaded = read_params(path)
    assert len(loaded) == 2
    ref = params[0].bc_qkv.astype("<f4").astype(np.float64)
    assert np.array_equal(loaded[0].bc_qkv, ref)
    assert float(loaded[1].alpha_o) == pytest.approx(0.75)
    assert loaded[1].a_v.shape == (16, 16)


# -- reports -----------------------------------------------------------------------------


def _sample_report():
    return ErrorReport(
        records=[
            SiteRecord(
                block=0,
                site="qkv",
                rounding_energy=0.01,
                clipping_energy_fraction=0.18,
                var_of_means_fraction=0.8,
                mean_channel_var=1.0,
                var_of_means=4.0,
                predicted_noise_var=0.002,
                empirical_noise_var=0.0021,
                channel_means=np.array([0.1, -0.2]),
                channel_vars=np.array([1.0, 1.1]),
            ),
            SiteRecord(
                block=0,
                site="k_cache",
                rounding_energy=0.0,
                clipping_energy_fraction=0.0,
                var_of_means_fraction=0.0,
                mean_channel_var=0.5,
                var_of_means=0.0,
            ),
        ],
        blocks=[BlockMse(0, 1.0, 0.5, 0.25)],
    )


def test_report_roundtrip_lossless(tmp_path):
    report = _sample_report()
    base = tmp_path / "report"
    write_report(base, report)
    loaded = read_report(str(base) + ".json")
    assert loaded.schema == 1
    assert len(loaded.records) == 2
    r0, l0 = report.records[0], loaded.records[0]
    for field in (
        "block",
        "site",
        "rounding_energy",
        "clipping_energy_fraction",
        "var_of_means_fraction",
        "predicted_noise_var",
    ):
        assert getattr(l0, field) == getattr(r0, field)
    assert np.array_equal(l0.channel_means, r0.channel_means)
    assert loaded.records[1].predicted_noise_var is None
    assert loaded.blocks[0].mse_final == 0.25
    # csv twins exist with the same record count (summary rows stop at the
    # blank separator before the block-mse table)
    lines = (tmp_path / "report.csv").read_text().splitlines()
    summary = lines[1 : lines.index("")]
    assert len(summary) == 2


def test_report_twins_are_deterministic(tmp_path):
    report = _sample_report()
    write_report(tmp_path / "a", report)
    write_report(tmp_path / "b", report)
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


# -- run configuration ------------------------------------------------------------------


def test_runconfig_validates_power_of_two():
    rc = RunConfig(hidden=48)
    with pytest.raises(ConfigError, match="dimension must be 2\\^k"):
        rc.validate()


def test_runconfig_validates_bits_and_fields():
    with pytest.raises(ConfigError, match="a_bits"):
        RunConfig(a_bits=12).validate()
    with pytest.raises(ConfigError, match="rres_kind"):
        RunConfig(rres_kind="fourier").validate()
    with pytest.raises(ConfigError, match="gptq_damp"):
        RunConfig(gptq_damp=2.0).validate()


def test_runconfig_rejects_unknown_fields(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"hidden": 32, "bogus": 1}))
    with pytest.raises(ConfigError, match="bogus"):
        RunConfig.from_file(path)


@pytest.mark.parametrize(
    "document, named",
    [
        ('{"hidden": "64"}', "hidden"),
        ('{"hidden": 64.0}', "hidden"),
        ('{"hidden": true}', "hidden"),
        ('{"n_blocks": "2"}', "n_blocks"),
        ('{"lr_bias": "x"}', "lr_bias"),
        ('{"seed": "abc"}', "seed"),
        ('{"base_std": Infinity}', "base_std"),
        ('{"offset_std": NaN}', "offset_std"),
        ('{"mode": "bogus"}', "mode"),
        ("[1, 2]", "JSON object"),
        ("null", "JSON object"),
    ],
    ids=["hidden-str", "hidden-float", "hidden-bool", "n_blocks-str", "lr_bias-str", "seed-str",
         "base_std-inf", "offset_std-nan", "mode-unknown", "list", "null"],
)
def test_cli_malformed_config_is_validation_error(tmp_path, document, named):
    path = tmp_path / "config.json"
    path.write_text(document)
    src = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.run(
        [sys.executable, "-m", "rotquant.cli", "gen", "--config", str(path), "--out", str(tmp_path / "g")],
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)),
        capture_output=True,
        text=True,
        timeout=60,
        check=False,
    )
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert any(line.startswith("error:") and named in line for line in proc.stderr.splitlines()), proc.stderr


def test_runconfig_float_fields_accept_ints(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"lr_bias": 1, "mode": None}))
    rc = RunConfig.from_file(path)
    assert rc.lr_bias == 1.0 and isinstance(rc.lr_bias, float)
    assert rc.mode is None


# -- CLI ---------------------------------------------------------------------------------


def _tiny_config(tmp_path, **overrides):
    cfg = {
        "hidden": 32,
        "heads": 2,
        "mlp_dim": 64,
        "n_blocks": 1,
        "calib_sequences": 8,
        "seq_len": 8,
        "steps_per_epoch": 2,
    }
    cfg.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def test_cli_gen_creates_reloadable_files(tmp_path):
    cfg = _tiny_config(tmp_path)
    out = tmp_path / "g"
    assert main(["gen", "--config", cfg, "--out", str(out), "--seed", "3"]) == 0
    bundle = read_bundle(out / "model.rqb")
    assert bundle.config.hidden == 32
    calib = read_calibration(out / "calib.rqb")
    assert calib.shape == (8, 8, 32)

    # same seed reproduces identical bytes; different seed does not
    out2 = tmp_path / "g2"
    main(["gen", "--config", cfg, "--out", str(out2), "--seed", "3"])
    assert (out / "model.rqb").read_bytes() == (out2 / "model.rqb").read_bytes()
    out3 = tmp_path / "g3"
    main(["gen", "--config", cfg, "--out", str(out3), "--seed", "4"])
    assert (out / "model.rqb").read_bytes() != (out3 / "model.rqb").read_bytes()


def test_cli_gen_rejects_bad_dimension(tmp_path, capsys):
    cfg = _tiny_config(tmp_path, hidden=48)
    rc = main(["gen", "--config", cfg, "--out", str(tmp_path / "x")])
    assert rc == 1
    assert "dimension must be 2^k" in capsys.readouterr().err


def test_cli_quantize_and_reports(tmp_path):
    cfg = _tiny_config(tmp_path)
    gen_dir = tmp_path / "g"
    main(["gen", "--config", cfg, "--out", str(gen_dir), "--seed", "0"])
    out = tmp_path / "q"
    rc = main(
        [
            "quantize",
            "--config",
            cfg,
            "--model",
            str(gen_dir / "model.rqb"),
            "--calib",
            str(gen_dir / "calib.rqb"),
            "--out",
            str(out),
            "--seed",
            "0",
        ]
    )
    assert rc == 0
    report = read_report(out / "report.json")
    assert len(report.blocks) == 1
    b = report.blocks[0]
    assert b.mse_final <= b.mse_baseline
    assert (out / "quantized.rqb").exists()
    assert (out / "params.rqb").exists()
    assert (out / "report_profiles.csv").exists()


def test_cli_quantize_passthrough_bits(tmp_path):
    cfg = _tiny_config(tmp_path)
    gen_dir = tmp_path / "g"
    main(["gen", "--config", cfg, "--out", str(gen_dir), "--seed", "0"])
    out = tmp_path / "q16"
    rc = main(
        [
            "quantize",
            "--config",
            cfg,
            "--model",
            str(gen_dir / "model.rqb"),
            "--calib",
            str(gen_dir / "calib.rqb"),
            "--out",
            str(out),
            "--bits",
            "16,16,16",
        ]
    )
    assert rc == 0
    report = read_report(out / "report.json")
    assert report.blocks[0].mse_final < 1e-10


def test_cli_quantize_deterministic_outputs(tmp_path):
    cfg = _tiny_config(tmp_path)
    gen_dir = tmp_path / "g"
    main(["gen", "--config", cfg, "--out", str(gen_dir), "--seed", "1"])
    args = [
        "quantize",
        "--config",
        cfg,
        "--model",
        str(gen_dir / "model.rqb"),
        "--calib",
        str(gen_dir / "calib.rqb"),
        "--seed",
        "1",
    ]
    out1, out2 = tmp_path / "q1", tmp_path / "q2"
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    for name in ("quantized.rqb", "params.rqb", "report.json", "report.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name


def test_cli_analyze(tmp_path):
    cfg = _tiny_config(tmp_path, calib_sequences=16, seq_len=16)
    gen_dir = tmp_path / "g"
    main(["gen", "--config", cfg, "--out", str(gen_dir), "--seed", "2"])
    out = tmp_path / "a"
    rc = main(
        [
            "analyze",
            "--config",
            cfg,
            "--model",
            str(gen_dir / "model.rqb"),
            "--calib",
            str(gen_dir / "calib.rqb"),
            "--out",
            str(out),
        ]
    )
    assert rc == 0
    report = read_report(out / "analysis.json")
    assert max(r.var_of_means_fraction for r in report.records) > 0.5
    # the emitted report file is parseable by the verify command
    assert main(["verify", "--report", str(out / "analysis.json")]) == 0


def test_cli_analyze_zero_offsets(tmp_path):
    cfg = _tiny_config(tmp_path, offset_std=0.0, n_outliers=0, calib_sequences=625, seq_len=16)
    gen_dir = tmp_path / "g0"
    main(["gen", "--config", cfg, "--out", str(gen_dir), "--seed", "5"])
    out = tmp_path / "a0"
    main(
        [
            "analyze",
            "--config",
            cfg,
            "--model",
            str(gen_dir / "model.rqb"),
            "--calib",
            str(gen_dir / "calib.rqb"),
            "--out",
            str(out),
        ]
    )
    report = read_report(out / "analysis.json")
    assert report.records and all(r.var_of_means_fraction < 0.05 for r in report.records)


def test_cli_missing_file_is_runtime_error(tmp_path):
    rc = main(
        [
            "quantize",
            "--model",
            str(tmp_path / "nope.rqb"),
            "--calib",
            str(tmp_path / "nope2.rqb"),
            "--out",
            str(tmp_path / "o"),
        ]
    )
    assert rc == 2


def test_cli_corrupt_model_file(tmp_path, capsys):
    bad = tmp_path / "bad.rqb"
    bad.write_bytes(b"garbage!" * 16)
    rc = main(
        ["quantize", "--model", str(bad), "--calib", str(bad), "--out", str(tmp_path / "o")]
    )
    assert rc == 2
    assert "offset" in capsys.readouterr().err


def test_cli_malformed_header_is_runtime_error(tmp_path, capsys):
    bad = tmp_path / "m.rqb"
    _write_model(bad)
    _rewrite_header(bad, _drop("offset", index=0))
    rc = main(
        ["quantize", "--model", str(bad), "--calib", str(bad), "--out", str(tmp_path / "o")]
    )
    assert rc == 2
    assert "offset" in capsys.readouterr().err


def test_cli_config_shape_mismatch_is_runtime_error(tmp_path, capsys):
    cfg = _tiny_config(tmp_path)
    gen_dir = tmp_path / "g"
    main(["gen", "--config", cfg, "--out", str(gen_dir), "--seed", "0"])
    model = gen_dir / "model.rqb"
    _rewrite_header(model, _set_config(hidden=64))  # tensors stay 32 wide
    rc = main(
        [
            "quantize",
            "--config",
            cfg,
            "--model",
            str(model),
            "--calib",
            str(gen_dir / "calib.rqb"),
            "--out",
            str(tmp_path / "q"),
        ]
    )
    assert rc == 2
    assert "config needs (64, 64)" in capsys.readouterr().err


def test_bundle_rejects_every_tensor_of_the_wrong_shape(tmp_path):
    bundle = build_toy_model(CFG, seed=0)
    path = tmp_path / "m.rqb"
    names = ("wq", "wk", "wv", "wo", "wgate", "wup", "wdown", "bq", "bup", "bdown", "g_attn", "g_mlp")
    for name in names:
        bad = bundle.copy()
        arr = getattr(bad.blocks[1], name)
        setattr(bad.blocks[1], name, arr[..., : arr.shape[-1] // 2])
        write_bundle(path, bad)
        with pytest.raises(BundleFormatError, match=f"block1.{name} has shape"):
            read_bundle(path)


def test_cli_ablate_single_mode(tmp_path):
    cfg = _tiny_config(tmp_path)
    gen_dir = tmp_path / "g"
    main(["gen", "--config", cfg, "--out", str(gen_dir), "--seed", "0"])
    out = tmp_path / "ab"
    rc = main(
        [
            "ablate",
            "--config",
            cfg,
            "--model",
            str(gen_dir / "model.rqb"),
            "--calib",
            str(gen_dir / "calib.rqb"),
            "--out",
            str(out),
            "--mode",
            "rotation-only",
        ]
    )
    assert rc == 0
    rows = json.loads((out / "ablation.json").read_text())["rows"]
    assert rows[0]["mode"] == "rotation-only"
    assert (out / "ablation.csv").exists()


def test_cli_verify_passes(capsys):
    assert main(["verify"]) == 0
    out = capsys.readouterr().out
    for name in (
        "gaussian-clip-energy",
        "clip-threshold",
        "variance-identity",
        "fusion-equivalence",
        "gptq-dominance",
    ):
        assert f"PASS {name}" in out


def test_cli_verify_corrupted_tolerance_fails(capsys):
    assert main(["verify", "--corrupt-check", "variance-identity"]) == 3
    captured = capsys.readouterr()
    assert "FAIL variance-identity" in captured.out
    assert "variance-identity" in captured.err
