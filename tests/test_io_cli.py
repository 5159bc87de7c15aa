"""File formats, run configuration, and the command-line surface."""

import ast
import contextlib
import copy
import dataclasses
import functools
import io
import json
import os
import struct
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from rotquant import bundle_io, cli, pipeline
from rotquant.analysis import BlockMse, ErrorReport, SiteRecord
from rotquant.bundle_io import (
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
from rotquant.cli import ConfigError, RunConfig, main
from rotquant.model import (
    BIAS_NAMES,
    WEIGHT_NAMES,
    BlockParams,
    ModelConfig,
    QuantConfig,
    SynthSpec,
    build_toy_model,
    gen_calibration,
)
from rotquant.pipeline import PipelineConfig, StageSchedule, run_pipeline

CFG = ModelConfig(hidden=32, heads=2, mlp_dim=64, n_blocks=2)


# -- bundle container -----------------------------------------------------------------


_TENSORS = ("wq", "wk", "wv", "wo", "wgate", "wup", "wdown", "bq", "bk", "bv", "bo", "bgate", "bup", "bdown",
            "g_attn", "g_mlp")


def _header(path):
    raw = path.read_bytes()
    (n,) = struct.unpack_from("<Q", raw, 8)
    return json.loads(raw[16 : 16 + n])


def test_bundle_roundtrip_bit_exact_after_f32(tmp_path):
    # every tensor is stored in its own precision: f64 arrays as f64, and
    # f32 arrays (the files gen writes) as f32; both reload bit for bit
    bundle = build_toy_model(CFG, seed=0)
    as_f32 = copy.deepcopy(bundle)
    for bw in as_f32.blocks:
        for name in _TENSORS:
            setattr(bw, name, getattr(bw, name).astype(np.float32))
    for source, dtype in ((bundle, "f64"), (as_f32, "f32")):
        path = tmp_path / f"{dtype}.rqb"
        write_bundle(path, source)
        assert {t["dtype"] for t in _header(path)["tensors"]} == {dtype}
        loaded = read_bundle(path)
        for a, b in zip(source.blocks, loaded.blocks):
            for name in _TENSORS:
                assert getattr(b, name).dtype == np.float64
                assert np.array_equal(getattr(a, name).astype(np.float64), getattr(b, name)), name
        assert loaded.config == bundle.config
        assert (loaded.rotation, loaded.qcfg, loaded.norms_folded) == (None, None, False)

    # writing the loaded f64 bundle reproduces its file byte for byte
    path = tmp_path / "f64.rqb"
    loaded = read_bundle(path)
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


def _set_n_blocks(value):
    def mutate(header):
        header["n_blocks"] = value
        del header["schema"]  # room for a longer value; the reader ignores the schema field
        return header

    return mutate


def _write_model(path):
    write_bundle(path, build_toy_model(CFG, seed=0))


def _write_params(path):
    write_params(path, [BlockParams.neutral(CFG) for _ in range(CFG.n_blocks)])


def _read_params(path):
    return read_params(path, CFG)


@functools.lru_cache(maxsize=None)
def _quantized(bits=(4, 4, 4)):
    """A pipeline result on the CFG model (one step per epoch); never mutate it."""
    calib = gen_calibration(SynthSpec.misaligned(CFG.hidden, 64, seed=0), 8, 8)
    qcfg = QuantConfig.for_bits(*bits, CFG.head_dim)
    cfg = PipelineConfig(qcfg=qcfg, schedule=StageSchedule(steps_per_epoch=1), with_report=False)
    return run_pipeline(build_toy_model(CFG, seed=0), calib, cfg)


def _write_quantized(path):
    write_bundle(path, _quantized().bundle)


@contextlib.contextmanager
def _extra_in_files(header=None, tensors=None):
    """Every container written inside adds the keys of `header` to its
    header and the {name: (dtype, array)} entries of `tensors` to its data."""
    write = bundle_io._write_container

    def patched(path, kind, header_extra, table):
        write(path, kind, dict(header_extra, **(header or {})), dict(table, **(tensors or {})))

    with mock.patch.object(bundle_io, "_write_container", patched):
        yield


def _write_params_with_stray(path):
    with _extra_in_files(tensors={"block0.bc_xx": ("f64", np.zeros(CFG.hidden))}):
        _write_params(path)


def _rename_tensor(old, new):
    def mutate(header):
        next(t for t in header["tensors"] if t["name"] == old)["name"] = new
        return header

    return mutate


@pytest.mark.parametrize(
    "write, read, mutate, match",
    [
        (_write_model, read_bundle, _drop("offset", index=0), "offset"),
        (_write_model, read_bundle, _drop("config"), "config"),
        (_write_model, read_bundle, lambda h: dict(h, tensors=5), "tensor table"),
        (_write_params, _read_params, _drop_tensor("block0.bc_qkv"), "block0.bc_qkv"),
        # a two-block params file never loads as fewer blocks
        (_write_params, _read_params, _set_n_blocks(1.5), "n_blocks"),
        (_write_params, _read_params, _set_n_blocks("2"), "n_blocks"),
        (_write_params, _read_params, _set_n_blocks(1), "block1"),
        (_write_params, _read_params, _set_n_blocks(-1), "n_blocks"),
        (_write_model, read_bundle, _set_config(hidden=64), "block0.wq has shape"),
        (_write_model, read_bundle, _set_config(mlp_dim=32), "block0.wgate has shape"),
        # eps 1e-06 -> 0.1 keeps the header's length, so the tensor table stays valid
        (_write_model, read_bundle, _set_config(hidden=32.0, eps=0.1), "hidden"),
        (_write_model, read_bundle, _set_config(hidden="32", eps=0.1), "hidden"),
        # a two-block model never loads as fewer blocks
        (_write_model, read_bundle, _set_config(n_blocks=1), "block1"),
        # eps 1e-06 -> -0.01 keeps the header's length
        (_write_model, read_bundle, _set_config(eps=-0.01), "eps: must be > 0"),
        (_write_model, read_bundle, _set_config(hidden=1, heads=1), "hidden: must be >= 2"),
        # the name keeps its length, so the tensor table stays valid
        (_write_model, read_bundle, _rename_tensor("block0.bq", "block0.bk"), "'block0.bk' appears twice"),
        (_write_model, read_bundle, _rename_tensor("block0.bq", "block0.bx"), "\\['block0.bx'\\] name no field"),
        (_write_params_with_stray, _read_params, lambda h: h, "\\['block0.bc_xx'\\] name no field"),
    ],
    ids=[
        "no-offset",
        "no-config",
        "tensors-not-list",
        "params-missing-tensor",
        "params-n_blocks-float",
        "params-n_blocks-str",
        "params-n_blocks-short",
        "params-n_blocks-negative",
        "config-hidden-disagrees",
        "config-mlp-disagrees",
        "config-hidden-float",
        "config-hidden-str",
        "config-n_blocks-short",
        "config-eps-negative",
        "config-hidden-1",
        "duplicate-name",
        "unknown-field",
        "params-unknown-field",
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
        st.sampled_from([(_write_model, read_bundle), (_write_params, _read_params), (_write_quantized, read_bundle)])
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
    for stored in (calib, calib.astype(np.float32)):  # each in its own precision
        write_calibration(path, stored)
        loaded = read_calibration(path)
        assert loaded.dtype == np.float64 and np.array_equal(loaded, stored)


def test_params_roundtrip(tmp_path):
    params = [BlockParams.neutral(CFG) for _ in range(2)]
    params[0].bc_qkv = np.random.default_rng(1).normal(size=32)
    params[1].alpha_o = np.float64(0.75)
    path = tmp_path / "p.rqb"
    write_params(path, params)
    loaded = read_params(path, CFG)
    assert len(loaded) == 2
    assert np.array_equal(loaded[0].bc_qkv, params[0].bc_qkv)
    assert float(loaded[1].alpha_o) == 0.75
    assert loaded[1].a_v.shape == (16, 16)


def _bits_equal(a, b):
    return a.shape == b.shape and np.array_equal(np.asarray(a).view(np.uint64), np.asarray(b).view(np.uint64))


@pytest.mark.parametrize("bits", [(4, 4, 4), (6, 4, 4), (3, 16, 16), (16, 4, 4)])
def test_quantized_bundle_and_params_reload_bit_exact(tmp_path, bits):
    # weights as codes (u4 at <= 4 bits, u8 above) plus one f64 raw scale
    # per row, f64 when the weights are not quantized; the rest is f64
    result = _quantized(bits)
    path, params_path = tmp_path / "q.rqb", tmp_path / "p.rqb"
    write_bundle(path, result.bundle)
    write_params(params_path, result.params)
    dtypes = {t["name"]: t["dtype"] for t in _header(path)["tensors"]}
    weight_dtype = "f64" if bits[0] >= 16 else "u4" if bits[0] <= 4 else "u8"
    for name, dtype in dtypes.items():
        is_weight = name.split(".")[-1] in ("wq", "wk", "wv", "wo", "wgate", "wup", "wdown")
        assert dtype == (weight_dtype if is_weight else "f64"), name
    assert "rotation" in dtypes
    assert _header(path)["bits"] == dict(zip(("w_bits", "a_bits", "kv_bits"), bits))

    loaded = read_bundle(path)
    assert loaded.config == result.bundle.config and loaded.norms_folded
    assert loaded.qcfg == result.bundle.qcfg
    assert _bits_equal(loaded.rotation.matrix, result.bundle.rotation.matrix)
    for a, b in zip(result.bundle.blocks, loaded.blocks):
        for name in _TENSORS:
            if name in ("g_attn", "g_mlp"):  # folded into the weights
                assert getattr(a, name) is None and getattr(b, name) is None, name
            else:
                assert _bits_equal(getattr(a, name), getattr(b, name)), name
        assert (a.scales is None) == (b.scales is None) == (bits[0] >= 16)
        for name in a.scales or {}:
            assert _bits_equal(a.scales[name], b.scales[name]), name
    for a, b in zip(result.params, read_params(params_path, CFG)):
        for f in a.__dataclass_fields__:
            assert _bits_equal(np.asarray(getattr(a, f)), np.asarray(getattr(b, f))), f

    # writing the loaded bundle reproduces the file byte for byte
    write_bundle(tmp_path / "again.rqb", loaded)
    assert (tmp_path / "again.rqb").read_bytes() == path.read_bytes()


def _set_entry(name, **fields):
    def mutate(header):
        next(t for t in header["tensors"] if t["name"] == name).update(fields)
        del header["schema"]  # room for longer values; the reader ignores the schema field
        return header

    return mutate


def _patch_tensor(name, value):
    """Raw-bytes mutation: the first f64 of tensor `name` becomes `value`."""

    def patch(raw):
        (n,) = struct.unpack_from("<Q", raw, 8)
        entry = next(t for t in json.loads(raw[16 : 16 + n])["tensors"] if t["name"] == name)
        out = bytearray(raw)
        struct.pack_into("<d", out, entry["offset"], value)
        return bytes(out)

    return patch


def _as_f32(name):
    """Raw-bytes mutation: f64 tensor `name` is stored as f32 (its values
    rounded) in the first half of its bytes, and its entry says so."""

    def patch(raw):
        (n,) = struct.unpack_from("<Q", raw, 8)
        entry = next(t for t in json.loads(raw[16 : 16 + n])["tensors"] if t["name"] == name)
        off, nbytes = entry["offset"], entry["nbytes"]
        as_f32 = np.frombuffer(raw, "<f8", nbytes // 8, off).astype("<f4").tobytes()
        out = bytearray(raw)
        out[off : off + nbytes] = as_f32.ljust(nbytes, b"\0")
        return _mutated(bytes(out), _set_entry(name, dtype="f32", nbytes=nbytes // 2))

    return patch


def _v1_magic(raw):
    return raw[:7] + b"\x01" + raw[8:]


@pytest.mark.parametrize(
    "header_mutation, raw_mutation, match",
    [
        (_set_entry("block0.bq", dtype="f16"), None, "block0.bq' has dtype 'f16'"),
        (_set_entry("block0.wq", shape=[32, 34]), None, "shape \\(32, 34\\) disagrees with 512 B of u4"),
        (lambda h: dict(h, bits=dict(h["bits"], w_bits=3)), None, "block0.wq holds a code above 7"),
        (None, _patch_tensor("block0.wq.scale", -1.0), "block0.wq.scale holds a negative scale"),
        (None, _patch_tensor("block1.wdown.scale", float("nan")), "block1.wdown.scale' at offset .* non-finite"),
        (None, _patch_tensor("block0.wq.scale", float("inf")), "block0.wq.scale' at offset .* non-finite"),
        (None, _v1_magic, "container version 1, this reader takes 2; rerun gen/quantize"),
        (_set_entry("block0.bq", dtype="u8", shape=[256]), None, "block0.bq is not a weight"),
        (_drop_tensor("block1.wup.scale"), None, "block1.wup needs integer codes \\[rows x cols\\] and an f64 scale"),
        (lambda h: {k: v for k, v in h.items() if k != "bits"}, None, "codes, but the header sets no weight bits"),
        (None, _as_f32("block0.wq.scale"), "block0.wq.scale is stored as f32, not f64"),
        (None, _as_f32("rotation"), "rotation is stored as f32, not f64"),
    ],
    ids=["unknown-dtype", "u4-nbytes", "code-above-bits", "scale-negative", "scale-nan", "scale-inf",
         "v2-behind-v1-magic", "scale-of-a-bias", "codes-without-scale", "codes-without-bits", "scale-f32",
         "rotation-f32"],
)
def test_quantized_file_format_errors(tmp_path, header_mutation, raw_mutation, match):
    path = tmp_path / "q.rqb"
    _write_quantized(path)
    raw = path.read_bytes()
    if header_mutation is not None:
        raw = _mutated(raw, header_mutation)
    if raw_mutation is not None:
        raw = raw_mutation(raw)
    path.write_bytes(raw)
    with pytest.raises(BundleFormatError, match=match):
        read_bundle(path)


def test_params_and_calibration_hold_no_codes(tmp_path):
    path = tmp_path / "p.rqb"
    _write_params(path)
    # an f64 scalar's 8 bytes read as 8 u8 codes of shape [8]
    _rewrite_header(path, _set_entry("block0.alpha_qkv", dtype="u8", shape=[8]))
    with pytest.raises(BundleFormatError, match="has dtype 'u8', not one of \\['f32', 'f64'\\]"):
        read_params(path, CFG)


def test_params_refuse_a_tensor_stored_as_f32(tmp_path):
    # write_params writes f64 only; an alpha of 1.1 stored as f32 would read
    # back as 1.100000023841858, a value the run never trained
    params = [BlockParams.neutral(CFG) for _ in range(CFG.n_blocks)]
    params[0].alpha_qkv = np.float64(1.1)
    path = tmp_path / "p.rqb"
    write_params(path, params)
    path.write_bytes(_as_f32("block0.alpha_qkv")(path.read_bytes()))
    with pytest.raises(BundleFormatError, match="block0.alpha_qkv is stored as f32, not f64"):
        read_params(path, CFG)


def test_write_bundle_rejects_a_weight_off_its_lattice(tmp_path):
    path = tmp_path / "q.rqb"
    nudged = copy.deepcopy(_quantized().bundle)
    w = nudged.blocks[1].wup
    w[3, 5] = np.nextafter(w[3, 5], np.inf)
    with pytest.raises(BundleFormatError, match="block1.wup: weights are off the lattice"):
        write_bundle(path, nudged)
    unscaled = copy.deepcopy(_quantized().bundle)
    unscaled.qcfg = QuantConfig.for_bits(16, 4, 4, CFG.head_dim)  # row scales, but no weight quantizer
    with pytest.raises(BundleFormatError, match="block0.wq: a weight scale needs a weight quantizer"):
        write_bundle(path, unscaled)
    assert not path.exists()


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
                measured_noise_var=0.0021,
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
    assert json.loads((tmp_path / "report.json").read_text())["schema"] == 3
    assert len(loaded.records) == 2
    r0, l0 = report.records[0], loaded.records[0]
    for field in (
        "block",
        "site",
        "rounding_energy",
        "clipping_energy_fraction",
        "var_of_means_fraction",
        "predicted_noise_var",
        "measured_noise_var",
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


def _record_json(**changes):
    """A schema-3 report record as write_report stores it, with `changes`."""
    return bundle_io._record_to_json(_sample_report().records[0]) | changes


@pytest.mark.parametrize(
    "payload, named",
    [
        ({"schema": 3, "records": [1]}, "SiteRecord: expected a JSON object, got 1"),
        ({"schema": 3, "records": [_record_json(clipping_energy_fraction="a")]},
         "clipping_energy_fraction = 'a' is not float"),
        ({"schema": 3, "records": [_record_json(clipping_energy_fraction=None)]},
         "clipping_energy_fraction = None is not float"),
        ({"schema": 3, "records": [_record_json(var_of_means_fraction=[0.5])]},
         "var_of_means_fraction = [0.5] is not float"),
        ({"schema": 3, "records": [_record_json(block="0")]}, "block = '0' is not int"),
        ({"schema": 3, "records": [_record_json(channel_means=["x"])]}, "channel_means = ['x'] is not np.ndarray"),
        # the field schema 1 held; schema 3 does not know it
        ({"schema": 3, "records": [_record_json(empirical_noise_var=0.1)]},
         "empirical_noise_var = 0.1 is not a known field"),
        ({"schema": 3, "records": [{"block": 0, "site": "qkv"}]},
         "missing 5 required positional arguments: 'rounding_energy'"),
        ({"schema": 3, "records": [], "blocks": [1]}, "BlockMse: expected a JSON object, got 1"),
        ({"schema": 3, "records": [], "blocks": [{"block": 0, "mse_baseline": "x", "mse_after_gptq": 0.5,
                                                  "mse_final": 0.25}]}, "mse_baseline = 'x' is not float"),
        ({"schema": 3, "records": {"a": 1}}, "records and blocks must be lists"),
        ({"schema": 4, "records": []}, "report schema 4, this reader takes 3"),
        ({"schema": True, "records": []}, "report schema True, this reader takes 3"),
        ([1, 2], "missing schema field"),
    ],
    ids=["record-not-object", "fraction-str", "fraction-null", "fraction-list", "block-str",
         "means-str", "schema2-empirical", "record-missing-fields", "block-not-object",
         "block-mse-str", "records-not-list", "schema-unknown", "schema-bool", "not-object"],
)
def test_cli_verify_malformed_report_fails_cleanly(tmp_path, capsys, payload, named):
    path = tmp_path / "report.json"
    path.write_text(json.dumps(payload))
    assert main(["verify", "--report", str(path)]) == 3
    captured = capsys.readouterr()
    fail = [line for line in captured.out.splitlines() if line.startswith("FAIL report-file: ")]
    assert len(fail) == 1 and named in fail[0], captured.out
    assert "Traceback" not in captured.out + captured.err


def test_cli_verify_reads_a_valid_report_record(tmp_path, capsys):
    # the record the cases above break is valid as it is
    path = tmp_path / "report.json"
    path.write_text(json.dumps({"schema": 3, "records": [_record_json()]}))
    assert main(["verify", "--report", str(path)]) == 0
    assert "PASS report-file: 1 records, schema 3" in capsys.readouterr().out


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


def test_runconfig_defaults_are_the_library_defaults():
    rc = RunConfig()
    assert rc.model_config() == ModelConfig()
    assert rc.pipeline_config() == PipelineConfig(QuantConfig.for_bits(4, 4, 4, 16))
    # misaligned's keyword defaults are restated in RunConfig; this pins them
    got, want = rc.synth_spec(), SynthSpec.misaligned(64, 1024)
    for field in dataclasses.fields(SynthSpec):
        assert np.array_equal(getattr(got, field.name), getattr(want, field.name)), field.name


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
        ('{"seed": -1}', "seed"),
        ('{"base_std": Infinity}', "base_std"),
        ('{"offset_std": NaN}', "offset_std"),
        ('{"lr_clip": Infinity}', "lr_clip = inf is not a finite float"),
        ('{"mode": "bogus"}', "mode"),
        ('{"weight_outlier_cols": -1}', "weight_outlier_cols"),
        ('{"gptq_damp": 0.01}', "gptq_damp"),
        ('{"hidden": %d}' % 2**200, "hidden"),
        ("[1, 2]", "JSON object"),
        ("null", "JSON object"),
    ],
    ids=["hidden-str", "hidden-float", "hidden-bool", "n_blocks-str", "lr_bias-str", "seed-str", "seed-negative",
         "base_std-inf", "offset_std-nan", "lr_clip-inf", "mode-unknown", "weight_outlier_cols-negative",
         "gptq_damp-unknown", "hidden-beyond-intp", "list", "null"],
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


def test_bundle_io_imports_only_analysis_and_model():
    # the file-format module stays a leaf: it imports neither pipeline nor cli
    path = Path(__file__).resolve().parents[1] / "src" / "rotquant" / "bundle_io.py"
    imported = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("rotquant")):
            module = (node.module or "").removeprefix("rotquant").lstrip(".")
            imported |= {module} if module else {a.name for a in node.names}
        elif isinstance(node, ast.Import):
            imported |= {a.name.removeprefix("rotquant.") for a in node.names if a.name.startswith("rotquant.")}
    assert imported == {"analysis", "model"}


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


@pytest.mark.parametrize(
    "overrides, message",
    [
        (dict(hidden=1, heads=1), "hidden: must be >= 2, got 1"),
        (dict(mlp_dim=1), "mlp_dim: must be >= 2, got 1"),
        # the f64 draws are finite; their f32 copies overflow
        (dict(offset_std=1e200), "calibration: would hold non-finite values in f32"),
    ],
    ids=["hidden-1", "mlp_dim-1", "calibration-overflows-f32"],
)
def test_cli_gen_writes_nothing_a_later_command_refuses(tmp_path, capsys, overrides, message):
    cfg = _tiny_config(tmp_path, **overrides)
    out = tmp_path / "x"
    rc = main(["gen", "--config", cfg, "--out", str(out)])
    assert rc == 1
    assert message in capsys.readouterr().err
    assert not (out / "model.rqb").exists() and not (out / "calib.rqb").exists()


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


#: a two-block run small enough for many CLI round trips, and the two
#: settings that leave about no within-channel variance
_SMALL_RUN = dict(
    hidden=16, heads=2, mlp_dim=32, calib_sequences=2, seq_len=4, stage1_epochs=1, stage2_epochs=1, steps_per_epoch=2
)
_HUGE_OFFSETS = dict(offset_std=1e30)
_TINY_SPREAD = dict(base_std=1e-45, offset_std=0)


@pytest.mark.parametrize("overrides", [_HUGE_OFFSETS, _TINY_SPREAD], ids=["huge-offsets", "tiny-spread"])
def test_cli_quantize_writes_a_report_verify_accepts(tmp_path, capsys, overrides):
    # with about no within-channel variance the var-of-means fraction's two
    # variances round apart; the report must still hold it inside [0, 1]
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(_SMALL_RUN | overrides))
    gen_dir, out = tmp_path / "g", tmp_path / "q"
    assert main(["gen", "--config", str(cfg), "--out", str(gen_dir)]) == 0
    model, calib = str(gen_dir / "model.rqb"), str(gen_dir / "calib.rqb")
    assert main(["quantize", "--config", str(cfg), "--model", model, "--calib", calib, "--out", str(out)]) == 0
    assert main(["verify", "--report", str(out / "report.json")]) == 0, capsys.readouterr().out
    fractions = [r["var_of_means_fraction"] for r in json.loads((out / "report.json").read_text())["records"]]
    assert max(fractions) == 1.0  # the edge each case reaches


def test_cli_quantize_warns_when_a_block_has_nothing_to_fit(tmp_path, capsys, monkeypatch):
    # offsets near 1e30 absorb each block's output in the residual stream,
    # so every loss is 0 at entry: each stage stops after scoring it, and
    # quantize says so once per block and still succeeds
    evaluations = []
    optimize = pipeline.optimize

    def recording(*args, **kwargs):
        result = optimize(*args, **kwargs)
        evaluations.append(len(result.losses))
        return result

    monkeypatch.setattr(pipeline, "optimize", recording)
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(_SMALL_RUN | _HUGE_OFFSETS))
    gen_dir = tmp_path / "g"
    assert main(["gen", "--config", str(cfg), "--out", str(gen_dir)]) == 0
    inputs = ["--model", str(gen_dir / "model.rqb"), "--calib", str(gen_dir / "calib.rqb")]
    capsys.readouterr()
    assert main(["quantize", "--config", str(cfg), *inputs, "--out", str(tmp_path / "q")]) == 0
    warnings = [line for line in capsys.readouterr().err.splitlines() if line.startswith("warning:")]
    assert warnings == [f"warning: block {i}: baseline mse is 0, so there was nothing to fit" for i in (0, 1)]
    assert evaluations == [1, 1, 1, 1]


def _run(argv):
    """cli.main's exit code and stderr; stdout is dropped."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


def _powers_of_ten(lo, hi):
    return st.integers(lo, hi).map(lambda e: 10.0**e)


@st.composite
def _small_runs(draw):
    """Small run configs whose fields span hidden 1-16, heads that divide it
    or not, mlp_dim a power of two or not, bits 1-8 and 16, stds 1e-300 to
    1e300, learning rates 1e-6 to 1e308, 1-2 sequences of length 1-4 and up
    to 2 steps per epoch.  Every
    field but at most one is drawn from its values that gen accepts."""
    hidden = draw(st.sampled_from([2, 4, 16]))
    bits = st.sampled_from([2, 3, 4, 5, 6, 7, 8, 16])
    run = {
        "hidden": hidden,
        "heads": draw(st.sampled_from([h for h in (1, 2, 4, 16) if h <= hidden])),
        "mlp_dim": draw(st.sampled_from([2, 8, 32])),
        "n_blocks": draw(st.integers(1, 2)),
        "calib_sequences": draw(st.integers(1, 2)),
        "seq_len": draw(st.integers(2, 4)),
        "stage1_epochs": draw(st.integers(0, 2)),
        "stage2_epochs": draw(st.integers(0, 2)),
        "steps_per_epoch": draw(st.integers(0, 2)),
        "w_bits": draw(bits),
        "a_bits": draw(bits),
        "kv_bits": draw(bits),
        "offset_std": draw(st.one_of(st.just(0.0), _powers_of_ten(-300, 37))),
        "base_std": draw(_powers_of_ten(-300, 37)),
        "n_outliers": draw(st.integers(0, 2)),
        "seed": draw(st.integers(0, 3)),
        "lr_scale": draw(_powers_of_ten(-6, 308)),
        "lr_bias": draw(_powers_of_ten(-6, 308)),
        "lr_clip": draw(_powers_of_ten(-6, 308)),
    }
    refused = {  # a std of 1e39 or more overflows gen's f32 files
        "hidden": st.just(1), "heads": st.just(3), "mlp_dim": st.sampled_from([3, 12]), "seq_len": st.just(1),
        "w_bits": st.just(1), "a_bits": st.just(1), "kv_bits": st.just(1),
        "offset_std": _powers_of_ten(39, 300), "base_std": st.one_of(st.just(0.0), _powers_of_ten(39, 300)),
    }
    if draw(st.booleans()):
        name = draw(st.sampled_from(sorted(refused)))
        run[name] = draw(refused[name])
    return run


@settings(max_examples=100, deadline=None, derandomize=True)
@given(run=_small_runs())
@example(run=_SMALL_RUN | _HUGE_OFFSETS)
@example(run=_SMALL_RUN | _TINY_SPREAD)
@example(run=_SMALL_RUN | {"lr_scale": 1e308})  # overflowed the Cayley map's skew part; now a NaN loss
def test_cli_chain_holds_on_small_configs(run):
    # what gen writes, quantize reads; what quantize writes, eval reproduces
    # bit for bit and verify --report accepts (verify's own checks are
    # tested elsewhere and left out here)
    with tempfile.TemporaryDirectory() as tmp, mock.patch.object(cli, "_CHECKS", []):
        tmp = Path(tmp)
        (cfg := tmp / "config.json").write_text(json.dumps(run))
        code, err = _run(["gen", "--config", str(cfg), "--out", str(tmp / "g")])
        assert code in (0, 1) and (code == 0 or err.startswith("error: ")), err
        if code:
            return
        inputs = ["--model", str(tmp / "g" / "model.rqb"), "--calib", str(tmp / "g" / "calib.rqb")]
        code, err = _run(["quantize", "--config", str(cfg), *inputs, "--out", str(tmp / "q")])
        assert code in (0, 2) and (code == 0 or err.startswith("error: ")), err
        if code:
            return
        files = ["--quantized", str(tmp / "q" / "quantized.rqb"), "--params", str(tmp / "q" / "params.rqb")]
        assert _run(["eval", *inputs, *files, "--out", str(tmp / "e")]) == (0, "")
        final_mse = read_report(tmp / "q" / "report.json").blocks[-1].mse_final
        assert json.loads((tmp / "e" / "eval.json").read_bytes())["mse"] == final_mse
        assert _run(["verify", "--report", str(tmp / "q" / "report.json")])[0] == 0


def _gen(tmp_path, run):
    """cli.main's gen of the run config `run`: (config path, --model/--calib arguments)."""
    (cfg := tmp_path / "config.json").write_text(json.dumps(run))
    assert main(["gen", "--config", str(cfg), "--out", str(tmp_path / "g")]) == 0
    return cfg, ["--model", str(tmp_path / "g" / "model.rqb"), "--calib", str(tmp_path / "g" / "calib.rqb")]


def test_cli_quantize_of_an_overflowing_weight_covariance_is_a_runtime_error(tmp_path):
    # every weight is a finite f64, but the rotation's covariance of wq overflows
    run = dict(hidden=16, heads=1, mlp_dim=16, n_blocks=1, calib_sequences=4, seq_len=4)
    cfg, inputs = _gen(tmp_path, run)
    bundle = read_bundle(tmp_path / "g" / "model.rqb")
    bundle.blocks[0].wq = bundle.blocks[0].wq * 1e200
    write_bundle(tmp_path / "g" / "model.rqb", bundle)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, err = _run(["quantize", "--config", str(cfg), *inputs, "--out", str(tmp_path / "q")])
    assert (code, err) == (2, "error: the weight covariance overflows float64\n")


@pytest.mark.parametrize("command", ["quantize", "analyze"])
def test_cli_report_of_an_overflowing_site_is_a_runtime_error(tmp_path, command):
    # a plain Hadamard rotation keeps wq finite, but the site analysis squares it
    run = dict(hidden=16, heads=1, mlp_dim=16, n_blocks=1, calib_sequences=4, seq_len=4, rres_kind="hadamard")
    cfg, inputs = _gen(tmp_path, run)
    bundle = read_bundle(tmp_path / "g" / "model.rqb")
    bundle.blocks[0].wq = bundle.blocks[0].wq * 1e200
    write_bundle(tmp_path / "g" / "model.rqb", bundle)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, err = _run([command, "--config", str(cfg), *inputs, "--out", str(tmp_path / "out")])
    assert (code, err) == (2, "error: block 0, site qkv: overflow encountered in square\n")
    assert not list((tmp_path / "out").glob("*"))


def test_cli_quantize_of_a_diverging_stage_is_a_runtime_error(tmp_path):
    # a huge learning rate overflows the stage-2 forward after its first update
    run = dict(hidden=2, heads=1, mlp_dim=2, n_blocks=1, calib_sequences=1, seq_len=2, w_bits=2, a_bits=2,
               kv_bits=2, stage1_epochs=0, stage2_epochs=2, steps_per_epoch=1, lr_bias=1e200)
    cfg, inputs = _gen(tmp_path, run)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, err = _run(["quantize", "--config", str(cfg), *inputs, "--out", str(tmp_path / "q")])
    assert code == 2
    assert err == "error: block 0, correction stage: floating-point overflow encountered in multiply at step 1\n"


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


def test_cli_quantize_writes_the_same_files_on_one_cpu_or_two(tmp_path, monkeypatch):
    # 64 x 8 = 512 tokens: every training loss is two sequence shards
    cfg = _tiny_config(tmp_path, hidden=16, mlp_dim=32, calib_sequences=64)
    gen_dir = tmp_path / "g"
    assert main(["gen", "--config", cfg, "--out", str(gen_dir), "--seed", "0"]) == 0
    args = ["quantize", "--config", cfg, "--model", str(gen_dir / "model.rqb"), "--calib", str(gen_dir / "calib.rqb")]
    parts, parallel_parts = [], pipeline.ad.parallel_parts

    def counted(fns, params):
        parts.append(len(fns))
        return parallel_parts(fns, params)

    monkeypatch.setattr(pipeline.ad, "parallel_parts", counted)
    outs = []
    for k, cpus in enumerate((2, 2, 1)):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid, n=cpus: set(range(n)))
        outs.append(tmp_path / f"q{k}")
        assert main(args + ["--out", str(outs[-1])]) == 0
    assert parts and set(parts) == {2}
    names = sorted(p.name for p in outs[0].iterdir())
    assert names == ["params.rqb", "quantized.rqb", "report.csv", "report.json", "report_profiles.csv"]
    for out in outs[1:]:
        for name in names:
            assert (out / name).read_bytes() == (outs[0] / name).read_bytes(), (out.name, name)


def _quantize_tiny(tmp_path, seed=0, **overrides):
    """gen + quantize on the TINY CLI config; returns (eval argv, quantize dir)."""
    cfg = _tiny_config(tmp_path, **overrides)
    gen_dir, q_dir = tmp_path / "g", tmp_path / "q"
    assert main(["gen", "--config", cfg, "--out", str(gen_dir), "--seed", str(seed)]) == 0
    inputs = ["--model", str(gen_dir / "model.rqb"), "--calib", str(gen_dir / "calib.rqb")]
    assert main(["quantize", "--config", cfg, *inputs, "--out", str(q_dir), "--seed", str(seed)]) == 0
    files = ["--quantized", str(q_dir / "quantized.rqb"), "--params", str(q_dir / "params.rqb")]
    return ["eval", *inputs, *files], q_dir


@pytest.mark.parametrize("seed", [0, 1])
def test_cli_eval_reproduces_final_mse(tmp_path, seed):
    argv, q_dir = _quantize_tiny(tmp_path, seed)
    assert main(argv + ["--out", str(tmp_path / "e1")]) == 0
    assert main(argv + ["--out", str(tmp_path / "e2")]) == 0
    document = (tmp_path / "e1" / "eval.json").read_bytes()
    assert document == (tmp_path / "e2" / "eval.json").read_bytes()
    final_mse = read_report(q_dir / "report.json").blocks[-1].mse_final  # the run's final_mse
    assert json.loads(document) == {"schema": 1, "mse": final_mse}


def test_cli_bias_free_model_end_to_end(tmp_path):
    # a LLaMA-style model: no block holds a bias
    bundle = build_toy_model(CFG, seed=0)
    for bw in bundle.blocks:
        for name in BIAS_NAMES:
            setattr(bw, name, None)
    model, calib, q_dir = tmp_path / "model.rqb", tmp_path / "calib.rqb", tmp_path / "q"
    write_bundle(model, bundle)
    write_calibration(calib, gen_calibration(SynthSpec.misaligned(CFG.hidden, 64, seed=0), 8, 8))
    inputs = ["--model", str(model), "--calib", str(calib)]
    cfg = ["--config", _tiny_config(tmp_path, n_blocks=CFG.n_blocks)]
    assert main(["quantize", *cfg, *inputs, "--out", str(q_dir)]) == 0
    assert all(getattr(bw, name) is None for bw in read_bundle(q_dir / "quantized.rqb").blocks for name in BIAS_NAMES)
    files = ["--quantized", str(q_dir / "quantized.rqb"), "--params", str(q_dir / "params.rqb")]
    assert main(["eval", *inputs, *files, "--out", str(tmp_path / "e")]) == 0
    final_mse = read_report(q_dir / "report.json").blocks[-1].mse_final
    assert json.loads((tmp_path / "e" / "eval.json").read_bytes()) == {"schema": 1, "mse": final_mse}
    assert main(["analyze", *cfg, *inputs, "--out", str(tmp_path / "a")]) == 0


def test_cli_eval_file_errors_are_runtime_errors(tmp_path, capsys):
    argv, q_dir = _quantize_tiny(tmp_path)
    model, quantized, params = argv[2], argv[6], argv[8]
    other = tmp_path / "other"  # hidden 16: a model of another shape
    assert main(["gen", "--config", _tiny_config(tmp_path, hidden=16), "--out", str(other)]) == 0
    wrong_params = tmp_path / "wrong_params.rqb"
    write_params(wrong_params, [BlockParams.neutral(ModelConfig(hidden=32, heads=4, mlp_dim=64, n_blocks=1))])
    cases = [
        ("--quantized", model, f"{model}: not a quantized bundle"),
        ("--model", str(other / "model.rqb"), f"{quantized}: shape ModelConfig(hidden=32"),
        ("--params", str(wrong_params), f"{wrong_params}: block0.a_v has shape (8, 8), the model needs (16, 16)"),
        ("--params", str(tmp_path / "nope.rqb"), "nope.rqb"),
        ("--model", quantized, f"{quantized}: has a residual rotation fused in"),
    ]
    capsys.readouterr()
    for flag, path, message in cases:
        bad = list(argv)
        bad[bad.index(flag) + 1] = path
        assert main(bad + ["--out", str(tmp_path / "e")]) == 2, flag
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err and "Traceback" not in err, err
    assert not (tmp_path / "e" / "eval.json").exists()


def _gen_tiny(tmp_path):
    """The directory of a `gen` run on the TINY CLI config."""
    g_dir = tmp_path / "g"
    assert main(["gen", "--config", _tiny_config(tmp_path), "--out", str(g_dir)]) == 0
    return g_dir


def _quantize_argv(g_dir):
    """`quantize` on the files of `g_dir`, writing next to it."""
    return ["quantize", "--model", str(g_dir / "model.rqb"), "--calib", str(g_dir / "calib.rqb"),
            "--out", str(g_dir.parent / "q")]


def _v1_magic_on(name):
    """Case: `quantize` on the TINY files, with container version 1 on `name`."""

    def case(tmp_path):
        g_dir = _gen_tiny(tmp_path)
        path = g_dir / name
        path.write_bytes(_v1_magic(path.read_bytes()))
        return _quantize_argv(g_dir), f"{path}: container version 1, this reader takes 2"

    return case


def _model_with_meta(tmp_path):
    """Case: `quantize` on a TINY model whose header holds the stage flags of the older layout."""
    g_dir = _gen_tiny(tmp_path)
    model = g_dir / "model.rqb"
    flags = dict.fromkeys(("norms_folded", "rres_fused", "rv_scale_fused", "weights_quantized"), False)
    with _extra_in_files(header={"meta": flags}):
        write_bundle(model, read_bundle(model))
    return _quantize_argv(g_dir), f"{model}: a model header with stage flags (meta) is the older layout"


def _report_of_schema(schema):
    """Case: `verify --report` on a report written in `schema`."""

    def case(tmp_path):
        write_report(tmp_path / "report", _sample_report())
        path = tmp_path / "report.json"
        document = json.loads(path.read_text())
        document["schema"] = schema
        if schema == 1:  # its records held empirical_noise_var
            for record in document["records"]:
                record["empirical_noise_var"] = record.pop("measured_noise_var")
        path.write_text(json.dumps(document))
        return ["verify", "--report", str(path)], f"{path}: report schema {schema}, this reader takes 3"

    return case


@pytest.mark.parametrize(
    "case, code",
    [(_v1_magic_on("model.rqb"), 2), (_v1_magic_on("calib.rqb"), 2), (_model_with_meta, 2),
     (_report_of_schema(1), 3), (_report_of_schema(2), 3)],
    ids=["v1-model", "v1-calibration", "meta-model", "report-schema-1", "report-schema-2"],
)
def test_cli_rejects_every_older_file_form(tmp_path, capsys, case, code):
    # one container version and one report schema read; an older file names its form and how to rebuild it
    argv, named = case(tmp_path)
    capsys.readouterr()
    assert main(argv) == code
    captured = capsys.readouterr()
    lines = [line for line in (captured.out + captured.err).splitlines() if named in line]
    assert len(lines) == 1 and "rerun gen/quantize" in lines[0], captured
    assert lines[0].startswith("error: " if code == 2 else "FAIL report-file: ")
    assert "Traceback" not in captured.out + captured.err
    assert not (tmp_path / "q").exists()


@pytest.fixture(scope="module")
def tiny_run(tmp_path_factory):
    """(eval argv without --out, config path) of one TINY gen + quantize."""
    tmp = tmp_path_factory.mktemp("tiny")
    argv, _ = _quantize_tiny(tmp)
    return argv, str(tmp / "config.json")


@pytest.mark.parametrize("command", ["quantize", "analyze", "ablate", "eval"])
@pytest.mark.parametrize(
    "reshape, named",
    [
        (lambda c: c.reshape(-1, 32)[:16], "holds a calibration tensor of shape (16, 32), not a nonempty"),
        (lambda c: c[:0, :4], "holds a calibration tensor of shape (0, 4, 32), not a nonempty"),
        (lambda c: c[..., :16], "width 16, but {model} has hidden 32"),
    ],
    ids=["2d", "empty", "narrower-than-model"],
)
def test_cli_rejects_a_calibration_of_the_wrong_shape(tmp_path, capsys, tiny_run, command, reshape, named):
    argv, cfg = tiny_run
    model, calib = argv[argv.index("--model") + 1], argv[argv.index("--calib") + 1]
    bad, out = tmp_path / "calib.rqb", tmp_path / "out"
    bundle_io._write_container(bad, "calibration", {"synth": {}}, {"calib": ("f64", reshape(read_calibration(calib)))})
    if command == "eval":
        argv = [str(bad) if arg == calib else arg for arg in argv]
    else:
        argv = [command, "--config", cfg, "--model", model, "--calib", str(bad)]
    capsys.readouterr()
    assert main(argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}: ") and named.format(model=model) in err and "Traceback" not in err, err
    assert not out.exists()


def test_quantize_output_size_follows_the_code_layout(tmp_path):
    # quantized.rqb + params.rqb stay within a budget computed from the
    # layout: codes at bits/8 bytes per weight, 8 bytes per weight row (its
    # scale), 8 bytes per other element, and per file and per tensor a fixed
    # header and alignment allowance.  A weight stored as floats instead
    # adds at least 7.5 bytes per element, 7680 for the smallest matrix.
    _, q_dir = _quantize_tiny(tmp_path)
    bundle = read_bundle(q_dir / "quantized.rqb")
    params = read_params(q_dir / "params.rqb", bundle.config)
    n_bytes, n_tensors = 0.0, 1  # the rotation
    for bw in bundle.blocks:
        for name in _TENSORS:
            arr = getattr(bw, name)
            if arr is None:  # a folded gain, which the file does not hold
                continue
            if name in WEIGHT_NAMES:
                n_bytes += arr.size * 4 / 8 + 8 * arr.shape[0]
                n_tensors += 2
            else:
                n_bytes += 8 * arr.size
                n_tensors += 1
    n_bytes += 8 * bundle.rotation.matrix.size
    for bp in params:
        for f in bp.__dataclass_fields__:
            n_bytes += 8 * np.size(getattr(bp, f))
            n_tensors += 1
    budget = n_bytes + 2 * 1024 + 160 * n_tensors
    size = (q_dir / "quantized.rqb").stat().st_size + (q_dir / "params.rqb").stat().st_size
    assert size <= budget
    assert size + 7680 > budget  # one weight as floats would break it


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


def test_cli_missing_file_is_runtime_error(tmp_path, capsys):
    # a path that names nothing, or an entry of the wrong kind, is an OSError
    gen = tmp_path / "g"
    assert main(["gen", "--config", _tiny_config(tmp_path), "--out", str(gen)]) == 0
    model, calib, out = str(gen / "model.rqb"), str(gen / "calib.rqb"), str(tmp_path / "o")
    cases = {
        "missing inputs": ["--model", str(tmp_path / "nope.rqb"), "--calib", str(tmp_path / "nope2.rqb")],
        "--out is a file": ["--model", model, "--calib", calib, "--out", model],
        "--model is a directory": ["--model", str(gen), "--calib", calib],
        "--config is a directory": ["--config", str(gen), "--model", model, "--calib", calib],
    }
    capsys.readouterr()
    for case, argv in cases.items():
        if "--out" not in argv:
            argv = argv + ["--out", out]
        assert main(["quantize", *argv]) == 2, case
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err, case


def test_cli_rejects_a_rotation_fused_model(tmp_path, capsys):
    cfg = _tiny_config(tmp_path)
    gen_dir, q = tmp_path / "g", tmp_path / "q"
    calib = str(gen_dir / "calib.rqb")
    assert main(["gen", "--config", cfg, "--out", str(gen_dir)]) == 0
    assert main(["quantize", "--config", cfg, "--model", str(gen_dir / "model.rqb"), "--calib", calib,
                 "--out", str(q)]) == 0
    capsys.readouterr()
    for command in ("analyze", "quantize"):
        argv = [command, "--config", cfg, "--model", str(q / "quantized.rqb"), "--calib", calib,
                "--out", str(tmp_path / command)]
        assert main(argv) == 2, command
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "residual rotation" in err and "Traceback" not in err, command


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
        bad = copy.deepcopy(bundle)
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


# -- the model file owns the model's shape ------------------------------------------------


_MODEL_FIELDS = ("hidden", "heads", "mlp_dim", "n_blocks")
_OUTPUTS = {
    "quantize": ("quantized.rqb", "params.rqb", "report.json", "report.csv", "report_profiles.csv"),
    "analyze": ("analysis.json", "analysis.csv", "analysis_profiles.csv"),
    "ablate": ("ablation.json", "ablation.csv"),
}


def _write_json(path, document):
    path.write_text(json.dumps(document))
    return str(path)


def _gen_small(tmp_path, **model_fields):
    """A one-block model with the given fields and an 8 x 8 calibration set."""
    config = _write_json(tmp_path / "gen.json", dict(model_fields, n_blocks=1, calib_sequences=8, seq_len=8))
    gen_dir = tmp_path / "g"
    assert main(["gen", "--config", config, "--out", str(gen_dir), "--seed", "0"]) == 0
    return ["--model", str(gen_dir / "model.rqb"), "--calib", str(gen_dir / "calib.rqb")]


# repro 1: 8-wide heads (hidden 32 over the default 4 heads); repro 2: 32-wide
# heads (2 heads over the default hidden 64).  Either differs from the head
# width of the default run config.
@pytest.mark.parametrize(
    "model_fields", [{"hidden": 32, "mlp_dim": 64}, {"heads": 2, "mlp_dim": 64}], ids=["head_dim-8", "head_dim-32"]
)
@pytest.mark.parametrize("command", list(_OUTPUTS))
def test_cli_reads_the_model_shape_from_the_model_file(tmp_path, model_fields, command):
    inputs = _gen_small(tmp_path, **model_fields)
    matched = _write_json(tmp_path / "matched.json", dict(model_fields, n_blocks=1))
    assert main([command, *inputs, "--out", str(tmp_path / "plain")]) == 0
    assert main([command, *inputs, "--config", matched, "--out", str(tmp_path / "matched")]) == 0
    for name in _OUTPUTS[command]:
        assert (tmp_path / "plain" / name).read_bytes() == (tmp_path / "matched" / name).read_bytes(), name


@pytest.mark.parametrize("command", list(_OUTPUTS))
@pytest.mark.parametrize("field, value", [("hidden", 64), ("heads", 4), ("mlp_dim", 128), ("n_blocks", 2)])
def test_cli_config_contradicting_the_model_is_validation_error(tmp_path, capsys, command, field, value):
    inputs = _gen_small(tmp_path, hidden=32, heads=2, mlp_dim=64)  # one block
    config = _write_json(tmp_path / "config.json", {field: value})
    capsys.readouterr()
    assert main([command, *inputs, "--config", config, "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    model_value = {"hidden": 32, "heads": 2, "mlp_dim": 64, "n_blocks": 1}[field]
    assert f"{field}: the config says {value}, the model file {model_value}" in err, err


def test_cli_config_repeating_the_model_is_accepted(tmp_path):
    # the quantize-wide shape: a config that repeats every model field runs
    # exactly like one that leaves them to the model file
    wide = {"hidden": 128, "heads": 4, "mlp_dim": 1024, "n_blocks": 1}
    inputs = _gen_small(tmp_path, **wide)
    settings = {"mode": "rotation-only"}
    full = _write_json(tmp_path / "full.json", dict(wide, **settings))
    bare = _write_json(tmp_path / "bare.json", settings)
    assert main(["quantize", *inputs, "--config", full, "--out", str(tmp_path / "full")]) == 0
    assert main(["quantize", *inputs, "--config", bare, "--out", str(tmp_path / "bare")]) == 0
    for name in _OUTPUTS["quantize"]:
        assert (tmp_path / "full" / name).read_bytes() == (tmp_path / "bare" / name).read_bytes(), name


def test_cli_config_checks_the_model_files_shape(tmp_path):
    # a model field the config repeats is judged with the model file's other
    # fields, not the defaults: 128 heads over the default hidden 64 is invalid
    inputs = _gen_small(tmp_path, hidden=128, heads=128, mlp_dim=16)
    config = _write_json(tmp_path / "heads.json", {"heads": 128})
    assert main(["analyze", *inputs, "--config", config, "--out", str(tmp_path / "a")]) == 0


def test_forward_quant_runs_a_quantized_bundle_only_with_its_qcfg():
    from rotquant.model import forward_quant

    result = _quantized()
    x = np.random.default_rng(0).normal(size=(2, 4, CFG.hidden))
    forward_quant(result.bundle, result.params, QuantConfig.for_bits(4, 4, 4, CFG.head_dim), x)
    for bits in ((8, 4, 4), (4, 16, 4), (16, 16, 16)):
        with pytest.raises(ValueError, match="the bundle was quantized for"):
            forward_quant(result.bundle, result.params, QuantConfig.for_bits(*bits, CFG.head_dim), x)


def test_forward_quant_block_rejects_kv_groups_across_heads():
    from rotquant.model import QuantConfig, forward_quant_block

    bundle = build_toy_model(CFG, seed=0)  # head_dim 16
    x = np.random.default_rng(0).normal(size=(2, 4, CFG.hidden))
    for head_dim in (8, 32):
        with pytest.raises(ValueError, match=f"kv head_dim {head_dim}"):
            forward_quant_block(bundle, 0, BlockParams.neutral(CFG), QuantConfig.for_bits(4, 4, 4, head_dim), x)


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


def test_cli_verify_corrupted_tolerance_fails(capsys, monkeypatch):
    from rotquant import cli

    checks = [(n, lambda: (False, "forced failure")) if n == "variance-identity" else (n, fn)
              for n, fn in cli._CHECKS]
    monkeypatch.setattr(cli, "_CHECKS", checks)
    assert main(["verify"]) == 3
    captured = capsys.readouterr()
    assert "FAIL variance-identity" in captured.out
    assert "variance-identity" in captured.err
