"""Bundle and report file formats.

Bundle container (v2): an 8-byte magic+version, a little-endian u64 length
prefix, a UTF-8 JSON header naming every tensor (name, dtype f32/f64/u8/u4,
shape, absolute byte offset), then the raw little-endian tensor data, each
64-byte aligned.  Floats keep their precision; a weight with raw row scales
(BlockWeights.scales) is stored as codes (u4: two per byte, low nibble
first) plus those f64 scales and rebuilt on QuantSpec.lattice, so
read(write(bundle)) is bit-exact.  A model's stage is what its file holds
(gains, rotation, header bits).  An older file (container v1, a model
header with `meta` stage flags, a report schema below REPORT_SCHEMA) is a
BundleFormatError naming what it found: rerun gen/quantize to rebuild it.

Reports are emitted as twins holding the same data: JSON for machine
diffing, CSV (plus a channel-profile CSV) for plotting.
"""

from __future__ import annotations

import csv
import json
import struct
from dataclasses import asdict, fields

import numpy as np

from .analysis import REPORT_SCHEMA, BlockMse, ErrorReport, SiteRecord
from .model import BIAS_NAMES, WEIGHT_NAMES, BlockParams, BlockWeights, ModelBundle, ModelConfig, QuantConfig
from .model import Rotation

__all__ = [
    "BundleFormatError",
    "write_bundle",
    "read_bundle",
    "write_calibration",
    "read_calibration",
    "write_params",
    "read_params",
    "write_report",
    "read_report",
]

_MAGIC = b"RQBNDL\x00\x02"
_REBUILD = "rerun gen/quantize to rebuild it"
_ALIGN = 64
_FLOAT_MAX = float(np.finfo(np.float64).max)
_FLOATS = {"f32": "<f4", "f64": "<f8"}
_BITS = ("w_bits", "a_bits", "kv_bits")  # QuantConfig.for_bits's arguments
_BLOCK_TENSORS = WEIGHT_NAMES + BIAS_NAMES + ("g_attn", "g_mlp")


class BundleFormatError(RuntimeError):
    pass


# -- low-level container -------------------------------------------------------


def _pad(n: int) -> int:
    return (-n) % _ALIGN


def _nbytes(dtype, count):
    return (count + 1) // 2 if dtype == "u4" else count * {"f32": 4, "f64": 8, "u8": 1}[dtype]


def _floats(arr):
    arr = np.asarray(arr)
    return ("f32" if arr.dtype == np.float32 else "f64"), arr


def _encode(dtype, arr):
    if dtype in _FLOATS:
        return np.ascontiguousarray(arr, dtype=_FLOATS[dtype]).tobytes()
    codes = np.asarray(arr, dtype=np.uint8).reshape(-1)
    if dtype == "u4":
        codes = np.append(codes, np.uint8(0)) if codes.size % 2 else codes
        codes = codes[0::2] | (codes[1::2] << 4)
    return codes.tobytes()


def _decode(dtype, raw, off, count):
    """The flat tensor at `off`: float64 for floats, uint8 codes otherwise."""
    if dtype in _FLOATS:
        return np.frombuffer(raw, dtype=_FLOATS[dtype], count=count, offset=off).astype(np.float64)
    packed = np.frombuffer(raw, dtype=np.uint8, count=_nbytes(dtype, count), offset=off)
    if dtype == "u8":
        return packed.copy()
    return np.stack((packed & 0x0F, packed >> 4), axis=1).reshape(-1)[:count]


def _write_container(path, kind: str, header_extra: dict, tensors: dict):
    """tensors: {name: (dtype, ndarray)}, written in that dtype little-endian."""
    order = list(tensors.keys())
    blobs = {k: _encode(*tensors[k]) for k in order}

    entries = []
    header = {"schema": 1, "kind": kind, **header_extra, "tensors": entries}
    # offsets depend on the header length, which depends on the offsets'
    # digits; a longer guess never shortens the header, so the guess settles
    header_len_guess = 0
    while True:
        entries.clear()
        off = len(_MAGIC) + 8 + header_len_guess
        off += _pad(off)
        for name in order:
            dtype, arr = tensors[name]
            nbytes = len(blobs[name])
            entry = {"name": name, "dtype": dtype, "shape": list(np.shape(arr)), "offset": off, "nbytes": nbytes}
            entries.append(entry)
            off += nbytes + _pad(nbytes)
        encoded = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
        if len(encoded) == header_len_guess:
            break
        header_len_guess = len(encoded)

    with open(path, "wb") as f:
        f.write(_MAGIC)
        f.write(struct.pack("<Q", len(encoded)))
        f.write(encoded)
        f.write(b"\x00" * _pad(f.tell()))
        for name in order:
            f.write(blobs[name])
            f.write(b"\x00" * _pad(len(blobs[name])))


def _read_container(path, expect_kind, codes=False, f64=lambda name: False):
    """(header, {name: array}); integer codes are allowed only with `codes`,
    and a tensor whose name `f64` accepts must be stored as f64 (the table's
    dtype: every float decodes to f64)."""
    with open(path, "rb") as f:
        raw = f.read()
    if len(raw) < len(_MAGIC) + 8 or raw[:7] != _MAGIC[:7]:
        raise BundleFormatError(f"{path}: bad magic at offset 0")
    if raw[7] != _MAGIC[7]:
        raise BundleFormatError(f"{path}: container version {raw[7]}, this reader takes {_MAGIC[7]}; {_REBUILD}")
    (header_len,) = struct.unpack_from("<Q", raw, len(_MAGIC))
    header_start = len(_MAGIC) + 8
    if header_start + header_len > len(raw):
        raise BundleFormatError(
            f"{path}: header length {header_len} overruns file (offset {header_start})"
        )
    try:
        header = json.loads(raw[header_start : header_start + header_len].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as err:
        raise BundleFormatError(f"{path}: header parse failed at offset {header_start}: {err}") from err

    if not isinstance(header, dict):
        raise BundleFormatError(f"{path}: header at offset {header_start} is not a JSON object")
    if header.get("kind") != expect_kind:
        raise BundleFormatError(f"{path}: expected kind {expect_kind!r}, got {header.get('kind')!r}")

    tensors = {}
    prev_end = header_start + header_len
    dtypes = ["f32", "f64", "u8", "u4"][: 4 if codes else 2]
    try:
        for entry in header.get("tensors", []):
            name, off, nbytes, dtype = entry["name"], entry["offset"], entry["nbytes"], entry["dtype"]
            if name in tensors:
                raise BundleFormatError(f"{path}: tensor name {name!r} appears twice")
            if dtype not in dtypes:
                raise BundleFormatError(f"{path}: tensor {name!r} has dtype {dtype!r}, not one of {dtypes}")
            if dtype != "f64" and f64(str(name)):
                raise BundleFormatError(f"{path}: {name} is stored as {dtype}, not f64")
            if off < prev_end:
                raise BundleFormatError(f"{path}: tensor {name!r} at {off} overlaps data ending at {prev_end}")
            if nbytes < 0 or off + nbytes > len(raw):
                raise BundleFormatError(f"{path}: tensor {name!r} at {off} (+{nbytes}) overruns {len(raw)} bytes")
            shape = tuple(entry["shape"])
            if not all(type(d) is int and d >= 0 for d in shape):
                raise BundleFormatError(f"{path}: tensor {name!r} has shape {shape}")
            count = int(np.prod(shape, dtype=np.int64))
            if _nbytes(dtype, count) != nbytes:
                raise BundleFormatError(f"{path}: tensor {name!r} shape {shape} disagrees with {nbytes} B of {dtype}")
            arr = _decode(dtype, raw, off, count)
            if not np.all(np.isfinite(arr)):
                raise BundleFormatError(f"{path}: tensor {name!r} at offset {off} contains non-finite values")
            tensors[name] = arr.reshape(shape)
            prev_end = off + nbytes
    except (KeyError, TypeError, ValueError, OverflowError) as err:
        raise BundleFormatError(f"{path}: malformed tensor table: {err!r}") from err
    return header, tensors


# -- model bundles ---------------------------------------------------------------

def _codes(key, w, raw, spec):
    """(dtype, codes) of a weight on the lattice of its raw row scales;
    raises unless `code * scale + zero` rebuilds it bit for bit."""
    if spec is None:
        raise BundleFormatError(f"{key}: a weight scale needs a weight quantizer")
    w, params = np.asarray(w, dtype=np.float64), spec.lattice(np.asarray(raw, dtype=np.float64)[:, None])
    codes = np.clip(np.rint((w - params.zero) / params.scale), 0, spec.levels - 1)
    rebuilt = codes * params.scale + params.zero
    if not (np.all(np.isfinite(codes)) and np.array_equal(rebuilt.view(np.uint64), w.view(np.uint64))):
        raise BundleFormatError(f"{key}: weights are off the lattice of their row scales")
    return ("u4" if spec.bits <= 4 else "u8"), codes.astype(np.uint8)


def _dequantize(path, key, codes, raw, spec):
    """A weight from its codes and raw row scales, as `_codes` stored it."""
    if spec is None:
        raise BundleFormatError(f"{path}: {key} holds codes, but the header sets no weight bits 2..8")
    if not (codes is not None and codes.dtype == np.uint8 and codes.ndim == 2 and raw is not None
            and raw.shape == codes.shape[:1]):
        raise BundleFormatError(f"{path}: {key} needs integer codes [rows x cols] and an f64 scale per row")
    if np.any(raw < 0.0):
        raise BundleFormatError(f"{path}: {key}.scale holds a negative scale")
    if codes.max(initial=0) >= spec.levels:
        raise BundleFormatError(f"{path}: {key} holds a code above {spec.levels - 1}")
    params = spec.lattice(raw[:, None])
    return codes * params.scale + params.zero


def write_bundle(path, bundle: ModelBundle):
    """Write a model bundle; a weight with row scales is stored as codes."""
    tensors = {}
    for i, bw in enumerate(bundle.blocks):
        scales = bw.scales or {}
        for name in _BLOCK_TENSORS:
            arr, key = getattr(bw, name), f"block{i}.{name}"
            if name in scales:
                tensors[key] = _codes(key, arr, scales[name], bundle.qcfg and bundle.qcfg.weight)
                tensors[key + ".scale"] = ("f64", scales[name])
            elif arr is not None:
                tensors[key] = _floats(arr)
    header = {"config": asdict(bundle.config)}
    if (q := bundle.qcfg) is not None:  # >= 16 disables a quantizer
        header["bits"] = dict(zip(_BITS, (16 if s is None else s.bits for s in (q.weight, q.act, q.kv))))
        if QuantConfig.for_bits(*header["bits"].values(), bundle.config.head_dim) != bundle.qcfg:
            raise BundleFormatError(f"{path}: a bundle stores bit widths, not {bundle.qcfg}")
    if bundle.rotation is not None:
        tensors["rotation"] = ("f64", bundle.rotation.matrix)
    _write_container(path, "model", header, tensors)


def _block_shapes(config: ModelConfig) -> dict:
    """The shape of every block tensor under config (weights are [out x in])."""
    n, m = config.hidden, config.mlp_dim
    shapes = {name: (n, n) for name in ("wq", "wk", "wv", "wo")}
    shapes.update(wgate=(m, n), wup=(m, n), wdown=(n, m))
    shapes.update({name: (n,) for name in ("bq", "bk", "bv", "bo", "bdown", "g_attn", "g_mlp")})
    shapes.update(bgate=(m,), bup=(m,))
    return shapes


def _reject_stray_tensors(path, tensors, n_blocks, names):
    """A file never loads as fewer tensors than it holds (`block<i>.<name>` for i < n_blocks)."""
    known = {f"block{i}.{name}" for i in range(n_blocks) for name in names}
    stray = sorted(map(str, set(tensors) - known))
    if stray:
        raise BundleFormatError(f"{path}: tensors {stray} name no field of a block below n_blocks = {n_blocks}")


def read_bundle(path) -> ModelBundle:
    header, tensors = _read_container(path, "model", codes=True, f64=lambda n: n == "rotation" or n.endswith(".scale"))
    if "meta" in header:  # its gains may be folded ones, which would read as unfolded
        raise BundleFormatError(f"{path}: a model header with stage flags (meta) is the older layout; {_REBUILD}")
    try:
        c = header["config"]  # every field is required, though ModelConfig has defaults
        config = _from_json(ModelConfig, {f.name: c[f.name] for f in fields(ModelConfig)})
        bits = [_json_value(k, "int", header["bits"][k]) for k in _BITS] if "bits" in header else None
        qcfg = bits and QuantConfig.for_bits(*bits, config.head_dim)  # a quantized bundle's
        rotation = tensors.pop("rotation", None)
        if rotation is not None:
            if rotation.shape != (config.hidden, config.hidden):
                raise ValueError(f"rotation has shape {rotation.shape}, hidden is {config.hidden}")
            rotation = Rotation(rotation)
    except (KeyError, TypeError, ValueError) as err:
        raise BundleFormatError(f"{path}: malformed model header or rotation: {err!r}") from err
    _reject_stray_tensors(path, tensors, config.n_blocks, _BLOCK_TENSORS + tuple(w + ".scale" for w in WEIGHT_NAMES))
    blocks = []
    for i in range(config.n_blocks):
        kwargs, scales = {}, {}
        for name in _BLOCK_TENSORS:
            key = f"block{i}.{name}"
            arr, raw = tensors.get(key), tensors.get(key + ".scale")
            if raw is not None or arr is not None and arr.dtype == np.uint8:
                if name not in WEIGHT_NAMES:
                    raise BundleFormatError(f"{path}: {key} is not a weight, so it cannot be stored as codes")
                arr, scales[name] = _dequantize(path, key, arr, raw, qcfg and qcfg.weight), raw
            kwargs[name] = arr
        if missing := [n for n in WEIGHT_NAMES if kwargs[n] is None]:
            raise BundleFormatError(f"{path}: block {i} missing weights {missing}")
        for name, shape in _block_shapes(config).items():
            if (arr := kwargs[name]) is not None and arr.shape != shape:
                raise BundleFormatError(f"{path}: block{i}.{name} has shape {arr.shape}, config needs {shape}")
        blocks.append(BlockWeights(**kwargs, scales=scales or None))
    return ModelBundle(config, blocks, rotation, qcfg)


def write_calibration(path, calib):
    calib = np.asarray(calib)
    if calib.ndim != 3:
        raise ValueError("calibration must be [sequences x seq_len x channels]")
    _write_container(path, "calibration", {}, {"calib": _floats(calib)})


def read_calibration(path):
    calib = _read_container(path, expect_kind="calibration")[1].get("calib")
    if calib is None or calib.ndim != 3 or calib.size == 0:
        found = "no calibration tensor" if calib is None else f"a calibration tensor of shape {calib.shape}"
        raise BundleFormatError(f"{path}: holds {found}, not a nonempty [sequences x seq_len x channels] one")
    return calib


def write_params(path, params_list):
    tensors = {}
    for i, bp in enumerate(params_list):
        for f in bp.__dataclass_fields__:
            tensors[f"block{i}.{f}"] = ("f64", getattr(bp, f))
    _write_container(path, "params", {"n_blocks": len(params_list)}, tensors)


def read_params(path, config: ModelConfig):
    """One BlockParams per block; the file must hold config.n_blocks blocks
    whose tensors have that model's shapes."""
    header, tensors = _read_container(path, expect_kind="params", f64=lambda name: True)
    want = {f: np.shape(v) for f, v in vars(BlockParams.neutral(config)).items()}
    out = []
    try:
        n_blocks = _json_value("n_blocks", "int", header["n_blocks"])
        _reject_stray_tensors(path, tensors, n_blocks, [f.name for f in fields(BlockParams)])
        if n_blocks != config.n_blocks:
            raise BundleFormatError(f"{path}: {n_blocks} blocks of params, the model has {config.n_blocks}")
        for i in range(n_blocks):
            kwargs = {}
            for f in [fl.name for fl in fields(BlockParams)]:
                arr = tensors[key := f"block{i}.{f}"]
                if arr.shape != want[f]:
                    raise BundleFormatError(f"{path}: {key} has shape {arr.shape}, the model needs {want[f]}")
                kwargs[f] = np.float64(arr) if arr.ndim == 0 else arr
            out.append(BlockParams(**kwargs))
    except (KeyError, TypeError, ValueError, OverflowError) as err:
        raise BundleFormatError(f"{path}: missing or malformed params entry: {err!r}") from err
    return out


# -- reports ---------------------------------------------------------------------

_SUMMARY_COLUMNS = [f.name for f in fields(SiteRecord) if not f.name.startswith("channel_")]


def _record_to_json(r: SiteRecord):
    d = asdict(r)
    for k in ("channel_means", "channel_vars"):
        if d[k] is not None:
            d[k] = [float(v) for v in d[k]]
    return d


def write_report(base_path, report: ErrorReport):
    """Write {base}.json plus {base}.csv / {base}_profiles.csv twins."""
    base = str(base_path)
    payload = {
        "schema": REPORT_SCHEMA,
        "records": [_record_to_json(r) for r in report.records],
        "blocks": [asdict(b) for b in report.blocks],
    }
    _write_json(base + ".json", payload)

    with open(base + ".csv", "w", encoding="utf-8", newline="") as f:
        w = csv.writer(f)
        w.writerow(_SUMMARY_COLUMNS)
        for r in report.records:
            w.writerow([_csv_cell(getattr(r, c)) for c in _SUMMARY_COLUMNS])
        if report.blocks:
            w.writerow([])
            w.writerow(["block", "mse_baseline", "mse_after_gptq", "mse_final"])
            for b in report.blocks:
                w.writerow([b.block, repr(b.mse_baseline), repr(b.mse_after_gptq), repr(b.mse_final)])

    with open(base + "_profiles.csv", "w", encoding="utf-8", newline="") as f:
        w = csv.writer(f)
        w.writerow(["block", "site", "channel", "mean", "var"])
        for r in report.records:
            if r.channel_means is None:
                continue
            for j, (mu, var) in enumerate(zip(r.channel_means, r.channel_vars)):
                w.writerow([r.block, r.site, j, repr(float(mu)), repr(float(var))])


def _write_json(path, payload):
    """A JSON file with sorted keys, no spaces and a trailing newline."""
    with open(path, "w", encoding="utf-8") as f:
        json.dump(payload, f, sort_keys=True, separators=(",", ":"))
        f.write("\n")


def _csv_cell(v):
    if v is None:
        return ""
    if isinstance(v, float):
        return repr(v)
    return v


def read_report(json_path) -> ErrorReport:
    """Load a report JSON of schema REPORT_SCHEMA.  Any other document, or
    records and blocks that are not objects of their fields' types, raise
    BundleFormatError."""
    with open(json_path, "r", encoding="utf-8") as f:
        payload = json.load(f)
    if not isinstance(payload, dict) or "schema" not in payload:
        raise BundleFormatError(f"{json_path}: missing schema field")
    schema = payload["schema"]
    if type(schema) is not int or schema != REPORT_SCHEMA:
        raise BundleFormatError(f"{json_path}: report schema {schema!r}, this reader takes {REPORT_SCHEMA}; {_REBUILD}")
    records, blocks = payload.get("records", []), payload.get("blocks", [])
    try:
        if not (isinstance(records, list) and isinstance(blocks, list)):
            raise ValueError("records and blocks must be lists")
        records = [_from_json(SiteRecord, d) for d in records]
        blocks = [_from_json(BlockMse, b) for b in blocks]
    except (TypeError, ValueError) as err:
        raise BundleFormatError(f"{json_path}: malformed report: {err}") from err
    return ErrorReport(records=records, blocks=blocks)


def _from_json(cls, d):
    """A dataclass instance from a JSON object whose values match the field
    annotations; unknown names and non-finite floats are ValueErrors."""
    if not isinstance(d, dict):
        raise ValueError(f"{cls.__name__}: expected a JSON object, got {d!r}")
    kinds = {f.name: f.type for f in fields(cls)}
    return cls(**{k: _json_value(k, kinds.get(k, "a known field"), v) for k, v in d.items()})


def _json_value(name, kind, v):
    if kind.endswith(" | None"):
        if v is None:
            return None
        kind = kind.removesuffix(" | None")
    if kind == "int" and type(v) is int or kind == "str" and isinstance(v, str):
        return v
    if kind == "float" and type(v) in (int, float):
        if _finite(v):
            return float(v)
        raise ValueError(f"{name} = {v!r} is not a finite float")
    if kind == "np.ndarray" and isinstance(v, list) and all(map(_finite, v)):
        return np.asarray(v, dtype=np.float64)
    raise ValueError(f"{name} = {v!r} is not {kind}")


def _finite(v):
    """True for a JSON number that converts to a finite float (NaN compares False)."""
    return type(v) in (int, float) and abs(v) <= _FLOAT_MAX
