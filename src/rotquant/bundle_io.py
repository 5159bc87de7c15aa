"""Bundle/report file formats and run configuration.

Bundle container: an 8-byte magic+version, a little-endian u64 length
prefix, a UTF-8 JSON header naming every tensor (name, dtype, shape,
absolute byte offset), then raw little-endian IEEE-754 float32 tensor data,
each tensor 64-byte aligned.  Arrays live in memory as float64 and are cast
to float32 on write, so read(write(bundle)) is bit-exact after one f32
round-trip.

Reports are emitted as twins holding the same data: JSON for machine
diffing, CSV (plus a channel-profile CSV) for plotting.
"""

from __future__ import annotations

import csv
import json
import math
import struct
from dataclasses import asdict, dataclass, fields

import numpy as np

from .analysis import BlockMse, ErrorReport, SiteRecord
from .model import BIAS_NAMES, WEIGHT_NAMES, BlockParams, BlockWeights, ModelBundle, ModelConfig
from .pipeline import ABLATION_MODES

__all__ = [
    "BundleFormatError",
    "ConfigError",
    "RunConfig",
    "write_bundle",
    "read_bundle",
    "write_calibration",
    "read_calibration",
    "write_params",
    "read_params",
    "write_report",
    "read_report",
]

_MAGIC = b"RQBNDL\x00\x01"
_ALIGN = 64
REPORT_SCHEMA = 1


class BundleFormatError(RuntimeError):
    pass


class ConfigError(ValueError):
    pass


# -- low-level container -------------------------------------------------------


def _pad(n: int) -> int:
    return (-n) % _ALIGN


def _write_container(path, kind: str, header_extra: dict, tensors: dict):
    """tensors: {name: ndarray}; values are cast to f32 little-endian."""
    order = list(tensors.keys())
    blobs = {k: np.ascontiguousarray(tensors[k], dtype="<f4").tobytes() for k in order}

    entries = []
    header = {"schema": 1, "kind": kind, **header_extra, "tensors": entries}
    # two passes: offsets depend on the header length, which depends on the
    # offsets' digits; iterate until stable (at most a few rounds)
    header_len_guess = 0
    for _ in range(8):
        entries.clear()
        offset_probe = len(_MAGIC) + 8 + header_len_guess
        offset_probe += _pad(offset_probe)
        body_start = offset_probe
        off = body_start
        for name in order:
            nbytes = len(blobs[name])
            entries.append(
                {
                    "name": name,
                    "dtype": "f32",
                    "shape": list(np.asarray(tensors[name]).shape),
                    "offset": off,
                    "nbytes": nbytes,
                }
            )
            off += nbytes + _pad(nbytes)
        encoded = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
        if len(encoded) == header_len_guess:
            break
        header_len_guess = len(encoded)
    else:
        raise BundleFormatError("header layout did not stabilize")

    with open(path, "wb") as f:
        f.write(_MAGIC)
        f.write(struct.pack("<Q", len(encoded)))
        f.write(encoded)
        f.write(b"\x00" * _pad(f.tell()))
        for name in order:
            f.write(blobs[name])
            f.write(b"\x00" * _pad(len(blobs[name])))


def _read_container(path, expect_kind=None):
    with open(path, "rb") as f:
        raw = f.read()
    if len(raw) < len(_MAGIC) + 8 or raw[: len(_MAGIC)] != _MAGIC:
        raise BundleFormatError(f"{path}: bad magic at offset 0")
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
    if expect_kind is not None and header.get("kind") != expect_kind:
        raise BundleFormatError(f"{path}: expected kind {expect_kind!r}, got {header.get('kind')!r}")

    tensors = {}
    prev_end = header_start + header_len
    try:
        for entry in header.get("tensors", []):
            off, nbytes = entry["offset"], entry["nbytes"]
            if off < prev_end:
                raise BundleFormatError(
                    f"{path}: tensor {entry['name']!r} offset {off} overlaps previous data ending {prev_end}"
                )
            if nbytes < 0 or off + nbytes > len(raw):
                raise BundleFormatError(
                    f"{path}: tensor {entry['name']!r} at offset {off} (+{nbytes}) overruns file size {len(raw)}"
                )
            shape = tuple(entry["shape"])
            if int(np.prod(shape, dtype=np.int64)) * 4 != nbytes:
                raise BundleFormatError(
                    f"{path}: tensor {entry['name']!r} shape {shape} disagrees with {nbytes} bytes"
                )
            arr = np.frombuffer(raw, dtype="<f4", count=nbytes // 4, offset=off)
            if not np.all(np.isfinite(arr)):
                raise BundleFormatError(
                    f"{path}: tensor {entry['name']!r} at offset {off} contains non-finite values"
                )
            tensors[entry["name"]] = arr.reshape(shape).astype(np.float64)
            prev_end = off + nbytes
    except (KeyError, TypeError, ValueError, OverflowError) as err:
        raise BundleFormatError(f"{path}: malformed tensor table: {err!r}") from err
    return header, tensors


# -- model bundles ---------------------------------------------------------------


def write_bundle(path, bundle: ModelBundle):
    cfg = bundle.config
    tensors = {}
    for i, bw in enumerate(bundle.blocks):
        for name in WEIGHT_NAMES + BIAS_NAMES + ("g_attn", "g_mlp"):
            arr = getattr(bw, name)
            if arr is not None:
                tensors[f"block{i}.{name}"] = arr
    header = {
        "config": {
            "hidden": cfg.hidden,
            "heads": cfg.heads,
            "mlp_dim": cfg.mlp_dim,
            "n_blocks": cfg.n_blocks,
            "eps": cfg.eps,
        },
        "meta": dict(bundle.meta),
    }
    _write_container(path, "model", header, tensors)


def _block_shapes(config: ModelConfig) -> dict:
    """The shape of every block tensor under config (weights are [out x in])."""
    n, m = config.hidden, config.mlp_dim
    shapes = {name: (n, n) for name in ("wq", "wk", "wv", "wo")}
    shapes.update(wgate=(m, n), wup=(m, n), wdown=(n, m))
    shapes.update({name: (n,) for name in ("bq", "bk", "bv", "bo", "bdown", "g_attn", "g_mlp")})
    shapes.update(bgate=(m,), bup=(m,))
    return shapes


def read_bundle(path) -> ModelBundle:
    header, tensors = _read_container(path, expect_kind="model")
    try:
        c = header["config"]
        config = ModelConfig(
            hidden=int(c["hidden"]),
            heads=int(c["heads"]),
            mlp_dim=int(c["mlp_dim"]),
            n_blocks=int(c["n_blocks"]),
            eps=float(c["eps"]),
        )
        meta = dict(header["meta"])
    except (KeyError, TypeError, ValueError, OverflowError) as err:
        raise BundleFormatError(f"{path}: malformed model header: {err!r}") from err
    flags = ModelBundle(config, []).meta
    if not all(isinstance(meta.get(k), bool) for k in flags):
        raise BundleFormatError(f"{path}: model meta must hold the boolean flags {sorted(flags)}")
    blocks = []
    for i in range(config.n_blocks):
        kwargs = {}
        for name in WEIGHT_NAMES + BIAS_NAMES + ("g_attn", "g_mlp"):
            kwargs[name] = tensors.get(f"block{i}.{name}")
        missing = [n for n in WEIGHT_NAMES if kwargs[n] is None]
        if missing:
            raise BundleFormatError(f"{path}: block {i} missing weights {missing}")
        for name, shape in _block_shapes(config).items():
            arr = kwargs[name]
            if arr is not None and arr.shape != shape:
                raise BundleFormatError(
                    f"{path}: block{i}.{name} has shape {arr.shape}, config needs {shape}"
                )
        blocks.append(BlockWeights(**kwargs))
    return ModelBundle(config, blocks, meta)


def write_calibration(path, calib, synth_meta=None):
    calib = np.asarray(calib, dtype=np.float64)
    if calib.ndim != 3:
        raise ValueError("calibration must be [sequences x seq_len x channels]")
    _write_container(path, "calibration", {"synth": synth_meta or {}}, {"calib": calib})


def read_calibration(path):
    _, tensors = _read_container(path, expect_kind="calibration")
    if "calib" not in tensors:
        raise BundleFormatError(f"{path}: missing calibration tensor")
    return tensors["calib"]


def write_params(path, params_list):
    tensors = {}
    for i, bp in enumerate(params_list):
        for f in bp.__dataclass_fields__:
            tensors[f"block{i}.{f}"] = np.asarray(getattr(bp, f), dtype=np.float64)
    _write_container(path, "params", {"n_blocks": len(params_list)}, tensors)


def read_params(path):
    header, tensors = _read_container(path, expect_kind="params")
    out = []
    try:
        for i in range(int(header["n_blocks"])):
            kwargs = {}
            for f in [fl.name for fl in fields(BlockParams)]:
                arr = tensors[f"block{i}.{f}"]
                kwargs[f] = np.float64(arr) if arr.ndim == 0 else arr
            out.append(BlockParams(**kwargs))
    except (KeyError, TypeError, ValueError, OverflowError) as err:
        raise BundleFormatError(f"{path}: missing or malformed params entry: {err!r}") from err
    return out


# -- reports ---------------------------------------------------------------------

_SUMMARY_COLUMNS = [
    "block",
    "site",
    "rounding_energy",
    "clipping_energy_fraction",
    "var_of_means_fraction",
    "mean_channel_var",
    "var_of_means",
    "predicted_noise_var",
    "empirical_noise_var",
]


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
    with open(base + ".json", "w", encoding="utf-8") as f:
        json.dump(payload, f, sort_keys=True, separators=(",", ":"))
        f.write("\n")

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


def _csv_cell(v):
    if v is None:
        return ""
    if isinstance(v, float):
        return repr(v)
    return v


def read_report(json_path) -> ErrorReport:
    with open(json_path, "r", encoding="utf-8") as f:
        payload = json.load(f)
    if "schema" not in payload:
        raise BundleFormatError(f"{json_path}: missing schema field")
    records = []
    for d in payload.get("records", []):
        for k in ("channel_means", "channel_vars"):
            if d.get(k) is not None:
                d[k] = np.asarray(d[k], dtype=np.float64)
        records.append(SiteRecord(**d))
    blocks = [BlockMse(**b) for b in payload.get("blocks", [])]
    return ErrorReport(schema=int(payload["schema"]), records=records, blocks=blocks)


# -- run configuration -------------------------------------------------------------


@dataclass
class RunConfig:
    """End-to-end run settings; validated before any work starts."""

    seed: int = 0
    # model
    hidden: int = 64
    heads: int = 4
    mlp_dim: int = 256
    n_blocks: int = 2
    # synthetic data
    calib_sequences: int = 128
    seq_len: int = 8
    offset_std: float = 4.0
    base_std: float = 1.0
    n_outliers: int = 2
    # quantization (>= 16 disables that quantizer)
    w_bits: int = 4
    a_bits: int = 4
    kv_bits: int = 4
    # schedule
    stage1_epochs: int = 3
    stage2_epochs: int = 5
    steps_per_epoch: int = 10
    lr_scale: float = 1e-2
    lr_bias: float = 1e-3
    lr_clip: float = 1e-2
    # rotations
    rres_kind: str = "pca-hadamard"
    gptq_damp: float = 0.01
    mode: str | None = None
    # toy-model extras
    weight_outlier_cols: int = 2

    @classmethod
    def from_file(cls, path) -> "RunConfig":
        with open(path, "r", encoding="utf-8") as f:
            try:
                data = json.load(f)
            except json.JSONDecodeError as err:
                raise ConfigError(f"{path}: not valid JSON ({err})") from err
        if not isinstance(data, dict):
            got = "null" if data is None else type(data).__name__
            raise ConfigError(f"{path}: expected a JSON object of config fields, got {got}")
        defaults = {f.name: f.default for f in fields(cls)}
        unknown = sorted(set(data) - set(defaults))
        if unknown:
            raise ConfigError(f"unknown config fields: {', '.join(unknown)}")
        for name, value in data.items():
            default = defaults[name]
            if default is None:
                kind, ok = "a string or null", value is None or isinstance(value, str)
            elif isinstance(default, float):  # ints widen; JSON NaN/Infinity do not pass
                number = isinstance(value, (int, float)) and not isinstance(value, bool)
                kind, ok = "a finite number", number and math.isfinite(value)
                data[name] = float(value) if ok else value
            elif isinstance(default, int):
                kind, ok = "an integer", isinstance(value, int) and not isinstance(value, bool)
            else:
                kind, ok = "a string", isinstance(value, str)
            if not ok:
                raise ConfigError(f"{name}: expected {kind}, got {value!r}")
        return cls(**data)

    def validate(self):
        """Raise ConfigError naming the offending field; cheap (< 1 s)."""
        problems = []

        def pow2(field_name, v):
            if v < 1 or v & (v - 1):
                problems.append(f"{field_name}: dimension must be 2^k, got {v}")

        pow2("model.hidden", self.hidden)
        pow2("model.mlp_dim", self.mlp_dim)
        if self.heads < 1 or self.hidden % self.heads:
            problems.append(f"model.heads: hidden {self.hidden} not divisible by {self.heads}")
        else:
            pow2("model.head_dim", self.hidden // self.heads)
        if self.n_blocks < 1:
            problems.append(f"model.n_blocks: must be >= 1, got {self.n_blocks}")

        for name in ("w_bits", "a_bits", "kv_bits"):
            b = getattr(self, name)
            if not (2 <= b <= 8 or b >= 16):
                problems.append(f"quant.{name}: must be 2..8 (or >= 16 for pass-through), got {b}")

        if self.calib_sequences < 1 or self.seq_len < 2:
            problems.append("calib: need >= 1 sequence of length >= 2")
        for name in ("stage1_epochs", "stage2_epochs", "steps_per_epoch"):
            if getattr(self, name) < 0:
                problems.append(f"schedule.{name}: must be >= 0")
        for name in ("lr_scale", "lr_bias", "lr_clip"):
            if not getattr(self, name) > 0:
                problems.append(f"schedule.{name}: must be > 0")
        if self.mode is not None and self.mode not in ABLATION_MODES:
            problems.append(f"mode: unknown mode {self.mode!r} (choose from {', '.join(ABLATION_MODES)})")
        if self.rres_kind not in ("pca-hadamard", "hadamard", "random-hadamard"):
            problems.append(f"rres_kind: unknown kind {self.rres_kind!r}")
        if not 0 < self.gptq_damp < 1:
            problems.append(f"gptq_damp: must be in (0, 1), got {self.gptq_damp}")
        if self.offset_std < 0 or self.base_std <= 0:
            problems.append("synth: offset_std must be >= 0 and base_std > 0")
        if self.n_outliers < 0:
            problems.append(f"synth.n_outliers: must be >= 0, got {self.n_outliers}")
        if problems:
            raise ConfigError("; ".join(problems))
        return self
