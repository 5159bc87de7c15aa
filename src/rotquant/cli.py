"""Command-line surface: gen | quantize | eval | analyze | ablate | verify.

Exit codes: 0 success, 1 validation error, 2 runtime/numerical error,
3 verify-suite failure.  Every command is deterministic given its inputs
and seed; output files are byte-identical across reruns.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from .analysis import REPORT_SCHEMA, channel_stats, clipping_energy, emit_report, gaussian_clip_energy
from .bundle_io import (
    BundleFormatError,
    _from_json,
    _write_json,
    read_bundle,
    read_calibration,
    read_params,
    read_report,
    write_bundle,
    write_calibration,
    write_params,
    write_report,
)
from .model import (
    BlockParams,
    ModelConfig,
    QuantConfig,
    SynthSpec,
    build_toy_model,
    fold_norms,
    forward_fp,
    forward_quant,
    fuse_rres,
    gen_calibration,
    mse,
)
from .pipeline import (
    ABLATION_MODES,
    PipelineConfig,
    StageSchedule,
    ablate,
    mode_config,
    prepare_bundle,
    run_pipeline,
    site_layers,
)
from .quantizers import QuantSpec, quant_proxy_loss, quantize_dynamic, search_clip, gptq_quantize

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_RUNTIME = 2
EXIT_VERIFY = 3


class ConfigError(ValueError):
    pass


@dataclass
class RunConfig:
    """End-to-end run settings.  The library types they build own the rules
    on their values and the defaults of the fields they share; validate()
    reports the violations before work starts."""

    seed: int = 0
    # model: gen builds it; the other commands read its shape from the model file
    MODEL_FIELDS = ("hidden", "heads", "mlp_dim", "n_blocks")
    hidden: int = ModelConfig.hidden
    heads: int = ModelConfig.heads
    mlp_dim: int = ModelConfig.mlp_dim
    n_blocks: int = ModelConfig.n_blocks
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
    stage1_epochs: int = StageSchedule.stage1_epochs
    stage2_epochs: int = StageSchedule.stage2_epochs
    steps_per_epoch: int = StageSchedule.steps_per_epoch
    lr_scale: float = StageSchedule.lr_scale
    lr_bias: float = StageSchedule.lr_bias
    lr_clip: float = StageSchedule.lr_clip
    # rotations
    rres_kind: str = PipelineConfig.rres_kind
    mode: str | None = None
    # toy-model extras
    weight_outlier_cols: int = 2

    @classmethod
    def from_file(cls, path, model: ModelConfig | None = None) -> "RunConfig":
        """The file's settings.  A model field it sets must agree with
        `model`, the shape of the model file a command reads."""
        with open(path, "r", encoding="utf-8") as f:
            try:
                data = json.load(f)
            except json.JSONDecodeError as err:
                raise ConfigError(f"{path}: not valid JSON ({err})") from err
        try:
            rc = _from_json(cls, data)
        except ValueError as err:
            raise ConfigError(str(err)) from err
        for name in cls.MODEL_FIELDS:
            if model is not None and name in data and data[name] != getattr(model, name):
                raise ConfigError(f"{name}: the config says {data[name]}, the model file {getattr(model, name)}")
        return rc

    def model_config(self) -> ModelConfig:
        return ModelConfig(hidden=self.hidden, heads=self.heads, mlp_dim=self.mlp_dim, n_blocks=self.n_blocks)

    def synth_spec(self) -> SynthSpec:
        return SynthSpec.misaligned(
            self.hidden,
            self.calib_sequences * self.seq_len,
            seed=self.seed,
            offset_std=self.offset_std,
            base_std=self.base_std,
            n_outliers=self.n_outliers,
        )

    def pipeline_config(self) -> PipelineConfig:
        cfg = PipelineConfig(
            qcfg=QuantConfig.for_bits(self.w_bits, self.a_bits, self.kv_bits, self.model_config().head_dim),
            schedule=StageSchedule(**{f.name: getattr(self, f.name) for f in fields(StageSchedule)}),
            rres_kind=self.rres_kind,
            rres_seed=self.seed,
        )
        return cfg if self.mode is None else mode_config(cfg, self.mode)

    def validate(self):
        """Raise one ConfigError joining the errors of the objects a run
        builds (the model first: the others read its widths) and of the
        rules no library type owns; each names its field.  Cheap (< 1 s)."""
        problems = []
        if self.seed < 0:
            problems.append(f"seed: must be >= 0, got {self.seed}")
        if self.calib_sequences < 1 or self.seq_len < 2:
            problems.append("calib: need >= 1 sequence of length >= 2")
        if self.weight_outlier_cols < 0:
            problems.append(f"weight_outlier_cols: must be >= 0, got {self.weight_outlier_cols}")
        try:
            self.model_config()
        except ValueError as err:  # the synthetic data and the pipeline read its widths
            problems.append(str(err))
        else:
            for build in (self.synth_spec, self.pipeline_config):
                try:
                    build()
                except ValueError as err:
                    problems.append(str(err))
        if problems:
            raise ConfigError("; ".join(problems))
        return self


def _load_config(args, model: ModelConfig | None = None) -> RunConfig:
    rc = RunConfig.from_file(args.config, model) if args.config else RunConfig()
    if model is not None:  # the shape of the model file the command reads
        rc = replace(rc, **{name: getattr(model, name) for name in RunConfig.MODEL_FIELDS})
    if getattr(args, "seed", None) is not None:
        rc.seed = args.seed
    if getattr(args, "bits", None):
        parts = args.bits.split(",")
        if len(parts) != 3:
            raise ConfigError(f"--bits expects W,A,KV, got {args.bits!r}")
        try:
            rc.w_bits, rc.a_bits, rc.kv_bits = (int(p) for p in parts)
        except ValueError as err:
            raise ConfigError(f"--bits expects integers, got {args.bits!r}") from err
    if getattr(args, "mode", None):
        rc.mode = args.mode
    rc.validate()
    return rc


def _outdir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _read_calibration(args, hidden: int):
    """The --calib set, whose width must be the --model's `hidden`."""
    if (calib := read_calibration(args.calib)).shape[-1] != hidden:
        raise BundleFormatError(f"{args.calib}: width {calib.shape[-1]}, but {args.model} has hidden {hidden}")
    return calib


def _load_inputs(args):
    """(output dir, model, calibration set, PipelineConfig) of a command that
    reads a model; the model file owns the model's shape."""
    bundle = read_bundle(args.model)
    calib = _read_calibration(args, bundle.config.hidden)
    cfg = _load_config(args, bundle.config).pipeline_config()
    return _outdir(args), bundle, calib, cfg


# -- commands -------------------------------------------------------------------


def cmd_gen(args) -> int:
    rc = _load_config(args)
    out = _outdir(args)
    config = rc.model_config()
    bundle = build_toy_model(config, rc.seed, outlier_columns=rc.weight_outlier_cols)
    with np.errstate(over="ignore"):  # the generated files are f32; an overflow is refused below
        for bw in bundle.blocks:
            vars(bw).update({name: arr.astype(np.float32) for name, arr in vars(bw).items() if arr is not None})
        calib = gen_calibration(rc.synth_spec(), rc.calib_sequences, rc.seq_len).astype(np.float32)
    written = {f"block{i}.{name}": arr for i, bw in enumerate(bundle.blocks) for name, arr in vars(bw).items()}
    for name, arr in dict(written, calibration=calib).items():
        if arr is not None and not np.all(np.isfinite(arr)):
            raise ConfigError(f"{name}: would hold non-finite values in f32")
    write_bundle(out / "model.rqb", bundle)
    write_calibration(out / "calib.rqb", calib)
    print(f"wrote {out / 'model.rqb'} ({config.n_blocks} blocks, hidden {config.hidden})")
    print(f"wrote {out / 'calib.rqb'} ({rc.calib_sequences} x {rc.seq_len} x {config.hidden})")
    return EXIT_OK


def cmd_quantize(args) -> int:
    out, bundle, calib, cfg = _load_inputs(args)
    result = run_pipeline(bundle, calib, cfg)

    write_bundle(out / "quantized.rqb", result.bundle)
    write_params(out / "params.rqb", result.params)
    write_report(out / "report", result.report)
    for s in result.report.blocks:
        if s.mse_baseline == 0.0:
            print(f"warning: block {s.block}: baseline mse is 0, so there was nothing to fit", file=sys.stderr)
        print(
            f"block {s.block}: mse baseline {s.mse_baseline:.6e} "
            f"-> gptq {s.mse_after_gptq:.6e} -> final {s.mse_final:.6e}"
        )
    print(f"final calibration mse {result.final_mse:.6e}")
    print(f"wrote {out / 'quantized.rqb'}, {out / 'params.rqb'}, {out / 'report.json'}")
    return EXIT_OK


def cmd_eval(args) -> int:
    """Calibration MSE of a quantized bundle and its params against the FP model."""
    model, quantized = read_bundle(args.model), read_bundle(args.quantized)
    if quantized.qcfg is None or quantized.rotation is None:
        raise BundleFormatError(f"{args.quantized}: not a quantized bundle (no bit widths or rotation)")
    if quantized.config != model.config:
        raise BundleFormatError(f"{args.quantized}: shape {quantized.config} differs from {args.model}'s")
    if model.rotation is not None:
        raise BundleFormatError(f"{args.model}: has a residual rotation fused in; pass the original model")
    params = read_params(args.params, quantized.config)
    x = quantized.rotation.apply(_read_calibration(args, model.config.hidden))
    y_fp = forward_fp(fuse_rres(fold_norms(model), quantized.rotation), x)
    value = mse(forward_quant(quantized, params, quantized.qcfg, x), y_fp)
    out = _outdir(args)
    _write_json(out / "eval.json", {"schema": 1, "mse": value})
    print(f"calibration mse {value:.6e}; wrote {out / 'eval.json'}")
    return EXIT_OK


def cmd_analyze(args) -> int:
    out, bundle, calib, cfg = _load_inputs(args)
    # post-rotation analysis: prepare exactly as the quantizer would, then
    # collect every quantizer-site input on the floating-point forward
    prepared = prepare_bundle(bundle, cfg)
    neutral = [BlockParams.neutral(prepared.config) for _ in prepared.blocks]
    layers = site_layers(prepared, neutral, QuantConfig(None, None, None), prepared.rotation.apply(calib))
    report = emit_report(layers, cfg.qcfg)
    write_report(out / "analysis", report)
    worst = max(report.records, key=lambda r: r.var_of_means_fraction)
    print(
        f"analyzed {len(report.records)} sites; "
        f"max var-of-means fraction {worst.var_of_means_fraction:.3f} "
        f"at block{worst.block}.{worst.site}"
    )
    print(f"wrote {out / 'analysis.json'} (+ csv twins)")
    return EXIT_OK


def cmd_ablate(args) -> int:
    out, bundle, calib, cfg = _load_inputs(args)
    modes = [args.mode] if args.mode else list(ABLATION_MODES)
    rows = ablate(bundle, calib, cfg, modes=modes)

    _write_json(out / "ablation.json", {"schema": 1, "rows": rows})
    with open(out / "ablation.csv", "w", encoding="utf-8", newline="") as f:
        w = csv.writer(f)
        w.writerow(["mode", "final_mse"])
        for row in rows:
            w.writerow([row["mode"], repr(row["final_mse"])])
    for row in rows:
        print(f"{row['mode']:>16s}  final mse {row['final_mse']:.6e}")
    return EXIT_OK


# -- verify suite ------------------------------------------------------------------


def _check_gaussian_clip_energy():
    tol = 0.005
    analytic = gaussian_clip_energy(2.2)
    rng = np.random.default_rng(1234)
    x = rng.standard_normal(1_000_000)
    mc = clipping_energy(x, -2.2 * x.std(), 2.2 * x.std())
    ok = abs(analytic - 0.184) <= tol and abs(mc - 0.184) <= tol
    return ok, f"analytic {analytic:.4f}, monte-carlo {mc:.4f} (target 0.184 +- {tol})"


def _check_clip_threshold():
    lo, hi = 2.1, 2.3
    rng = np.random.default_rng(99)
    x = rng.standard_normal(1_000_000)
    theta = search_clip(x, 4) / x.std()
    return lo <= theta <= hi, f"theta* = {theta:.4f} sigma (band [{lo}, {hi}])"


def _check_variance_identity():
    tol = 1e-10
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(1000):
        x = rng.normal(size=(rng.integers(4, 40), rng.integers(2, 30)))
        cs = channel_stats(x)
        lhs = cs.total_var
        rhs = cs.vars.mean() + cs.var_of_means
        worst = max(worst, abs(lhs - rhs) / max(abs(lhs), 1e-300))
    return worst <= tol, f"max relative identity error {worst:.3e} (tol {tol})"


def _check_fusion_equivalence():
    from .transforms import random_hadamard

    tol = 1e-6
    worst = 0.0
    for seed in range(3):
        config = ModelConfig(hidden=32, heads=2, mlp_dim=64, n_blocks=1)
        bundle = build_toy_model(config, seed)
        rng = np.random.default_rng(seed + 50)
        x = rng.normal(size=(2, 8, 32))
        rot = random_hadamard(32, seed)
        fused = fuse_rres(fold_norms(bundle), rot)
        y_ref = rot.apply(np.asarray(forward_fp(bundle, x)))
        y_fused = np.asarray(forward_fp(fused, rot.apply(x)))
        worst = max(worst, float(np.max(np.abs(y_ref - y_fused)) / np.max(np.abs(y_ref))))
    return worst <= tol, f"max relative deviation {worst:.3e} (tol {tol})"


def _check_gptq_dominance():
    spec = QuantSpec(4, "symmetric", "per-channel")
    ok = True
    worst = 0.0
    for seed in range(10):
        rng = np.random.default_rng(seed)
        w = rng.normal(size=(8, 8))
        x = rng.normal(size=(64, 8)) @ rng.normal(size=(8, 8))  # correlated
        q_g, _ = gptq_quantize(w, x, spec)
        q_r = np.asarray(quantize_dynamic(w, spec))
        diff = quant_proxy_loss(w, q_g, x) - quant_proxy_loss(w, q_r, x)
        worst = max(worst, diff)
        ok = ok and diff <= 1e-12
    return ok, f"max(gptq - rtn proxy loss) = {worst:.3e} (must be <= 0)"


_CHECKS = [
    ("gaussian-clip-energy", _check_gaussian_clip_energy),
    ("clip-threshold", _check_clip_threshold),
    ("variance-identity", _check_variance_identity),
    ("fusion-equivalence", _check_fusion_equivalence),
    ("gptq-dominance", _check_gptq_dominance),
]


def cmd_verify(args) -> int:
    start = time.time()
    failures = []
    for name, fn in _CHECKS:
        ok, detail = fn()
        print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
        if not ok:
            failures.append(name)
    if args.report:
        ok, detail = _check_report_file(args.report)
        print(f"{'PASS' if ok else 'FAIL'} report-file: {detail}")
        if not ok:
            failures.append("report-file")
    elapsed = time.time() - start
    if elapsed > 60:
        print(f"warning: verify took {elapsed:.1f}s (budget 60s)", file=sys.stderr)
    if failures:
        print(f"FAILED checks: {', '.join(failures)}", file=sys.stderr)
        return EXIT_VERIFY
    return EXIT_OK


def _check_report_file(path):
    try:
        report = read_report(path)
    except (OSError, BundleFormatError, ValueError) as err:  # ValueError: not JSON
        return False, f"unparseable: {err}"
    for r in report.records:
        for field in ("clipping_energy_fraction", "var_of_means_fraction"):
            v = getattr(r, field)
            if not 0.0 <= v <= 1.0:
                return False, f"block{r.block}.{r.site}.{field} = {v} outside [0, 1]"
    return True, f"{len(report.records)} records, schema {REPORT_SCHEMA}"


# -- entry point --------------------------------------------------------------------


def _build_parser():
    p = argparse.ArgumentParser(prog="rotquant", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, model=False, calib=False):
        sp.add_argument("--config", help="JSON run-config file")
        sp.add_argument("--seed", type=int, default=None)
        sp.add_argument("--bits", help="bit widths W,A,KV (>= 16 disables)")
        if model:
            sp.add_argument("--model", required=True)
        if calib:
            sp.add_argument("--calib", required=True)
        sp.add_argument("--out", required=True, help="output directory")

    sp = sub.add_parser("gen", help="generate a toy model and synthetic calibration set")
    common(sp)
    sp.set_defaults(fn=cmd_gen)

    sp = sub.add_parser("quantize", help="run the full blockwise quantization pipeline")
    common(sp, model=True, calib=True)
    sp.set_defaults(fn=cmd_quantize)

    sp = sub.add_parser("eval", help="calibration mse of a quantized model, from its files")
    for flag in ("--model", "--quantized", "--params", "--calib", "--out"):
        sp.add_argument(flag, required=True)
    sp.set_defaults(fn=cmd_eval)

    sp = sub.add_parser("analyze", help="emit per-site quantization error analysis")
    common(sp, model=True, calib=True)
    sp.set_defaults(fn=cmd_analyze)

    sp = sub.add_parser("ablate", help="run the feature-ladder ablation")
    common(sp, model=True, calib=True)
    sp.add_argument("--mode", choices=ABLATION_MODES, help="run a single ablation mode")
    sp.set_defaults(fn=cmd_ablate)

    sp = sub.add_parser("verify", help="run the built-in oracle suite")
    sp.add_argument("--report", help="also validate a report JSON file")
    sp.set_defaults(fn=cmd_verify)
    return p


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as err:
        return EXIT_VALIDATION if err.code not in (0, None) else EXIT_OK
    try:
        return args.fn(args)
    # numerical errors first: LinAlgError is a ValueError; the package's errors are RuntimeErrors
    except (np.linalg.LinAlgError, RuntimeError, OSError, AssertionError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_RUNTIME
    except ValueError as err:  # ConfigError among them
        print(f"error: {err}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
