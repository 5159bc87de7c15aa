"""rotquant benchmark: end-to-end quantize timings and a traced per-layer run.

Run from the repository root:

    python3 perfbench/run.py --workload quantize-default --seed 0 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 10 --trace 0

The rotquant package is imported from ``src/`` next to this directory. The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it print every
metric by name with its unit. ``--trace 0`` measures the end-to-end metrics
with tracing off; ``--trace 1`` runs a traced unit of work between two
untraced ones and reports the per-layer metrics of the traced one. The exit
code is non-zero when any correctness check fails.
"""

from __future__ import annotations

import os

# one BLAS thread, set before numpy is imported here or in any child
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import hashlib
import io
import json
import math
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

# numpy and rotquant are imported inside functions, after this point, so
# that setup_s includes their import time
BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = BENCH_DIR / ".work"

#: Run-config overrides per quantize workload (None: the default RunConfig).
QUANTIZE_CONFIGS = {
    "quantize-default": None,
    "quantize-wide": {
        "hidden": 128, "heads": 4, "mlp_dim": 1024, "n_blocks": 1,
        "calib_sequences": 64, "seq_len": 16, "mode": "rotation-only",
    },
}
#: The TINY acceptance configuration swept by ``tiny-sweep``.
TINY_SEEDS_PER_SWEEP = 20
TINY_SEQUENCES, TINY_SEQ_LEN = 8, 8
#: Fresh processes timed for setup_s; import time is noisy on a shared VM.
SETUP_REPEATS = 7
WORKLOADS = tuple(QUANTIZE_CONFIGS) + ("tiny-sweep",)

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "pipeline_run_s": "s",
    "pipeline_run_s_p90": "s",
    "sqnr_db": "dB",
    "peak_rss_mb": "MiB",
    "output_bytes": "bytes",
    "ok_share": "ratio",
}
_LAYER_METRICS = (
    ("autodiff.backward.self_s", "s"), ("autodiff.backward.calls", "count"),
    ("autodiff.grad_peak_elements", "elements"),
    ("optim.optimize.self_s", "s"), ("optim.optimize.steps", "count"),
    ("model.forward_quant_block.self_s", "s"), ("model.forward_quant_block.calls", "count"),
    ("model.forward_fp_block.s", "s"), ("model.effective_weights.self_s", "s"),
    ("transforms.fwht.self_s", "s"), ("transforms.fwht.calls", "count"),
    ("transforms.pca_basis.s", "s"), ("transforms.cayley.s", "s"),
    ("quantizers.quantize_dynamic.self_s", "s"), ("quantizers.quantize_dynamic.calls", "count"),
    ("quantizers.search_clip.s", "s"), ("quantizers.search_clip.calls", "count"),
    ("quantizers.search_clip.distinct_ratio", "ratio"),
    ("quantizers.gptq_quantize.s", "s"), ("quantizers.gptq_quantize.calls", "count"),
    ("quantizers.gptq_quantize.columns", "count"),
    ("analysis.emit_report.s", "s"), ("analysis.noise_propagation.s", "s"),
    ("analysis.noise_propagation.calls", "count"),
    ("bundle_io.read_s", "s"), ("bundle_io.write_s", "s"), ("bundle_io.bytes_written", "bytes"),
    ("pipeline.prepare_bundle.s", "s"),
)
_STAGES = ("fp_targets", "stage1", "gptq", "stage2", "report", "other")


def _per_layer_units():
    from spans import LAYERS

    units = dict(_LAYER_METRICS)
    units.update({f"pipeline.stage.{s}_s": "s" for s in _STAGES})
    units.update({f"{layer}.self_s": "s" for layer in LAYERS})
    units["trace_overhead_s"] = "s"
    return units


# -- program under test ---------------------------------------------------------


def _import_rotquant():
    """Import rotquant from this checkout's src/, never from elsewhere."""
    if not (SRC / "rotquant" / "__init__.py").is_file():
        raise SystemExit(f"error: no rotquant sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import rotquant

    if Path(rotquant.__file__).resolve().parent != SRC / "rotquant":
        raise SystemExit(f"error: imported rotquant from {rotquant.__file__}, not {SRC}")


def _source_digest():
    h = hashlib.sha256()
    for path in sorted((SRC / "rotquant").glob("*.py")) + sorted(BENCH_DIR.glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def _tiny_inputs(seed):
    """Models and calibration sets of one sweep, in the order they run."""
    from rotquant import ModelConfig, SynthSpec, build_toy_model, gen_calibration

    tiny = ModelConfig(hidden=32, heads=2, mlp_dim=64, n_blocks=1)
    inputs = []
    for s in range(seed * TINY_SEEDS_PER_SWEEP, (seed + 1) * TINY_SEEDS_PER_SWEEP):
        spec = SynthSpec.misaligned(tiny.hidden, TINY_SEQUENCES * TINY_SEQ_LEN, seed=s)
        inputs.append((build_toy_model(tiny, s), gen_calibration(spec, TINY_SEQUENCES, TINY_SEQ_LEN)))
    return inputs


def _setup(workload, seed, workdir):
    """Generate the workload's inputs for ``seed``: the CLI's input files for
    the quantize workloads, in-memory models for tiny-sweep."""
    if workload == "tiny-sweep":
        return _tiny_inputs(seed)
    from rotquant import cli

    args = ["--seed", str(seed)]
    overrides = QUANTIZE_CONFIGS[workload]
    if overrides is not None:
        config = workdir / "config.json"
        config.write_text(json.dumps(overrides), encoding="utf-8")
        args += ["--config", str(config)]
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main(["gen", "--out", str(workdir / "inputs")] + args)
    if rc != 0:
        raise RuntimeError(f"rotquant gen exited {rc}")
    return args


def _setup_only(workload, seed, workdir):
    """Child process body for ``setup_s``: import rotquant, generate inputs."""
    t0 = time.perf_counter()
    _import_rotquant()
    _setup(workload, seed, Path(workdir))
    print(repr(time.perf_counter() - t0))


def _measure_setup(workload, seed, workdir):
    times = []
    for k in range(SETUP_REPEATS):
        d = workdir / f"setup{k}"
        d.mkdir()
        proc = subprocess.run(
            [sys.executable, __file__, "--setup-only", "--workload", workload,
             "--seed", str(seed), "--dir", str(d)],
            capture_output=True, text=True, timeout=120, check=False,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"setup process exited {proc.returncode}: {proc.stderr.strip()}")
        times.append(float(proc.stdout.strip().splitlines()[-1]))
        shutil.rmtree(d)
    return statistics.median(times)


# -- correctness ------------------------------------------------------------------


class Checker:
    """Correctness gate shared by every call of a run.

    A call's ``final_mse`` must be finite and equal to the first call with
    the same inputs, and its output files byte-identical, within this run
    and against the record an earlier run of the same sources left in the
    work directory.
    """

    def __init__(self, key, record_path):
        self.key = key
        self.record_path = record_path
        records = json.loads(record_path.read_text()) if record_path.is_file() else {}
        self.reference = records.get(key, {})
        self.seen = {}
        self.attempted = 0
        self.failed = 0

    def fail(self, message):
        self.failed += 1
        print(f"check failed: {message}", file=sys.stderr)

    def expect_same(self, name, value):
        """False if ``value`` differs from the first value seen under ``name``."""
        first = self.seen.setdefault(name, self.reference.get(name, value))
        return first == value

    def save(self):
        records = json.loads(self.record_path.read_text()) if self.record_path.is_file() else {}
        entry = records.setdefault(self.key, {})
        for name, value in self.seen.items():
            entry.setdefault(name, value)
        self.record_path.write_text(json.dumps(records, indent=1, sort_keys=True))


def _check_call(checker, name, final_mse, grad_peak, max_block):
    """Checks on one pipeline result; returns an error message or None."""
    if not math.isfinite(final_mse):
        return f"{name}: final_mse {final_mse} is not finite"
    if not checker.expect_same(name + ".final_mse", repr(final_mse)):
        return f"{name}: final_mse {final_mse!r} differs from the first run"
    if grad_peak > max_block:
        return f"{name}: gradient peak {grad_peak} exceeds one block's parameters {max_block}"
    return None


def _check_outputs(checker, name, outdir):
    """Digest the output files and reload the report; returns
    (error or None, bytes in quantized.rqb + params.rqb)."""
    from rotquant import read_report

    files = sorted(p for p in outdir.iterdir() if p.is_file())
    digest = hashlib.sha256()
    for p in files:
        digest.update(p.name.encode())
        digest.update(p.read_bytes())
    size = sum((outdir / n).stat().st_size for n in ("quantized.rqb", "params.rqb"))
    if not checker.expect_same(name + ".outputs", digest.hexdigest()):
        return f"{name}: output files differ from the first run", size
    report = read_report(outdir / "report.json")
    for r in report.records:
        for field in ("clipping_energy_fraction", "var_of_means_fraction"):
            v = getattr(r, field)
            if not 0.0 <= v <= 1.0:
                return f"{name}: block{r.block}.{r.site}.{field} = {v} outside [0, 1]", size
    return None, size


# -- workloads ------------------------------------------------------------------------


class QuantizeWorkload:
    """One unit of work: ``rotquant quantize`` on the generated input files."""

    def __init__(self, workdir, args):
        import numpy as np
        from rotquant import cli, forward_fp, pipeline, read_bundle, read_calibration

        self.cli = cli
        self.workdir = workdir
        inputs = workdir / "inputs"
        self.argv = ["quantize", "--model", str(inputs / "model.rqb"),
                     "--calib", str(inputs / "calib.rqb")] + args
        y = forward_fp(read_bundle(inputs / "model.rqb"), read_calibration(inputs / "calib.rqb"))
        self.signal_power = float(np.mean(np.asarray(y) ** 2))
        self.calls = 0
        self.results = []

        # cli binds run_pipeline at import; look the function up in the
        # pipeline module at call time so a traced wrapper there is used
        def run_pipeline(*a, **kw):
            t = time.perf_counter()
            result = pipeline.run_pipeline(*a, **kw)
            self.results.append((time.perf_counter() - t, result.final_mse,
                                 result.grad_peak_elements, result.max_block_param_elements))
            return result

        cli.run_pipeline = run_pipeline

    def run(self, checker, sink):
        """Run once; append the call's measurements to ``sink`` if it passes
        every check."""
        out = self.workdir / f"out{self.calls}"
        self.calls += 1
        checker.attempted += 1
        n_results = len(self.results)
        t = time.perf_counter()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                rc = self.cli.main(self.argv + ["--out", str(out)])
        except Exception:  # a crash is a failed call, not a benchmark error
            checker.fail(f"quantize raised\n{traceback.format_exc()}")
            return
        wall = time.perf_counter() - t
        if rc != 0:
            checker.fail(f"quantize exited {rc}")
            return
        if len(self.results) != n_results + 1:
            checker.fail("quantize did not call run_pipeline exactly once")
            return
        pipe_s, final_mse, peak, max_block = self.results[-1]
        error = _check_call(checker, "quantize", final_mse, peak, max_block)
        size = 0
        if error is None:
            error, size = _check_outputs(checker, "quantize", out)
        shutil.rmtree(out)
        if error is not None:
            checker.fail(error)
            return
        sink["wall"].append(wall)
        sink["pipeline"].append(pipe_s)
        sink["grad_peak"].append(peak)
        sink["sqnr"].append(10.0 * math.log10(self.signal_power / final_mse))
        sink["bytes"].append(size)


class TinySweep:
    """One unit of work: ``run_pipeline`` on 20 TINY models, each with
    ``train_bias`` on and off (the criterion-09 loop)."""

    def __init__(self, workdir, inputs):
        from dataclasses import replace

        import numpy as np
        from rotquant import PipelineConfig, QuantConfig, StageSchedule, forward_fp, pipeline

        self.pipeline = pipeline
        self.workdir = workdir
        self.inputs = inputs
        cfg = PipelineConfig(
            qcfg=QuantConfig.for_bits(4, 4, 4, inputs[0][0].config.head_dim),
            schedule=StageSchedule(steps_per_epoch=4),
            with_report=False,
        )
        self.configs = (cfg, replace(cfg, train_bias=False))
        self.signal_power = [
            float(np.mean(np.asarray(forward_fp(bundle, calib)) ** 2)) for bundle, calib in inputs
        ]
        self.sweeps = 0

    def run(self, checker, sink):
        from rotquant import write_bundle, write_params, write_report

        first = None
        sqnr = []
        t_sweep = time.perf_counter()
        for i, (bundle, calib) in enumerate(self.inputs):
            for cfg in self.configs:
                checker.attempted += 1
                name = f"sweep[{i}].train_bias={cfg.train_bias}"
                t = time.perf_counter()
                try:
                    result = self.pipeline.run_pipeline(bundle, calib, cfg)
                except Exception:  # a crash is a failed call, not a benchmark error
                    checker.fail(f"{name}: run_pipeline raised\n{traceback.format_exc()}")
                    continue
                elapsed = time.perf_counter() - t
                error = _check_call(checker, name, result.final_mse,
                                    result.grad_peak_elements, result.max_block_param_elements)
                if error is not None:
                    checker.fail(error)
                    continue
                sink["pipeline"].append(elapsed)
                sink["grad_peak"].append(result.grad_peak_elements)
                sqnr.append(10.0 * math.log10(self.signal_power[i] / result.final_mse))
                if i == 0 and cfg is self.configs[0]:
                    first = result
        wall = time.perf_counter() - t_sweep
        self.sweeps += 1
        if first is None:
            return
        out = self.workdir / f"out{self.sweeps}"
        out.mkdir()
        write_bundle(out / "quantized.rqb", first.bundle)
        write_params(out / "params.rqb", first.params)
        write_report(out / "report", first.report)
        error, size = _check_outputs(checker, "sweep[0]", out)
        shutil.rmtree(out)
        if error is not None:
            checker.fail(error)
            return
        sink["wall"].append(wall)
        sink["sqnr"].append(statistics.fmean(sqnr))
        sink["bytes"].append(size)


def _workload(name, seed, workdir):
    setup_result = _setup(name, seed, workdir)
    if name == "tiny-sweep":
        return TinySweep(workdir, setup_result)
    return QuantizeWorkload(workdir, setup_result)


def _new_sink():
    return {"wall": [], "pipeline": [], "sqnr": [], "bytes": [], "grad_peak": []}


def _p90(values):
    return statistics.quantiles(values, n=10, method="inclusive")[-1] if len(values) >= 2 else values[0]


def _timed_runs(work, checker, seconds):
    """Run units of work, at least one, until ``seconds`` have passed."""
    sink = _new_sink()
    start = time.perf_counter()
    while True:
        work.run(checker, sink)
        if time.perf_counter() - start >= seconds:
            return sink


def _end_to_end(workload, seed, seconds, workdir, checker):
    setup_s = _measure_setup(workload, seed, workdir)
    work = _workload(workload, seed, workdir)
    sink = _timed_runs(work, checker, seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if not sink["wall"]:
        return {}
    ok_share = 1.0 - checker.failed / checker.attempted
    return {
        "setup_s": setup_s,
        "wall_s": statistics.median(sink["wall"]),
        "pipeline_run_s": statistics.median(sink["pipeline"]),
        "pipeline_run_s_p90": _p90(sink["pipeline"]),
        "sqnr_db": statistics.median(sink["sqnr"]),
        "peak_rss_mb": peak_rss_mb,
        "output_bytes": statistics.median(sink["bytes"]),
        "ok_share": ok_share,
    }


def _per_layer(workload, seed, workdir, checker):
    from spans import LAYERS, Tracer

    work = _workload(workload, seed, workdir)
    untraced = _new_sink()
    work.run(checker, untraced)

    tracer = Tracer()
    tracer.install()
    traced = _new_sink()
    try:
        work.run(checker, traced)
    finally:
        tracer.uninstall()
    # a second untraced unit after the traced one cancels a linear drift
    # in machine speed out of trace_overhead_s
    work.run(checker, untraced)
    tracer.write(WORK / f"spans-{workload}-seed{seed}.npz")
    if not (untraced["wall"] and traced["wall"]):
        return {}

    summary = tracer.summary()

    def get(span, field):
        return summary.get(span, {}).get(field, 0)

    clip_calls = get("quantizers.search_clip", "calls")
    metrics = {}
    for name in dict(_LAYER_METRICS):
        span, _, field = name.rpartition(".")
        if field in ("s", "self_s", "calls"):
            metrics[name] = get(span, field)
    metrics.update({
        "autodiff.grad_peak_elements": max(traced["grad_peak"]),
        "optim.optimize.steps": _optimize_steps(tracer),
        "quantizers.search_clip.distinct_ratio": (
            len(tracer.clip_digests) / clip_calls if clip_calls else 0.0),
        "quantizers.gptq_quantize.columns": tracer.gptq_columns,
        "bundle_io.read_s": _layer_sum(summary, "bundle_io.read_", "s"),
        "bundle_io.write_s": _layer_sum(summary, "bundle_io.write_", "s"),
        "bundle_io.bytes_written": tracer.bytes_written,
    })
    for stage, value in tracer.stage_split().items():
        metrics[f"pipeline.stage.{stage}_s"] = value
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = _layer_sum(summary, layer + ".", "self_s")
    metrics["trace_overhead_s"] = traced["wall"][0] - statistics.fmean(untraced["wall"])

    counts = {k: v["calls"] for k, v in summary.items()}
    if not checker.expect_same("traced.calls", counts):
        checker.fail("traced call counts differ from an earlier traced run")
    return {k: float(v) for k, v in metrics.items()}


def _layer_sum(summary, prefix, field):
    return sum(v[field] for k, v in summary.items() if k.startswith(prefix))


def _optimize_steps(tracer):
    """Steps taken inside optimize spans: the backward calls they enclose."""
    names, _, _, _, parent = tracer.arrays()
    inner = (names == "autodiff.backward") & (parent >= 0)
    return int(sum(names[parent[inner]] == "optim.optimize"))


# -- entry point ----------------------------------------------------------------------


def _print_result(correct, attempted, failed, metrics, units):
    for name, value in metrics.items():
        print(f"{name:44s} {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))


def _run_all(args):
    """Run every workload in its own process; combine their results."""
    metrics, units = {}, {}
    attempted = failed = 0
    correct = True
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, check=False,
        )
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"{workload}: no result (exit {proc.returncode})", file=sys.stderr)
            return 2
        correct = correct and result["correct"] and proc.returncode == 0
        attempted += result["attempted"]
        failed += result["failed"]
        for name, m in result["metrics"].items():
            metrics[f"{workload}.{name}"] = m["value"]
            units[f"{workload}.{name}"] = m["unit"]
    _print_result(correct, attempted, failed, metrics, units)
    return 0 if correct else 1


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--dir", help=argparse.SUPPRESS)
    args = p.parse_args(argv)

    if args.setup_only:
        _setup_only(args.workload, args.seed, args.dir)
        return 0
    if args.workload == "all":
        return _run_all(args)

    _import_rotquant()
    WORK.mkdir(exist_ok=True)
    workdir = WORK / f"run-{os.getpid()}"
    workdir.mkdir()
    key = f"{_source_digest()}:{args.workload}:seed{args.seed}"
    checker = Checker(key, WORK / "reference.json")
    try:
        if args.trace:
            metrics, units = _per_layer(args.workload, args.seed, workdir, checker), _per_layer_units()
        else:
            metrics = _end_to_end(args.workload, args.seed, args.seconds, workdir, checker)
            units = END_TO_END
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    correct = checker.failed == 0 and bool(metrics)
    if correct:
        checker.save()
    _print_result(correct, checker.attempted, checker.failed, metrics, units)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
