"""Span recorder for the traced benchmark run.

The tracer replaces the public functions of the rotquant layers with thin
wrappers that record one span per call: name, start, end and the index of
the enclosing span. A function is replaced in every rotquant module
namespace that bound it (``from .transforms import fwht`` makes
``model.fwht`` a second binding of the same object), so calls through any
binding are recorded. Spans stay in memory; the benchmark writes them out
once the timed work is over.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import inspect
import sys
import time
from pathlib import Path

import numpy as np

#: The layers the benchmark attributes time to, one per rotquant module.
LAYERS = (
    "cli", "bundle_io", "pipeline", "model", "autodiff",
    "optim", "quantizers", "transforms", "analysis",
)


def public_functions(module):
    """The module's public functions: its ``__all__`` functions, or else the
    non-underscore functions it defines."""
    if hasattr(module, "__all__"):
        names = module.__all__
    else:
        names = [n for n in vars(module) if not n.startswith("_")]
    return {
        n: f for n in names
        if inspect.isfunction(f := getattr(module, n, None))
        and f.__module__ == module.__name__
    }


class Tracer:
    def __init__(self):
        self.names = []
        self.starts = []
        self.ends = []
        self.parents = []
        self.stack = []
        self.clip_digests = set()
        self.gptq_columns = 0
        self.bytes_written = 0
        self._patched = []  # (namespace, attribute, original)

    # -- recording -------------------------------------------------------------

    def wrap(self, name, fn, after=None):
        names, starts, ends, parents, stack = (
            self.names, self.starts, self.ends, self.parents, self.stack)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if after is not None:
                after(args, kwargs)
            return result

        return traced

    def _after_search_clip(self, args, kwargs):
        samples = np.ascontiguousarray(np.asarray(args[0], dtype=np.float64))
        digest = hashlib.sha256(samples.tobytes())
        digest.update(repr((samples.shape, args[1:], sorted(kwargs.items()))).encode())
        self.clip_digests.add(digest.hexdigest())

    def _after_gptq(self, args, kwargs):
        self.gptq_columns += int(np.shape(args[0])[1])

    def _after_write(self, args, kwargs):
        # write_report(base, ...) writes base.json and csv twins; every
        # other writer writes exactly the path it is given
        path = Path(args[0])
        self.bytes_written += sum(p.stat().st_size for p in path.parent.glob(path.name + "*"))

    def install(self):
        """Wrap the public functions of every layer in every rotquant module
        namespace that bound them."""
        hooks = {
            "quantizers.search_clip": self._after_search_clip,
            "quantizers.gptq_quantize": self._after_gptq,
        }
        wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module("rotquant." + layer)
            for fname, fn in public_functions(module).items():
                span = f"{layer}.{fname}"
                after = hooks.get(span)
                if layer == "bundle_io" and fname.startswith("write_"):
                    after = self._after_write
                wrappers[id(fn)] = (fn, self.wrap(span, fn, after))
        for modname, module in list(sys.modules.items()):
            if modname != "rotquant" and not modname.startswith("rotquant."):
                continue
            for attr, value in list(vars(module).items()):
                entry = wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    setattr(module, attr, entry[1])
                    self._patched.append((module, attr, value))

    def uninstall(self):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    # -- analysis --------------------------------------------------------------

    def arrays(self):
        start = np.asarray(self.starts)
        dur = np.asarray(self.ends) - start
        parent = np.asarray(self.parents, dtype=np.int64)
        child_time = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(child_time, parent[has_parent], dur[has_parent])
        return np.asarray(self.names, dtype=object), start, dur, dur - child_time, parent

    def summary(self):
        """Per-span-name totals: calls, inclusive seconds, self seconds."""
        names, _, dur, self_time, _ = self.arrays()
        out = {}
        for name, d, s in zip(names, dur, self_time):
            entry = out.setdefault(name, [0, 0.0, 0.0])
            entry[0] += 1
            entry[1] += d
            entry[2] += s
        return {k: {"calls": c, "s": d, "self_s": s} for k, (c, d, s) in out.items()}

    def stage_split(self):
        """Split every quantize_blockwise span into pipeline stages by the
        order of its direct child spans.

        Within a block, an ``optimize`` before the block's first
        ``gptq_quantize`` is stage 1 and the ``optimize`` after it is stage
        2, which closes the block. The stages sum exactly to
        quantize_blockwise.
        """
        names, _, dur, _, parent = self.arrays()
        children = {}
        for i, p in enumerate(parent):
            if p >= 0:
                children.setdefault(int(p), []).append(i)
        stages = dict.fromkeys(("fp_targets", "stage1", "gptq", "stage2", "report", "other"), 0.0)
        for q in np.flatnonzero(names == "pipeline.quantize_blockwise"):
            covered = 0.0
            after_gptq = False
            for c in children.get(int(q), []):  # spans are recorded in start order
                name, d = names[c], float(dur[c])
                if name == "model.forward_fp_block":
                    stage = "fp_targets"
                elif name == "quantizers.gptq_quantize":
                    stage, after_gptq = "gptq", True
                elif name == "optim.optimize":
                    stage = "stage2" if after_gptq else "stage1"
                    after_gptq = False
                elif name == "quantizers.search_clip":
                    stage = "stage2"
                elif name == "analysis.emit_report":
                    stage = "report"
                else:
                    continue
                stages[stage] += d
                covered += d
            stages["other"] += float(dur[q]) - covered
        return stages

    def write(self, path):
        """Write the spans to an ``.npz`` file: ``names`` (the span-name
        table), per span ``name`` (index into it), ``start`` and ``end``
        (seconds from the first span) and ``parent`` (span index, -1 at top
        level)."""
        table = sorted(set(self.names))
        index = {n: i for i, n in enumerate(table)}
        t0 = self.starts[0] if self.starts else 0.0
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(
            path,
            names=np.asarray(table),
            name=np.asarray([index[n] for n in self.names], dtype=np.int32),
            start=np.asarray(self.starts) - t0,
            end=np.asarray(self.ends) - t0,
            parent=np.asarray(self.parents, dtype=np.int64),
        )
