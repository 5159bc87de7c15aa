"""Adam-style optimizer with cosine learning-rate decay and best-point tracking."""

from __future__ import annotations

import ctypes
import functools
import math
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad

__all__ = ["ParamGroup", "OptimResult", "OptimizationError", "cosine_lr", "optimize"]


class OptimizationError(RuntimeError):
    pass


#: Adam's first/second-moment decay rates and denominator guard
BETAS = (0.9, 0.999)
EPS = 1e-8

#: glibc mallopt parameters (malloc.h) and the values `optimize` sets
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_TRIM_THRESHOLD = 512 << 20
_MMAP_THRESHOLD = 32 << 20


@dataclass
class ParamGroup:
    params: list
    lr: float
    #: optional (lo, hi) that every value is clamped into after each step
    bounds: tuple | None = None


@dataclass
class OptimResult:
    losses: list = field(default_factory=list)
    best_loss: float = math.inf
    best_step: int = -1


def cosine_lr(lr_init, step, total_steps):
    """Cosine decay from lr_init at step 0 toward 0 at step == total_steps."""
    return lr_init * 0.5 * (1.0 + math.cos(math.pi * step / total_steps))


@functools.cache
def _keep_freed_heap():
    """Have glibc's malloc keep the memory a step frees, process-wide.

    Each step frees its whole graph before the next one is built.  With
    glibc's defaults the freed heap top goes back to the OS and the next
    graph faults it in again, page by page.  A trim threshold above one
    graph keeps it.  Setting it also freezes glibc's dynamic mmap
    threshold, so the mmap threshold is set too, above the largest
    temporary of a step.  A worker that `autodiff.parallel_parts` forks
    after the first call inherits them.  Where there is no `mallopt` (not
    glibc) this does nothing.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD)
    mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD)


def optimize(loss_fn, groups, steps, patience=None):
    """Minimize `loss_fn` over the parameters in `groups` in up to `steps` updates.

    `loss_fn` rebuilds the computation graph and returns a scalar Var.  It
    is evaluated at most `steps + 1` times: at entry and after each update.
    The run ends early, with no further update, once the step just scored
    is `patience` steps past the best one (None: never), or once a loss is
    exactly 0, below which a squared error cannot go.  The best-seen
    parameter values are restored at the end (`best_step` may be `steps`),
    so the final loss never exceeds the loss at entry.  Up to its end, an
    early-ended run takes the steps of the full run, so it restores the
    same point unless a later step of the full run would score lower.

    Only one step's graph is alive at a time: each step's loss is dropped
    once its update is done, before the next graph is built.  The first
    call in a process tells glibc's malloc to keep freed memory
    (`_keep_freed_heap`).

    Raises OptimizationError with the step index if the loss goes NaN
    before the last update; a NaN after it, or after an early end, is
    never scored.  A floating-point overflow or invalid operation while
    scoring, differentiating or updating raises it too, at any step.
    """
    _keep_freed_heap()
    params = [p for grp in groups for p in grp.params]
    m = [np.zeros_like(p.value) for p in params]
    v = [np.zeros_like(p.value) for p in params]
    b1, b2 = BETAS

    result = OptimResult()
    best_values = [p.value.copy() for p in params]
    try:
        with np.errstate(over="raise", invalid="raise"):  # a diverging step says so
            for step in range(steps + 1):  # the last evaluation scores the last update's point
                loss = loss_fn()
                if not isinstance(loss, ad.Var):
                    raise OptimizationError("loss function must return a Var")
                if loss.value.size != 1:
                    raise OptimizationError(f"loss must be scalar, got shape {loss.value.shape}")
                lval = float(loss.value)
                if math.isnan(lval):
                    if step == steps:
                        break
                    raise OptimizationError(f"NaN loss at step {step}")
                result.losses.append(lval)
                if lval < result.best_loss:
                    result.best_loss = lval
                    result.best_step = step
                    best_values = [p.value.copy() for p in params]
                if step == steps or lval == 0.0 or patience is not None and step - result.best_step >= patience:
                    break

                ad.backward(loss)
                t = step + 1
                bias1 = 1.0 - b1**t
                bias2 = 1.0 - b2**t
                k = 0
                for grp in groups:
                    lr = cosine_lr(grp.lr, step, steps)
                    for p in grp.params:
                        g = p.grad if p.grad is not None else np.zeros_like(p.value)
                        g = np.asarray(g, dtype=np.float64)
                        m[k] = b1 * m[k] + (1.0 - b1) * g
                        v[k] = b2 * v[k] + (1.0 - b2) * g * g
                        p.value = p.value - lr * (m[k] / bias1) / (np.sqrt(v[k] / bias2) + EPS)
                        if grp.bounds is not None:
                            p.value = np.asarray(np.clip(p.value, *grp.bounds), dtype=np.float64)
                        p.clear_grad()
                        k += 1
                del loss  # frees the step's graph before loss_fn() builds the next
    except FloatingPointError as err:
        raise OptimizationError(f"floating-point {err} at step {step}") from err

    for p, best in zip(params, best_values):
        p.value = best
    return result
