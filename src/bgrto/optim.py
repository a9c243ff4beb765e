"""AdamW with bias correction, plus global-norm gradient clipping.

Updates are functional: `adamw_step` returns fresh parameter and state objects
so earlier snapshots stay untouched (frozen-tool contracts compare them
bit-exactly).  The moment decays and epsilon are the fixed constants below, and
there is no weight decay: every training schedule runs this one regime at a
constant learning rate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .autodiff import NamedParams


class GradientError(RuntimeError):
    """A non-finite gradient reached the optimizer."""


BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


@dataclass
class OptimizerState:
    m: NamedParams
    v: NamedParams
    step: int = 0


def adamw_init(params: NamedParams) -> OptimizerState:
    zeros = NamedParams((name, np.zeros_like(arr)) for name, arr in params.items())
    return OptimizerState(m=zeros, v=zeros.copy(), step=0)


def adamw_step(
    params: NamedParams, grads: NamedParams, state: OptimizerState, lr: float
) -> tuple[NamedParams, OptimizerState]:
    """One bias-corrected Adam update; returns (new params, new state)."""
    step = state.step + 1
    bc1 = 1.0 - BETA1**step
    bc2 = 1.0 - BETA2**step
    new_params = NamedParams()
    new_m = NamedParams()
    new_v = NamedParams()
    for name, p in params.items():
        g = grads[name]
        if not np.all(np.isfinite(g)):
            raise GradientError(f"non-finite gradient for parameter {name!r}")
        m = BETA1 * state.m[name] + (1.0 - BETA1) * g
        v = BETA2 * state.v[name] + (1.0 - BETA2) * (g * g)
        update = (m / bc1) / (np.sqrt(v / bc2) + EPS)
        new_params[name] = p - lr * update
        new_m[name] = m
        new_v[name] = v
    return new_params, OptimizerState(m=new_m, v=new_v, step=step)


def global_norm(grads: NamedParams) -> float:
    total = 0.0
    for _, g in grads.items():
        total += float(np.sum(g * g))
    return math.sqrt(total)


def clip_global_norm(
    grads: NamedParams, max_norm: float, norm: float | None = None
) -> NamedParams:
    """Scale all gradients down together when their global L2 norm exceeds max_norm.

    `norm` is `global_norm(grads)` when the caller has computed it already.
    """
    if not max_norm > 0.0:
        raise ValueError("max_norm must be positive")
    if norm is None:
        norm = global_norm(grads)
    if norm <= max_norm:
        return grads
    scale = max_norm / norm
    return NamedParams((name, g * scale) for name, g in grads.items())
