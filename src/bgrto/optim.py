"""AdamW with bias correction, plus global-norm gradient clipping.

Updates are functional: `adamw_step` returns fresh parameter and state objects
so earlier snapshots stay untouched (frozen-tool contracts compare them
bit-exactly).  Defaults follow the constant-rate, zero-weight-decay regime used
throughout the training schedules.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .autodiff import NamedParams


class GradientError(RuntimeError):
    """A non-finite gradient reached the optimizer."""


@dataclass
class OptimizerState:
    m: NamedParams
    v: NamedParams
    step: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    weight_decay: float = 0.0


def adamw_init(
    params: NamedParams,
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
    weight_decay: float = 0.0,
) -> OptimizerState:
    zeros = NamedParams((name, np.zeros_like(arr)) for name, arr in params.items())
    return OptimizerState(
        m=zeros, v=zeros.copy(), step=0, beta1=beta1, beta2=beta2, eps=eps, weight_decay=weight_decay
    )


def adamw_step(
    params: NamedParams, grads: NamedParams, state: OptimizerState, lr: float
) -> tuple[NamedParams, OptimizerState]:
    """One decoupled-weight-decay Adam update; returns (new params, new state)."""
    step = state.step + 1
    bc1 = 1.0 - state.beta1**step
    bc2 = 1.0 - state.beta2**step
    new_params = NamedParams()
    new_m = NamedParams()
    new_v = NamedParams()
    for name, p in params.items():
        g = grads[name]
        if not np.all(np.isfinite(g)):
            raise GradientError(f"non-finite gradient for parameter {name!r}")
        m = state.beta1 * state.m[name] + (1.0 - state.beta1) * g
        v = state.beta2 * state.v[name] + (1.0 - state.beta2) * (g * g)
        update = (m / bc1) / (np.sqrt(v / bc2) + state.eps)
        new = p - lr * update
        if state.weight_decay:
            new = new - lr * state.weight_decay * p
        new_params[name] = new
        new_m[name] = m
        new_v[name] = v
    new_state = OptimizerState(
        m=new_m,
        v=new_v,
        step=step,
        beta1=state.beta1,
        beta2=state.beta2,
        eps=state.eps,
        weight_decay=state.weight_decay,
    )
    return new_params, new_state


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
