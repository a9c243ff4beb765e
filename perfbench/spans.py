"""Per-layer tracing of the bgrto pipeline, applied from outside the package.

`Tracer.install()` replaces each function named in TARGETS by a wrapper at
every place the function is bound: its own module and every bgrto module that
imported it with `from x import y`.  `uninstall()` puts the originals back.
A wrapped call records its duration; its self time is that duration minus the
time covered by wrapped calls made inside it.  Calls made inside an OPAQUE
function are not recorded apart: they are part of its self time.

A few hooks read counts at the same boundaries: tape sizes passed to
`backward`, bytes of written checkpoints and buffers, the distinct
(scene, concept) pairs scored per value-level tool forward, and the epoch
times in the result of `run_mode`.
"""

from __future__ import annotations

import functools
import importlib
import os
import statistics
import sys
import time

TARGETS = (
    ("env", "generate_scene"),
    ("models", "policy_logprob_nodes"),
    ("models", "policy_sample"),
    ("models", "greedy_decode"),
    ("models", "tool_forward_nodes"),
    ("models", "tool_logits"),
    ("objectives", "compute_reward"),
    ("objectives", "grpo_objective_nodes"),
    ("objectives", "kl_estimate"),
    ("objectives", "seg_loss_nodes"),
    ("rollout", "sample_group"),
    ("rollout", "build_replay_buffer"),
    ("rollout", "save_buffer"),
    ("rollout", "load_buffer"),
    ("autodiff", "backward"),
    ("optim", "adamw_step"),
    ("schedules", "train_step_grto"),
    ("schedules", "run_bto_stage"),
    ("schedules", "run_mode"),
    ("metrics", "evaluate"),
    ("checkpoint", "save_checkpoint"),
    ("checkpoint", "load_checkpoint"),
)

# `tool_logits` is the value-level tool forward; the tape-level forward it
# builds internally counts as part of it, so `tool_forward_nodes` counts only
# the forwards that training differentiates.
OPAQUE = frozenset({"models.tool_logits"})


class Span:
    __slots__ = ("calls", "total_s", "self_s")

    def __init__(self):
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0


class Tracer:
    def __init__(self):
        self.spans = {f"{mod}.{fn}": Span() for mod, fn in TARGETS}
        self.binding_sites: dict[str, list[str]] = {}
        self.tape_nodes: list[int] = []
        self.checkpoint_bytes = 0
        self.buffer_bytes = 0
        self.epoch_wall_ms: list[float] = []
        self.bto_wall_ms: list[float] = []
        self.scored = 0
        self.distinct_scored = 0
        self._scoring_tool = None
        self._scoring_seen: set = set()
        self._stack: list[float] = []
        self._opaque_depth = 0
        self._patches: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        for mod_name in ("cli",) + tuple(mod for mod, _ in TARGETS):
            importlib.import_module(f"bgrto.{mod_name}")
        modules = {
            name: mod for name, mod in sys.modules.items()
            if (name == "bgrto" or name.startswith("bgrto.")) and mod is not None
        }
        for mod_name, fn_name in TARGETS:
            original = getattr(modules[f"bgrto.{mod_name}"], fn_name)
            name = f"{mod_name}.{fn_name}"
            wrapper = self._wrap(name, original)
            sites = []
            for other_name, other in sorted(modules.items()):
                for attr, value in list(vars(other).items()):
                    if value is original:
                        setattr(other, attr, wrapper)
                        self._patches.append((other, attr, original))
                        sites.append(f"{other_name.removeprefix('bgrto.')}.{attr}")
            self.binding_sites[name] = sites

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches = []

    def _wrap(self, name: str, fn):
        span = self.spans[name]
        opaque = name in OPAQUE
        hook = getattr(self, "_after_" + name.replace(".", "_"), None)
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._opaque_depth:
                return fn(*args, **kwargs)
            stack.append(0.0)
            if opaque:
                self._opaque_depth += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - t0
                if opaque:
                    self._opaque_depth -= 1
                children = stack.pop()
                if stack:
                    stack[-1] += elapsed
                span.calls += 1
                span.total_s += elapsed
                span.self_s += elapsed - children
            if hook is not None:
                hook(args, kwargs, result)
            return result

        return wrapper

    # -- hooks: counts read at the wrapped boundaries ------------------------

    def _after_autodiff_backward(self, args, kwargs, result):
        self.tape_nodes.append(len(args[0]))

    def _after_checkpoint_save_checkpoint(self, args, kwargs, result):
        self.checkpoint_bytes += os.path.getsize(args[0])

    def _after_rollout_save_buffer(self, args, kwargs, result):
        self.buffer_bytes += os.path.getsize(args[1])

    def _after_schedules_run_mode(self, args, kwargs, result):
        self.epoch_wall_ms.extend(result.epoch_wall_ms)
        if result.bto_wall_ms is not None:
            self.bto_wall_ms.append(result.bto_wall_ms)

    def _after_models_tool_logits(self, args, kwargs, result):
        # A (scene, concept) pair scored twice under the same tool repeats a
        # forward whose result is already known.
        tool, scene, prompt = args[:3]
        if tool is not self._scoring_tool:
            self._scoring_tool = tool
            self._scoring_seen = set()
        key = (scene.seed, scene.domain, prompt.color, prompt.size)
        self.scored += 1
        if key not in self._scoring_seen:
            self._scoring_seen.add(key)
            self.distinct_scored += 1

    # -- report --------------------------------------------------------------

    def summary(self) -> dict:
        """Every recorded quantity, including spans of layers a workload skips."""
        out = {}
        for name, span in self.spans.items():
            out[f"{name}.calls"] = span.calls
            out[f"{name}.self_s"] = span.self_s
            out[f"{name}.total_s"] = span.total_s
        out["autodiff.tape_nodes.total"] = sum(self.tape_nodes)
        out["autodiff.tape_nodes.per_backward"] = (
            statistics.median(self.tape_nodes) if self.tape_nodes else 0
        )
        out["checkpoint.bytes_written"] = self.checkpoint_bytes
        out["rollout.buffer_bytes"] = self.buffer_bytes
        out["objectives.scoring.distinct_per_forward"] = (
            self.distinct_scored / self.scored if self.scored else 0.0
        )
        out["schedules.joint_epoch_s"] = (
            statistics.median(self.epoch_wall_ms) / 1000.0 if self.epoch_wall_ms else 0.0
        )
        joint = out["schedules.joint_epoch_s"]
        out["schedules.run_bto_stage.wall_s"] = sum(self.bto_wall_ms) / 1000.0
        out["schedules.bto_stage_per_joint_epoch"] = (
            out["schedules.run_bto_stage.wall_s"] / joint if joint and self.bto_wall_ms else 0.0
        )
        return out
