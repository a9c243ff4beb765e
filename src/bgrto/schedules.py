"""Training schedules: GRPO, GRTO, the bootstrap stage, and the ablation modes.

One train step, `train_step_grto`, serves every policy-driven mode.  GRPO is
that step with the tool frozen (`opt_tool=None`): it records no tool term and
leaves the tool bit-identical.  Every schedule performs exactly one optimizer
step per sampled group (so the sampling policy and the updated policy coincide
at update time, and all token ratios equal one), validates once per epoch with
greedy decoding, and selects the checkpoint with peak validation metric (ties
resolve to the earliest epoch) through `select_best_checkpoint`.  Policy and
tool own separate optimizer states, learning rates, and global-norm clipping.
Each stage times its own optimizer steps for the metrics CSV.
"""

from __future__ import annotations

import os
import shutil
import time
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from . import metrics as metricsmod
from . import models, objectives, rng
from .autodiff import GradientTape, NamedParams
from .checkpoint import (
    load_checkpoint,
    merge_params,
    save_checkpoint,
    split_params,
)
from .config import BOOTSTRAPPED_MODES, RunConfig, compat_hash
from .env import env_config_hash, generate_scene, grammar_for, parse_action_tokens
from .metrics import EvalReport, MetricsWriter, StepStats
from .optim import OptimizerState, adamw_init
from .rollout import Group, ReplayBuffer, load_buffer, sample_group

RATIO_TOLERANCE = 1e-12


class PrerequisiteError(RuntimeError):
    """A required artifact is missing; the message names the producing command."""


class ScheduleUsageError(ValueError):
    pass


@dataclass(frozen=True)
class CheckpointRecord:
    epoch: int
    metric: float
    path: str | None = None
    report: EvalReport | None = None


def select_best_checkpoint(records: list[CheckpointRecord]) -> CheckpointRecord:
    """Maximum validation metric; ties go to the earliest epoch."""
    if not records:
        raise ScheduleUsageError("select_best_checkpoint requires at least one record")
    best = records[0]
    for record in records[1:]:
        if record.metric > best.metric:
            best = record
    return best


def _now_ms() -> float:
    return time.monotonic() * 1000.0


def _assert_on_policy(lp_cur_nodes, group: Group) -> None:
    worst = 0.0
    for nodes, roll in zip(lp_cur_nodes, group.rollouts):
        for node, old in zip(nodes, roll.lp_old):
            worst = max(worst, abs(float(np.exp(node.item() - old)) - 1.0))
    if worst > RATIO_TOLERANCE:
        raise RuntimeError(
            f"single-step regime violated: token ratio deviates from 1 by {worst:.3e}"
        )


def _policy_objective(tape, policy, scene, group: Group, tc, grammar):
    lp_cur = [
        models.policy_logprob_nodes(tape, policy, scene, r.tokens, grammar) for r in group.rollouts
    ]
    _assert_on_policy(lp_cur, group)
    objective = objectives.grpo_objective_nodes(
        lp_cur,
        [r.lp_old for r in group.rollouts],
        [r.lp_ref for r in group.rollouts],
        group.advantages.advantages,
        tc.beta_kl,
        tc.eps_clip,
        grammar.l_max,
    )
    kl_value = float(
        np.mean(
            [
                objectives.kl_estimate([n.item() for n in nodes], r.lp_ref, grammar.l_max)
                for nodes, r in zip(lp_cur, group.rollouts)
            ]
        )
    )
    return lp_cur, objective, kl_value


def _group_seg_losses(tape, tool, scene, group: Group):
    return objectives.prompt_seg_losses(
        tape, tool, scene, [r.prompt for r in group.rollouts], scene.official_gt
    )


def train_step_grto(
    batch: list[tuple[object, Group]],
    policy: NamedParams,
    tool: NamedParams,
    opt_policy: OptimizerState,
    opt_tool: OptimizerState | None,
    tc,
    grammar,
    lr_tool: float,
) -> tuple[NamedParams, NamedParams, OptimizerState, OptimizerState | None, StepStats]:
    """Simultaneous policy and tool updates from one sampled batch.

    The policy sees the clipped surrogate (rewards were computed under the
    pre-step tool); the tool sees the detached-ratio weighted segmentation
    loss.  Gradients cannot cross the stop_gradient boundary.  With
    `opt_tool=None` the tool is frozen: the step records no tool leaves, seg
    losses or tool term, which is plain GRPO, and returns `tool` unchanged.
    """
    train_tool = opt_tool is not None
    tape = GradientTape()
    if train_tool:
        tape.leaves(tool)  # all-invalid batches still need zero tool gradients
    total = None
    kl_values = []
    tool_loss_values = []
    for scene, group in batch:
        lp_cur, joint, kl_value = _policy_objective(tape, policy, scene, group, tc, grammar)
        kl_values.append(kl_value)
        if train_tool:
            seg_losses, _ = _group_seg_losses(tape, tool, scene, group)
            tool_term = objectives.grto_tool_term_nodes(
                tape, lp_cur, [r.lp_old for r in group.rollouts], seg_losses
            )
            tool_loss_values.append(tool_term.item())
            joint = ad.sub(joint, tool_term)
        total = joint if total is None else ad.add(total, joint)
    total = ad.mul(total, 1.0 / len(batch))
    stats = StepStats(
        policy_obj=total.item(),
        tool_loss=float(np.mean(tool_loss_values)) if train_tool else 0.0,
        kl=float(np.mean(kl_values)),
    )
    ad.neg(total)  # the tape's result: backward then yields descent gradients
    grads = ad.backward(tape)
    if train_tool and tc.debug_checks:
        _debug_separation_checks(batch, policy, tool, tc, grammar)
    policy, opt_policy, stats.grad_norm_policy = models.descent_step(
        policy, grads, opt_policy, tc.lr_policy, tc.grad_clip_norm
    )
    if train_tool:
        tool, opt_tool, stats.grad_norm_tool = models.descent_step(
            tool, grads, opt_tool, lr_tool, tc.grad_clip_norm
        )
    return policy, tool, opt_policy, opt_tool, stats


def _debug_separation_checks(batch, policy, tool, tc, grammar) -> None:
    """Verify the stop_gradient boundary: tool term moves no policy weight and
    the policy term moves no tool weight."""
    tool_tape = GradientTape()
    tool_tape.leaves(policy)
    for scene, group in batch:
        lp_cur = [
            models.policy_logprob_nodes(tool_tape, policy, scene, r.tokens, grammar)
            for r in group.rollouts
        ]
        seg_losses, _ = _group_seg_losses(tool_tape, tool, scene, group)
        objectives.grto_tool_term_nodes(
            tool_tape, lp_cur, [r.lp_old for r in group.rollouts], seg_losses
        )
    grads = ad.backward(tool_tape)
    for name, arr in grads.items():
        if name.startswith("policy/") and np.any(arr != 0.0):
            raise RuntimeError(f"gradient leak: tool term reached policy leaf {name}")
    policy_tape = GradientTape()
    policy_tape.leaves(tool)
    for scene, group in batch:
        _policy_objective(policy_tape, policy, scene, group, tc, grammar)
    grads = ad.backward(policy_tape)
    for name, arr in grads.items():
        if name.startswith("tool/") and np.any(arr != 0.0):
            raise RuntimeError(f"gradient leak: policy objective reached tool leaf {name}")


# ---------------------------------------------------------------------------
# bootstrap (BTO) stage
# ---------------------------------------------------------------------------


@dataclass
class BtoStageResult:
    tool: NamedParams
    records: list[CheckpointRecord]
    wall_ms: float
    steps: int = 0


def _materialize_buffer(buffer: ReplayBuffer, env_cfg, grammar):
    """Regenerate scenes and reparse prompts for every stored group."""
    out = []
    for group in buffer.groups:
        scene = generate_scene(group.scene_seed, group.domain, env_cfg)
        for roll in group.rollouts:
            prompt = parse_action_tokens(roll.tokens, grammar)
            if (prompt is not None) != roll.valid:
                raise RuntimeError(
                    f"buffer validity flag disagrees with reparse for scene {group.scene_seed}"
                )
            roll.prompt = prompt
        out.append((scene, group))
    return out


def run_bto_stage(
    buffer: ReplayBuffer,
    tool0: NamedParams,
    policy_ref: NamedParams,
    rc: RunConfig,
    val_scenes: list,
    writer: MetricsWriter | None = None,
    step_offset: int = 0,
) -> BtoStageResult:
    """Fine-tune the tool on the static buffer under softmax-tilted weights.

    Validation (per epoch) is the mean reward of greedy reference-policy
    decoding under the current tool; the best-validation tool is returned,
    with the untrained epoch-0 candidate included.
    """
    grammar = grammar_for(rc.env)
    expected_hash = env_config_hash(rc.env)
    if buffer.env_hash != expected_hash:
        raise RuntimeError(
            f"buffer/config hash mismatch: buffer {buffer.env_hash} vs config {expected_hash}"
        )
    t0 = _now_ms()
    tc = rc.train
    scoring = objectives.scoring_for(tc, tc.mode)
    materialized = _materialize_buffer(buffer, rc.env, grammar)
    val_prompts = list(models.greedy_prompts(policy_ref, val_scenes, grammar))
    frozen_rewards = None
    if rc.bto.frozen_rewards:
        frozen_rewards = [
            objectives.compute_reward(tool0, scene, [r.prompt for r in group.rollouts], scoring)[1]
            for scene, group in materialized
        ]
    tool = tool0
    report = metricsmod.evaluate(tool, val_scenes, val_prompts, scoring)
    records = [CheckpointRecord(epoch=0, metric=report.mean_reward, report=report)]
    tools = [tool]
    opt_tool = adamw_init(tool)
    step = step_offset
    for epoch in range(1, rc.bto.epochs + 1):
        for g_idx, (scene, group) in enumerate(materialized):
            step_t0 = _now_ms()
            tape = GradientTape()
            tape.leaves(tool)  # all-invalid groups still need zero tool gradients
            seg_losses, logits = _group_seg_losses(tape, tool, scene, group)
            if frozen_rewards is not None:
                rewards = frozen_rewards[g_idx]
            else:
                # the loss tape's forwards also score the rollouts under this tool
                prompts = [r.prompt for r in group.rollouts]
                _, rewards = objectives.compute_reward(tool, scene, prompts, scoring, logits)
            weights = objectives.bto_weights([r.total for r in rewards], rc.bto.beta)
            loss = ad.neg(objectives.bto_objective_nodes(tape, weights, seg_losses))
            tool, opt_tool, norm = models.descent_step(
                tool, ad.backward(tape), opt_tool, tc.lr_tool, tc.grad_clip_norm
            )
            if writer is not None:
                stats = StepStats(tool_loss=loss.item(), grad_norm_tool=norm)
                writer.emit_row(step, epoch, "bto", report, stats, _now_ms() - step_t0)
            step += 1
        report = metricsmod.evaluate(tool, val_scenes, val_prompts, scoring)
        records.append(CheckpointRecord(epoch=epoch, metric=report.mean_reward, report=report))
        tools.append(tool)
        if writer is not None:
            writer.flush()
    best = select_best_checkpoint(records)
    return BtoStageResult(
        tool=tools[best.epoch], records=records, wall_ms=_now_ms() - t0, steps=step - step_offset
    )


# ---------------------------------------------------------------------------
# full runs
# ---------------------------------------------------------------------------


@dataclass
class RunResult:
    mode: str
    seed: int
    mode_dir: str
    metrics_path: str
    selected_path: str
    selected: CheckpointRecord
    records: list[CheckpointRecord]
    bto_records: list[CheckpointRecord] | None = None
    tool_records: list[CheckpointRecord] | None = None
    epoch_wall_ms: list[float] = field(default_factory=list)
    bto_wall_ms: float | None = None


def _val_scenes(rc: RunConfig):
    return [
        generate_scene(rng.derive_seed(rc.seed, "val-scene", i), rc.domain, rc.env)
        for i in range(rc.validation.scenes)
    ]


def _train_scene(rc: RunConfig, epoch: int, index: int, purpose: str = "train-scene"):
    return generate_scene(rng.derive_seed(rc.seed, purpose, epoch, index), rc.domain, rc.env)


def _validation_record(tool, val_scenes, prompts, scoring, epoch, path):
    report = metricsmod.evaluate(tool, val_scenes, prompts, scoring)
    metric = 0.5 * (report.giou + report.ciou)
    return CheckpointRecord(epoch=epoch, metric=metric, path=path, report=report), report


def _save_epoch(mode_dir, stem, epoch, policy, tool, rc, mode):
    path = os.path.join(mode_dir, f"{stem}{epoch:03d}.ckpt")
    save_checkpoint(
        path,
        {
            "mode": mode,
            "epoch": epoch,
            "seed": rc.seed,
            "compat_hash": compat_hash(rc),
            "kind": "joint",
        },
        merge_params(policy, tool),
    )
    return path


def prerequisite_paths(rc: RunConfig, workdir: str) -> dict:
    buffer_path = rc.bto.buffer_path or os.path.join(workdir, "buffer.jsonl")
    return {
        "policy0": os.path.join(workdir, "policy0.ckpt"),
        "tool0": os.path.join(workdir, "tool0.ckpt"),
        "buffer": buffer_path,
    }


def _require(path: str, what: str, producing: str):
    if not os.path.exists(path):
        raise PrerequisiteError(
            f"{what} not found at {path}; produce it with `bgrto {producing}` first"
        )
    return path


def _main_loop(
    rc: RunConfig,
    mode: str,
    policy: NamedParams,
    policy_ref: NamedParams,
    tool: NamedParams,
    train_tool: bool,
    lr_tool: float,
    scoring: objectives.Scoring,
    grammar,
    val_scenes,
    writer: MetricsWriter,
    mode_dir: str,
    step_offset: int = 0,
):
    """Shared epoch loop for the policy-driven modes; returns records and params."""
    tc = rc.train
    opt_policy = adamw_init(policy)
    opt_tool = adamw_init(tool) if train_tool else None
    path0 = _save_epoch(mode_dir, "epoch", 0, policy, tool, rc, mode)
    record, report = _validation_record(
        tool, val_scenes, models.greedy_prompts(policy, val_scenes, grammar), scoring, 0, path0
    )
    records = [record]
    epoch_walls = []
    step = step_offset
    for epoch in range(1, tc.epochs + 1):
        epoch_t0 = _now_ms()
        batch: list[tuple[object, Group]] = []
        for index in range(tc.scenes_per_epoch):
            scene = _train_scene(rc, epoch, index)
            rngs = [
                rng.stream(rc.seed, "train-rollout", epoch, index, j) for j in range(tc.group_size)
            ]
            group = sample_group(
                policy,
                policy_ref,
                tool,
                scene,
                tc.group_size,
                rngs,
                grammar,
                scoring,
                tc.temperature,
            )
            batch.append((scene, group))
            if len(batch) < tc.groups_per_step and index + 1 < tc.scenes_per_epoch:
                continue
            step_t0 = _now_ms()
            policy, tool, opt_policy, opt_tool, stats = train_step_grto(
                batch, policy, tool, opt_policy, opt_tool, tc, grammar, lr_tool
            )
            writer.emit_row(step, epoch, mode, report, stats, _now_ms() - step_t0)
            step += 1
            batch = []
        path = _save_epoch(mode_dir, "epoch", epoch, policy, tool, rc, mode)
        val_prompts = models.greedy_prompts(policy, val_scenes, grammar)
        record, report = _validation_record(tool, val_scenes, val_prompts, scoring, epoch, path)
        records.append(record)
        writer.flush()
        epoch_walls.append(_now_ms() - epoch_t0)
    return records, epoch_walls, policy, tool, step


def run_mode(rc: RunConfig, workdir: str) -> RunResult:
    """Dispatch one full training run and select its peak checkpoint."""
    mode = rc.train.mode
    paths = prerequisite_paths(rc, workdir)
    policy0 = split_params(
        load_checkpoint(_require(paths["policy0"], "warmed-up policy", "warmup-policy"),
                        expected_compat_hash=compat_hash(rc)).params,
        "policy/",
    )
    tool0 = split_params(
        load_checkpoint(_require(paths["tool0"], "pretrained tool", "pretrain-tool"),
                        expected_compat_hash=compat_hash(rc)).params,
        "tool/",
    )
    grammar = grammar_for(rc.env)
    val_scenes = _val_scenes(rc)
    mode_dir = os.path.join(workdir, mode, str(rc.seed))
    os.makedirs(mode_dir, exist_ok=True)
    metrics_path = os.path.join(mode_dir, "metrics.csv")
    scoring = objectives.scoring_for(rc.train, mode)
    bto_records = None
    bto_wall = None
    tool_records = None
    with MetricsWriter(metrics_path, rc.seed, not rc.metrics.deterministic_timing) as writer:
        step_offset = 0
        tool_start = tool0
        lr_tool = rc.train.lr_tool
        train_tool = mode in ("grto", "grto_no_filter")
        if mode in BOOTSTRAPPED_MODES:
            buffer = load_buffer(
                _require(paths["buffer"], "replay buffer", "build-buffer"),
                expected_env_hash=env_config_hash(rc.env),
            )
            stage = run_bto_stage(buffer, tool0, policy0, rc, val_scenes, writer=writer)
            bto_records = stage.records
            bto_wall = stage.wall_ms
            tool_start = stage.tool
            step_offset = stage.steps
            if mode == "b_grto":
                train_tool = True
                lr_tool = rc.train.lr_tool_second_stage
        records, epoch_walls, policy, tool, next_step = _main_loop(
            rc,
            mode,
            policy0,
            policy0,
            tool_start,
            train_tool,
            lr_tool,
            scoring,
            grammar,
            val_scenes,
            writer,
            mode_dir,
            step_offset=step_offset,
        )
        if mode == "reverse_seq":
            # stage 2: fit the tool to the best policy's deterministic outputs
            best_policy_record = select_best_checkpoint(records)
            best_policy = split_params(load_checkpoint(best_policy_record.path).params, "policy/")
            tool_records, tool = _reverse_tool_stage(
                rc, best_policy, tool0, scoring, grammar, val_scenes, writer, mode_dir,
                step_offset=next_step,
            )
            selected = select_best_checkpoint(tool_records)
        else:
            selected = select_best_checkpoint(records)
    selected_path = os.path.join(mode_dir, "selected.ckpt")
    shutil.copyfile(selected.path, selected_path)
    return RunResult(
        mode=mode,
        seed=rc.seed,
        mode_dir=mode_dir,
        metrics_path=metrics_path,
        selected_path=selected_path,
        selected=selected,
        records=records,
        bto_records=bto_records,
        tool_records=tool_records,
        epoch_wall_ms=epoch_walls,
        bto_wall_ms=bto_wall,
    )


def _reverse_tool_stage(
    rc: RunConfig,
    policy_best: NamedParams,
    tool0: NamedParams,
    scoring: objectives.Scoring,
    grammar,
    val_scenes,
    writer: MetricsWriter,
    mode_dir: str,
    step_offset: int,
):
    """Unweighted tool fine-tuning on greedy prompts from the selected policy.

    This is deliberately not posterior-weighted: the stage probes what happens
    when the decoder is aligned with the policy's outputs but not with the
    joint objective.
    """
    tc = rc.train
    tool = tool0
    opt_tool = adamw_init(tool)
    val_prompts = list(models.greedy_prompts(policy_best, val_scenes, grammar))
    path0 = _save_epoch(mode_dir, "toolepoch", 0, policy_best, tool, rc, "reverse_seq")
    record, report = _validation_record(tool, val_scenes, val_prompts, scoring, 0, path0)
    records = [record]
    step = step_offset
    for epoch in range(1, rc.bto.epochs + 1):
        for index in range(tc.scenes_per_epoch):
            scene = _train_scene(rc, epoch, index, purpose="revseq-tool-scene")
            prompts = list(models.greedy_prompts(policy_best, [scene], grammar))
            if prompts[0] is None:
                continue
            step_t0 = _now_ms()
            tape = GradientTape()
            (loss,), _ = objectives.prompt_seg_losses(tape, tool, scene, prompts, scene.official_gt)
            tool, opt_tool, norm = models.descent_step(
                tool, ad.backward(tape), opt_tool, tc.lr_tool, tc.grad_clip_norm
            )
            stats = StepStats(tool_loss=loss.item(), grad_norm_tool=norm)
            writer.emit_row(step, epoch, "reverse_seq_tool", report, stats, _now_ms() - step_t0)
            step += 1
        path = _save_epoch(mode_dir, "toolepoch", epoch, policy_best, tool, rc, "reverse_seq")
        record, report = _validation_record(tool, val_scenes, val_prompts, scoring, epoch, path)
        records.append(record)
        writer.flush()
    return records, tool
