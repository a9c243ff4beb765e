"""Optimizer, train-step, bootstrap-stage, and checkpoint-selection contracts."""

import dataclasses
import os

import numpy as np
import pytest

from bgrto import config, models, optim, rng, schedules
from bgrto.autodiff import NamedParams
from bgrto.checkpoint import load_checkpoint, params_digest, save_checkpoint, split_params
from bgrto.env import EnvConfig, generate_scene, scripted_demonstration, standard_grammar
from bgrto.models import PolicyConfig, ToolConfig
from bgrto.objectives import Scoring
from bgrto.optim import adamw_init, adamw_step, clip_global_norm, global_norm
from bgrto.rollout import build_replay_buffer, rollout_streams, sample_group
from bgrto.schedules import (
    CheckpointRecord,
    PrerequisiteError,
    ScheduleUsageError,
    run_bto_stage,
    select_best_checkpoint,
    train_step_grto,
)

CFG = EnvConfig(width=8, height=8, colors=2, min_objects=1, max_objects=2,
                min_side=3, max_side=4, small_area_threshold=12)
GRAMMAR = standard_grammar(CFG)
TINY = {
    "env": {"width": 8, "height": 8, "colors": 2, "min_objects": 1, "max_objects": 2,
            "min_side": 3, "max_side": 4, "small_area_threshold": 12},
    "policy": {"hidden": 8},
    "tool": {"hidden": 5, "embed_dim": 3},
    "train": {"scenes_per_epoch": 3, "epochs": 2, "group_size": 4},
    "bto": {"buffer_scenes": 4, "epochs": 2},
    "pretrain": {"scenes": 8, "epochs": 2},
    "warmup": {"demos": 16, "epochs": 2},
    "validation": {"scenes": 4},
}


# ---------------------------------------------------------------------------
# optimizer
# ---------------------------------------------------------------------------


def test_adamw_zero_gradient_is_noop():
    params = NamedParams({"w": np.array([1.0, -2.0])})
    state = adamw_init(params)
    zeros = NamedParams({"w": np.zeros(2)})
    new, _state = adamw_step(params, zeros, state, lr=0.1)
    assert new == params


def test_adamw_first_step_closed_form():
    # with m_hat = g and v_hat = g^2: delta = -lr * g / (|g| + eps)
    params = NamedParams({"w": np.array([0.0, 0.0, 0.0])})
    g = np.array([0.5, -2.0, 1e-12])
    state = adamw_init(params)
    new, _ = adamw_step(params, NamedParams({"w": g}), state, lr=0.01)
    expected = -0.01 * g / (np.abs(g) + 1e-8)
    assert np.allclose(new["w"], expected, atol=1e-15)


def test_adamw_deterministic():
    gen = rng.stream(0, "adam")
    params = NamedParams({"w": gen.normal(size=4)})
    g = NamedParams({"w": gen.normal(size=4)})
    a1, s1 = adamw_step(params, g, adamw_init(params), 0.05)
    a2, s2 = adamw_step(params, g, adamw_init(params), 0.05)
    assert a1 == a2 and s1.m == s2.m and s1.v == s2.v


def test_adamw_rejects_nonfinite():
    params = NamedParams({"bad": np.ones(2)})
    g = NamedParams({"bad": np.array([1.0, np.nan])})
    with pytest.raises(optim.GradientError, match="bad"):
        adamw_step(params, g, adamw_init(params), 0.1)


def test_clip_below_threshold_unchanged():
    grads = NamedParams({"a": np.array([0.3, 0.4])})  # norm 0.5
    clipped = clip_global_norm(grads, 1.0)
    assert clipped == grads


def test_clip_scales_to_max_norm():
    grads = NamedParams({"a": np.array([1.2, 1.6])})  # norm 2.0
    clipped = clip_global_norm(grads, 1.0)
    assert np.allclose(clipped["a"], np.array([0.6, 0.8]))
    assert global_norm(clipped) == pytest.approx(1.0, abs=1e-12)


def test_clip_preserves_direction():
    gen = rng.stream(1, "clip")
    grads = NamedParams({"a": gen.normal(size=6) * 3, "b": gen.normal(size=(2, 2)) * 3})
    clipped = clip_global_norm(grads, 0.5)
    flat = np.concatenate([arr.reshape(-1) for _, arr in grads.items()])
    flat_c = np.concatenate([arr.reshape(-1) for _, arr in clipped.items()])
    cos = flat @ flat_c / (np.linalg.norm(flat) * np.linalg.norm(flat_c))
    assert cos == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# train steps
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def tiny():
    rc = config.from_dict(TINY)
    policy = models.policy_init(3, CFG, GRAMMAR, PolicyConfig(hidden=8))
    tool = models.tool_init(4, CFG, ToolConfig(hidden=5, embed_dim=3))
    scene = generate_scene(11, "target", CFG)
    return rc, policy, tool, scene


def test_grpo_step_leaves_tool_untouched(tiny):
    rc, policy, tool, scene = tiny
    snapshot = tool.copy()
    group = sample_group(policy, policy, tool, scene, 4, rollout_streams(0, 0, 4),
                         GRAMMAR, Scoring())
    new_policy, new_tool, _opt, opt_tool, stats = train_step_grto(
        [(scene, group)], policy, tool, adamw_init(policy), None, rc.train, GRAMMAR, lr_tool=1e-3
    )
    assert tool == snapshot
    assert new_tool is tool
    assert opt_tool is None
    assert stats.grad_norm_tool == 0.0
    assert new_policy != policy or stats.grad_norm_policy == 0.0


def test_grpo_step_raises_positive_rollout_logprob(tiny):
    rc, policy, tool, scene = tiny
    group = sample_group(policy, policy, tool, scene, 4, rollout_streams(1, 0, 4),
                         GRAMMAR, Scoring())
    # inject a synthetic reward pattern: rollout 0 is the only winner
    from bgrto.objectives import RewardBreakdown, compute_advantages

    for i, roll in enumerate(group.rollouts):
        total = 1.0 if i == 0 else 0.0
        roll.reward = RewardBreakdown(r_iou=total, r_format=1.0 if total else 0.0, total=total)
    group.advantages = compute_advantages([r.reward.total for r in group.rollouts])
    target_tokens = group.rollouts[0].tokens
    before = models.policy_logprobs(policy, scene, target_tokens, GRAMMAR).sum()
    new_policy, _tool, _opt, _opt_tool, _stats = train_step_grto(
        [(scene, group)], policy, tool, adamw_init(policy), None, rc.train, GRAMMAR, lr_tool=1e-3
    )
    after = models.policy_logprobs(new_policy, scene, target_tokens, GRAMMAR).sum()
    assert after > before


def test_grpo_step_asserts_on_policy(tiny):
    rc, policy, tool, scene = tiny
    group = sample_group(policy, policy, tool, scene, 4, rollout_streams(2, 0, 4),
                         GRAMMAR, Scoring())
    group.rollouts[0].lp_old = group.rollouts[0].lp_old - 0.5  # fake off-policy data
    with pytest.raises(RuntimeError, match="single-step"):
        train_step_grto([(scene, group)], policy, tool, adamw_init(policy), None, rc.train,
                        GRAMMAR, lr_tool=1e-3)


def test_grto_step_updates_both_and_separates(tiny):
    rc, policy, tool, scene = tiny
    tc = dataclasses.replace(rc.train, debug_checks=True)
    group = sample_group(policy, policy, tool, scene, 4, rollout_streams(3, 0, 4),
                         GRAMMAR, Scoring())
    if not any(r.valid for r in group.rollouts):
        pytest.skip("all-invalid sample; covered elsewhere")
    new_policy, new_tool, _o1, _o2, stats = train_step_grto(
        [(scene, group)], policy, tool, adamw_init(policy), adamw_init(tool), tc, GRAMMAR,
        lr_tool=1e-3,
    )
    assert new_tool != tool
    assert stats.grad_norm_tool > 0.0


def test_grto_step_tool_descends_seg_loss(tiny):
    from bgrto import objectives as obj
    from bgrto.autodiff import GradientTape

    rc, policy, tool, scene = tiny
    group = sample_group(policy, policy, tool, scene, 4, rollout_streams(4, 0, 4),
                         GRAMMAR, Scoring())
    valid = [r for r in group.rollouts if r.valid]
    if not valid:
        pytest.skip("all-invalid sample")

    def mean_valid_loss(tool_params):
        tape = GradientTape()
        losses = []
        for roll in valid:
            logits = models.tool_forward_nodes(tape, tool_params, scene, roll.prompt)
            losses.append(obj.seg_loss_nodes(logits, scene.official_gt).item())
        return float(np.mean(losses))

    before = mean_valid_loss(tool)
    _p, new_tool, _o1, _o2, _s = train_step_grto(
        [(scene, group)], policy, tool, adamw_init(policy), adamw_init(tool), rc.train, GRAMMAR,
        lr_tool=1e-3,
    )
    assert mean_valid_loss(new_tool) < before


def test_grto_all_invalid_group_zero_tool_gradient(tiny):
    from tests.test_rollout import all_invalid_policy  # reuse the crafted policy

    rc, _policy, tool, scene = tiny
    bad_policy = all_invalid_policy()
    group = sample_group(bad_policy, bad_policy, tool, scene, 4, rollout_streams(5, 0, 4),
                         GRAMMAR, Scoring())
    assert not any(r.valid for r in group.rollouts)
    _p, new_tool, _o1, _o2, stats = train_step_grto(
        [(scene, group)], bad_policy, tool, adamw_init(bad_policy), adamw_init(tool), rc.train,
        GRAMMAR, lr_tool=1e-3,
    )
    assert stats.grad_norm_tool == 0.0
    assert new_tool == tool


# ---------------------------------------------------------------------------
# bootstrap stage
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def bto_setup():
    rc = config.from_dict(TINY)
    policy = models.policy_init(3, CFG, GRAMMAR, PolicyConfig(hidden=8))
    tool = models.tool_init(4, CFG, ToolConfig(hidden=5, embed_dim=3))
    seeds = [rng.derive_seed(0, "buffer-scene", i) for i in range(4)]
    buffer = build_replay_buffer(policy, seeds, "target", 4, 0, CFG, GRAMMAR,
                                 policy_ckpt_id=params_digest(policy))
    val_scenes = [generate_scene(rng.derive_seed(0, "val-scene", i), "target", CFG)
                  for i in range(4)]
    return rc, policy, tool, buffer, val_scenes


def test_bto_zero_epochs_identity(bto_setup):
    rc, policy, tool, buffer, val_scenes = bto_setup
    rc0 = dataclasses.replace(rc, bto=dataclasses.replace(rc.bto, epochs=0))
    stage = run_bto_stage(buffer, tool, policy, rc0, val_scenes)
    assert stage.tool == tool
    assert len(stage.records) == 1


def test_bto_selection_never_worse_than_start(bto_setup):
    rc, policy, tool, buffer, val_scenes = bto_setup
    stage = run_bto_stage(buffer, tool, policy, rc, val_scenes)
    assert select_best_checkpoint(stage.records).metric >= stage.records[0].metric


def test_bto_frozen_rewards_variant_runs(bto_setup):
    rc, policy, tool, buffer, val_scenes = bto_setup
    rc_frozen = dataclasses.replace(rc, bto=dataclasses.replace(rc.bto, frozen_rewards=True))
    stage = run_bto_stage(buffer, tool, policy, rc_frozen, val_scenes)
    assert len(stage.records) == rc.bto.epochs + 1


def test_bto_rejects_hash_mismatch(bto_setup):
    rc, policy, tool, buffer, val_scenes = bto_setup
    other = dataclasses.replace(buffer, env_hash="deadbeef")
    with pytest.raises(RuntimeError, match="hash mismatch"):
        run_bto_stage(other, tool, policy, rc, val_scenes)


# ---------------------------------------------------------------------------
# checkpoint selection
# ---------------------------------------------------------------------------


def rec(epoch, metric):
    return CheckpointRecord(epoch=epoch, metric=metric)


def test_select_best_maximum():
    assert select_best_checkpoint([rec(0, 0.3), rec(1, 0.5), rec(2, 0.4)]).epoch == 1


def test_select_best_tie_earliest():
    assert select_best_checkpoint([rec(0, 0.5), rec(1, 0.5)]).epoch == 0


def test_select_best_single():
    assert select_best_checkpoint([rec(4, 0.1)]).epoch == 4


def test_select_best_empty_rejected():
    with pytest.raises(ScheduleUsageError):
        select_best_checkpoint([])


# ---------------------------------------------------------------------------
# full runs on tiny configs
# ---------------------------------------------------------------------------


def _stage_workdir(tmp_path, rc):
    workdir = str(tmp_path)
    scenes = [generate_scene(rng.derive_seed(rc.seed, "pretrain-scene", i), "source", rc.env)
              for i in range(rc.pretrain.scenes)]
    tool = models.tool_init(rc.seed, rc.env, rc.tool)
    tool = models.pretrain_tool(tool, scenes, rc.pretrain.epochs, rc.pretrain.lr)
    save_checkpoint(os.path.join(workdir, "tool0.ckpt"),
                    {"compat_hash": config.compat_hash(rc), "kind": "tool"}, tool)
    grammar = standard_grammar(rc.env)
    demos = []
    for i in range(rc.warmup.demos):
        scene = generate_scene(rng.derive_seed(rc.seed, "demo-scene", i), rc.domain, rc.env)
        tokens = scripted_demonstration(scene, rc.warmup.noise,
                                        rng.stream(rc.seed, "demo-noise", i), grammar)
        demos.append((scene, tokens))
    policy = models.policy_init(rc.seed, rc.env, grammar, rc.policy)
    result = models.warmup_policy(policy, demos, rc.warmup.epochs, rc.warmup.lr, grammar,
                                  validity_gen=rng.stream(rc.seed, "warmup-validity"),
                                  validity_samples=40, validity_floor=0.0)
    save_checkpoint(os.path.join(workdir, "policy0.ckpt"),
                    {"compat_hash": config.compat_hash(rc), "kind": "policy"}, result.params)
    seeds = [rng.derive_seed(rc.seed, "buffer-scene", i) for i in range(rc.bto.buffer_scenes)]
    build_replay_buffer(result.params, seeds, rc.domain, rc.buffer_group_size, rc.seed, rc.env,
                        grammar, policy_ckpt_id=params_digest(result.params),
                        path=os.path.join(workdir, "buffer.jsonl"))
    return workdir


@pytest.fixture(scope="module")
def tiny_workdir(tmp_path_factory):
    rc = config.from_dict(TINY)
    return _stage_workdir(tmp_path_factory.mktemp("runs"), rc)


def run_tiny_mode(workdir, mode, **extra):
    data = dict(TINY)
    data["train"] = dict(TINY["train"], mode=mode, **extra)
    rc = config.from_dict(data)
    return schedules.run_mode(rc, workdir), rc


def test_run_mode_requires_prerequisites(tmp_path):
    rc = config.from_dict(dict(TINY))
    with pytest.raises(PrerequisiteError, match="warmup-policy"):
        schedules.run_mode(rc, str(tmp_path))


def test_run_mode_b_grto_requires_buffer(tiny_workdir, tmp_path):
    # copy only the model checkpoints, not the buffer
    import shutil

    for name in ("policy0.ckpt", "tool0.ckpt"):
        shutil.copyfile(os.path.join(tiny_workdir, name), os.path.join(tmp_path, name))
    data = dict(TINY)
    data["train"] = dict(TINY["train"], mode="b_grto")
    rc = config.from_dict(data)
    with pytest.raises(PrerequisiteError, match="build-buffer"):
        schedules.run_mode(rc, str(tmp_path))


def test_grpo_run_keeps_tool_bitwise(tiny_workdir):
    result, rc = run_tiny_mode(tiny_workdir, "grpo")
    tool0 = split_params(load_checkpoint(os.path.join(tiny_workdir, "tool0.ckpt")).params, "tool/")
    selected = load_checkpoint(result.selected_path)
    assert split_params(selected.params, "tool/") == tool0
    assert os.path.exists(result.metrics_path)
    assert len(result.records) == rc.train.epochs + 1


def test_b_grpo_tool_matches_bootstrap(tiny_workdir):
    result, rc = run_tiny_mode(tiny_workdir, "b_grpo")
    assert result.bto_records is not None
    epoch0 = split_params(
        load_checkpoint(os.path.join(result.mode_dir, "epoch000.ckpt")).params, "tool/"
    )
    last = split_params(
        load_checkpoint(os.path.join(result.mode_dir, f"epoch{rc.train.epochs:03d}.ckpt")).params,
        "tool/",
    )
    assert last == epoch0  # frozen at the bootstrapped tool through the whole phase


def test_metrics_row_count_contract(tiny_workdir):
    result, rc = run_tiny_mode(tiny_workdir, "grpo")
    with open(result.metrics_path, encoding="utf-8") as fh:
        lines = [line for line in fh.read().split("\n") if line]
    steps = rc.train.epochs * (rc.train.scenes_per_epoch // rc.train.groups_per_step)
    assert len(lines) == steps + 1  # header plus one row per optimizer step


def test_bto_rows_time_each_step(tiny_workdir):
    import csv

    data = dict(TINY, train=dict(TINY["train"], mode="b_grto"),
                metrics={"deterministic_timing": False})
    result = schedules.run_mode(config.from_dict(data), tiny_workdir)
    with open(result.metrics_path, encoding="utf-8") as fh:
        walls = [float(row["wall_ms"]) for row in csv.DictReader(fh) if row["mode"] == "bto"]
    assert walls and all(wall > 0.0 for wall in walls)
    # per-step times, not time since the stage began, fit inside the stage
    assert sum(walls) <= result.bto_wall_ms


def test_groups_per_step_accumulation(tiny_workdir):
    result, rc = run_tiny_mode(tiny_workdir, "grpo", groups_per_step=3)
    with open(result.metrics_path, encoding="utf-8") as fh:
        lines = [line for line in fh.read().split("\n") if line]
    assert len(lines) == rc.train.epochs + 1  # 3 scenes per epoch, one accumulated step each


def test_reverse_seq_policy_matches_grpo(tiny_workdir):
    grpo_result, _ = run_tiny_mode(tiny_workdir, "grpo")
    rev_result, _ = run_tiny_mode(tiny_workdir, "reverse_seq")
    grpo_policy = split_params(load_checkpoint(grpo_result.selected_path).params, "policy/")
    rev_policy = split_params(load_checkpoint(rev_result.selected_path).params, "policy/")
    assert grpo_policy == rev_policy
    assert rev_result.tool_records is not None


def test_grto_no_filter_runs(tiny_workdir):
    result, _rc = run_tiny_mode(tiny_workdir, "grto_no_filter")
    assert os.path.exists(result.selected_path)


def test_run_is_deterministic(tiny_workdir):
    a, _ = run_tiny_mode(tiny_workdir, "grto")
    with open(a.metrics_path, "rb") as fh:
        first = fh.read()
    b, _ = run_tiny_mode(tiny_workdir, "grto")
    with open(b.metrics_path, "rb") as fh:
        second = fh.read()
    assert first == second
