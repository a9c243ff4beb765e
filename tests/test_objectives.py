"""Reward, loss, advantage, and objective contracts with closed-form oracles."""

import math

import numpy as np
import pytest

from bgrto import autodiff as ad
from bgrto import env, models, objectives, rng
from bgrto.autodiff import GradientTape, NamedParams
from bgrto.env import EnvConfig, ToolPrompt, generate_scene, standard_grammar
from bgrto.models import PolicyConfig, ToolConfig
from bgrto.objectives import (
    ObjectiveUsageError,
    Scoring,
    bto_objective_nodes,
    bto_weights,
    compute_advantages,
    compute_reward,
    grpo_objective_nodes,
    grto_tool_term_nodes,
    kl_estimate,
    kl_estimate_nodes,
    mask_iou,
    seg_loss_nodes,
    spatial_filter,
)

CFG = EnvConfig()
GRAMMAR = standard_grammar(CFG)
SMALL_CFG = EnvConfig(width=8, height=8, colors=2, min_objects=1, max_objects=2,
                      min_side=3, max_side=4, small_area_threshold=12)
SMALL_GRAMMAR = standard_grammar(SMALL_CFG)


def constant_logit_tool(cfg, value=50.0):
    """Tool whose logits are the constant `value` everywhere (zero weights, bias set)."""
    params = models.tool_init(0, cfg, ToolConfig(hidden=4, embed_dim=2))
    zeroed = NamedParams((name, np.zeros_like(arr)) for name, arr in params.items())
    zeroed["tool/b3"] = np.array([value])
    return zeroed


def seg_loss(logits, gt):
    """The seg loss of fixed logits: `seg_loss_nodes` on a constant."""
    return seg_loss_nodes(GradientTape().constant(logits), gt).item()


# ---------------------------------------------------------------------------
# masks & rewards
# ---------------------------------------------------------------------------


def test_mask_iou_identical():
    mask = np.zeros((4, 4), dtype=bool)
    mask[1:3, 1:3] = True
    assert mask_iou(mask, mask.copy()) == 1.0


def test_mask_iou_disjoint():
    a = np.zeros((4, 4), dtype=bool)
    b = np.zeros((4, 4), dtype=bool)
    a[0, 0] = True
    b[3, 3] = True
    assert mask_iou(a, b) == 0.0


def test_mask_iou_counting():
    a = np.zeros((4, 4), dtype=bool)
    b = np.zeros((4, 4), dtype=bool)
    a[0, 0:4] = True  # 4 cells
    b[0, 2:4] = True
    b[1, 0:2] = True  # 4 cells, overlap 2
    assert mask_iou(a, b) == pytest.approx(2 / 6)


def test_mask_iou_empty_conventions():
    empty = np.zeros((3, 3), dtype=bool)
    full = np.ones((3, 3), dtype=bool)
    assert mask_iou(empty, empty.copy()) == 1.0
    assert mask_iou(empty, full) == 0.0


def test_mask_iou_dim_mismatch():
    with pytest.raises(ObjectiveUsageError):
        mask_iou(np.zeros((2, 2)), np.zeros((3, 3)))


def test_spatial_filter_whole_grid_identity():
    gen = rng.stream(0, "filter")
    mask = gen.random((6, 6)) > 0.5
    assert np.array_equal(spatial_filter(mask, [(0, 0, 5, 5)]), mask)


def test_spatial_filter_disjoint_clears():
    mask = np.zeros((6, 6), dtype=bool)
    mask[0, 0] = True
    assert spatial_filter(mask, [(3, 3, 5, 5)]).sum() == 0


def test_spatial_filter_idempotent():
    gen = rng.stream(1, "filter")
    mask = gen.random((6, 6)) > 0.3
    boxes = [(1, 1, 3, 4)]
    once = spatial_filter(mask, boxes)
    assert np.array_equal(spatial_filter(once, boxes), once)


def test_reward_perfect_mask():
    # constant +50 logits, box equal to the eroded target -> final mask == gt -> 1.0
    scene = generate_scene(3, "target", SMALL_CFG)
    tool = constant_logit_tool(SMALL_CFG)
    rect = scene.objects[scene.target_ids[0]].rect
    prompt = ToolPrompt(color=0, size=None, boxes=(env.eroded_rect(rect),))
    r = compute_reward(tool, scene, [prompt], Scoring())[1][0]
    assert r.r_iou == 1.0 and r.r_format == 1.0
    assert r.total == pytest.approx(1.0)


def test_reward_invalid_prompt_zero():
    scene = generate_scene(3, "target", SMALL_CFG)
    tool = constant_logit_tool(SMALL_CFG)
    r = compute_reward(tool, scene, [None], Scoring())[1][0]
    assert (r.r_iou, r.r_format, r.total) == (0.0, 0.0, 0.0)


def test_reward_full_rect_against_eroded_6x6():
    # 0.9 * 16/36 + 0.1 = 0.5 for a 6x6 object under the target convention
    cfg = EnvConfig(width=10, height=10, colors=2, min_objects=1, max_objects=1,
                    min_side=6, max_side=6, small_area_threshold=20)
    scene = generate_scene(12, "target", cfg)
    tool = constant_logit_tool(cfg)
    rect = scene.objects[scene.target_ids[0]].rect
    prompt = ToolPrompt(color=0, size=None, boxes=(rect,))
    r = compute_reward(tool, scene, [prompt], Scoring())[1][0]
    assert r.r_iou == pytest.approx(16 / 36)
    assert r.total == pytest.approx(0.9 * 16 / 36 + 0.1)


def test_reward_filter_disabled_keeps_everything():
    scene = generate_scene(3, "target", SMALL_CFG)
    tool = constant_logit_tool(SMALL_CFG)
    rect = scene.objects[scene.target_ids[0]].rect
    prompt = ToolPrompt(color=0, size=None, boxes=(env.eroded_rect(rect),))
    r = compute_reward(tool, scene, [prompt], Scoring(filter_enabled=False))[1][0]
    # the unfiltered constant mask covers the whole grid
    assert r.r_iou == pytest.approx(scene.gt_mask_target.sum() / (SMALL_CFG.width * SMALL_CFG.height))


def group_prompts(scene):
    """Two prompts per concept for two concepts, plus an invalid one."""
    rect = scene.objects[scene.target_ids[0]].rect
    return [
        ToolPrompt(color=0, size=None, boxes=(rect,)),
        None,
        ToolPrompt(color=1, size=env.SIZE_SMALL, boxes=((0, 0, 7, 7),)),
        ToolPrompt(color=0, size=None, boxes=((0, 0, 3, 3),)),
        ToolPrompt(color=1, size=env.SIZE_SMALL, boxes=(rect,)),
    ]


def test_compute_reward_group_equals_each_prompt_alone():
    scene = generate_scene(5, "target", SMALL_CFG)
    tool = models.tool_init(3, SMALL_CFG, ToolConfig(hidden=5, embed_dim=3))
    prompts = group_prompts(scene)
    for scoring in (Scoring(), Scoring(filter_enabled=False, threshold=0.3,
                                       iou_weight=0.5, format_weight=0.5)):
        masks, rewards = compute_reward(tool, scene, prompts, scoring)
        for prompt, mask, reward in zip(prompts, masks, rewards):
            (alone_mask,), (alone,) = compute_reward(tool, scene, [prompt], scoring)
            assert reward == alone
            if prompt is None:
                assert mask is None and alone_mask is None
            else:
                assert np.array_equal(mask, alone_mask)


def test_compute_reward_runs_the_tool_once_per_concept(monkeypatch):
    scene = generate_scene(5, "target", SMALL_CFG)
    tool = models.tool_init(3, SMALL_CFG, ToolConfig(hidden=5, embed_dim=3))
    prompts = group_prompts(scene)
    expected = compute_reward(tool, scene, prompts, Scoring())
    concepts = []
    real = models.tool_logits

    def counting(params, scene, prompt):
        concepts.append(models.concept_index(prompt.color, prompt.size))
        return real(params, scene, prompt)

    monkeypatch.setattr(models, "tool_logits", counting)
    masks, rewards = compute_reward(tool, scene, prompts, Scoring())
    assert sorted(concepts) == [models.concept_index(0, None),
                                models.concept_index(1, env.SIZE_SMALL)]
    assert rewards == expected[1]
    # logits from the loss tape's forwards stand in for the tool runs
    concepts.clear()
    _, logits = objectives.prompt_seg_losses(GradientTape(), tool, scene, prompts,
                                             scene.official_gt)
    reused_masks, reused = compute_reward(tool, scene, prompts, Scoring(), logits)
    assert concepts == []
    assert reused == rewards
    assert all(a is b is None or np.array_equal(a, b) for a, b in zip(reused_masks, masks))


def test_prompt_seg_losses_share_one_forward_per_concept():
    scene = generate_scene(5, "target", SMALL_CFG)
    tool = models.tool_init(3, SMALL_CFG, ToolConfig(hidden=5, embed_dim=3))
    prompts = group_prompts(scene)
    losses, logits = objectives.prompt_seg_losses(GradientTape(), tool, scene, prompts,
                                                  scene.official_gt)
    assert losses[1] is None
    assert losses[0] is losses[3] and losses[2] is losses[4] and losses[0] is not losses[2]
    assert len(logits) == 2
    for prompt, loss in zip(prompts, losses):
        if prompt is not None:
            key = models.concept_index(prompt.color, prompt.size)
            assert np.array_equal(logits[key], models.tool_logits(tool, scene, prompt))
            assert loss.item() == seg_loss(logits[key], scene.official_gt)


# ---------------------------------------------------------------------------
# segmentation loss
# ---------------------------------------------------------------------------


def test_seg_loss_saturated_perfect():
    gt = np.zeros((6, 6))
    gt[2:5, 2:5] = 1.0
    logits = np.where(gt > 0, 50.0, -50.0)
    assert seg_loss(logits, gt) <= 1e-8


def test_seg_loss_uniform_half_foreground():
    gt = np.zeros((4, 4))
    gt[:2, :] = 1.0  # exactly half
    value = seg_loss(np.zeros((4, 4)), gt)
    assert value == pytest.approx(math.log(2.0) + 2.0 / 3.0, abs=1e-12)


def test_seg_loss_uniform_all_foreground():
    value = seg_loss(np.zeros((4, 4)), np.ones((4, 4)))
    assert value == pytest.approx(math.log(2.0) + 0.5, abs=1e-12)


def test_seg_loss_nonnegative_random():
    gen = rng.stream(5, "segloss")
    for _ in range(20):
        logits = gen.normal(size=(5, 5)) * 3
        gt = (gen.random((5, 5)) > 0.5).astype(float)
        assert seg_loss(logits, gt) >= 0.0


def test_seg_loss_finite_diff():
    gen = rng.stream(6, "segfd")
    tape = GradientTape()
    x = tape.leaf("x", gen.normal(size=(8, 8)))
    gt = (gen.random((8, 8)) > 0.5).astype(float)
    seg_loss_nodes(x, gt)
    report = ad.finite_diff_check(tape, NamedParams({"x": x.data}), step=1e-5, tolerance=1e-5)
    assert report.passed, str(report)


# ---------------------------------------------------------------------------
# advantages
# ---------------------------------------------------------------------------


def test_advantages_symmetric_two_level():
    adv = compute_advantages([1.0, 1.0, 0.0, 0.0])
    assert np.allclose(adv.advantages, [1.0, 1.0, -1.0, -1.0])
    assert not adv.degenerate


def test_advantages_degenerate_zero_variance():
    adv = compute_advantages([0.5, 0.5, 0.5])
    assert adv.degenerate
    assert np.array_equal(adv.advantages, np.zeros(3))


def test_advantages_direct_formula():
    adv = compute_advantages([0.9, 0.1, 0.2, 0.0])
    assert adv.mean == pytest.approx(0.3)
    assert adv.std == pytest.approx(math.sqrt(0.125))
    assert np.allclose(adv.advantages, [1.6971, -0.5657, -0.2828, -0.8485], atol=2e-4)


def test_advantages_normalization_invariants():
    gen = rng.stream(7, "adv")
    for _ in range(25):
        rewards = gen.random(8)
        adv = compute_advantages(rewards)
        if adv.degenerate:
            continue
        assert abs(adv.advantages.mean()) <= 1e-12
        assert abs(np.sqrt(np.mean(adv.advantages**2)) - 1.0) <= 1e-9


def test_advantages_affine_invariance():
    gen = rng.stream(8, "affine")
    for _ in range(20):
        rewards = gen.random(6)
        a = float(gen.uniform(0.1, 5.0))
        b = float(gen.uniform(-2.0, 2.0))
        base = compute_advantages(rewards)
        shifted = compute_advantages(a * rewards + b)
        if base.degenerate or shifted.degenerate:
            continue
        assert np.allclose(base.advantages, shifted.advantages, atol=1e-9)


def test_advantages_require_group():
    with pytest.raises(ObjectiveUsageError):
        compute_advantages([1.0])


# ---------------------------------------------------------------------------
# KL estimator
# ---------------------------------------------------------------------------


def test_kl_zero_at_reference():
    lp = np.array([-1.0, -2.0, -0.5])
    assert kl_estimate(lp, lp, 7) == 0.0


def test_kl_ratio_two():
    # ratio ref/cur = 2: k = 2 - ln 2 - 1
    value = kl_estimate([-math.log(2.0)], [0.0], 7)
    assert value == pytest.approx((2.0 - math.log(2.0) - 1.0) / 7, abs=1e-12)
    assert value == pytest.approx(0.3069 / 7, abs=1e-4)


def test_kl_ratio_half():
    value = kl_estimate([0.0], [-math.log(2.0)], 7)
    assert value == pytest.approx((0.5 + math.log(2.0) - 1.0) / 7, abs=1e-12)
    assert value == pytest.approx(0.1931 / 7, abs=1e-4)


def test_kl_nonnegative_random():
    gen = rng.stream(9, "kl")
    for _ in range(50):
        cur = -gen.random(5) * 3
        ref = -gen.random(5) * 3
        assert kl_estimate(cur, ref, 5) >= 0.0


def test_kl_value_equals_tape_estimate_bitwise():
    gen = rng.stream(11, "kl-tape")
    for trial in range(300):
        length = int(gen.integers(1, 12))
        scale = [0.01, 1.0, 10.0][trial % 3]
        cur = -gen.random(length) * scale
        ref = -gen.random(length) * scale
        tape = GradientTape()
        nodes = [tape.constant(np.float64(v)) for v in cur]
        expected = kl_estimate_nodes(nodes, ref, length + trial % 4).item()
        assert kl_estimate(cur, ref, length + trial % 4) == expected


def test_kl_differentiable_and_checks():
    gen = rng.stream(10, "klfd")
    tape = GradientTape()
    x = tape.leaf("x", -gen.random(4))
    nodes = [ad.reshape(ad.gather(x, [i]), ()) for i in range(4)]
    kl_estimate_nodes(nodes, -gen.random(4), 4)
    report = ad.finite_diff_check(tape, NamedParams({"x": x.data}), step=1e-5, tolerance=1e-5)
    assert report.passed, str(report)


# ---------------------------------------------------------------------------
# GRPO objective
# ---------------------------------------------------------------------------


def leaf_logprob_nodes(tape, name, values):
    leaf = tape.leaf(name, values)
    return [ad.reshape(ad.gather(leaf, [i]), ()) for i in range(len(values))]


def test_grpo_on_policy_reduces_to_kl_penalty():
    # cur == old: surrogate = mean(A) = 0, so J = -beta * mean KL
    tape = GradientTape()
    lp = np.array([-1.0, -0.4, -2.0])
    ref = np.array([-1.5, -0.3, -2.2])
    nodes = leaf_logprob_nodes(tape, "lp", lp)
    adv = compute_advantages([1.0, 0.0]).advantages
    objective = grpo_objective_nodes(
        [nodes, nodes], [lp, lp], [ref, ref], adv, beta_kl=0.05, eps_clip=0.2, l_max=3
    )
    expected_kl = kl_estimate(lp, ref, 3)
    assert objective.item() == pytest.approx(-0.05 * expected_kl, abs=1e-12)


def test_grpo_degenerate_group_objective_zero():
    tape = GradientTape()
    lp = np.array([-1.0, -0.4])
    nodes = leaf_logprob_nodes(tape, "lp", lp)
    adv = compute_advantages([0.3, 0.3]).advantages  # degenerate -> zeros
    objective = grpo_objective_nodes(
        [nodes, nodes], [lp, lp], [lp, lp], adv, beta_kl=0.01, eps_clip=0.2, l_max=2
    )
    assert objective.item() == 0.0


def test_grpo_clipped_token_has_zero_gradient():
    # ratio = 1 + 2*eps with positive advantage: the clip branch is active
    eps = 0.2
    tape = GradientTape()
    lp = np.array([-0.5])
    old = lp - math.log(1.0 + 2.0 * eps)  # exp(lp - old) = 1 + 2 eps
    nodes = leaf_logprob_nodes(tape, "lp", lp)
    grpo_objective_nodes([nodes], [old], [lp], np.array([1.0]), 0.0, eps, 1)
    grads = ad.backward(tape)
    assert np.array_equal(grads["lp"], np.zeros(1))


def test_grpo_unclipped_token_has_gradient():
    tape = GradientTape()
    lp = np.array([-0.5])
    nodes = leaf_logprob_nodes(tape, "lp", lp)
    grpo_objective_nodes([nodes], [lp], [lp], np.array([1.0]), 0.0, 0.2, 1)
    grads = ad.backward(tape)
    assert grads["lp"][0] == pytest.approx(1.0)  # d(ratio*A)/d lp = ratio * A = 1


# ---------------------------------------------------------------------------
# GRTO tool term
# ---------------------------------------------------------------------------


def small_tool_setup(seed):
    scene = generate_scene(seed, "target", SMALL_CFG)
    tool = models.tool_init(seed, SMALL_CFG, ToolConfig(hidden=5, embed_dim=3))
    prompt = models.true_prompt(scene)
    return scene, tool, prompt


def test_grto_tool_term_all_invalid_zero():
    scene, tool, _prompt = small_tool_setup(1)
    tape = GradientTape()
    tape.leaves(tool)
    empty = np.array([])
    term = grto_tool_term_nodes(tape, [[], []], [empty, empty], [None, None])
    assert term.item() == 0.0
    grads = ad.backward(tape)
    assert all(np.all(arr == 0.0) for _, arr in grads.items())


def test_grto_tool_term_on_policy_equals_mean_valid_loss():
    scene, tool, prompt = small_tool_setup(2)
    tape = GradientTape()
    lp = np.array([-1.0, -2.0])
    nodes = leaf_logprob_nodes(tape, "lp", lp)
    logits = models.tool_forward_nodes(tape, tool, scene, prompt)
    loss = seg_loss_nodes(logits, scene.official_gt)
    term = grto_tool_term_nodes(tape, [nodes, nodes], [lp, lp], [loss, None])
    assert term.item() == pytest.approx(loss.item(), abs=1e-15)


def test_grto_tool_term_zero_policy_gradient():
    # the ratio product is detached, so policy leaves get exactly zero
    scene, tool, prompt = small_tool_setup(3)
    tape = GradientTape()
    lp_leaf_values = np.array([-1.0, -0.7])
    nodes = leaf_logprob_nodes(tape, "lp", lp_leaf_values)
    old = lp_leaf_values - 0.3  # off-policy: ratio != 1
    logits = models.tool_forward_nodes(tape, tool, scene, prompt)
    loss = seg_loss_nodes(logits, scene.official_gt)
    grto_tool_term_nodes(tape, [nodes], [old], [loss])
    grads = ad.backward(tape)
    assert np.array_equal(grads["lp"], np.zeros(2))
    assert any(np.any(arr != 0.0) for name, arr in grads.items() if name.startswith("tool/"))


def test_backward_leaves_constants_without_gradient():
    # one joint tape: policy steps, a tool forward, its seg loss and the detached ratios
    scene, tool, prompt = small_tool_setup(5)
    policy = models.policy_init(5, SMALL_CFG, SMALL_GRAMMAR, PolicyConfig(hidden=8))
    tape = GradientTape()
    lp = models.policy_logprob_nodes(tape, policy, scene, env.correct_tokens(scene, SMALL_GRAMMAR),
                                     SMALL_GRAMMAR)
    old = np.array([node.item() for node in lp]) - 0.1
    loss = seg_loss_nodes(models.tool_forward_nodes(tape, tool, scene, prompt), scene.official_gt)
    objective = grpo_objective_nodes([lp, lp], [old, old], [old, old], np.array([1.0, -1.0]),
                                     0.1, 0.2, SMALL_GRAMMAR.l_max)
    ad.sub(objective, grto_tool_term_nodes(tape, [lp, lp], [old, old], [loss, None]))
    grads = ad.backward(tape)
    parents = {id(p): p for node in tape._ops for p in node.parents}.values()
    constants = [p for p in parents if p.op is None and p.name is None]
    assert len(constants) > 10 and not any(c.requires or c.grad is not None for c in constants)
    assert all(node.grad is None for node in tape._ops if not node.requires)
    # stop_gradient still blocks: the ratio it detaches receives nothing
    detached = [node for node in tape._ops if node.op == "stop_gradient"]
    assert detached and all(n.grad is None and n.parents[0].grad is None for n in detached)
    assert all(np.any(grads[name] != 0.0) for name in ("policy/trunk/w1_obs", "tool/w_cell"))


def test_grto_tool_term_finite_diff_wrt_tool():
    scene, tool, prompt = small_tool_setup(4)
    tape = GradientTape()
    lp = np.array([-1.0, -0.7])
    nodes = leaf_logprob_nodes(tape, "lp", lp)
    logits = models.tool_forward_nodes(tape, tool, scene, prompt)
    loss = seg_loss_nodes(logits, scene.official_gt)
    grto_tool_term_nodes(tape, [nodes], [lp - 0.2], [loss])
    report = ad.finite_diff_check(tape, tool, step=1e-5, tolerance=1e-5)
    assert report.passed, str(report)


# ---------------------------------------------------------------------------
# BTO weights and objective
# ---------------------------------------------------------------------------


def test_bto_weights_uniform_for_equal_rewards():
    w = bto_weights([0.4, 0.4, 0.4, 0.4], beta=0.7).weights
    assert np.allclose(w, 0.25, atol=1e-15)


def test_bto_weights_two_level_closed_form():
    w = bto_weights([1.0, 0.0], beta=1.0).weights
    e = math.e
    assert w[0] == pytest.approx(e / (1 + e), abs=1e-12)
    assert w[1] == pytest.approx(1 / (1 + e), abs=1e-12)


def test_bto_weights_sharp_beta():
    w = bto_weights([0.9, 0.8], beta=0.01).weights
    assert w[0] == pytest.approx(1.0 / (1.0 + math.exp(-10.0)), abs=1e-9)
    assert w[1] == pytest.approx(math.exp(-10.0) / (1.0 + math.exp(-10.0)), rel=1e-6)


def test_bto_weights_sum_to_one():
    gen = rng.stream(11, "btosum")
    for _ in range(30):
        w = bto_weights(gen.random(8), beta=float(gen.uniform(0.01, 10))).weights
        assert abs(w.sum() - 1.0) <= 1e-12
        assert np.all(w >= 0.0)


def test_bto_weights_limits():
    gen = rng.stream(12, "btolim")
    rewards = gen.random(8)
    flat = bto_weights(rewards, beta=1e6).weights
    assert np.max(np.abs(flat - 1.0 / 8.0)) < 1e-6
    rewards[3] = rewards.max() + 0.1  # clear argmax with gap >= 0.1
    sharp = bto_weights(rewards, beta=1e-4).weights
    assert sharp[3] >= 1.0 - 1e-10


def test_bto_weights_reject_bad_beta():
    with pytest.raises(ObjectiveUsageError):
        bto_weights([0.1, 0.2], beta=0.0)


def test_bto_objective_uniform_two_rollouts():
    scene, tool, prompt = small_tool_setup(5)
    tape = GradientTape()
    logits = models.tool_forward_nodes(tape, tool, scene, prompt)
    loss = seg_loss_nodes(logits, scene.official_gt)
    weights = bto_weights([0.5, 0.5], beta=1.0)
    objective = bto_objective_nodes(tape, weights, [loss, loss])
    # -(1/G) sum w_i l = -(1/2)(0.5 l + 0.5 l) = -l/2
    assert objective.item() == pytest.approx(-loss.item() / 2.0, abs=1e-15)


def test_bto_objective_weighted_two_losses():
    scene, tool, prompt = small_tool_setup(6)
    other = ToolPrompt(color=(prompt.color + 1) % SMALL_CFG.colors, size=prompt.size,
                       boxes=prompt.boxes)
    tape = GradientTape()
    l1 = seg_loss_nodes(models.tool_forward_nodes(tape, tool, scene, prompt), scene.official_gt)
    l2 = seg_loss_nodes(models.tool_forward_nodes(tape, tool, scene, other), scene.official_gt)
    weights = bto_weights([1.0, 0.0], beta=1.0)
    objective = bto_objective_nodes(tape, weights, [l1, l2])
    e = math.e
    expected = -(e / (1 + e) * l1.item() + 1 / (1 + e) * l2.item()) / 2.0
    assert objective.item() == pytest.approx(expected, abs=1e-12)


def test_bto_objective_invalid_keeps_weight_mass():
    scene, tool, prompt = small_tool_setup(7)
    tape = GradientTape()
    loss = seg_loss_nodes(models.tool_forward_nodes(tape, tool, scene, prompt), scene.official_gt)
    weights = bto_weights([0.2, 0.9], beta=1.0)  # the invalid rollout holds the larger weight
    objective = bto_objective_nodes(tape, weights, [loss, None])
    assert objective.item() == pytest.approx(-weights.weights[0] * loss.item() / 2.0, abs=1e-12)


def test_bto_objective_finite_diff():
    scene, tool, prompt = small_tool_setup(8)
    tape = GradientTape()
    loss = seg_loss_nodes(models.tool_forward_nodes(tape, tool, scene, prompt), scene.official_gt)
    weights = bto_weights([0.7, 0.1], beta=0.5)
    bto_objective_nodes(tape, weights, [loss, None])
    report = ad.finite_diff_check(tape, tool, step=1e-5, tolerance=1e-5)
    assert report.passed, str(report)


def test_reward_empty_prediction_scores_format_only():
    scene = generate_scene(3, "target", SMALL_CFG)
    tool = constant_logit_tool(SMALL_CFG, value=-50.0)  # empty mask everywhere
    prompt = ToolPrompt(color=0, size=None, boxes=((0, 0, 3, 3),))
    r = compute_reward(tool, scene, [prompt], Scoring())[1][0]
    assert r.r_iou == 0.0
    assert r.total == pytest.approx(0.1 * r.r_format)


def test_reward_total_range_random():
    gen = rng.stream(13, "rewardrange")
    tool = models.tool_init(3, SMALL_CFG, ToolConfig(hidden=5, embed_dim=3))
    for i in range(10):
        scene = generate_scene(int(gen.integers(1 << 30)), "target", SMALL_CFG)
        prompt = models.true_prompt(scene)
        r = compute_reward(tool, scene, [prompt], Scoring())[1][0]
        assert 0.0 <= r.total <= 1.0
        assert r.total == pytest.approx(0.9 * r.r_iou + 0.1 * r.r_format)
