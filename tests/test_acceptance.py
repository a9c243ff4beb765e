"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one `ACCEPTANCE <n> pass|FAIL` line (visible with `pytest -s`
or in captured output).  Criteria 9-11 share one five-seed training pipeline
built by a session fixture; everything else runs on-the-fly micro instances.
"""

import dataclasses
import json
import math
import os
import statistics
import time

import numpy as np
import pytest

from bgrto import autodiff as ad
from bgrto import cli, config, env, models, objectives, optim, oracle, rng, schedules
from bgrto.autodiff import GradientTape, NamedParams
from bgrto.checkpoint import load_checkpoint, save_checkpoint, split_params
from bgrto.env import EnvConfig, generate_scene, micro_grammar, standard_grammar
from bgrto.models import PolicyConfig, ToolConfig
from bgrto.rollout import load_buffer, rollout_streams, sample_group, save_buffer

SEEDS = (0, 1, 2, 3, 4)
ORDERING_MODES = ("grpo", "grto", "b_grto", "b_grpo")


def report_line(criterion: int, passed: bool, detail: str) -> None:
    status = "pass" if passed else "FAIL"
    print(f"ACCEPTANCE {criterion:2d} {status}: {detail}")


def micro_fd_instance(k: int):
    cfg = EnvConfig(width=6, height=6, colors=2, min_objects=1, max_objects=2,
                    min_side=3, max_side=3, small_area_threshold=9, grammar="micro")
    grammar = micro_grammar(cfg)
    scene = generate_scene(1000 + k, "target", cfg)
    policy = models.policy_init(k, cfg, grammar, PolicyConfig(hidden=8))
    tool = models.tool_init(k + 50, cfg, ToolConfig(hidden=6, embed_dim=3))
    return cfg, grammar, scene, policy, tool


# ---------------------------------------------------------------------------
# 1. gradient correctness
# ---------------------------------------------------------------------------


def test_criterion_1_gradient_correctness():
    t0 = time.monotonic()
    failures = []
    for k in range(5):
        cfg, grammar, scene, policy, tool = micro_fd_instance(k)
        gen = rng.stream(k, "fd-mask")

        # seg loss on a random mask problem
        tape = GradientTape()
        logits = tape.leaf("x", gen.normal(size=(8, 8)))
        objectives.seg_loss_nodes(logits, (gen.random((8, 8)) > 0.5).astype(float))
        rep = ad.finite_diff_check(tape, NamedParams({"x": logits.data}), 1e-5, 1e-5)
        if not rep.passed:
            failures.append(f"seg_loss[{k}]: {rep}")

        # policy log-probability of a sampled sequence
        seq = models.sample_sequence(policy, scene, 1.0, rng.stream(k, "fd-seq"), grammar)
        tape = GradientTape()
        nodes = models.policy_logprob_nodes(tape, policy, scene, seq.tokens, grammar)
        total = nodes[0]
        for node in nodes[1:]:
            total = ad.add(total, node)
        rep = ad.finite_diff_check(tape, policy, 1e-5, 1e-5)
        if not rep.passed:
            failures.append(f"policy_logprob[{k}]: {rep}")

        # importance-weighted tool term
        group = sample_group(policy, policy, tool, scene, 4, rollout_streams(k, 0, 4), grammar,
                             objectives.Scoring())
        tape = GradientTape()
        tape.leaves(tool)
        lp_cur = [models.policy_logprob_nodes(tape, policy, scene, r.tokens, grammar)
                  for r in group.rollouts]
        seg_losses = []
        for roll in group.rollouts:
            if roll.valid:
                lg = models.tool_forward_nodes(tape, tool, scene, roll.prompt)
                seg_losses.append(objectives.seg_loss_nodes(lg, scene.official_gt))
            else:
                seg_losses.append(None)
        objectives.grto_tool_term_nodes(tape, lp_cur, [r.lp_old - 0.1 for r in group.rollouts],
                                        seg_losses)
        rep = ad.finite_diff_check(tape, tool, 1e-5, 1e-5)
        if not rep.passed:
            failures.append(f"grto_tool_term[{k}]: {rep}")

        # bootstrap objective
        tape = GradientTape()
        tape.leaves(tool)
        seg_losses = []
        for roll in group.rollouts:
            if roll.valid:
                lg = models.tool_forward_nodes(tape, tool, scene, roll.prompt)
                seg_losses.append(objectives.seg_loss_nodes(lg, scene.official_gt))
            else:
                seg_losses.append(None)
        weights = objectives.bto_weights([r.reward.total for r in group.rollouts], beta=0.5)
        objectives.bto_objective_nodes(tape, weights, seg_losses)
        rep = ad.finite_diff_check(tape, tool, 1e-5, 1e-5)
        if not rep.passed:
            failures.append(f"bto_objective[{k}]: {rep}")
    elapsed = time.monotonic() - t0
    passed = not failures and elapsed < 10.0
    report_line(1, passed, f"20 micro-instance finite-diff audits in {elapsed:.1f}s "
                           f"(failures: {failures or 'none'})")
    assert not failures, failures
    assert elapsed < 10.0


# ---------------------------------------------------------------------------
# 2. advantages
# ---------------------------------------------------------------------------


def test_criterion_2_advantage_suite():
    t0 = time.monotonic()
    gen = rng.stream(2, "acc-adv")
    ok = True
    for trial in range(200):
        rewards = gen.random(8)
        adv = objectives.compute_advantages(rewards)
        if adv.degenerate:
            ok &= np.array_equal(adv.advantages, np.zeros(8))
            continue
        ok &= abs(float(adv.advantages.mean())) <= 1e-12
        ok &= abs(float(np.sqrt(np.mean(adv.advantages**2))) - 1.0) <= 1e-9
        a = float(gen.uniform(0.2, 4.0))
        b = float(gen.uniform(-1.0, 1.0))
        again = objectives.compute_advantages(a * rewards + b)
        ok &= bool(np.max(np.abs(again.advantages - adv.advantages)) <= 1e-9)
    degenerate = objectives.compute_advantages(np.full(8, 0.7))
    ok &= degenerate.degenerate and np.array_equal(degenerate.advantages, np.zeros(8))
    elapsed = time.monotonic() - t0
    report_line(2, ok and elapsed < 1.0, f"advantage invariants over 200 groups in {elapsed:.2f}s")
    assert ok
    assert elapsed < 1.0


# ---------------------------------------------------------------------------
# 3. bootstrap weights
# ---------------------------------------------------------------------------


def test_criterion_3_bto_weight_suite():
    t0 = time.monotonic()
    gen = rng.stream(3, "acc-bto")
    ok = True
    for _ in range(100):
        rewards = gen.random(8)
        w = objectives.bto_weights(rewards, float(gen.uniform(0.005, 5.0))).weights
        ok &= abs(float(w.sum()) - 1.0) <= 1e-12
    uniform = objectives.bto_weights(np.full(8, 0.3), beta=0.7).weights
    ok &= bool(np.max(np.abs(uniform - 0.125)) <= 1e-15)
    rewards = gen.random(8) * 0.5
    rewards[2] = rewards.max() + 0.1
    sharp = objectives.bto_weights(rewards, beta=1e-4).weights
    ok &= sharp[2] >= 1.0 - 1e-10
    flat = objectives.bto_weights(gen.random(8), beta=1e6).weights
    ok &= bool(np.max(np.abs(flat - 0.125)) < 1e-6)
    elapsed = time.monotonic() - t0
    report_line(3, ok and elapsed < 1.0, f"weight suite in {elapsed:.2f}s")
    assert ok
    assert elapsed < 1.0


# ---------------------------------------------------------------------------
# 4. posterior objective identity
# ---------------------------------------------------------------------------


def test_criterion_4_posterior_identity():
    t0 = time.monotonic()
    worst = 0.0
    for k in range(50):
        _cfg, grammar, scene, policy, tool = oracle.micro_instance(seed=2000 + k)
        space = oracle.enumerate_space(policy, tool, scene, grammar)
        beta = float(10.0 ** rng.stream(4, "acc-beta", k).uniform(-1.0, 0.7))
        posterior = oracle.exact_posterior(space, beta)
        gap = abs(oracle.exact_klrl(space, posterior, beta)
                  - beta * oracle.exact_log_partition(space, beta))
        worst = max(worst, gap)
    elapsed = time.monotonic() - t0
    passed = worst <= 1e-10 and elapsed < 30.0
    report_line(4, passed, f"max |J(posterior) - beta log Z| = {worst:.2e} over 50 instances "
                           f"in {elapsed:.1f}s")
    assert worst <= 1e-10
    assert elapsed < 30.0


# ---------------------------------------------------------------------------
# 5. posterior optimality
# ---------------------------------------------------------------------------


def test_criterion_5_posterior_optimality():
    t0 = time.monotonic()
    worst = -np.inf
    total_passes = 0
    for k in range(10):
        _cfg, grammar, scene, policy, tool = oracle.micro_instance(seed=3000 + k)
        space = oracle.enumerate_space(policy, tool, scene, grammar)
        rep = oracle.posterior_optimality_check(space, beta=0.5, trials=100,
                                                gen=rng.stream(5, "acc-opt", k))
        total_passes += rep.passes
        worst = max(worst, rep.max_violation)
    elapsed = time.monotonic() - t0
    passed = total_passes == 1000 and elapsed < 30.0
    report_line(5, passed, f"{total_passes}/1000 jittered distributions dominated "
                           f"(max violation {worst:.2e}) in {elapsed:.1f}s")
    assert total_passes == 1000
    assert elapsed < 30.0


# ---------------------------------------------------------------------------
# 6. bootstrap estimator consistency
# ---------------------------------------------------------------------------


def test_criterion_6_bto_estimator_consistency():
    t0 = time.monotonic()
    _cfg, grammar, scene, policy, tool = oracle.micro_instance(seed=501, colors=2,
                                                               tool_hidden=4, embed_dim=2)
    space = oracle.enumerate_space(policy, tool, scene, grammar)
    # cross-check: the cached-gradient path matches the real objective tape
    gen = rng.stream(6, "acc-mc-xcheck")
    idx = np.searchsorted(np.cumsum(space.probs), gen.random(8), side="right").clip(0, len(space) - 1)
    tape_grads = oracle.bto_group_gradient(space, tool, 1.0, idx)
    cached = oracle.sequence_seg_loss_grads(space, tool)
    weights = objectives.bto_weights(space.rewards[idx], 1.0).weights
    for name, arr in tool.items():
        manual = -sum(w * cached[i][name] for w, i in zip(weights, idx)) / len(idx)
        assert np.allclose(tape_grads[name], manual, rtol=1e-10, atol=1e-12)
    mc = oracle.mc_bto_gradient(space, tool, beta=1.0, group_size=8, n_groups=10_000,
                                gen=rng.stream(13, "oracle-mc"))
    rel = mc.max_relative_error(floor=1e-4)
    elapsed = time.monotonic() - t0
    passed = mc.max_z <= 3.0 and rel <= 0.02 and elapsed < 300.0
    report_line(6, passed, f"10k groups: worst z={mc.max_z:.2f}, max rel err "
                           f"{rel:.3%} on large coords, {elapsed:.0f}s")
    assert mc.max_z <= 3.0
    assert rel <= 0.02
    assert elapsed < 300.0


# ---------------------------------------------------------------------------
# 7. GRPO mechanics
# ---------------------------------------------------------------------------


def test_criterion_7_grpo_mechanics():
    t0 = time.monotonic()
    cfg = EnvConfig(width=8, height=8, colors=2, min_objects=1, max_objects=2,
                    min_side=3, max_side=4, small_area_threshold=12)
    grammar = standard_grammar(cfg)
    policy = models.policy_init(7, cfg, grammar, PolicyConfig(hidden=8))
    tool = models.tool_init(8, cfg, ToolConfig(hidden=5, embed_dim=3))
    tc = config.from_dict({}).train
    opt = optim.adamw_init(policy)

    worst_ratio_dev = 0.0
    current = policy
    for step in range(5):
        scene = generate_scene(rng.derive_seed(7, "acc-mech", step), "target", cfg)
        group = sample_group(current, policy, tool, scene, 4,
                             rollout_streams(7, step, 4), grammar, objectives.Scoring())
        for roll in group.rollouts:
            again = models.policy_logprobs(current, scene, roll.tokens, grammar)
            worst_ratio_dev = max(worst_ratio_dev, float(np.max(np.abs(np.exp(again - roll.lp_old) - 1.0))))
        current, _tool, opt, _opt_tool, _stats = schedules.train_step_grto(
            [(scene, group)], current, tool, opt, None, tc, grammar, tc.lr_tool
        )
    ratios_ok = worst_ratio_dev <= 1e-12

    # clip-branch tokens contribute zero policy gradient (backward + perturbation)
    scene = generate_scene(rng.derive_seed(7, "acc-mech", 99), "target", cfg)
    seq = models.sample_sequence(policy, scene, 1.0, rng.stream(7, "acc-clip"), grammar)
    lp = models.policy_logprobs(policy, scene, seq.tokens, grammar)
    old = lp - math.log(1.0 + 2.0 * tc.eps_clip)

    def clipped_objective(params):
        tape = GradientTape()
        nodes = models.policy_logprob_nodes(tape, params, scene, seq.tokens, grammar)
        objectives.grpo_objective_nodes([nodes], [old], [lp], np.array([1.0]),
                                        beta_kl=0.0, eps_clip=tc.eps_clip, l_max=grammar.l_max)
        return tape

    tape = clipped_objective(policy)
    grads = ad.backward(tape)
    clip_zero = all(np.array_equal(arr, np.zeros_like(arr)) for _n, arr in grads.items())
    base_value = tape.result.item()
    nudged = policy.copy()
    nudged["policy/trunk/w2"][0, 0] += 1e-4
    perturbed_value = clipped_objective(nudged).result.item()
    clip_zero &= perturbed_value == pytest.approx(base_value, abs=1e-12)

    # KL estimator: non-negative, zero exactly at the reference
    gen = rng.stream(7, "acc-kl")
    kl_ok = objectives.kl_estimate(lp, lp, grammar.l_max) == 0.0
    for _ in range(50):
        cur = -gen.random(5)
        ref = -gen.random(5)
        kl_ok &= objectives.kl_estimate(cur, ref, 5) >= 0.0
    elapsed = time.monotonic() - t0
    passed = ratios_ok and clip_zero and kl_ok and elapsed < 10.0
    report_line(7, passed, f"ratio dev {worst_ratio_dev:.1e}, clip-branch zero-grad {clip_zero}, "
                           f"KL properties {kl_ok}, {elapsed:.1f}s")
    assert ratios_ok and clip_zero and kl_ok
    assert elapsed < 10.0


# ---------------------------------------------------------------------------
# 8. frozen-tool erosion ceiling
# ---------------------------------------------------------------------------


def test_criterion_8_frozen_tool_ceiling():
    t0 = time.monotonic()
    rc = config.from_dict({})
    scenes = [generate_scene(rng.derive_seed(8, "acc-pre", i), "source", rc.env)
              for i in range(rc.pretrain.scenes)]
    tool = models.tool_init(8, rc.env, rc.tool)
    tool = models.pretrain_tool(tool, scenes, rc.pretrain.epochs, rc.pretrain.lr)
    ious = []
    ceilings = []
    for i in range(48):
        scene = generate_scene(rng.derive_seed(8, "acc-ceiling", i), "target", rc.env)
        prompt = models.true_prompt(scene)
        (mask,), _ = objectives.compute_reward(tool, scene, [prompt], objectives.Scoring())
        ious.append(objectives.mask_iou(mask, scene.gt_mask_target))
        ceilings.append(env.erosion_ceiling(scene.objects[scene.target_ids[0]].rect))
    gap = abs(float(np.mean(ious)) - float(np.mean(ceilings)))
    elapsed = time.monotonic() - t0
    passed = gap <= 0.03 and elapsed < 120.0
    report_line(8, passed, f"mean IoU {np.mean(ious):.3f} vs analytic ceiling "
                           f"{np.mean(ceilings):.3f} (gap {gap:.3f}) in {elapsed:.0f}s")
    assert gap <= 0.03
    assert elapsed < 120.0


# ---------------------------------------------------------------------------
# 9-11. end-to-end orderings over five seeds
# ---------------------------------------------------------------------------


@pytest.fixture(scope="session")
def ordering_runs(tmp_path_factory):
    """Full default-config pipeline for every seed and ordering mode.

    Selected checkpoints are benchmarked on a held-out evaluation stream,
    mirroring the select-on-validation / report-on-test protocol.
    """
    from bgrto import metrics as metricsmod
    from bgrto.env import grammar_for

    base = tmp_path_factory.mktemp("ordering")
    runs = {mode: {} for mode in ORDERING_MODES}
    for seed in SEEDS:
        workdir = str(base / str(seed))
        os.makedirs(workdir, exist_ok=True)
        common = ["--workdir", workdir, "--set", f"seed={seed}"]
        assert cli.main(["pretrain-tool"] + common) == 0
        assert cli.main(["warmup-policy"] + common) == 0
        assert cli.main(["build-buffer"] + common) == 0
        rc0 = config.from_dict({"seed": seed})
        grammar = grammar_for(rc0.env)
        eval_scenes = [
            generate_scene(rng.derive_seed(seed, "eval-scene", i), "target", rc0.env)
            for i in range(64)
        ]
        for mode in ORDERING_MODES:
            rc = dataclasses.replace(rc0, train=dataclasses.replace(rc0.train, mode=mode))
            t0 = time.monotonic()
            result = schedules.run_mode(rc, workdir)
            wall = time.monotonic() - t0
            ckpt = load_checkpoint(result.selected_path)
            report = metricsmod.evaluate(
                split_params(ckpt.params, "tool/"),
                eval_scenes,
                models.greedy_prompts(split_params(ckpt.params, "policy/"), eval_scenes, grammar),
                objectives.Scoring(threshold=rc.train.threshold),
            )
            runs[mode][seed] = {
                "result": result,
                "wall_s": wall,
                "giou": report.giou,  # held-out evaluation of the selected checkpoint
                "val_giou": result.selected.report.giou,
                "curve": [r.report.giou for r in result.records],  # validation trajectory
            }
    return runs


def ceiling_bound(seed: int) -> float:
    """Mean analytic erosion ceiling over the held-out evaluation scenes."""
    rc = config.from_dict({"seed": seed})
    scenes = [generate_scene(rng.derive_seed(seed, "eval-scene", i), "target", rc.env)
              for i in range(64)]
    return float(np.mean([env.erosion_ceiling(s.objects[s.target_ids[0]].rect) for s in scenes]))


@pytest.mark.slow
def test_criterion_9_end_to_end_ordering(ordering_runs):
    med = {mode: statistics.median(ordering_runs[mode][s]["giou"] for s in SEEDS)
           for mode in ("grpo", "grto", "b_grto")}
    runtime_ok = all(ordering_runs[m][s]["wall_s"] <= 600.0 for m in ORDERING_MODES for s in SEEDS)
    bound = statistics.median(ceiling_bound(s) for s in SEEDS)
    ordering = med["b_grto"] >= med["grto"] >= med["grpo"]
    margin = med["b_grto"] - med["grpo"] >= 0.05
    ceiling_ok = med["grpo"] <= bound + 0.02
    passed = ordering and margin and ceiling_ok and runtime_ok
    report_line(9, passed, f"median gIoU b_grto={med['b_grto']:.3f} >= grto={med['grto']:.3f} "
                           f">= grpo={med['grpo']:.3f}; margin {med['b_grto'] - med['grpo']:.3f}; "
                           f"grpo vs ceiling bound {bound:.3f}+0.02; runs <= 10min: {runtime_ok}")
    assert ordering and margin and ceiling_ok and runtime_ok


@pytest.mark.slow
def test_criterion_10_bootstrapping_value(ordering_runs):
    med = {mode: statistics.median(ordering_runs[mode][s]["giou"] for s in SEEDS)
           for mode in ("grpo", "b_grpo", "b_grto")}
    gain = med["b_grpo"] >= med["grpo"] + 0.02
    ordering = med["b_grto"] >= med["b_grpo"]
    passed = gain and ordering
    report_line(10, passed, f"median gIoU b_grpo={med['b_grpo']:.3f} vs grpo={med['grpo']:.3f} "
                            f"(+{med['b_grpo'] - med['grpo']:.3f}); b_grto={med['b_grto']:.3f} "
                            f">= b_grpo")
    assert gain and ordering


def epochs_to_reach(curve, target) -> float:
    for epoch, value in enumerate(curve):
        if value >= target:
            return epoch
    return math.inf


@pytest.mark.slow
def test_criterion_11_bootstrap_convergence(ordering_runs):
    faster = 0
    for seed in SEEDS:
        grto = ordering_runs["grto"][seed]
        bgrto = ordering_runs["b_grto"][seed]
        target = 0.9 * grto["val_giou"]  # same validation scale as the curves
        if epochs_to_reach(bgrto["curve"], target) < epochs_to_reach(grto["curve"], target):
            faster += 1
    bto_walls = [ordering_runs["b_grto"][s]["result"].bto_wall_ms for s in SEEDS]
    epoch_walls = [w for s in SEEDS for w in ordering_runs["grto"][s]["result"].epoch_wall_ms]
    wall_ok = statistics.median(bto_walls) <= 2.0 * statistics.median(epoch_walls)
    passed = faster >= 3 and wall_ok
    report_line(11, passed, f"bootstrap reaches 90% of joint-final faster in {faster}/5 seeds; "
                            f"bootstrap stage {statistics.median(bto_walls):.0f}ms vs "
                            f"2x epoch {2 * statistics.median(epoch_walls):.0f}ms")
    assert faster >= 3
    assert wall_ok


# ---------------------------------------------------------------------------
# 12. determinism and persistence
# ---------------------------------------------------------------------------


def test_criterion_12_determinism_and_persistence(tmp_path):
    t0 = time.monotonic()
    tiny = {
        "env": {"width": 8, "height": 8, "colors": 2, "min_objects": 1, "max_objects": 2,
                "min_side": 3, "max_side": 4, "small_area_threshold": 12},
        "policy": {"hidden": 8},
        "tool": {"hidden": 5, "embed_dim": 3},
        "train": {"mode": "grto", "scenes_per_epoch": 3, "epochs": 2, "group_size": 4},
        "bto": {"buffer_scenes": 4, "epochs": 1},
        "pretrain": {"scenes": 8, "epochs": 2},
        "warmup": {"demos": 64, "epochs": 8, "lr": 3e-3},
        "validation": {"scenes": 4},
    }
    workdir = str(tmp_path)
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(tiny))
    common = ["--workdir", workdir, "--config", str(cfg_path)]
    assert cli.main(["pretrain-tool"] + common) == 0
    assert cli.main(["warmup-policy"] + common) == 0
    assert cli.main(["build-buffer"] + common) == 0
    rc = config.from_dict(tiny)

    first = schedules.run_mode(rc, workdir)
    with open(first.metrics_path, "rb") as fh:
        csv_a = fh.read()
    second = schedules.run_mode(rc, workdir)
    with open(second.metrics_path, "rb") as fh:
        csv_b = fh.read()
    csv_identical = csv_a == csv_b

    ckpt = load_checkpoint(first.selected_path)
    round_path = str(tmp_path / "roundtrip.ckpt")
    save_checkpoint(round_path, ckpt.metadata, ckpt.params)
    ckpt_roundtrip = load_checkpoint(round_path).params == ckpt.params

    buffer_path = os.path.join(workdir, "buffer.jsonl")
    buffer = load_buffer(buffer_path)
    buffer_copy_path = str(tmp_path / "buffer_copy.jsonl")
    save_buffer(buffer, buffer_copy_path)
    from bgrto.rollout import BufferFormatError, buffers_equal

    buffer_roundtrip = buffers_equal(buffer, load_buffer(buffer_copy_path))

    corrupt_ok = True
    with open(round_path, "rb") as fh:
        blob = bytearray(fh.read())
    blob[0] ^= 0xFF
    bad_ckpt = str(tmp_path / "bad.ckpt")
    with open(bad_ckpt, "wb") as fh:
        fh.write(blob)
    try:
        load_checkpoint(bad_ckpt)
        corrupt_ok = False
    except Exception:
        pass
    with open(buffer_copy_path, encoding="utf-8") as fh:
        text = fh.read()
    with open(buffer_copy_path, "w", encoding="utf-8") as fh:
        fh.write(text[:-30])
    try:
        load_buffer(buffer_copy_path)
        corrupt_ok = False
    except BufferFormatError:
        pass

    elapsed = time.monotonic() - t0
    passed = csv_identical and ckpt_roundtrip and buffer_roundtrip and corrupt_ok and elapsed < 60.0
    report_line(12, passed, f"csv identical {csv_identical}, checkpoint roundtrip {ckpt_roundtrip}, "
                            f"buffer roundtrip {buffer_roundtrip}, corrupt rejected {corrupt_ok}, "
                            f"{elapsed:.0f}s")
    assert csv_identical and ckpt_roundtrip and buffer_roundtrip and corrupt_ok
    assert elapsed < 60.0
