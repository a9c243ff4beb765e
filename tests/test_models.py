"""Policy and tool network contracts: shapes, sampling, gradients, training."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bgrto import autodiff as ad
from bgrto import env, models, objectives, rng
from bgrto.autodiff import GradientTape, NamedParams
from bgrto.env import EnvConfig, ToolPrompt, generate_scene, micro_grammar, standard_grammar
from bgrto.models import PolicyConfig, ToolConfig

CFG = EnvConfig()
GRAMMAR = standard_grammar(CFG)

SMALL_CFG = EnvConfig(width=8, height=8, colors=2, min_objects=1, max_objects=2,
                      min_side=3, max_side=4, small_area_threshold=12)
SMALL_GRAMMAR = standard_grammar(SMALL_CFG)
SMALL_POLICY_CFG = PolicyConfig(hidden=6)
SMALL_TOOL_CFG = ToolConfig(hidden=6, embed_dim=3)


def zero_policy(cfg, grammar):
    params = models.policy_init(0, cfg, grammar, SMALL_POLICY_CFG)
    return NamedParams((name, np.zeros_like(arr)) for name, arr in params.items())


def test_policy_init_deterministic():
    a = models.policy_init(5, CFG, GRAMMAR, PolicyConfig())
    b = models.policy_init(5, CFG, GRAMMAR, PolicyConfig())
    assert a == b


def test_policy_init_biases_zero():
    params = models.policy_init(5, CFG, GRAMMAR, PolicyConfig())
    for name, arr in params.items():
        if "/b" in name:
            assert np.array_equal(arr, np.zeros_like(arr))


def test_policy_init_seeds_differ():
    a = models.policy_init(5, CFG, GRAMMAR, PolicyConfig())
    b = models.policy_init(6, CFG, GRAMMAR, PolicyConfig())
    assert a != b


def test_zero_policy_is_uniform():
    scene = generate_scene(1, "target", SMALL_CFG)
    params = zero_policy(SMALL_CFG, SMALL_GRAMMAR)
    tokens = env.correct_tokens(scene, SMALL_GRAMMAR)
    lps = models.policy_logprobs(params, scene, tokens, SMALL_GRAMMAR)
    for lp, size in zip(lps, SMALL_GRAMMAR.step_sizes):
        assert lp == pytest.approx(-math.log(size), abs=1e-12)


def test_step_probabilities_normalize():
    scene = generate_scene(2, "target", SMALL_CFG)
    params = models.policy_init(3, SMALL_CFG, SMALL_GRAMMAR, SMALL_POLICY_CFG)
    prefix = env.correct_tokens(scene, SMALL_GRAMMAR)
    for step, size in enumerate(SMALL_GRAMMAR.step_sizes):
        lps = models.policy_step_logprob_rows(params, [scene], SMALL_GRAMMAR, [prefix], step)[0]
        assert lps.shape == (size,)
        assert np.all(lps <= 0.0)
        assert abs(np.exp(lps).sum() - 1.0) < 1e-12


def test_policy_logprob_finite_diff():
    scene = generate_scene(3, "target", SMALL_CFG)
    params = models.policy_init(4, SMALL_CFG, SMALL_GRAMMAR, SMALL_POLICY_CFG)
    tokens = env.correct_tokens(scene, SMALL_GRAMMAR)
    tape = GradientTape()
    nodes = models.policy_logprob_nodes(tape, params, scene, tokens, SMALL_GRAMMAR)
    total = nodes[0]
    for node in nodes[1:]:
        total = ad.add(total, node)
    report = ad.finite_diff_check(tape, params, step=1e-5, tolerance=1e-5)
    assert report.passed, str(report)


def test_policy_logprob_rejects_bad_token():
    scene = generate_scene(3, "target", SMALL_CFG)
    params = zero_policy(SMALL_CFG, SMALL_GRAMMAR)
    bad = env.correct_tokens(scene, SMALL_GRAMMAR)
    bad[0] = 99
    with pytest.raises(env.GrammarUsageError):
        models.policy_logprobs(params, scene, bad, SMALL_GRAMMAR)


def test_sampling_matches_logprobs_at_temp_one():
    scene = generate_scene(4, "target", SMALL_CFG)
    params = models.policy_init(7, SMALL_CFG, SMALL_GRAMMAR, SMALL_POLICY_CFG)
    rngs = [rng.stream(0, "s", i) for i in range(4)]
    for seq in models.policy_sample(params, scene, 4, 1.0, rngs, SMALL_GRAMMAR):
        re_evaluated = models.policy_logprobs(params, scene, seq.tokens, SMALL_GRAMMAR)
        assert np.array_equal(seq.logprobs, re_evaluated)


def test_sampling_reproducible_with_same_streams():
    scene = generate_scene(4, "target", SMALL_CFG)
    params = models.policy_init(7, SMALL_CFG, SMALL_GRAMMAR, SMALL_POLICY_CFG)
    first = models.policy_sample(params, scene, 3, 1.0, [rng.stream(1, "r", i) for i in range(3)],
                                 SMALL_GRAMMAR)
    second = models.policy_sample(params, scene, 3, 1.0, [rng.stream(1, "r", i) for i in range(3)],
                                  SMALL_GRAMMAR)
    assert [s.tokens for s in first] == [s.tokens for s in second]


def test_low_temperature_matches_greedy():
    scene = generate_scene(6, "target", SMALL_CFG)
    params = models.policy_init(9, SMALL_CFG, SMALL_GRAMMAR, SMALL_POLICY_CFG)
    greedy = models.greedy_decode(params, [scene], SMALL_GRAMMAR)[0]
    rngs = [rng.stream(2, "cold", i) for i in range(4)]
    for seq in models.policy_sample(params, scene, 4, 1e-4, rngs, SMALL_GRAMMAR):
        assert seq.tokens == greedy


MICRO_CFG = EnvConfig(width=6, height=6, colors=4, min_objects=2, max_objects=3,
                      min_side=3, max_side=3, small_area_threshold=9, grammar="micro")
STEP_CONFIGS = [(SMALL_CFG, SMALL_GRAMMAR), (MICRO_CFG, micro_grammar(MICRO_CFG)), (CFG, GRAMMAR)]


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_batched_step_rows_equal_one_row_steps(data):
    cfg, grammar = data.draw(st.sampled_from(STEP_CONFIGS))
    params = models.policy_init(0, cfg, grammar, PolicyConfig(hidden=data.draw(st.integers(1, 16))))
    gen = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    scale = data.draw(st.sampled_from([0.1, 1.0, 5.0]))
    params = NamedParams((name, gen.normal(scale=scale, size=arr.shape)) for name, arr in params.items())
    rows = data.draw(st.integers(1, 12))
    step = data.draw(st.integers(0, grammar.l_max - 1))
    scenes = [generate_scene(data.draw(st.integers(0, 10**6)), "target", cfg) for _ in range(rows)]
    prefixes = [[int(gen.integers(size)) for size in grammar.step_sizes[:step]] for _ in range(rows)]
    batched = models.policy_step_logprob_rows(params, scenes, grammar, prefixes, step)
    assert batched.shape == (rows, grammar.step_sizes[step])
    for scene, prefix, row in zip(scenes, prefixes, batched):
        one_row = models.policy_step_logprob_rows(params, [scene], grammar, [prefix], step)[0]
        assert np.array_equal(row, one_row)
        # the one-row path that sampling, reference log-probs and training take
        tokens = prefix + [int(np.argmax(row))] + [0] * (grammar.l_max - step - 1)
        lp = models.policy_logprobs(params, scene, tokens, grammar)[step]
        assert lp == row[tokens[step]]


@pytest.mark.parametrize("count", [1, models.DECODE_CHUNK - 1, models.DECODE_CHUNK,
                                   models.DECODE_CHUNK + 1])
def test_greedy_prompts_match_per_scene_decoding(count, monkeypatch):
    params = models.policy_init(9, SMALL_CFG, SMALL_GRAMMAR, SMALL_POLICY_CFG)
    params = NamedParams((name, arr + 0.3) for name, arr in params.items())  # nonzero biases
    scenes = [generate_scene(rng.derive_seed(5, "greedy", i), "target", SMALL_CFG)
              for i in range(count)]
    expected = [env.parse_action_tokens(models.greedy_decode(params, [scene], SMALL_GRAMMAR)[0],
                                        SMALL_GRAMMAR) for scene in scenes]
    chunks = []
    decode = models.greedy_decode

    def counting_decode(params, chunk, grammar):
        chunks.append(len(chunk))
        return decode(params, chunk, grammar)

    monkeypatch.setattr(models, "greedy_decode", counting_decode)
    assert list(models.greedy_prompts(params, iter(scenes), SMALL_GRAMMAR)) == expected
    assert sum(chunks) == count
    assert len(chunks) == -(-count // models.DECODE_CHUNK)
    assert max(chunks) <= models.DECODE_CHUNK


def test_micro_uniform_sampling_histogram():
    # 36k samples of a uniform micro policy: each of the 36 sequences ~1000 +/- 100
    cfg = EnvConfig(width=6, height=6, colors=4, min_objects=2, max_objects=3,
                    min_side=3, max_side=3, small_area_threshold=9, grammar="micro")
    grammar = micro_grammar(cfg)
    scene = generate_scene(0, "target", cfg)
    params = models.policy_init(0, cfg, grammar, SMALL_POLICY_CFG)
    params = NamedParams((name, np.zeros_like(arr)) for name, arr in params.items())
    gen = rng.stream(3, "hist")
    counts = np.zeros((4, 9))
    for _ in range(36_000):
        seq = models.sample_sequence(params, scene, 1.0, gen, grammar)
        counts[seq.tokens[0], seq.tokens[1]] += 1
    assert counts.sum() == 36_000
    assert np.all(np.abs(counts - 1000) <= 100)


def test_tool_forward_pure_and_shaped():
    scene = generate_scene(8, "target", CFG)
    params = models.tool_init(2, CFG, ToolConfig())
    prompt = models.true_prompt(scene)
    a = models.tool_logits(params, scene, prompt)
    b = models.tool_logits(params, scene, prompt)
    assert a.shape == (16, 16)
    assert np.array_equal(a, b)
    other = ToolPrompt(color=(prompt.color + 1) % CFG.colors, size=prompt.size, boxes=prompt.boxes)
    assert not np.array_equal(a, models.tool_logits(params, scene, other))


def test_tool_requires_valid_prompt():
    scene = generate_scene(8, "target", CFG)
    params = models.tool_init(2, CFG, ToolConfig())
    with pytest.raises(env.GrammarUsageError):
        models.tool_logits(params, scene, None)


def test_tool_finite_diff():
    scene = generate_scene(9, "target", SMALL_CFG)
    params = models.tool_init(3, SMALL_CFG, SMALL_TOOL_CFG)
    tape = GradientTape()
    logits = models.tool_forward_nodes(tape, params, scene, models.true_prompt(scene))
    ad.sum_reduce(logits)
    report = ad.finite_diff_check(tape, params, step=1e-5, tolerance=1e-5)
    assert report.passed, str(report)


def test_tool_flip_covariance():
    # mirrored scene + mirrored box -> mirrored logit map (weight sharing)
    scene = generate_scene(10, "target", CFG)
    params = models.tool_init(4, CFG, ToolConfig())
    prompt = models.true_prompt(scene)
    logits = models.tool_logits(params, scene, prompt)
    w = scene.width
    flipped_objects = tuple(
        env.SceneObject(rect=(w - 1 - o.rect[2], o.rect[1], w - 1 - o.rect[0], o.rect[3]),
                        color=o.color, size_class=o.size_class)
        for o in scene.objects
    )
    flipped = env.GridScene(
        width=scene.width, height=scene.height, colors=scene.colors, objects=flipped_objects,
        instruction=scene.instruction, target_ids=scene.target_ids,
        gt_mask_source=np.flip(scene.gt_mask_source, axis=1).copy(),
        gt_mask_target=np.flip(scene.gt_mask_target, axis=1).copy(),
        seed=scene.seed, domain=scene.domain,
    )
    box = prompt.boxes[0]
    flipped_prompt = ToolPrompt(color=prompt.color, size=prompt.size,
                                boxes=((w - 1 - box[2], box[1], w - 1 - box[0], box[3]),))
    flipped_logits = models.tool_logits(params, flipped, flipped_prompt)
    assert np.allclose(flipped_logits, np.flip(logits, axis=1), atol=1e-12)


def test_descent_step_takes_own_grads_and_clips():
    from bgrto.optim import adamw_init, adamw_step, clip_global_norm, global_norm

    params = models.tool_init(5, SMALL_CFG, SMALL_TOOL_CFG)
    gen = rng.stream(3, "descent-step")
    grads = NamedParams((name, gen.normal(size=arr.shape)) for name, arr in params.items())
    grads["policy/other"] = np.ones(3)  # another model's leaf on the same tape
    own = NamedParams((name, g) for name, g in grads.items() if name.startswith("tool/"))
    state = adamw_init(params)
    plain, _, norm = models.descent_step(params, grads, state, 1e-3)
    assert norm is None
    assert plain == adamw_step(params, own, state, 1e-3)[0]
    clipped, _, clipped_norm = models.descent_step(params, grads, state, 1e-3, clip_norm=0.5)
    assert clipped_norm == global_norm(own) > 0.5
    assert clipped == adamw_step(params, clip_global_norm(own, 0.5), state, 1e-3)[0]


def build_source_scenes(cfg, count, tag):
    return [generate_scene(rng.derive_seed(99, tag, i), "source", cfg) for i in range(count)]


def test_pretrain_zero_epochs_is_identity():
    params = models.tool_init(5, SMALL_CFG, SMALL_TOOL_CFG)
    scenes = build_source_scenes(SMALL_CFG, 4, "pretrain-noop")
    assert models.pretrain_tool(params, scenes, 0, 1e-3) == params


@pytest.fixture(scope="module")
def pretrained_tool():
    scenes = build_source_scenes(CFG, 96, "pretrain-fit")
    params = models.tool_init(11, CFG, ToolConfig())
    return models.pretrain_tool(params, scenes, 12, 3e-3), scenes


def test_pretrained_tool_fits_source(pretrained_tool):
    params, _train = pretrained_tool
    held_out = [generate_scene(rng.derive_seed(7, "pretrain-held", i), "source", CFG)
                for i in range(32)]
    ious = []
    for scene in held_out:
        (mask,), _ = objectives.compute_reward(params, scene, [models.true_prompt(scene)],
                                              objectives.Scoring())
        ious.append(objectives.mask_iou(mask, scene.gt_mask_source))
    assert float(np.mean(ious)) >= 0.9


def test_pretrained_tool_hits_erosion_ceiling(pretrained_tool):
    params, _train = pretrained_tool
    for i in range(32):
        scene = generate_scene(rng.derive_seed(7, "pretrain-held", i), "target", CFG)
        prompt = models.true_prompt(scene)
        (mask,), _ = objectives.compute_reward(params, scene, [prompt], objectives.Scoring())
        iou = objectives.mask_iou(mask, scene.gt_mask_target)
        rect = scene.objects[scene.target_ids[0]].rect
        assert iou <= env.erosion_ceiling(rect) + 0.02


def make_demos(cfg, grammar, count, noise):
    demos = []
    for i in range(count):
        scene = generate_scene(rng.derive_seed(55, "demo", i), "target", cfg)
        tokens = env.scripted_demonstration(scene, noise, rng.stream(55, "demo-noise", i), grammar)
        demos.append((scene, tokens))
    return demos


def test_warmup_zero_epochs_keeps_params():
    params = models.policy_init(1, SMALL_CFG, SMALL_GRAMMAR, SMALL_POLICY_CFG)
    demos = make_demos(SMALL_CFG, SMALL_GRAMMAR, 4, 0.3)
    result = models.warmup_policy(params, demos, 0, 1e-3, SMALL_GRAMMAR,
                                  validity_gen=rng.stream(0, "v"), validity_samples=20)
    assert result.params == params
    assert result.loss_history == []


def test_uniform_validity_rate_matches_combinatorics():
    # P(x1<=x2) = (W+1)/(2W) per axis under a uniform policy; colors always parse
    params = zero_policy(SMALL_CFG, SMALL_GRAMMAR)
    scenes = [generate_scene(rng.derive_seed(3, "vr", i), "target", SMALL_CFG) for i in range(8)]
    rate = models.sample_validity_rate(params, scenes, SMALL_GRAMMAR,
                                       rng.stream(12, "validity"), samples=4000)
    w = SMALL_CFG.width
    h = SMALL_CFG.height
    expected = ((w + 1) / (2 * w)) * ((h + 1) / (2 * h))
    assert abs(rate - expected) < 0.03


def test_warmup_learns_and_reports_validity():
    params = models.policy_init(21, SMALL_CFG, SMALL_GRAMMAR, SMALL_POLICY_CFG)
    demos = make_demos(SMALL_CFG, SMALL_GRAMMAR, 64, 0.3)
    result = models.warmup_policy(params, demos, 16, 3e-3, SMALL_GRAMMAR,
                                  validity_gen=rng.stream(1, "v"), validity_samples=150)
    history = result.loss_history
    assert len(history) == 16
    # trailing-5-epoch means decrease on average
    trail = [float(np.mean(history[max(0, k - 4): k + 1])) for k in range(len(history))]
    assert trail[-1] < trail[4]
    assert result.validity_rate >= 0.5


def test_warmup_failure_error_names_budget():
    params = models.policy_init(22, SMALL_CFG, SMALL_GRAMMAR, SMALL_POLICY_CFG)
    demos = make_demos(SMALL_CFG, SMALL_GRAMMAR, 4, 0.3)
    with pytest.raises(models.WarmupFailure, match="warmup.epochs"):
        models.warmup_policy(params, demos, 1, 1e-9, SMALL_GRAMMAR,
                             validity_gen=rng.stream(2, "v"), validity_samples=100,
                             validity_floor=0.99)
