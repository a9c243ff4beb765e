"""Group sampling and replay-buffer persistence contracts."""

import numpy as np
import pytest

from bgrto import models, rng
from bgrto.autodiff import NamedParams
from bgrto.checkpoint import params_digest
from bgrto.env import EnvConfig, env_config_hash, generate_scene, standard_grammar
from bgrto.models import PolicyConfig, ToolConfig
from bgrto.objectives import Scoring
from bgrto.rollout import (
    BufferFormatError,
    build_replay_buffer,
    buffers_equal,
    load_buffer,
    rollout_streams,
    sample_group,
    save_buffer,
)

CFG = EnvConfig(width=8, height=8, colors=2, min_objects=1, max_objects=2,
                min_side=3, max_side=4, small_area_threshold=12)
GRAMMAR = standard_grammar(CFG)


@pytest.fixture(scope="module")
def setup():
    policy = models.policy_init(0, CFG, GRAMMAR, PolicyConfig(hidden=8))
    tool = models.tool_init(1, CFG, ToolConfig(hidden=5, embed_dim=3))
    scene = generate_scene(5, "target", CFG)
    return policy, tool, scene


def test_sample_group_fields(setup):
    policy, tool, scene = setup
    group = sample_group(policy, policy, tool, scene, 8, rollout_streams(0, 0, 8),
                         GRAMMAR, Scoring())
    assert len(group.rollouts) == 8
    assert group.advantages is not None
    assert group.scene_seed == scene.seed and group.domain == "target"
    for roll in group.rollouts:
        assert len(roll.tokens) == GRAMMAR.l_max
        assert roll.lp_old.shape == (GRAMMAR.l_max,)
        assert roll.lp_ref.shape == (GRAMMAR.l_max,)
        assert roll.valid == (roll.prompt is not None)
        assert roll.reward is not None
        if not roll.valid:
            assert roll.reward.total == 0.0


def test_sample_group_deterministic(setup):
    policy, tool, scene = setup
    a = sample_group(policy, policy, tool, scene, 4, rollout_streams(1, 0, 4), GRAMMAR, Scoring())
    b = sample_group(policy, policy, tool, scene, 4, rollout_streams(1, 0, 4), GRAMMAR, Scoring())
    assert [r.tokens for r in a.rollouts] == [r.tokens for r in b.rollouts]
    assert all(np.array_equal(x.lp_old, y.lp_old) for x, y in zip(a.rollouts, b.rollouts))


def test_sample_group_on_policy_ref_matches_old(setup):
    # sampling policy == reference policy: lp_ref must equal lp_old bit-exactly
    policy, tool, scene = setup
    group = sample_group(policy, policy, tool, scene, 4, rollout_streams(2, 0, 4),
                         GRAMMAR, Scoring())
    for roll in group.rollouts:
        assert np.array_equal(roll.lp_old, roll.lp_ref)


def all_invalid_policy():
    """Zero weights with biases forcing x1 > x2, so every greedy/sampled box is invalid."""
    params = models.policy_init(0, CFG, GRAMMAR, PolicyConfig(hidden=8))
    zeroed = NamedParams((name, np.zeros_like(arr)) for name, arr in params.items())
    x1_bias = np.zeros(CFG.width)
    x1_bias[-1] = 50.0  # x1 = W-1
    x2_bias = np.zeros(CFG.width)
    x2_bias[0] = 50.0  # x2 = 0
    zeroed["policy/head2/b"] = x1_bias
    zeroed["policy/head4/b"] = x2_bias
    return zeroed


def test_all_invalid_group_degenerate(setup):
    _policy, tool, scene = setup
    bad_policy = all_invalid_policy()
    group = sample_group(bad_policy, bad_policy, tool, scene, 6, rollout_streams(3, 0, 6),
                         GRAMMAR, Scoring())
    assert all(not r.valid for r in group.rollouts)
    assert all(r.reward.total == 0.0 for r in group.rollouts)
    assert group.advantages.degenerate
    assert np.array_equal(group.advantages.advantages, np.zeros(6))


def make_buffer(policy, scenes=8, group_size=4, passes=1, run_seed=0):
    seeds = [rng.derive_seed(run_seed, "buffer-scene", i) for i in range(scenes)]
    return build_replay_buffer(
        policy, seeds, "target", group_size, run_seed, CFG, GRAMMAR,
        policy_ckpt_id=params_digest(policy), passes=passes,
    )


def test_buffer_rollouts_equal_sample_group_rollouts(setup):
    policy, tool, _scene = setup
    seeds = [5, 9, 13]
    buffer = build_replay_buffer(policy, seeds, "target", 4, 7, CFG, GRAMMAR, "p", passes=2)
    for index, group in enumerate(buffer.groups):
        scene = generate_scene(seeds[index % len(seeds)], "target", CFG)
        sampled = sample_group(policy, policy, tool, scene, 4, rollout_streams(7, index, 4),
                               GRAMMAR, Scoring())
        assert (group.scene_seed, group.domain) == (sampled.scene_seed, sampled.domain)
        for a, b in zip(group.rollouts, sampled.rollouts):
            assert (a.tokens, a.valid, a.prompt) == (b.tokens, b.valid, b.prompt)
            assert np.array_equal(a.lp_old, b.lp_old) and np.array_equal(a.lp_ref, b.lp_ref)


def test_buffer_counts(setup):
    policy, _tool, _scene = setup
    buffer = make_buffer(policy, scenes=8, group_size=4)
    assert len(buffer.groups) == 8
    assert sum(len(g.rollouts) for g in buffer.groups) == 32
    double = make_buffer(policy, scenes=8, group_size=8)
    assert sum(len(g.rollouts) for g in double.groups) == 64


def test_buffer_default_scale_counts(setup):
    # 64 scenes at group size 8 -> 64 groups, 512 stored rollouts
    policy, _tool, _scene = setup
    buffer = make_buffer(policy, scenes=64, group_size=8)
    assert len(buffer.groups) == 64
    assert sum(len(g.rollouts) for g in buffer.groups) == 512


def test_buffer_two_passes(setup):
    policy, _tool, _scene = setup
    buffer = make_buffer(policy, scenes=4, group_size=4, passes=2)
    assert len(buffer.groups) == 8
    # same scenes, different rollouts per pass
    assert buffer.groups[0].scene_seed == buffer.groups[4].scene_seed
    assert [r.tokens for r in buffer.groups[0].rollouts] != [
        r.tokens for r in buffer.groups[4].rollouts
    ]


def test_buffer_leaves_policy_untouched(setup):
    policy, _tool, _scene = setup
    snapshot = policy.copy()
    make_buffer(policy, scenes=4)
    assert policy == snapshot


def test_buffer_rejects_bad_pass_count(setup):
    policy, _tool, _scene = setup
    with pytest.raises(BufferFormatError):
        make_buffer(policy, passes=3)


def test_buffer_roundtrip(tmp_path, setup):
    policy, _tool, _scene = setup
    buffer = make_buffer(policy, scenes=6, group_size=4)
    path = str(tmp_path / "buffer.jsonl")
    save_buffer(buffer, path)
    loaded = load_buffer(path, expected_env_hash=env_config_hash(CFG))
    assert buffers_equal(buffer, loaded)


def test_buffer_logprobs_reproducible(setup):
    policy, _tool, _scene = setup
    buffer = make_buffer(policy, scenes=4, group_size=4)
    for group in buffer.groups:
        scene = generate_scene(group.scene_seed, group.domain, CFG)
        for roll in group.rollouts:
            again = models.policy_logprobs(policy, scene, roll.tokens, GRAMMAR)
            assert np.max(np.abs(again - roll.lp_ref)) <= 1e-12


def test_buffer_validity_matches_regeneration(setup):
    from bgrto.env import parse_action_tokens

    policy, _tool, _scene = setup
    buffer = make_buffer(policy, scenes=6, group_size=4)
    for group in buffer.groups:
        for roll in group.rollouts:
            assert roll.valid == (parse_action_tokens(roll.tokens, GRAMMAR) is not None)


def test_buffer_truncated_file_rejected(tmp_path, setup):
    policy, _tool, _scene = setup
    buffer = make_buffer(policy, scenes=4, group_size=4)
    path = str(tmp_path / "buffer.jsonl")
    save_buffer(buffer, path)
    with open(path, encoding="utf-8") as fh:
        content = fh.read()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(content[: len(content) - 40])  # cut inside the last record
    with pytest.raises(BufferFormatError, match="corrupt"):
        load_buffer(path)


def test_buffer_env_hash_mismatch_rejected(tmp_path, setup):
    policy, _tool, _scene = setup
    buffer = make_buffer(policy, scenes=2, group_size=4)
    path = str(tmp_path / "buffer.jsonl")
    save_buffer(buffer, path)
    other_hash = env_config_hash(EnvConfig(width=9, height=8, colors=2, max_side=4))
    with pytest.raises(BufferFormatError, match="hash mismatch"):
        load_buffer(path, expected_env_hash=other_hash)


def test_buffer_version_mismatch_rejected(tmp_path, setup):
    policy, _tool, _scene = setup
    buffer = make_buffer(policy, scenes=2, group_size=4)
    buffer.version = 99
    path = str(tmp_path / "buffer.jsonl")
    save_buffer(buffer, path)
    with pytest.raises(BufferFormatError, match="version mismatch"):
        load_buffer(path)


def test_buffer_group_size_consistency_checked(tmp_path, setup):
    policy, _tool, _scene = setup
    buffer = make_buffer(policy, scenes=2, group_size=4)
    buffer.group_size = 5
    path = str(tmp_path / "buffer.jsonl")
    save_buffer(buffer, path)
    with pytest.raises(BufferFormatError, match="group of 4"):
        load_buffer(path)
