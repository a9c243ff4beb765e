"""Group sampling and the persisted replay buffer of reference-policy groups.

Buffers store tokens, scene seeds, validity flags, and reference
log-probabilities, but no masks or rewards: rewards depend on the tool, which
keeps evolving while the buffer is consumed, so they are recomputed at use
time.  Serialization is line-delimited JSON with a one-line header, which keeps
buffers inspectable and diffable.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

import numpy as np

from . import models, objectives, rng
from .autodiff import NamedParams
from .env import (
    ActionGrammar,
    EnvConfig,
    GridScene,
    ToolPrompt,
    env_config_hash,
    generate_scene,
    parse_action_tokens,
)
from .objectives import AdvantageSet, RewardBreakdown, Scoring

BUFFER_VERSION = 1


class BufferFormatError(ValueError):
    """Replay buffer file rejected: bad version, hash, or structure."""


@dataclass
class Rollout:
    tokens: list[int]
    lp_old: np.ndarray
    lp_ref: np.ndarray
    valid: bool
    prompt: ToolPrompt | None = None
    reward: RewardBreakdown | None = None


@dataclass
class Group:
    scene_seed: int
    domain: str
    rollouts: list[Rollout]
    advantages: AdvantageSet | None = None


@dataclass
class ReplayBuffer:
    version: int
    policy_ckpt: str
    env_hash: str
    group_size: int
    seed: int
    groups: list[Group] = field(default_factory=list)


def rollout_streams(run_seed: int, group_index: int, group_size: int) -> list[np.random.Generator]:
    return [rng.stream(run_seed, "rollout", group_index, i) for i in range(group_size)]


def sample_group(
    policy: NamedParams,
    policy_ref: NamedParams,
    tool: NamedParams,
    scene: GridScene,
    group_size: int,
    rngs,
    grammar: ActionGrammar,
    scoring: Scoring,
    temperature: float = 1.0,
) -> Group:
    """Sample G rollouts on one scene, score them, and fill group advantages."""
    group = _sample_unscored_group(policy, policy_ref, scene, group_size, rngs, grammar, temperature)
    _, rewards = objectives.compute_reward(tool, scene, [r.prompt for r in group.rollouts], scoring)
    for rollout, reward in zip(group.rollouts, rewards):
        rollout.reward = reward
    group.advantages = objectives.compute_advantages([r.total for r in rewards])
    return group


def _sample_unscored_group(policy, policy_ref, scene, group_size, rngs, grammar, temperature):
    """G rollouts of `policy` on one scene with their prompts and reference log-probs."""
    rollouts = []
    for seq in models.policy_sample(policy, scene, group_size, temperature, rngs, grammar):
        prompt = parse_action_tokens(seq.tokens, grammar)
        rollouts.append(
            Rollout(
                tokens=seq.tokens,
                lp_old=seq.logprobs,
                lp_ref=models.policy_logprobs(policy_ref, scene, seq.tokens, grammar),
                valid=prompt is not None,
                prompt=prompt,
            )
        )
    return Group(scene_seed=scene.seed, domain=scene.domain, rollouts=rollouts)


def build_replay_buffer(
    policy_ref: NamedParams,
    scene_seeds: list[int],
    domain: str,
    group_size: int,
    run_seed: int,
    cfg: EnvConfig,
    grammar: ActionGrammar,
    policy_ckpt_id: str,
    temperature: float = 1.0,
    passes: int = 1,
    path: str | None = None,
) -> ReplayBuffer:
    """Roll out the reference policy over the scene stream, once or twice.

    Rewards are intentionally not computed here; the bootstrap stage derives
    them under whatever tool it is currently training.
    """
    if passes not in (1, 2):
        raise BufferFormatError("replay buffers are populated with one or two passes")
    groups: list[Group] = []
    for pass_idx in range(passes):
        for scene_idx, scene_seed in enumerate(scene_seeds):
            scene = generate_scene(scene_seed, domain, cfg)
            group_index = pass_idx * len(scene_seeds) + scene_idx
            rngs = rollout_streams(run_seed, group_index, group_size)
            groups.append(
                _sample_unscored_group(policy_ref, policy_ref, scene, group_size, rngs, grammar,
                                       temperature)
            )
    buffer = ReplayBuffer(
        version=BUFFER_VERSION,
        policy_ckpt=policy_ckpt_id,
        env_hash=env_config_hash(cfg),
        group_size=group_size,
        seed=run_seed,
        groups=groups,
    )
    if path is not None:
        save_buffer(buffer, path)
    return buffer


def save_buffer(buffer: ReplayBuffer, path: str) -> None:
    """Write header plus one JSON line per group, atomically."""
    header = {
        "version": buffer.version,
        "policy_ckpt": buffer.policy_ckpt,
        "env_hash": buffer.env_hash,
        "group_size": buffer.group_size,
        "seed": buffer.seed,
    }
    tmp = f"{path}.tmp"
    with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(json.dumps(header, sort_keys=True) + "\n")
        for group in buffer.groups:
            record = {
                "scene_seed": group.scene_seed,
                "domain": group.domain,
                "rollouts": [
                    {
                        "tokens": [int(t) for t in r.tokens],
                        "lp_old": [float(v) for v in r.lp_old],
                        "lp_ref": [float(v) for v in r.lp_ref],
                        "valid": bool(r.valid),
                    }
                    for r in group.rollouts
                ],
            }
            fh.write(json.dumps(record, sort_keys=True) + "\n")
    os.replace(tmp, path)


def load_buffer(path: str, expected_env_hash: str | None = None) -> ReplayBuffer:
    """Parse and validate a buffer file; any defect rejects the whole file."""
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        raise BufferFormatError(f"cannot read buffer {path}: {exc}") from exc
    if not lines:
        raise BufferFormatError(f"buffer {path} is empty")
    try:
        header = json.loads(lines[0])
    except json.JSONDecodeError as exc:
        raise BufferFormatError(f"buffer {path} has a corrupt header: {exc}") from exc
    required = {"version", "policy_ckpt", "env_hash", "group_size", "seed"}
    if not isinstance(header, dict) or not required.issubset(header):
        raise BufferFormatError(f"buffer {path} header missing fields {sorted(required)}")
    if header["version"] != BUFFER_VERSION:
        raise BufferFormatError(
            f"buffer version mismatch: file has {header['version']}, reader expects {BUFFER_VERSION}"
        )
    if expected_env_hash is not None and header["env_hash"] != expected_env_hash:
        raise BufferFormatError(
            f"env config hash mismatch: buffer {header['env_hash']} vs current {expected_env_hash}"
        )
    groups = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line:
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise BufferFormatError(f"buffer {path} line {lineno} corrupt: {exc}") from exc
        try:
            rollouts = [
                Rollout(
                    tokens=[int(t) for t in r["tokens"]],
                    lp_old=np.asarray(r["lp_old"], dtype=np.float64),
                    lp_ref=np.asarray(r["lp_ref"], dtype=np.float64),
                    valid=bool(r["valid"]),
                )
                for r in record["rollouts"]
            ]
            groups.append(
                Group(scene_seed=int(record["scene_seed"]), domain=record["domain"], rollouts=rollouts)
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise BufferFormatError(f"buffer {path} line {lineno} malformed: {exc}") from exc
        if len(rollouts) != header["group_size"]:
            raise BufferFormatError(
                f"buffer {path} line {lineno}: group of {len(rollouts)} rollouts, "
                f"header says {header['group_size']}"
            )
    return ReplayBuffer(
        version=int(header["version"]),
        policy_ckpt=header["policy_ckpt"],
        env_hash=header["env_hash"],
        group_size=int(header["group_size"]),
        seed=int(header["seed"]),
        groups=groups,
    )


def buffers_equal(a: ReplayBuffer, b: ReplayBuffer) -> bool:
    """Structural equality over everything a buffer persists."""
    if (a.version, a.policy_ckpt, a.env_hash, a.group_size, a.seed) != (
        b.version,
        b.policy_ckpt,
        b.env_hash,
        b.group_size,
        b.seed,
    ):
        return False
    if len(a.groups) != len(b.groups):
        return False
    for ga, gb in zip(a.groups, b.groups):
        if (ga.scene_seed, ga.domain) != (gb.scene_seed, gb.domain):
            return False
        if len(ga.rollouts) != len(gb.rollouts):
            return False
        for ra, rb in zip(ga.rollouts, gb.rollouts):
            if ra.tokens != rb.tokens or ra.valid != rb.valid:
                return False
            if not np.array_equal(ra.lp_old, rb.lp_old) or not np.array_equal(ra.lp_ref, rb.lp_ref):
                return False
    return True
