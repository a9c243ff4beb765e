"""Exact brute-force references for the Monte Carlo estimators.

On the micro grammar the sequence space is small enough to enumerate, so the
partition function, the reward-tilted posterior, the KL-regularized objective,
and the posterior-weighted tool gradient can all be computed exactly and
compared against their sampled counterparts.
"""

from __future__ import annotations

import dataclasses
import itertools
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import models, objectives
from .autodiff import GradientTape, NamedParams
from .env import ActionGrammar, EnvConfig, GridScene, generate_scene, micro_grammar, parse_action_tokens

ENUMERATION_GUARD = 100_000


class OracleError(ValueError):
    pass


@dataclass
class EnumeratedSpace:
    """Every grammar-valid sequence with its exact policy probability and reward."""

    sequences: list[tuple[int, ...]]
    probs: np.ndarray
    rewards: np.ndarray
    prompts: list
    scene: GridScene
    grammar: ActionGrammar

    def __len__(self) -> int:
        return len(self.sequences)


def enumerate_space(
    policy: NamedParams,
    tool: NamedParams,
    scene: GridScene,
    grammar: ActionGrammar,
    scoring: objectives.Scoring = objectives.Scoring(),
) -> EnumeratedSpace:
    """Exhaustive sequence list with exact probabilities and rewards."""
    total = int(np.prod(grammar.step_sizes, dtype=np.int64))
    if total > ENUMERATION_GUARD:
        raise OracleError(
            f"enumeration refused: {total} sequences exceed the guard of {ENUMERATION_GUARD}"
        )
    # per-prefix log-softmax tables: one policy step over all of a step's prefixes
    logprob_by_prefix: dict[tuple[int, ...], np.ndarray] = {}
    for t in range(grammar.l_max):
        prefixes = list(itertools.product(*(range(s) for s in grammar.step_sizes[:t])))
        rows = models.policy_step_logprob_rows(policy, [scene] * len(prefixes), grammar, prefixes, t)
        logprob_by_prefix.update(zip(prefixes, rows))
    sequences = []
    logps = []
    for seq in itertools.product(*(range(s) for s in grammar.step_sizes)):
        lp = 0.0
        for t in range(grammar.l_max):
            lp += float(logprob_by_prefix[seq[:t]][seq[t]])
        sequences.append(seq)
        logps.append(lp)
    probs = np.exp(np.array(logps))
    prompts = [parse_action_tokens(list(seq), grammar) for seq in sequences]
    _, breakdowns = objectives.compute_reward(tool, scene, prompts, scoring)
    rewards = np.array([r.total for r in breakdowns])
    return EnumeratedSpace(
        sequences=sequences, probs=probs, rewards=rewards, prompts=prompts, scene=scene, grammar=grammar
    )


def exact_log_partition(space: EnumeratedSpace, beta: float) -> float:
    """log Z = log E_p0[exp(R / beta)], evaluated with a max shift."""
    if not beta > 0.0:
        raise OracleError("beta must be positive")
    scaled = space.rewards / beta
    m = float(scaled.max())
    return m + float(np.log(np.sum(space.probs * np.exp(scaled - m))))


def exact_partition(space: EnumeratedSpace, beta: float) -> float:
    return float(np.exp(exact_log_partition(space, beta)))


def exact_posterior(space: EnumeratedSpace, beta: float) -> np.ndarray:
    """Reference distribution exponentially tilted by reward, normalized."""
    if not beta > 0.0:
        raise OracleError("beta must be positive")
    with np.errstate(divide="ignore"):  # zero-probability sequences stay at zero
        log_unnorm = np.log(space.probs) + space.rewards / beta
    shifted = log_unnorm - log_unnorm.max()
    w = np.exp(shifted)
    return w / w.sum()


def exact_klrl(space: EnumeratedSpace, policy_q: np.ndarray, beta: float) -> float:
    """E_q[R] - beta * KL(q || p0), with 0 log 0 = 0."""
    q = np.asarray(policy_q, dtype=np.float64)
    if q.shape != space.probs.shape or np.any(q < 0) or abs(float(q.sum()) - 1.0) > 1e-9:
        raise OracleError("policy_q must be a distribution over the enumerated space")
    support = q > 0.0
    if np.any(support & (space.probs <= 0.0)):
        raise OracleError("KL is infinite: q has mass outside the reference support")
    kl = float(np.sum(q[support] * np.log(q[support] / space.probs[support])))
    return float(np.sum(q * space.rewards)) - beta * kl


def sequence_seg_loss_grads(
    space: EnumeratedSpace, tool: NamedParams
) -> list[NamedParams | None]:
    """Per-sequence tool gradients of the segmentation loss (None when invalid).

    Sequences sharing a concept share the loss, so the backward pass runs once
    per distinct concept.
    """
    by_concept: dict[int, NamedParams] = {}
    out: list[NamedParams | None] = []
    for prompt in space.prompts:
        if prompt is None:
            out.append(None)
            continue
        key = models.concept_index(prompt.color, prompt.size)
        if key not in by_concept:
            tape = GradientTape()
            objectives.prompt_seg_losses(tape, tool, space.scene, [prompt], space.scene.official_gt)
            by_concept[key] = ad.backward(tape)
        out.append(by_concept[key])
    return out


def _flatten(params: NamedParams) -> np.ndarray:
    return np.concatenate([arr.reshape(-1) for _, arr in params.items()])


def _layout(params: NamedParams) -> list[tuple[str, tuple, slice]]:
    layout = []
    offset = 0
    for name, arr in params.items():
        layout.append((name, arr.shape, slice(offset, offset + arr.size)))
        offset += arr.size
    return layout


def exact_bto_gradient(space: EnumeratedSpace, tool: NamedParams, beta: float) -> NamedParams:
    """Exact posterior-weighted surrogate gradient: -sum_o p*(o) dL(o)/dw.

    Invalid sequences keep posterior mass but contribute no loss gradient.
    """
    posterior = exact_posterior(space, beta)
    grads = sequence_seg_loss_grads(space, tool)
    total = NamedParams((name, np.zeros_like(arr)) for name, arr in tool.items())
    for p, g in zip(posterior, grads):
        if g is None:
            continue
        for name, arr in g.items():
            total[name] = total[name] + p * arr
    return NamedParams((name, -arr) for name, arr in total.items())


def bto_group_gradient(
    space: EnumeratedSpace, tool: NamedParams, beta: float, indices
) -> NamedParams:
    """Gradient of the bootstrap objective on one sampled group, via the tape.

    The graph is the one the bootstrap stage differentiates: shared per-concept
    seg losses weighted by the softmax tilt of the group's rewards.
    """
    tape = GradientTape()
    prompts = [space.prompts[idx] for idx in indices]
    seg_losses, _ = objectives.prompt_seg_losses(tape, tool, space.scene, prompts,
                                                 space.scene.official_gt)
    weights = objectives.bto_weights([space.rewards[idx] for idx in indices], beta)
    objectives.bto_objective_nodes(tape, weights, seg_losses)
    return ad.backward(tape)


@dataclass
class McGradientReport:
    mean: np.ndarray  # flattened, aligned with layout
    se: np.ndarray
    exact: np.ndarray
    layout: list
    groups: int

    @property
    def max_z(self) -> float:
        safe_se = np.where(self.se > 0, self.se, np.inf)
        return float(np.max(np.abs(self.mean - self.exact) / safe_se))

    def max_relative_error(self, floor: float = 1e-4) -> float:
        big = np.abs(self.exact) > floor
        if not np.any(big):
            return 0.0
        return float(np.max(np.abs(self.mean[big] - self.exact[big]) / np.abs(self.exact[big])))


def mc_bto_gradient(
    space: EnumeratedSpace,
    tool: NamedParams,
    beta: float,
    group_size: int,
    n_groups: int,
    gen: np.random.Generator,
) -> McGradientReport:
    """Average the per-group bootstrap gradient over sampled reference groups.

    Per group the estimator equals the tape gradient of the bootstrap objective
    scaled by -G: the self-normalized weighted sum of per-sequence gradients.
    Sharing cached per-sequence gradients makes 10^4 groups cheap.
    """
    grads = sequence_seg_loss_grads(space, tool)
    layout = _layout(tool)
    dim = sum(arr.size for _, arr in tool.items())
    grad_matrix = np.zeros((len(space), dim))
    for i, g in enumerate(grads):
        if g is not None:
            grad_matrix[i] = _flatten(g)
    cdf = np.cumsum(space.probs)
    cdf[-1] = max(cdf[-1], 1.0)
    acc = np.zeros(dim)
    acc_sq = np.zeros(dim)
    for _ in range(n_groups):
        u = gen.random(group_size)
        idx = np.searchsorted(cdf, u, side="right").clip(0, len(space) - 1)
        weights = objectives.bto_weights(space.rewards[idx], beta).weights
        sample = -(weights @ grad_matrix[idx])
        acc += sample
        acc_sq += sample * sample
    mean = acc / n_groups
    var = np.maximum(acc_sq / n_groups - mean * mean, 0.0) * (n_groups / max(n_groups - 1, 1))
    se = np.sqrt(var / n_groups)
    exact = _flatten(exact_bto_gradient(space, tool, beta))
    return McGradientReport(mean=mean, se=se, exact=exact, layout=layout, groups=n_groups)


@dataclass
class OptimalityReport:
    trials: int
    passes: int
    max_violation: float


def posterior_optimality_check(
    space: EnumeratedSpace, beta: float, trials: int, gen: np.random.Generator
) -> OptimalityReport:
    """The exact posterior must dominate Dirichlet-jittered alternatives."""
    if trials < 1:
        raise OracleError("trials must be at least 1")
    posterior = exact_posterior(space, beta)
    j_star = exact_klrl(space, posterior, beta)
    passes = 0
    max_violation = -np.inf
    for _ in range(trials):
        alpha = 50.0 * posterior + 0.05
        draw = gen.gamma(shape=alpha)
        q = draw / draw.sum()
        violation = exact_klrl(space, q, beta) - j_star
        max_violation = max(max_violation, violation)
        if violation <= 1e-12:
            passes += 1
    return OptimalityReport(trials=trials, passes=passes, max_violation=float(max_violation))


# ---------------------------------------------------------------------------
# packaged check suite (surfaced by the `oracle-check` CLI command)
# ---------------------------------------------------------------------------


def micro_instance(seed: int, colors: int = 4, tool_hidden: int = 8, embed_dim: int = 4):
    """A small randomized micro-grammar problem: scene, policy, and tool."""
    cfg = EnvConfig(
        width=6,
        height=6,
        colors=colors,
        min_objects=2,
        max_objects=3,
        min_side=3,
        max_side=3,
        small_area_threshold=9,
        grammar="micro",
    )
    grammar = micro_grammar(cfg)
    scene = generate_scene(seed, "target", cfg)
    policy = models.policy_init(seed, cfg, grammar, models.PolicyConfig(hidden=8))
    tool = models.tool_init(seed + 1, cfg, models.ToolConfig(hidden=tool_hidden, embed_dim=embed_dim))
    return cfg, grammar, scene, policy, tool


def _check(name: str, passed: bool, value: float, reference: float, tolerance: float) -> dict:
    return {
        "check_name": name,
        "pass": bool(passed),
        "value": float(value),
        "reference": float(reference),
        "tolerance": float(tolerance),
    }


def run_oracle_checks(quick: bool = True) -> list[dict]:
    """Deterministic oracle suite; every entry is independently recomputable."""
    from . import rng

    results = []
    n_identity = 10 if quick else 50
    n_optim_instances = 3 if quick else 10
    n_groups = 1500 if quick else 10_000
    rel_tol = 0.05 if quick else 0.02

    cfg, grammar, scene, policy, tool = micro_instance(seed=11)
    space = enumerate_space(policy, tool, scene, grammar)
    expected_count = int(np.prod(grammar.step_sizes))
    results.append(
        _check("sequence_count", len(space) == expected_count, len(space), expected_count, 0)
    )
    prob_err = abs(float(space.probs.sum()) - 1.0)
    results.append(_check("probability_sum", prob_err <= 1e-12, prob_err, 0.0, 1e-12))

    flat_space = dataclasses.replace(space, rewards=np.zeros_like(space.rewards))
    z_flat = exact_partition(flat_space, beta=1.0)
    results.append(_check("partition_at_zero_rewards", abs(z_flat - 1.0) <= 1e-12, z_flat, 1.0, 1e-12))

    worst_identity = 0.0
    for k in range(n_identity):
        _, g_k, scene_k, policy_k, tool_k = micro_instance(seed=100 + k)
        space_k = enumerate_space(policy_k, tool_k, scene_k, g_k)
        beta = float(10.0 ** rng.stream(7, "oracle-beta", k).uniform(-1.0, 0.7))
        posterior = exact_posterior(space_k, beta)
        identity_gap = abs(
            exact_klrl(space_k, posterior, beta) - beta * exact_log_partition(space_k, beta)
        )
        worst_identity = max(worst_identity, identity_gap)
    results.append(
        _check("klrl_posterior_identity", worst_identity <= 1e-10, worst_identity, 0.0, 1e-10)
    )

    worst_violation = -np.inf
    for k in range(n_optim_instances):
        _, g_k, scene_k, policy_k, tool_k = micro_instance(seed=300 + k)
        space_k = enumerate_space(policy_k, tool_k, scene_k, g_k)
        report = posterior_optimality_check(
            space_k, beta=0.5, trials=30 if quick else 100, gen=rng.stream(9, "oracle-optim", k)
        )
        worst_violation = max(worst_violation, report.max_violation)
    results.append(
        _check("posterior_optimality", worst_violation <= 1e-12, worst_violation, 0.0, 1e-12)
    )

    # a small instance keeps the per-coordinate 3-sigma family test meaningful
    _, g_mc, scene_mc, policy_mc, tool_mc = micro_instance(
        seed=501, colors=2, tool_hidden=4, embed_dim=2
    )
    space_mc = enumerate_space(policy_mc, tool_mc, scene_mc, g_mc)
    mc = mc_bto_gradient(space_mc, tool_mc, beta=1.0, group_size=8, n_groups=n_groups,
                         gen=rng.stream(13, "oracle-mc"))
    results.append(_check("bto_gradient_3se", mc.max_z <= 3.0, mc.max_z, 0.0, 3.0))
    rel = mc.max_relative_error()
    results.append(_check("bto_gradient_relative_error", rel <= rel_tol, rel, 0.0, rel_tol))
    big = np.abs(mc.exact) > 1e-4
    bias = float(np.max(np.abs(mc.mean[big] - mc.exact[big]) / np.abs(mc.exact[big]))) if np.any(big) else 0.0
    # informational: self-normalized weights are biased at finite G; measure, don't assert
    results.append(_check("bto_finite_group_bias", True, bias, 0.0, float("inf")))

    z_before = exact_partition(space, beta=1.0)
    min_delta = np.inf
    for k in range(0, len(space), max(1, len(space) // 6)):
        rewards = space.rewards.copy()
        rewards[k] += 0.1
        z_after = exact_partition(dataclasses.replace(space, rewards=rewards), beta=1.0)
        min_delta = min(min_delta, z_after - z_before)
    results.append(_check("partition_monotone", min_delta > 0.0, min_delta, 0.0, 0.0))

    gen = rng.stream(17, "oracle-big-group", 0)
    cdf = np.cumsum(space.probs)
    idx = np.searchsorted(cdf, gen.random(4096), side="right").clip(0, len(space) - 1)
    weights = objectives.bto_weights(space.rewards[idx], 1.0).weights
    weighted_reward = float(weights @ space.rewards[idx])
    posterior_reward = float(exact_posterior(space, 1.0) @ space.rewards)
    rel_gap = abs(weighted_reward - posterior_reward) / max(abs(posterior_reward), 1e-12)
    results.append(_check("weighted_reward_convergence", rel_gap <= 0.01, rel_gap, posterior_reward, 0.01))
    return results
