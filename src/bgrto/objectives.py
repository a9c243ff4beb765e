"""Rewards, losses, and the policy/tool optimization objectives.

The reward is 0.9 * mask IoU + 0.1 * format validity; an unparseable prompt
scores zero on both components but still occupies its slot in group statistics.
The differentiable surrogate for the reward is a BCE + soft-IoU segmentation
loss on raw logits.  Group-relative advantages, the non-negative per-token KL
estimator, the clipped policy surrogate, the importance-weighted tool term, and
the softmax-tilted bootstrap weights all live here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import models
from .autodiff import GradientTape, NamedParams, Tensor
from .env import GridScene, ToolPrompt

REWARD_IOU_WEIGHT = 0.9
REWARD_FORMAT_WEIGHT = 0.1
DEGENERATE_STD = 1e-8


class ObjectiveUsageError(ValueError):
    """Caller violated an objective precondition."""


@dataclass(frozen=True)
class RewardBreakdown:
    r_iou: float
    r_format: float
    total: float

    @staticmethod
    def invalid() -> "RewardBreakdown":
        return RewardBreakdown(0.0, 0.0, 0.0)


@dataclass(frozen=True)
class AdvantageSet:
    rewards: np.ndarray
    mean: float
    std: float
    advantages: np.ndarray
    degenerate: bool


@dataclass(frozen=True)
class BtoWeights:
    weights: np.ndarray
    beta: float


# ---------------------------------------------------------------------------
# masks and rewards (non-differentiable path)
# ---------------------------------------------------------------------------


def mask_iou(a: np.ndarray, b: np.ndarray) -> float:
    """Intersection over union; 1.0 when both masks are empty."""
    if a.shape != b.shape:
        raise ObjectiveUsageError(f"mask_iou: shapes {a.shape} and {b.shape} differ")
    a = a.astype(bool)
    b = b.astype(bool)
    union = int(np.count_nonzero(a | b))
    if union == 0:
        return 1.0
    return int(np.count_nonzero(a & b)) / union


def boxes_mask(height: int, width: int, boxes) -> np.ndarray:
    out = np.zeros((height, width), dtype=bool)
    for x1, y1, x2, y2 in boxes:
        out[y1 : y2 + 1, x1 : x2 + 1] = True
    return out


def spatial_filter(mask: np.ndarray, boxes) -> np.ndarray:
    """Zero every cell outside the union of the boxes; keep the rest."""
    return mask.astype(bool) & boxes_mask(mask.shape[0], mask.shape[1], boxes)


@dataclass(frozen=True)
class Scoring:
    """How a prompt's mask is cut and scored: one value per run and mode."""

    filter_enabled: bool = True
    threshold: float = 0.5
    iou_weight: float = REWARD_IOU_WEIGHT
    format_weight: float = REWARD_FORMAT_WEIGHT

    def __post_init__(self):
        if not 0.0 < self.threshold < 1.0:
            raise ObjectiveUsageError("threshold must lie in (0, 1)")


def scoring_for(train, mode: str | None) -> Scoring:
    """The scoring convention of a train config section under a run mode."""
    return Scoring(
        filter_enabled=mode != "grto_no_filter",
        threshold=train.threshold,
        iou_weight=train.reward_iou_weight,
        format_weight=train.reward_format_weight,
    )


def compute_reward(
    tool: NamedParams,
    scene: GridScene,
    prompts: list[ToolPrompt | None],
    scoring: Scoring,
    logits: dict[int, np.ndarray] | None = None,
) -> tuple[list[np.ndarray | None], list[RewardBreakdown]]:
    """Final masks and rewards of prompts on one scene (None marks an invalid prompt).

    The tool runs once per distinct concept; `logits` may carry values already
    computed under the same tool, keyed by concept index.  A valid prompt's
    mask is the thresholded logits, box-filtered when the convention says so;
    an invalid prompt gets no mask and a zero reward.
    """
    logits = {} if logits is None else dict(logits)
    # sigmoid(logit) > threshold  <=>  logit > logit(threshold); exact and stable
    cut = np.log(scoring.threshold / (1.0 - scoring.threshold))
    masks: list[np.ndarray | None] = []
    rewards: list[RewardBreakdown] = []
    for prompt in prompts:
        if prompt is None:
            masks.append(None)
            rewards.append(RewardBreakdown.invalid())
            continue
        key = models.concept_index(prompt.color, prompt.size)
        if key not in logits:
            logits[key] = models.tool_logits(tool, scene, prompt)
        mask = logits[key] > cut
        if scoring.filter_enabled:
            mask = spatial_filter(mask, prompt.boxes)
        r_iou = mask_iou(mask, scene.official_gt)
        total = scoring.iou_weight * r_iou + scoring.format_weight * 1.0
        masks.append(mask)
        rewards.append(RewardBreakdown(r_iou=r_iou, r_format=1.0, total=total))
    return masks, rewards


# ---------------------------------------------------------------------------
# differentiable segmentation loss
# ---------------------------------------------------------------------------


def seg_loss_nodes(logits: Tensor, gt: np.ndarray) -> Tensor:
    """BCE + soft-IoU against a binary ground-truth mask, from raw logits.

    BCE goes through the fused saturation-safe primitive so extreme logits
    stay finite.
    """
    if logits.dims != gt.shape:
        raise ObjectiveUsageError(f"seg_loss: logits dims {logits.dims} vs gt {gt.shape}")
    tape = logits.tape
    gt = gt.astype(np.float64)
    m = tape.constant(gt)
    bce = ad.bce_with_logits(logits, gt)
    soft = ad.sigmoid(logits)
    soft_inter = ad.mul(soft, m)
    numer = ad.sum_reduce(soft_inter)
    denom = ad.sum_reduce(ad.sub(ad.add(soft, m), soft_inter))
    soft_iou_loss = ad.sub(1.0, ad.div(numer, denom))
    return ad.add(bce, soft_iou_loss)


def prompt_seg_losses(
    tape: GradientTape,
    tool: NamedParams,
    scene: GridScene,
    prompts: list[ToolPrompt | None],
    gt: np.ndarray,
) -> tuple[list[Tensor | None], dict[int, np.ndarray]]:
    """Seg-loss node of each prompt against `gt` (None for an invalid prompt).

    Prompts naming the same concept share one tape forward and one loss node.
    Also returns those forwards' logit values by concept index, which
    `compute_reward` accepts in place of running the tool again.
    """
    by_concept: dict[int, Tensor] = {}
    logits: dict[int, np.ndarray] = {}
    losses: list[Tensor | None] = []
    for prompt in prompts:
        if prompt is None:
            losses.append(None)
            continue
        key = models.concept_index(prompt.color, prompt.size)
        if key not in by_concept:
            node = models.tool_forward_nodes(tape, tool, scene, prompt)
            logits[key] = node.data
            by_concept[key] = seg_loss_nodes(node, gt)
        losses.append(by_concept[key])
    return losses, logits


# ---------------------------------------------------------------------------
# group statistics
# ---------------------------------------------------------------------------


def compute_advantages(rewards) -> AdvantageSet:
    """Group-standardized rewards with a zero-variance guard.

    Uses the population standard deviation; groups with std below 1e-8 are
    flagged degenerate and get all-zero advantages.
    """
    r = np.asarray(rewards, dtype=np.float64)
    if r.ndim != 1 or r.size < 2:
        raise ObjectiveUsageError("compute_advantages requires at least two rewards")
    mean = float(r.mean())
    std = float(np.sqrt(np.mean((r - mean) ** 2)))
    if std < DEGENERATE_STD:
        return AdvantageSet(rewards=r, mean=mean, std=std, advantages=np.zeros_like(r), degenerate=True)
    return AdvantageSet(rewards=r, mean=mean, std=std, advantages=(r - mean) / std, degenerate=False)


def bto_weights(rewards, beta: float) -> BtoWeights:
    """Softmax-tilted weights exp(R_i/beta) / Z, computed with max-subtraction.

    The weights are plain values: the tilt and its normalizer are treated as
    non-differentiable wherever they multiply a loss.
    """
    if not beta > 0.0:
        raise ObjectiveUsageError("bto_weights: beta must be positive")
    r = np.asarray(rewards, dtype=np.float64) / beta
    shifted = r - r.max()
    e = np.exp(shifted)
    return BtoWeights(weights=e / e.sum(), beta=beta)


# ---------------------------------------------------------------------------
# objectives (tape builders)
# ---------------------------------------------------------------------------


def kl_estimate_nodes(lp_cur: list[Tensor], lp_ref: np.ndarray, l_max: int) -> Tensor:
    """Non-negative per-token KL estimate for one rollout, divided by L_max.

    Per token: exp(ref - cur) - (ref - cur) - 1, which is zero exactly when the
    current policy matches the reference on the sampled token.
    """
    if len(lp_cur) != len(lp_ref):
        raise ObjectiveUsageError("kl_estimate: per-token lists differ in length")
    total = None
    for node, ref in zip(lp_cur, lp_ref):
        d = ad.sub(float(ref), node)
        k = ad.sub(ad.sub(ad.exp(d), d), 1.0)
        total = k if total is None else ad.add(total, k)
    return ad.mul(total, 1.0 / l_max)


def kl_estimate(lp_current, lp_ref, l_max: int) -> float:
    """The same estimator on plain values, bit-equal to `kl_estimate_nodes`.

    `np.cumsum` adds the per-token terms left to right, as the tape does;
    `np.sum` would add them pairwise.
    """
    cur = np.asarray(lp_current, dtype=np.float64)
    ref = np.asarray(lp_ref, dtype=np.float64)
    if cur.shape != ref.shape:
        raise ObjectiveUsageError("kl_estimate: per-token lists differ in length")
    d = ref - cur
    return float(np.cumsum(np.exp(d) - d - 1.0)[-1] * (1.0 / l_max))


def grpo_objective_nodes(
    lp_cur: list[list[Tensor]],
    lp_old: list[np.ndarray],
    lp_ref: list[np.ndarray],
    advantages: np.ndarray,
    beta_kl: float,
    eps_clip: float,
    l_max: int,
) -> Tensor:
    """Clipped group-relative surrogate minus the KL penalty (to be maximized).

    Summands are divided by the fixed maximum length rather than the rollout
    length, avoiding length bias; with the fixed grammar every rollout has
    exactly l_max tokens anyway.
    """
    group_size = len(lp_cur)
    if not group_size or group_size != len(lp_old) or group_size != len(lp_ref):
        raise ObjectiveUsageError("grpo_objective: group lists disagree")
    surrogate = None
    kl_total = None
    for i in range(group_size):
        adv = float(advantages[i])
        rollout = None
        for node, old in zip(lp_cur[i], lp_old[i]):
            ratio = ad.exp(ad.sub(node, float(old)))
            unclipped = ad.mul(ratio, adv)
            clipped = ad.mul(ad.clamp(ratio, 1.0 - eps_clip, 1.0 + eps_clip), adv)
            term = ad.neg(ad.maximum(ad.neg(unclipped), ad.neg(clipped)))  # min(a, b)
            rollout = term if rollout is None else ad.add(rollout, term)
        rollout = ad.mul(rollout, 1.0 / l_max)
        surrogate = rollout if surrogate is None else ad.add(surrogate, rollout)
        kl_i = kl_estimate_nodes(lp_cur[i], lp_ref[i], l_max)
        kl_total = kl_i if kl_total is None else ad.add(kl_total, kl_i)
    surrogate = ad.mul(surrogate, 1.0 / group_size)
    kl_mean = ad.mul(kl_total, 1.0 / group_size)
    return ad.sub(surrogate, ad.mul(kl_mean, beta_kl))


def grto_tool_term_nodes(
    tape: GradientTape,
    lp_cur: list[list[Tensor]],
    lp_old: list[np.ndarray],
    seg_losses: list[Tensor | None],
) -> Tensor:
    """Importance-weighted tool loss, averaged across the valid rollouts.

    The per-rollout sequence ratio is detached, so the term carries gradients
    only into the tool; it is zero (with zero gradients) when nothing parsed.
    """
    if len(lp_cur) != len(seg_losses):
        raise ObjectiveUsageError("grto_tool_term: group lists disagree")
    valid_terms = []
    for i, loss in enumerate(seg_losses):
        if loss is None:
            continue
        log_ratio = None
        for node, old in zip(lp_cur[i], lp_old[i]):
            d = ad.sub(node, float(old))
            log_ratio = d if log_ratio is None else ad.add(log_ratio, d)
        ratio_prod = ad.stop_gradient(ad.exp(log_ratio))
        valid_terms.append(ad.mul(ratio_prod, loss))
    if not valid_terms:
        return ad.mul(tape.constant(np.float64(0.0)), 0.0)
    total = valid_terms[0]
    for term in valid_terms[1:]:
        total = ad.add(total, term)
    return ad.mul(total, 1.0 / len(valid_terms))


def bto_objective_nodes(
    tape: GradientTape,
    weights: BtoWeights,
    seg_losses: list[Tensor | None],
) -> Tensor:
    """Bootstrap objective -(1/G) sum_i w_i * L_i (to be maximized).

    Invalid rollouts keep their weight mass in the normalizer but contribute no
    loss term, mirroring the valid-only loss convention.
    """
    group_size = len(seg_losses)
    if weights.weights.shape != (group_size,):
        raise ObjectiveUsageError("bto_objective: weights and losses disagree in length")
    total = None
    for w, loss in zip(weights.weights, seg_losses):
        if loss is None:
            continue
        term = ad.mul(loss, float(w))
        total = term if total is None else ad.add(total, term)
    if total is None:
        return ad.mul(tape.constant(np.float64(0.0)), 0.0)
    return ad.neg(ad.mul(total, 1.0 / group_size))
