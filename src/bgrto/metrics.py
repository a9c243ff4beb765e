"""Evaluation metrics (gIoU / cIoU) and the structured metrics CSV sink."""

from __future__ import annotations

import io
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from . import objectives
from .autodiff import NamedParams
from .env import GridScene, ToolPrompt

CSV_COLUMNS = (
    "step",
    "epoch",
    "mode",
    "mean_reward",
    "validity_rate",
    "giou",
    "ciou",
    "policy_obj",
    "tool_loss",
    "kl",
    "grad_norm_policy",
    "grad_norm_tool",
    "wall_ms",
    "seed",
)


class MetricsUsageError(ValueError):
    pass


@dataclass
class EvalReport:
    per_sample_iou: list[float]
    giou: float
    ciou: float
    mean_reward: float
    validity_rate: float

    def to_json_dict(self) -> dict:
        return {
            "giou": self.giou,
            "ciou": self.ciou,
            "mean_reward": self.mean_reward,
            "validity_rate": self.validity_rate,
            "samples": len(self.per_sample_iou),
        }


def evaluate(
    tool: NamedParams,
    scenes: Iterable[GridScene],
    prompts: Iterable[ToolPrompt | None],
    scoring: objectives.Scoring,
) -> EvalReport:
    """Score each scene's prompt (None when it did not parse) under `scoring`.

    `prompts` holds one prompt per scene, in order.  Both may be generators:
    each scene is scored as it arrives and need not outlive its turn.

    Invalid prompts contribute IoU 0 (an empty prediction).  gIoU is the mean
    of per-sample IoUs; cIoU is cumulative intersection over cumulative union,
    with both-empty samples excluded from the sums (they score 1 in gIoU).
    """
    ious: list[float] = []
    inter_sum = 0
    union_sum = 0
    rewards = []
    valid_count = 0
    for scene, prompt in zip(scenes, prompts, strict=True):
        (mask,), (reward,) = objectives.compute_reward(tool, scene, [prompt], scoring)
        rewards.append(reward.total)
        gt = scene.official_gt.astype(bool)
        if mask is None:
            inter = 0
            union = int(np.count_nonzero(gt))
        else:
            valid_count += 1
            inter = int(np.count_nonzero(mask & gt))
            union = int(np.count_nonzero(mask | gt))
        if union == 0:
            ious.append(1.0)  # both empty: perfect by convention, excluded from cIoU
            continue
        ious.append(inter / union)
        inter_sum += inter
        union_sum += union
    if not ious:
        raise MetricsUsageError("evaluate requires at least one scene")
    ciou = inter_sum / union_sum if union_sum > 0 else 1.0
    return EvalReport(
        per_sample_iou=ious,
        giou=float(np.mean(ious)),
        ciou=ciou,
        mean_reward=float(np.mean(rewards)),
        validity_rate=valid_count / len(ious),
    )


def _fmt(value: float) -> str:
    return "%.17g" % float(value)


@dataclass
class StepStats:
    """What one optimizer step reports; terms a step does not have stay 0.0."""

    policy_obj: float = 0.0
    tool_loss: float = 0.0
    kl: float = 0.0
    grad_norm_policy: float = 0.0
    grad_norm_tool: float = 0.0


class MetricsWriter:
    """Append-only CSV sink: header once, 17-significant-digit floats, LF endings.

    Every row carries the run's `seed`.  An untimed writer (`timed=False`, as
    runs use unless `metrics.deterministic_timing` is off) writes 0.0 for
    `wall_ms`, so reruns stay byte-identical.
    """

    def __init__(self, path: str, seed: int, timed: bool):
        self.path = path
        self.seed = seed
        self.timed = timed
        self._fh: io.TextIOBase = open(path, "w", encoding="utf-8", newline="\n")
        self._fh.write(",".join(CSV_COLUMNS) + "\n")

    def emit_row(
        self,
        step: int,
        epoch: int,
        mode: str,
        report: EvalReport,
        stats: StepStats,
        wall_ms: float,
    ) -> None:
        if self._fh.closed:
            raise MetricsUsageError("metrics sink is closed")
        row = ",".join(
            [
                str(int(step)),
                str(int(epoch)),
                mode,
                _fmt(report.mean_reward),
                _fmt(report.validity_rate),
                _fmt(report.giou),
                _fmt(report.ciou),
                _fmt(stats.policy_obj),
                _fmt(stats.tool_loss),
                _fmt(stats.kl),
                _fmt(stats.grad_norm_policy),
                _fmt(stats.grad_norm_tool),
                _fmt(wall_ms if self.timed else 0.0),
                str(int(self.seed)),
            ]
        )
        offset = self._fh.tell()
        try:
            self._fh.write(row + "\n")
        except OSError:
            # roll back the partial row so the file stays parseable
            self._fh.seek(offset)
            self._fh.truncate()
            raise

    def flush(self) -> None:
        self._fh.flush()

    def close(self) -> None:
        if not self._fh.closed:
            self._fh.flush()
            self._fh.close()

    def __enter__(self) -> "MetricsWriter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
