"""gIoU/cIoU evaluation and the metrics CSV sink."""

import itertools

import numpy as np
import pytest

from bgrto import metrics, models, rng
from bgrto.env import EnvConfig, generate_scene, parse_action_tokens, standard_grammar
from bgrto.metrics import CSV_COLUMNS, EvalReport, MetricsUsageError, MetricsWriter, evaluate
from bgrto.models import PolicyConfig, ToolConfig, greedy_prompts
from bgrto.objectives import Scoring

CFG = EnvConfig(width=8, height=8, colors=2, min_objects=1, max_objects=2,
                min_side=3, max_side=4, small_area_threshold=12)
GRAMMAR = standard_grammar(CFG)


def fake_report():
    return EvalReport(per_sample_iou=[0.5], giou=0.5, ciou=0.5, mean_reward=0.55,
                      validity_rate=1.0)


class CountingReport:
    """Fixture-style cIoU/gIoU cross-check from explicit counts."""

    @staticmethod
    def from_counts(counts):
        inter = sum(i for i, _u in counts)
        union = sum(u for _i, u in counts)
        per_sample = [i / u for i, u in counts]
        return float(np.mean(per_sample)), inter / union


def test_giou_is_mean_of_per_sample():
    giou, _ = CountingReport.from_counts([(1, 2), (4, 4)])
    assert giou == pytest.approx((0.5 + 1.0) / 2)


def test_ciou_cumulative_formula():
    # sample1 (I=2, U=4), sample2 (I=4, U=4) -> 6/8
    _, ciou = CountingReport.from_counts([(2, 4), (4, 4)])
    assert ciou == pytest.approx(0.75)


def test_evaluate_end_to_end_consistency():
    policy = models.policy_init(0, CFG, GRAMMAR, PolicyConfig(hidden=8))
    tool = models.tool_init(1, CFG, ToolConfig(hidden=5, embed_dim=3))
    scenes = [generate_scene(rng.derive_seed(1, "eval", i), "target", CFG) for i in range(6)]
    report = evaluate(tool, scenes, greedy_prompts(policy, scenes, GRAMMAR), Scoring())
    assert len(report.per_sample_iou) == 6
    assert report.giou == pytest.approx(float(np.mean(report.per_sample_iou)))
    assert 0.0 <= report.giou <= 1.0
    assert 0.0 <= report.ciou <= 1.0
    assert 0.0 <= report.validity_rate <= 1.0


def test_evaluate_single_sample_metrics_agree():
    policy = models.policy_init(2, CFG, GRAMMAR, PolicyConfig(hidden=8))
    tool = models.tool_init(3, CFG, ToolConfig(hidden=5, embed_dim=3))
    scene = generate_scene(rng.derive_seed(2, "single", 0), "target", CFG)
    report = evaluate(tool, [scene], greedy_prompts(policy, [scene], GRAMMAR), Scoring())
    assert report.giou == pytest.approx(report.ciou)
    assert report.giou == pytest.approx(report.per_sample_iou[0])


def test_evaluate_order_invariance():
    policy = models.policy_init(4, CFG, GRAMMAR, PolicyConfig(hidden=8))
    tool = models.tool_init(5, CFG, ToolConfig(hidden=5, embed_dim=3))
    scenes = [generate_scene(rng.derive_seed(3, "order", i), "target", CFG) for i in range(5)]
    fwd = evaluate(tool, scenes, greedy_prompts(policy, scenes, GRAMMAR), Scoring())
    rev = evaluate(tool, scenes[::-1], greedy_prompts(policy, scenes[::-1], GRAMMAR),
                   Scoring())
    assert fwd.giou == pytest.approx(rev.giou)
    assert fwd.ciou == pytest.approx(rev.ciou)
    assert fwd.mean_reward == pytest.approx(rev.mean_reward)


def test_evaluate_cached_prompts_match_fresh_decoding():
    policy = models.policy_init(6, CFG, GRAMMAR, PolicyConfig(hidden=8))
    scenes = [generate_scene(rng.derive_seed(4, "cached", i), "target", CFG) for i in range(8)]
    cached = list(greedy_prompts(policy, scenes, GRAMMAR))
    for seed in (7, 8):
        tool = models.tool_init(seed, CFG, ToolConfig(hidden=5, embed_dim=3))
        fresh = [parse_action_tokens(models.greedy_decode(policy, [scene], GRAMMAR)[0], GRAMMAR)
                 for scene in scenes]
        assert evaluate(tool, scenes, cached, Scoring()) == evaluate(tool, scenes, fresh, Scoring())
    with pytest.raises(ValueError):
        evaluate(tool, scenes, cached[:-1], Scoring())


def test_evaluate_generator_of_scenes_matches_list():
    policy = models.policy_init(6, CFG, GRAMMAR, PolicyConfig(hidden=8))
    tool = models.tool_init(7, CFG, ToolConfig(hidden=5, embed_dim=3))
    seeds = [rng.derive_seed(5, "streamed", i) for i in range(models.DECODE_CHUNK + 3)]
    scenes = [generate_scene(seed, "target", CFG) for seed in seeds]
    listed = evaluate(tool, scenes, list(greedy_prompts(policy, scenes, GRAMMAR)), Scoring())
    streamed_scenes, decode_scenes = itertools.tee(
        generate_scene(seed, "target", CFG) for seed in seeds
    )
    streamed = evaluate(tool, streamed_scenes, greedy_prompts(policy, decode_scenes, GRAMMAR),
                        Scoring())
    assert streamed == listed
    with pytest.raises(MetricsUsageError):
        evaluate(tool, iter([]), iter([]), Scoring())


def test_evaluate_equal_unions_make_metrics_agree():
    # when every sample has the same union size, cIoU equals gIoU
    counts = [(1, 5), (3, 5), (5, 5)]
    giou, ciou = CountingReport.from_counts(counts)
    assert giou == pytest.approx(ciou)


def test_evaluate_empty_scene_list_rejected():
    policy = models.policy_init(0, CFG, GRAMMAR, PolicyConfig(hidden=8))
    tool = models.tool_init(1, CFG, ToolConfig(hidden=5, embed_dim=3))
    with pytest.raises(MetricsUsageError):
        evaluate(tool, [], [], Scoring())


def test_csv_header_and_row_shape(tmp_path):
    path = str(tmp_path / "metrics.csv")
    with MetricsWriter(path) as writer:
        for step in range(6):
            writer.emit_row(step=step, epoch=step // 3 + 1, mode="grpo", report=fake_report(),
                            policy_obj=0.1, tool_loss=0.2, kl=0.0, grad_norm_policy=1.0,
                            grad_norm_tool=0.0, wall_ms=0.0, seed=7)
        writer.flush()
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().split("\n")
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert sum(1 for line in lines if line.startswith("0,") or line.startswith("1,")) >= 1
    # 2 epochs x 3 steps -> 6 rows + header + trailing newline
    assert len([line for line in lines if line]) == 7


def test_csv_seventeen_digit_floats(tmp_path):
    path = str(tmp_path / "metrics.csv")
    report = EvalReport(per_sample_iou=[1 / 3], giou=1 / 3, ciou=2 / 3, mean_reward=0.1,
                        validity_rate=1.0)
    with MetricsWriter(path) as writer:
        writer.emit_row(0, 1, "grpo", report, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0)
    with open(path, encoding="utf-8") as fh:
        row = fh.read().split("\n")[1].split(",")
    giou_field = row[CSV_COLUMNS.index("giou")]
    assert float(giou_field) == 1 / 3
    assert len(giou_field.replace("0.", "")) >= 16


def test_csv_rerun_byte_identical(tmp_path):
    def write_once(path):
        with MetricsWriter(path) as writer:
            for step in range(4):
                writer.emit_row(step, 1, "grto", fake_report(), 0.5, 0.25, 0.001,
                                1.5, 0.5, 0.0, 3)
        with open(path, "rb") as fh:
            return fh.read()

    a = write_once(str(tmp_path / "a.csv"))
    b = write_once(str(tmp_path / "b.csv"))
    assert a == b


def test_csv_closed_sink_rejected(tmp_path):
    writer = MetricsWriter(str(tmp_path / "m.csv"))
    writer.close()
    with pytest.raises(MetricsUsageError):
        writer.emit_row(0, 1, "grpo", fake_report(), 0, 0, 0, 0, 0, 0, 0)


def test_lf_line_endings(tmp_path):
    path = str(tmp_path / "m.csv")
    with MetricsWriter(path) as writer:
        writer.emit_row(0, 1, "grpo", fake_report(), 0, 0, 0, 0, 0, 0, 0)
    with open(path, "rb") as fh:
        blob = fh.read()
    assert b"\r" not in blob
    assert blob.endswith(b"\n")
