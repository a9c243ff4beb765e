"""Fast tests of the benchmark itself, on the tiny configuration of acceptance
criterion 12.  Run from the repository root:

    python -m pytest perfbench -q
"""

import contextlib
import dataclasses
import io
import json
import math
import shutil
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402

run.import_program()

import reference  # noqa: E402
from bgrto import cli, config, rng  # noqa: E402
from bgrto.checkpoint import load_checkpoint, save_checkpoint  # noqa: E402
from bgrto.env import generate_scene  # noqa: E402

# Criterion 12's configuration without its train.mode, which the workload sets.
TINY = {
    "env": {"width": 8, "height": 8, "colors": 2, "min_objects": 1, "max_objects": 2,
            "min_side": 3, "max_side": 4, "small_area_threshold": 12},
    "policy": {"hidden": 8},
    "tool": {"hidden": 5, "embed_dim": 3},
    "train": {"scenes_per_epoch": 3, "epochs": 2, "group_size": 4},
    "bto": {"buffer_scenes": 4, "epochs": 1},
    "pretrain": {"scenes": 8, "epochs": 2},
    "warmup": {"demos": 64, "epochs": 8, "lr": 3e-3},
    "validation": {"scenes": 4},
}
SEED = 3
HELDOUT = 200


def _cli(workdir, cfg_path, *argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(list(argv) + ["--workdir", str(workdir), "--config", str(cfg_path)])
    assert code == 0
    return json.loads(out.getvalue().strip().splitlines()[-1])


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """A tiny grto run, its eval report on held-out scenes, and those scenes."""
    workdir = tmp_path_factory.mktemp("grto")
    cfg = run.run_config(run.WORKLOADS["grto"], SEED, TINY)
    cfg_path = workdir / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    for stage in ("pretrain-tool", "warmup-policy", "train"):
        _cli(workdir, cfg_path, stage)
    report = _cli(workdir, cfg_path, "eval", "--scenes", str(HELDOUT))
    rc = config.from_dict(cfg)
    scenes = [generate_scene(rng.derive_seed(SEED, "eval-scene", i), "target", rc.env)
              for i in range(HELDOUT)]
    ckpt = workdir / "grto" / str(SEED) / "selected.ckpt"
    return rc, report, scenes, ckpt


def _check(rc, report, scenes, ckpt):
    t = rc.train
    return reference.check_eval_report(report, str(ckpt), scenes, t.threshold,
                                       t.reward_iou_weight, t.reward_format_weight)


def test_reference_scorer_agrees_with_bgrto_eval(trained):
    rc, report, scenes, ckpt = trained
    assert _check(rc, report, scenes, ckpt) == []
    ref = reference.score(str(ckpt), scenes, rc.train.threshold,
                          rc.train.reward_iou_weight, rc.train.reward_format_weight)
    assert ref["ambiguous"] == 0
    for key in ("giou", "ciou", "mean_reward", "validity_rate"):
        assert ref[key] == pytest.approx(report[key], abs=1e-12)


def test_check_fails_on_a_perturbed_tool_weight(trained, tmp_path):
    rc, report, scenes, ckpt = trained
    original = load_checkpoint(str(ckpt))
    params = original.params.copy()
    bias = params["tool/b3"].copy()
    bias[0] += 50.0  # every logit above the cut: each mask fills its box
    params["tool/b3"] = bias
    perturbed = tmp_path / "perturbed.ckpt"
    save_checkpoint(str(perturbed), original.metadata, params)
    problems = _check(rc, report, scenes, perturbed)
    assert any("giou" in p for p in problems)


def test_check_fails_on_a_policy_change(tmp_path):
    workdir = tmp_path
    cfg_path = workdir / "config.json"
    cfg_path.write_text(json.dumps(run.run_config(run.WORKLOADS["grto"], SEED, TINY)))
    _cli(workdir, cfg_path, "warmup-policy")
    before = load_checkpoint(str(workdir / "policy0.ckpt"))
    params = before.params.copy()
    nudged = params["policy/trunk/b2"].copy()
    nudged[0] = math.nextafter(nudged[0], math.inf)
    params["policy/trunk/b2"] = nudged
    save_checkpoint(str(workdir / "nudged.ckpt"), before.metadata, params)
    assert reference.check_policy_untouched(str(workdir / "policy0.ckpt"),
                                            str(workdir / "policy0.ckpt")) == []
    assert reference.check_policy_untouched(str(workdir / "policy0.ckpt"),
                                            str(workdir / "nudged.ckpt")) != []


def test_traced_call_counts_match_the_config(tmp_path):
    workload = dataclasses.replace(run.WORKLOADS["bootstrap"], heldout_scenes=20)
    result, details = run.run_workload(workload, SEED, 0.0, True, tmp_path / "wd", TINY)
    shutil.rmtree(tmp_path / "wd")
    rc = config.from_dict(run.run_config(workload, SEED, TINY))
    t, b = rc.train, rc.bto
    pretrain = rc.pretrain.scenes * rc.pretrain.epochs
    warmup = rc.warmup.demos * rc.warmup.epochs
    groups = b.buffer_scenes * b.buffer_passes
    bto = b.epochs * groups
    joint = t.epochs * math.ceil(t.scenes_per_epoch / t.groups_per_step)
    # set-up, one traced round of `train --mode b_grto` and the `eval` after it
    expected = {
        "optim.adamw_step.calls": pretrain + warmup + bto + 2 * joint,
        "autodiff.backward.calls": pretrain + warmup + bto + joint,
        "schedules.train_step_grto.calls": joint,
        "rollout.sample_group.calls": t.epochs * t.scenes_per_epoch,
        "models.policy_sample.calls": groups + t.epochs * t.scenes_per_epoch,
        "objectives.kl_estimate.calls": t.epochs * t.scenes_per_epoch * t.group_size,
        "checkpoint.save_checkpoint.calls": 2 + t.epochs + 1,
        "checkpoint.load_checkpoint.calls": 1 + 2 + 1,
        "env.generate_scene.calls": (rc.pretrain.scenes + rc.warmup.demos + groups
                                     + rc.validation.scenes + groups
                                     + t.epochs * t.scenes_per_epoch
                                     + workload.heldout_scenes),
        "rollout.build_replay_buffer.calls": 1,
        "rollout.load_buffer.calls": 1,
        "schedules.run_bto_stage.calls": 1,
    }
    trace = details["trace"]
    assert {k: trace[k] for k in expected} == expected
    metrics = result["metrics"]
    assert 0.0 < metrics["objectives.scoring.distinct_per_forward"]["value"] <= 1.0
    assert metrics["autodiff.tape_nodes.total"]["value"] > 0
    assert metrics["checkpoint.bytes_written"]["value"] > 0
    assert result["failed"] == 0
    for target, sites in details["binding_sites"].items():
        assert target in sites


def test_benchmark_json_names_every_printed_metric():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert set(run.WORKLOADS) == {w["name"] for w in spec["workloads"]}
    assert set(run.END_TO_END_UNITS) == {m["name"] for m in spec["end_to_end"]}
    for m in spec["end_to_end"]:
        assert run.END_TO_END_UNITS[m["name"]] == m["unit"]
    from spans import Tracer

    summary = dict(Tracer().summary(), **{"trace.overhead_s": 0.0})
    layer = run.per_layer_metrics(summary)
    assert {k: u for k, (_, u) in layer.items()} == {m["name"]: m["unit"] for m in spec["per_layer"]}
