"""CLI pipeline: command dispatch, artifacts, prerequisites, and error surfaces."""

import csv
import json
import os
import signal
import subprocess
import sys

import pytest

from bgrto import cli

TINY_CONFIG = {
    "env": {"width": 8, "height": 8, "colors": 2, "min_objects": 1, "max_objects": 2,
            "min_side": 3, "max_side": 4, "small_area_threshold": 12},
    "policy": {"hidden": 8},
    "tool": {"hidden": 5, "embed_dim": 3},
    "train": {"scenes_per_epoch": 3, "epochs": 2, "group_size": 4},
    "bto": {"buffer_scenes": 4, "epochs": 2},
    "pretrain": {"scenes": 8, "epochs": 2},
    "warmup": {"demos": 96, "epochs": 12, "lr": 3e-3},
    "validation": {"scenes": 4},
}


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    base = tmp_path_factory.mktemp("cliwork")
    cfg_path = base / "config.json"
    cfg_path.write_text(json.dumps(TINY_CONFIG))
    return str(base), str(cfg_path)


def run_cli(capsys, args, expect=0):
    code = cli.main(args)
    captured = capsys.readouterr()
    assert code == expect, captured.err or captured.out
    return captured


def test_cli_missing_workdir_is_config_error(capsys, monkeypatch):
    monkeypatch.delenv("GRTO_WORKDIR", raising=False)
    captured = run_cli(capsys, ["pretrain-tool"], expect=2)
    err = json.loads(captured.err)
    assert err["error"] == "config"


def test_cli_bad_config_reports_problems(capsys, workdir, tmp_path):
    base, _cfg = workdir
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"train": {"beta_kl": -1}, "bogus": True}))
    captured = run_cli(capsys, ["train", "--workdir", base, "--config", str(bad)], expect=2)
    err = json.loads(captured.err)
    assert err["error"] == "config"
    assert any("beta_kl" in p for p in err["problems"])
    assert any("bogus" in p for p in err["problems"])


def test_cli_missing_config_file_is_config_error(capsys, workdir, tmp_path):
    base, _cfg = workdir
    missing = str(tmp_path / "nonexistent.json")
    captured = run_cli(capsys, ["pretrain-tool", "--workdir", base, "--config", missing],
                       expect=2)
    err = json.loads(captured.err)
    assert err["error"] == "config"
    assert any(missing in p for p in err["problems"])


def test_cli_train_before_prereqs_names_command(capsys, workdir, tmp_path):
    _base, cfg = workdir
    empty = tmp_path / "empty"
    captured = run_cli(capsys, ["train", "--workdir", str(empty), "--config", cfg], expect=3)
    err = json.loads(captured.err)
    assert err["error"] == "prerequisite"
    assert "warmup-policy" in err["message"]


def test_cli_pipeline_end_to_end(capsys, workdir):
    base, cfg = workdir
    out = run_cli(capsys, ["pretrain-tool", "--workdir", base, "--config", cfg]).out
    assert json.loads(out)["artifact"].endswith("tool0.ckpt")
    out = run_cli(capsys, ["warmup-policy", "--workdir", base, "--config", cfg]).out
    assert os.path.exists(os.path.join(base, "policy0.ckpt"))
    out = run_cli(capsys, ["build-buffer", "--workdir", base, "--config", cfg]).out
    assert json.loads(out)["groups"] == 4
    out = run_cli(capsys, ["train", "--mode", "grpo", "--workdir", base, "--config", cfg]).out
    train_info = json.loads(out)
    assert os.path.exists(train_info["selected"])
    assert os.path.exists(train_info["metrics_csv"])
    out = run_cli(capsys, ["eval", "--workdir", base, "--config", cfg,
                           "--set", "train.mode=grpo"]).out
    report = json.loads(out)
    assert set(report) == {"giou", "ciou", "mean_reward", "validity_rate", "samples"}
    assert 0.0 <= report["giou"] <= 1.0


def test_cli_eval_honours_reward_weights(capsys, workdir):
    base, cfg = workdir
    argv = ["eval", "--workdir", base, "--config", cfg, "--set", "train.mode=grpo"]
    default = json.loads(run_cli(capsys, argv).out)
    half = json.loads(run_cli(capsys, argv + ["--set", "train.reward_iou_weight=0.5",
                                              "--set", "train.reward_format_weight=0.5"]).out)
    # a valid prompt scores iou_weight * IoU + format_weight; an invalid one scores 0 at IoU 0
    for report, (iou_w, fmt_w) in ((default, (0.9, 0.1)), (half, (0.5, 0.5))):
        expected = iou_w * report["giou"] + fmt_w * report["validity_rate"]
        assert report["mean_reward"] == pytest.approx(expected, abs=1e-12)
    assert half["giou"] == default["giou"]
    assert half["mean_reward"] != default["mean_reward"]


@pytest.mark.parametrize("scenes", ["0", "-3"])
def test_cli_eval_refuses_non_positive_scene_count(capsys, workdir, scenes):
    base, cfg = workdir
    captured = run_cli(capsys, ["eval", "--workdir", base, "--config", cfg,
                                "--set", "train.mode=grpo", "--scenes", scenes], expect=2)
    err = json.loads(captured.err)
    assert err["error"] == "config"
    assert any("--scenes" in p for p in err["problems"])


def test_cli_eval_streams_chunks_like_a_scene_list(capsys, workdir):
    from bgrto import config, metrics, models, objectives, rng
    from bgrto.checkpoint import load_checkpoint, split_params
    from bgrto.env import generate_scene, grammar_for

    base, cfg = workdir
    count = models.DECODE_CHUNK + 1
    report = json.loads(run_cli(capsys, ["eval", "--workdir", base, "--config", cfg,
                                         "--set", "train.mode=grpo",
                                         "--scenes", str(count)]).out)
    rc = config.from_dict(TINY_CONFIG)
    ckpt = load_checkpoint(os.path.join(base, "grpo", str(rc.seed), "selected.ckpt"))
    grammar = grammar_for(rc.env)
    scenes = [generate_scene(rng.derive_seed(rc.seed, "eval-scene", i), rc.domain, rc.env)
              for i in range(count)]
    policy = split_params(ckpt.params, "policy/")
    prompts = [next(models.greedy_prompts(policy, [scene], grammar)) for scene in scenes]
    expected = metrics.evaluate(split_params(ckpt.params, "tool/"), scenes, prompts,
                                objectives.scoring_for(rc.train, "grpo"))
    assert report == expected.to_json_dict()


def test_cli_bootstrapped_mode_requires_buffer(capsys, workdir, tmp_path):
    import shutil

    base, cfg = workdir
    partial = tmp_path / "partial"
    partial.mkdir()
    for name in ("policy0.ckpt", "tool0.ckpt"):
        shutil.copyfile(os.path.join(base, name), str(partial / name))
    captured = run_cli(capsys, ["train", "--mode", "b_grto", "--workdir", str(partial),
                                "--config", cfg], expect=3)
    err = json.loads(captured.err)
    assert "build-buffer" in err["message"]


def test_cli_train_all_bootstrapped_modes(capsys, workdir):
    base, cfg = workdir
    for mode in ("b_grpo", "reverse_seq"):
        out = run_cli(capsys, ["train", "--mode", mode, "--workdir", base, "--config", cfg]).out
        assert os.path.exists(json.loads(out)["selected"])


def test_cli_reverse_seq_tool_rows_honour_timing_flag(capsys, workdir):
    base, cfg = workdir
    out = run_cli(capsys, ["train", "--mode", "reverse_seq", "--workdir", base, "--config", cfg,
                           "--set", "metrics.deterministic_timing=false"]).out
    with open(json.loads(out)["metrics_csv"], encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    tool_rows = [row for row in rows if row["mode"] == "reverse_seq_tool"]
    assert tool_rows and any(float(row["wall_ms"]) > 0.0 for row in tool_rows)


def test_cli_train_does_not_mutate_inputs(capsys, workdir):
    import hashlib

    base, cfg = workdir

    def digest(name):
        with open(os.path.join(base, name), "rb") as fh:
            return hashlib.sha256(fh.read()).hexdigest()

    before = {name: digest(name) for name in ("policy0.ckpt", "tool0.ckpt", "buffer.jsonl")}
    run_cli(capsys, ["train", "--mode", "b_grto", "--workdir", base, "--config", cfg])
    after = {name: digest(name) for name in before}
    assert before == after


def test_cli_set_overrides_apply(capsys, workdir):
    base, cfg = workdir
    out = run_cli(capsys, ["train", "--mode", "grpo", "--workdir", base, "--config", cfg,
                           "--set", "seed=5", "--set", "train.epochs=1"]).out
    info = json.loads(out)
    assert "/grpo/5/" in info["selected"]


def test_cli_eval_missing_checkpoint(capsys, workdir, tmp_path):
    _base, cfg = workdir
    captured = run_cli(capsys, ["eval", "--workdir", str(tmp_path), "--config", cfg], expect=3)
    assert "train" in json.loads(captured.err)["message"]


def test_cli_lock_prevents_concurrent_writers(capsys, workdir):
    base, cfg = workdir
    with cli.WorkdirLock(base):
        captured = run_cli(capsys, ["pretrain-tool", "--workdir", base, "--config", cfg],
                           expect=7)
        assert json.loads(captured.err)["error"] == "locked"
    assert not os.path.exists(os.path.join(base, ".lock"))


def test_cli_lock_of_a_killed_command_is_released(capsys, tmp_path):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(TINY_CONFIG))
    holder = (
        "import sys, time\n"
        "from bgrto.cli import WorkdirLock\n"
        "with WorkdirLock(sys.argv[1]):\n"
        "    print('held', flush=True)\n"
        "    time.sleep(120)\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    child = subprocess.Popen([sys.executable, "-c", holder, str(tmp_path)],
                             stdout=subprocess.PIPE, text=True, env=env)
    try:
        assert child.stdout.readline().strip() == "held"
        args = ["pretrain-tool", "--workdir", str(tmp_path), "--config", str(cfg)]
        run_cli(capsys, args, expect=7)
        child.send_signal(signal.SIGKILL)
        assert child.wait(timeout=30) == -signal.SIGKILL
    finally:
        child.kill()
        child.wait(timeout=30)
        child.stdout.close()
    assert os.path.exists(tmp_path / ".lock")  # the killed holder could not clean up
    run_cli(capsys, args)
    assert os.path.exists(tmp_path / "tool0.ckpt")


def test_cli_workdir_from_environment(capsys, workdir, monkeypatch):
    base, cfg = workdir
    monkeypatch.setenv("GRTO_WORKDIR", base)
    out = run_cli(capsys, ["eval", "--config", cfg, "--set", "train.mode=grpo"]).out
    assert "giou" in json.loads(out)


def test_cli_corrupt_checkpoint_is_format_error(capsys, workdir, tmp_path):
    base, cfg = workdir
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(b"not a checkpoint")
    captured = run_cli(capsys, ["eval", "--workdir", base, "--config", cfg,
                                "--checkpoint", str(bad)], expect=4)
    assert json.loads(captured.err)["error"] == "format"


def test_cli_oracle_check_emits_json_lines(capsys):
    code = cli.main(["oracle-check"])
    captured = capsys.readouterr()
    assert code == 0, captured.err
    lines = [json.loads(line) for line in captured.out.strip().split("\n")]
    assert all({"check_name", "pass", "value", "reference", "tolerance"} == set(l) for l in lines)
    assert all(l["pass"] for l in lines)


@pytest.mark.parametrize("extra", [["--config", "/nonexistent.json"], ["--set", "no.such_key=1"],
                                   ["--workdir", "/nonexistent"]])
def test_cli_oracle_check_refuses_config_options(capsys, extra):
    # the suite runs fixed micro instances, so an option it would ignore is refused
    with pytest.raises(SystemExit) as exc:
        cli.main(["oracle-check", *extra])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
