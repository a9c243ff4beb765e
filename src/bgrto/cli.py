"""Command-line entry point and experiment orchestration.

Pipeline commands mirror the training stages so each artifact is independently
inspectable and reusable: pretrain-tool and warmup-policy produce the reference
models, build-buffer freezes reference rollouts, train runs one of the six
modes, eval scores a checkpoint, and oracle-check runs the exact-enumeration
suite.  Failures print a single machine-readable JSON line on stderr.
"""

from __future__ import annotations

import argparse
import dataclasses
import fcntl
import itertools
import json
import os
import sys

from . import models, objectives, rng
from .autodiff import UsageError
from .checkpoint import (
    CheckpointFormatError,
    load_checkpoint,
    params_digest,
    save_checkpoint,
    split_params,
)
from .config import ConfigError, RunConfig, apply_overrides, compat_hash, from_dict
from .env import (
    EnvConfigError,
    GenerationError,
    GrammarUsageError,
    generate_scene,
    grammar_for,
    scripted_demonstration,
)
from .metrics import MetricsUsageError
from .models import WarmupFailure
from .objectives import ObjectiveUsageError
from .oracle import OracleError, run_oracle_checks
from .rollout import BufferFormatError, build_replay_buffer
from .schedules import (
    PrerequisiteError,
    ScheduleUsageError,
    _require,
    prerequisite_paths,
    run_mode,
)


class WorkdirLockError(RuntimeError):
    pass


class WorkdirLock:
    """An flock on `<workdir>/.lock`, so only one command mutates a workdir at a time.

    The kernel releases the lock when its holder dies, so a killed command
    leaves no stale lock.  A clean exit unlinks the file while holding the
    lock, so a command that locked the unlinked file retries on a fresh one.
    """

    def __init__(self, workdir: str):
        self.path = os.path.join(workdir, ".lock")
        self._fd = None

    def __enter__(self):
        while True:
            fd = os.open(self.path, os.O_CREAT | os.O_WRONLY)
            try:
                fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
                if os.path.samestat(os.fstat(fd), os.stat(self.path)):
                    self._fd = fd
                    return self
            except BlockingIOError:
                os.close(fd)
                raise WorkdirLockError(f"workdir is locked by another command ({self.path})") from None
            except FileNotFoundError:
                pass  # unlinked by a holder that has since exited
            os.close(fd)

    def __exit__(self, *exc):
        if self._fd is not None:
            os.unlink(self.path)
            os.close(self._fd)
            self._fd = None


def _load_config(args) -> RunConfig:
    data = {}
    if args.config:
        try:
            with open(args.config, encoding="utf-8") as fh:
                data = json.load(fh)
        except OSError as exc:
            raise ConfigError([f"cannot read config {args.config}: {exc}"]) from exc
        except json.JSONDecodeError as exc:
            raise ConfigError([f"config {args.config} is not valid JSON: {exc}"]) from exc
    if args.set:
        data = apply_overrides(data, args.set)
    return from_dict(data)


def _resolve_workdir(args, rc: RunConfig) -> str:
    workdir = args.workdir or rc.workdir or os.environ.get("GRTO_WORKDIR")
    if not workdir:
        raise ConfigError(
            ["no workdir: pass --workdir, set workdir in the config, or export GRTO_WORKDIR"]
        )
    os.makedirs(workdir, exist_ok=True)
    return workdir


def _cmd_pretrain_tool(args) -> int:
    rc = _load_config(args)
    workdir = _resolve_workdir(args, rc)
    with WorkdirLock(workdir):
        scenes = [
            generate_scene(rng.derive_seed(rc.seed, "pretrain-scene", i), "source", rc.env)
            for i in range(rc.pretrain.scenes)
        ]
        tool = models.tool_init(rc.seed, rc.env, rc.tool)
        tool = models.pretrain_tool(tool, scenes, rc.pretrain.epochs, rc.pretrain.lr)
        path = os.path.join(workdir, "tool0.ckpt")
        save_checkpoint(
            path,
            {"mode": "pretrain-tool", "epoch": rc.pretrain.epochs, "seed": rc.seed,
             "compat_hash": compat_hash(rc), "kind": "tool"},
            tool,
        )
    print(json.dumps({"artifact": path, "scenes": rc.pretrain.scenes, "epochs": rc.pretrain.epochs}))
    return 0


def _cmd_warmup_policy(args) -> int:
    rc = _load_config(args)
    workdir = _resolve_workdir(args, rc)
    grammar = grammar_for(rc.env)
    with WorkdirLock(workdir):
        demos = []
        for i in range(rc.warmup.demos):
            scene = generate_scene(rng.derive_seed(rc.seed, "demo-scene", i), rc.domain, rc.env)
            tokens = scripted_demonstration(
                scene, rc.warmup.noise, rng.stream(rc.seed, "demo-noise", i), grammar
            )
            demos.append((scene, tokens))
        policy = models.policy_init(rc.seed, rc.env, grammar, rc.policy)
        result = models.warmup_policy(
            policy, demos, rc.warmup.epochs, rc.warmup.lr, grammar,
            validity_gen=rng.stream(rc.seed, "warmup-validity"),
        )
        path = os.path.join(workdir, "policy0.ckpt")
        save_checkpoint(
            path,
            {"mode": "warmup-policy", "epoch": rc.warmup.epochs, "seed": rc.seed,
             "compat_hash": compat_hash(rc), "kind": "policy",
             "validity_rate": result.validity_rate},
            result.params,
        )
    print(json.dumps({"artifact": path, "validity_rate": result.validity_rate}))
    return 0


def _cmd_build_buffer(args) -> int:
    rc = _load_config(args)
    workdir = _resolve_workdir(args, rc)
    paths = prerequisite_paths(rc, workdir)
    _require(paths["policy0"], "warmed-up policy", "warmup-policy")
    with WorkdirLock(workdir):
        ckpt = load_checkpoint(paths["policy0"], expected_compat_hash=compat_hash(rc))
        policy0 = split_params(ckpt.params, "policy/")
        grammar = grammar_for(rc.env)
        scene_seeds = [
            rng.derive_seed(rc.seed, "buffer-scene", i) for i in range(rc.bto.buffer_scenes)
        ]
        buffer = build_replay_buffer(
            policy0,
            scene_seeds,
            rc.domain,
            rc.buffer_group_size,
            rc.seed,
            rc.env,
            grammar,
            policy_ckpt_id=params_digest(policy0),
            temperature=rc.train.temperature,
            passes=rc.bto.buffer_passes,
            path=paths["buffer"],
        )
    print(json.dumps({"artifact": paths["buffer"], "groups": len(buffer.groups),
                      "rollouts": len(buffer.groups) * buffer.group_size}))
    return 0


def _cmd_train(args) -> int:
    rc = _load_config(args)
    if args.mode:
        rc = dataclasses.replace(rc, train=dataclasses.replace(rc.train, mode=args.mode))
        from .config import MODES

        if rc.train.mode not in MODES:
            raise ConfigError([f"--mode must be one of {MODES}, got {rc.train.mode!r}"])
    workdir = _resolve_workdir(args, rc)
    with WorkdirLock(workdir):
        result = run_mode(rc, workdir)
    print(
        json.dumps(
            {
                "mode": result.mode,
                "seed": result.seed,
                "selected": result.selected_path,
                "selected_epoch": result.selected.epoch,
                "selected_metric": result.selected.metric,
                "metrics_csv": result.metrics_path,
            }
        )
    )
    return 0


def _cmd_eval(args) -> int:
    from . import metrics as metricsmod

    rc = _load_config(args)
    workdir = _resolve_workdir(args, rc)
    ckpt_path = args.checkpoint or os.path.join(
        workdir, rc.train.mode, str(rc.seed), "selected.ckpt"
    )
    ckpt = load_checkpoint(_require(ckpt_path, "checkpoint", "train"),
                           expected_compat_hash=compat_hash(rc))
    policy = split_params(ckpt.params, "policy/")
    tool = split_params(ckpt.params, "tool/")
    if not len(policy) or not len(tool):
        raise CheckpointFormatError(f"checkpoint {ckpt_path} lacks policy or tool tensors")
    grammar = grammar_for(rc.env)
    domain = args.domain or rc.domain
    count = rc.validation.scenes if args.scenes is None else args.scenes
    if count < 1:
        raise ConfigError([f"--scenes must be positive, got {count}"])
    # scenes are generated, decoded a chunk at a time and scored as they arrive;
    # the tee holds at most the chunk being decoded
    scenes, decode_scenes = itertools.tee(
        generate_scene(rng.derive_seed(rc.seed, "eval-scene", i), domain, rc.env)
        for i in range(count)
    )
    prompts = models.greedy_prompts(policy, decode_scenes, grammar)
    scoring = objectives.scoring_for(rc.train, ckpt.metadata.get("mode"))
    report = metricsmod.evaluate(tool, scenes, prompts, scoring)
    print(json.dumps(report.to_json_dict()))
    return 0


def _cmd_oracle_check(args) -> int:
    results = run_oracle_checks(quick=not args.full)
    for result in results:
        print(json.dumps(result))
    failed = [r["check_name"] for r in results if not r["pass"]]
    if failed:
        raise OracleError(f"{len(failed)} oracle check(s) failed: {', '.join(failed)}")
    return 0


_ERROR_KINDS = [
    ((ConfigError, EnvConfigError, GenerationError), "config", 2),
    ((PrerequisiteError,), "prerequisite", 3),
    ((CheckpointFormatError, BufferFormatError), "format", 4),
    (
        (UsageError, GrammarUsageError, ObjectiveUsageError, ScheduleUsageError,
         MetricsUsageError, OracleError),
        "usage",
        5,
    ),
    ((WarmupFailure,), "warmup-failure", 6),
    ((WorkdirLockError,), "locked", 7),
]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bgrto",
        description="Joint policy/tool RL on a synthetic referring-segmentation grid.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON run config (defaults apply for absent keys)")
        p.add_argument("--workdir", help="artifact directory (or $GRTO_WORKDIR)")
        p.add_argument(
            "--set",
            action="append",
            default=[],
            metavar="KEY.PATH=VALUE",
            help="override a config key, e.g. --set bto.beta=0.01",
        )

    common(sub.add_parser("pretrain-tool", help="fit the tool on source-convention labels"))
    common(sub.add_parser("warmup-policy", help="behavior-clone the policy on scripted demos"))
    common(sub.add_parser("build-buffer", help="store reference-policy rollout groups"))
    p_train = sub.add_parser("train", help="run one training mode end to end")
    common(p_train)
    p_train.add_argument("--mode", help="override train.mode")
    p_eval = sub.add_parser("eval", help="evaluate a checkpoint with greedy decoding")
    common(p_eval)
    p_eval.add_argument("--checkpoint", help="checkpoint path (default: the mode's selected.ckpt)")
    p_eval.add_argument("--scenes", type=int, help="number of evaluation scenes")
    p_eval.add_argument("--domain", choices=["source", "target"], help="annotation convention")
    # the suite runs fixed micro instances: there is no config or workdir to take
    p_oracle = sub.add_parser("oracle-check", help="run the exact-enumeration oracle suite")
    p_oracle.add_argument("--full", action="store_true", help="full-budget statistical checks")
    return parser


_COMMANDS = {
    "pretrain-tool": _cmd_pretrain_tool,
    "warmup-policy": _cmd_warmup_policy,
    "build-buffer": _cmd_build_buffer,
    "train": _cmd_train,
    "eval": _cmd_eval,
    "oracle-check": _cmd_oracle_check,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except Exception as exc:  # noqa: BLE001 - converted to a machine-readable line
        for types, kind, code in _ERROR_KINDS:
            if isinstance(exc, types):
                detail = {"error": kind, "message": str(exc)}
                if isinstance(exc, ConfigError):
                    detail["problems"] = exc.problems
                print(json.dumps(detail), file=sys.stderr)
                return code
        print(json.dumps({"error": "internal", "message": str(exc)}), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
