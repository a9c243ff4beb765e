"""Pipeline benchmark for bgrto: one workload, one seed, one run.

    python3 perfbench/run.py --workload grto --seed 0 --seconds 35 --trace 0

Run from the repository root (or any checkout of it): the program is imported
from `src/` next to this directory.  Set-up builds the artifacts the workload
reads; the run repeats whole rounds of the measured commands until
`--seconds` have passed.  With `--trace 0` the last line of stdout is the JSON
result with the end-to-end metrics; with `--trace 1` set-up and one extra
round are traced and the result carries the per-layer metrics.  See README.md.
"""

from __future__ import annotations

import time

PROCESS_T0 = time.perf_counter()

import os  # noqa: E402

# One BLAS thread: the program's matrices are small, and a second thread adds
# run-to-run spread without shortening the run.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RUNS_DIR = ROOT / ".perfbench_runs"

# A twelfth of the default warm-up steps keeps set-up short.  Noise-free demos
# keep the warmed-up policy's validity rate clear of the 0.5 floor that
# `warmup-policy` enforces (0.565 to 0.75 over seeds 0-19).  96 validation
# scenes instead of 24: selection on 24 picks a poor epoch on some seeds, which
# makes the held-out gIoU of the selected checkpoint swing by seed far more
# than a code change would move it.
BASE = {
    "warmup": {"demos": 1024, "epochs": 1, "lr": 2e-3, "noise": 0.0},
    "validation": {"scenes": 96},
}
FIXTURE_SEED = 0
CEILING_SCENES = 96


def fixed(*command: str) -> tuple[str, ...]:
    """A command that builds or trains under FIXTURE_SEED, not --seed."""
    return command + ("--set", f"seed={FIXTURE_SEED}")


FIXTURES = (fixed("pretrain-tool"), fixed("warmup-policy"))
EVAL = ("eval", "--scenes", "{heldout}", "--checkpoint", "{checkpoint}")


@dataclass(frozen=True)
class Workload:
    name: str
    config: dict
    setup: tuple[tuple[str, ...], ...]
    # the measured commands; a run repeats this round whole
    round: tuple[tuple[str, ...], ...]
    # commands after the timed rounds, untimed, for outputs the checks need;
    # a traced run traces them with the extra round
    after: tuple[tuple[str, ...], ...] = ()
    heldout_scenes: int = 3000


# Every model is trained under FIXTURE_SEED and --seed picks the held-out
# scenes it is scored on.  Trained per seed, the held-out gIoU of the selected
# checkpoint spread by 16-25% of its median between seeds (the middle half of
# ten runs), as wide as any bound a gate on it could have; trained once, the
# spread is the scene sample's alone.  The rounds are short, so that a run
# repeats them often enough for the fastest repetition of each command to miss
# the slow spells of a shared host.
WORKLOADS = {
    w.name: w
    for w in (
        # Policy-side RL: sampling, reference log-probs, the clipped objective
        # and the per-rollout KL, with tool scoring, validation and checkpoint
        # writes beside them; then inference alone, greedy decoding and
        # value-level tool forwards with no backward, optimizer or file writes.
        Workload(
            name="grto",
            config={"train": {"mode": "grto", "epochs": 4}},
            setup=FIXTURES,
            round=(fixed("train"), EVAL),
        ),
        # The paper's own method on its tool-heavy path: a tool forward, seg
        # loss, backward, AdamW and reward refresh per stored group, over a
        # buffer three times the default.  One joint epoch, so the policy
        # forward does little here.
        Workload(
            name="bootstrap",
            config={"train": {"mode": "b_grto", "epochs": 1},
                    "bto": {"buffer_scenes": 192}},
            setup=FIXTURES + (fixed("build-buffer"),),
            round=(fixed("train"),),
            after=(EVAL,),
        ),
    )
}


class SetupFailed(RuntimeError):
    pass


@dataclass
class Pipeline:
    """Runs bgrto CLI commands in this process against one workdir."""

    workdir: Path
    config_path: Path
    heldout: int
    checkpoint: Path
    attempted: int = 0
    failed: int = 0
    stage_wall_s: dict = field(default_factory=dict)
    outputs: dict = field(default_factory=dict)

    def run(self, command: tuple[str, ...]) -> bool:
        from bgrto import cli

        argv = [arg.format(heldout=self.heldout, checkpoint=self.checkpoint) for arg in command]
        argv += ["--workdir", str(self.workdir), "--config", str(self.config_path)]
        out, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        elapsed = time.perf_counter() - t0
        self.attempted += 1
        stage = command[0]
        self.stage_wall_s[stage] = self.stage_wall_s.get(stage, 0.0) + elapsed
        if code != 0:
            self.failed += 1
            print(f"perfbench: `bgrto {' '.join(argv)}` exited {code}: {err.getvalue().strip()}",
                  file=sys.stderr)
            return False
        lines = out.getvalue().strip().splitlines()
        self.outputs[stage] = json.loads(lines[-1]) if lines else {}
        return True


# The reference loop's median time on a 2-core Intel Xeon VM at 2.1 GHz.  It
# only converts host-speed units back to seconds.
REFERENCE_S = 0.055


def host_reference_s() -> float:
    """Time of a fixed loop in the program's mix of work, small matrix products
    and Python float arithmetic, that shares no code with the program: tells a
    slow host from a slow program."""
    import numpy as np

    a = np.linspace(-1.0, 1.0, 64 * 64).reshape(64, 64)
    x = np.ones((64, 32))
    t0 = time.perf_counter()
    acc = 0.0
    for _ in range(1000):
        x = np.tanh(a @ x * 0.05)
        for v in x[0, :16].tolist():
            acc += v * v
        for i in range(200):
            acc = (acc + i * 1e-9) % 1e6
    return time.perf_counter() - t0


def process_age_s() -> float:
    """Seconds since this process started, from the kernel's start time."""
    try:
        with open("/proc/self/stat", encoding="ascii") as fh:
            start_ticks = int(fh.read().rsplit(")", 1)[1].split()[19])
        boot_now = time.clock_gettime(time.CLOCK_BOOTTIME)
        return boot_now - start_ticks / os.sysconf("SC_CLK_TCK")
    except (OSError, ValueError, IndexError, AttributeError):
        return time.perf_counter() - PROCESS_T0


def import_program():
    """Import bgrto from this checkout's `src/`, never from elsewhere."""
    if not (SRC / "bgrto" / "cli.py").is_file():
        raise SetupFailed(f"no program at {SRC / 'bgrto'}; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import bgrto

    if Path(bgrto.__file__).resolve().parent != (SRC / "bgrto").resolve():
        raise SetupFailed(f"imported bgrto from {bgrto.__file__}, not from {SRC}")


def run_config(workload: Workload, seed: int, override: dict | None = None) -> dict:
    def merge(base: dict, extra: dict) -> dict:
        out = dict(base)
        for key, value in extra.items():
            out[key] = merge(out.get(key, {}), value) if isinstance(value, dict) else value
        return out

    return merge(merge(merge({"seed": seed}, BASE), workload.config), override or {})


def expected_csv_rows(rc) -> int:
    from bgrto.config import BOOTSTRAPPED_MODES

    t = rc.train
    joint = t.epochs * math.ceil(t.scenes_per_epoch / t.groups_per_step)
    if t.mode in BOOTSTRAPPED_MODES:
        return rc.bto.epochs * rc.bto.buffer_scenes * rc.bto.buffer_passes + joint
    return joint


def check_outputs(pipe: Pipeline, workload: Workload, rc) -> list[str]:
    """Independent checks of the workload's outputs; returns the problems found."""
    from bgrto import rng
    from bgrto.env import generate_scene

    import reference

    if "eval" not in pipe.outputs:
        return ["no eval report"]
    report = pipe.outputs["eval"]
    mode_dir = pipe.checkpoint.parent
    heldout = [
        generate_scene(rng.derive_seed(rc.seed, "eval-scene", i), "target", rc.env)
        for i in range(workload.heldout_scenes)
    ]
    ceiling = [
        generate_scene(rng.derive_seed(rc.seed, "perfbench-ceiling", i), "target", rc.env)
        for i in range(CEILING_SCENES)
    ]
    t = rc.train
    problems = reference.check_report_ranges(report)
    problems += reference.check_eval_report(
        report, str(mode_dir / "selected.ckpt"), heldout, t.threshold,
        t.reward_iou_weight, t.reward_format_weight,
    )
    problems += reference.check_tool_ceiling(str(pipe.workdir / "tool0.ckpt"), ceiling, t.threshold)
    problems += reference.check_metrics_csv(str(mode_dir / "metrics.csv"), expected_csv_rows(rc))
    if t.mode == "b_grto":
        problems += reference.check_policy_untouched(
            str(pipe.workdir / "policy0.ckpt"), str(mode_dir / "epoch000.ckpt")
        )
    return problems


END_TO_END_UNITS = {"setup_s": "s", "run_adj_s": "s", "peak_rss_mb": "MB", "heldout_giou": "1"}


def per_layer_metrics(summary: dict) -> dict:
    """The per-layer metrics named in BENCHMARK.json, from a traced run's summary."""
    metrics = {
        f"cli.{stage}.wall_s": (summary.get(f"cli.{stage}.wall_s", 0.0), "s")
        for stage in ("pretrain-tool", "warmup-policy", "train", "eval")
    }
    timed = (
        "env.generate_scene", "models.policy_logprob_nodes", "models.policy_sample",
        "models.greedy_decode", "models.tool_forward_nodes", "models.tool_logits",
        "objectives.compute_reward", "objectives.grpo_objective_nodes", "objectives.kl_estimate",
        "objectives.seg_loss_nodes", "rollout.sample_group", "autodiff.backward",
        "optim.adamw_step", "schedules.train_step_grto", "metrics.evaluate",
        "checkpoint.save_checkpoint", "checkpoint.load_checkpoint",
    )
    for name in timed:
        metrics[f"{name}.self_s"] = (summary[f"{name}.self_s"], "s")
        metrics[f"{name}.calls"] = (summary[f"{name}.calls"], "count")
    for name in ("rollout.build_replay_buffer", "rollout.save_buffer", "rollout.load_buffer",
                 "schedules.run_bto_stage"):
        metrics[f"{name}.calls"] = (summary[f"{name}.calls"], "count")
    metrics["objectives.scoring.distinct_per_forward"] = (
        summary["objectives.scoring.distinct_per_forward"], "1")
    metrics["rollout.buffer_bytes"] = (summary["rollout.buffer_bytes"], "B")
    metrics["autodiff.tape_nodes.total"] = (summary["autodiff.tape_nodes.total"], "count")
    metrics["autodiff.tape_nodes.per_backward"] = (
        summary["autodiff.tape_nodes.per_backward"], "count")
    metrics["schedules.joint_epoch_s"] = (summary["schedules.joint_epoch_s"], "s")
    metrics["schedules.bto_stage_per_joint_epoch"] = (
        summary["schedules.bto_stage_per_joint_epoch"], "1")
    metrics["checkpoint.bytes_written"] = (summary["checkpoint.bytes_written"], "B")
    metrics["trace.overhead_s"] = (summary["trace.overhead_s"], "s")
    return metrics


def run_workload(workload: Workload, seed: int, seconds: float, trace: bool,
                 workdir: Path, config_override: dict | None = None) -> dict:
    """Set up, run timed rounds, check outputs; returns the result and details."""
    from bgrto.config import from_dict

    from spans import Tracer

    config = run_config(workload, seed, config_override)
    rc = from_dict(config)
    workdir.mkdir(parents=True, exist_ok=True)
    config_path = workdir / "config.json"
    config_path.write_text(json.dumps(config, sort_keys=True), encoding="utf-8")
    checkpoint = workdir / rc.train.mode / str(FIXTURE_SEED) / "selected.ckpt"
    pipe = Pipeline(workdir, config_path, workload.heldout_scenes, checkpoint)
    tracer = Tracer() if trace else None

    if tracer:
        tracer.install()
    for command in workload.setup:
        if not pipe.run(command):
            raise SetupFailed(f"set-up command {command[0]} failed")
    setup_s = process_age_s()
    setup_walls = dict(pipe.stage_wall_s)
    if tracer:
        tracer.uninstall()

    # wall and CPU time of each command of each round, and the reference loop
    # before the first command and after each one
    round_s, round_cpu_s, host_ref_s = [], [], [host_reference_s()]
    t_start = time.perf_counter()
    while True:
        walls, cpus = [], []
        for command in workload.round:
            t0, c0 = time.perf_counter(), time.process_time()
            pipe.run(command)
            walls.append(time.perf_counter() - t0)
            cpus.append(time.process_time() - c0)
            host_ref_s.append(host_reference_s())
        round_s.append(walls)
        round_cpu_s.append(cpus)
        if len(round_s) == 1:
            # through set-up and one round: later rounds' count depends on
            # host speed, and each one can raise the high-water mark a little
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if time.perf_counter() - t_start >= seconds:
            break
    # Each command at its fastest: every repetition does the same work, and a
    # shared host's slow spells only ever add time.  Spells that outlast the
    # run slow the reference loop too, and scaling by it takes most of them out.
    run_s = sum(min(walls) for walls in zip(*round_s))
    run_adj_s = run_s * REFERENCE_S / statistics.median(host_ref_s)

    details = {"host_ref_s": host_ref_s, "run_s": run_s, "round_s": round_s,
               "round_cpu_s": round_cpu_s}
    if tracer:
        untraced_walls = dict(pipe.stage_wall_s)
        tracer.install()
        t0 = time.perf_counter()
        for command in workload.round:
            pipe.run(command)
        traced_run_s = time.perf_counter() - t0
    for command in workload.after:
        pipe.run(command)
    if tracer:
        tracer.uninstall()
        # set-up and the traced round, without the untraced rounds between them
        traced_walls = dict(setup_walls)
        for stage, wall in pipe.stage_wall_s.items():
            traced_walls[stage] = traced_walls.get(stage, 0.0) + wall - untraced_walls.get(stage, 0.0)
        summary = tracer.summary()
        summary["trace.overhead_s"] = traced_run_s - run_s
        summary.update({f"cli.{k}.wall_s": v for k, v in traced_walls.items()})
        details["trace"] = summary
        details["binding_sites"] = tracer.binding_sites
    t0 = time.perf_counter()
    problems = check_outputs(pipe, workload, rc)
    details["check_s"] = time.perf_counter() - t0
    report = pipe.outputs.get("eval", {})

    if tracer:
        metrics = per_layer_metrics(summary)
    else:
        values = {"setup_s": setup_s, "run_adj_s": run_adj_s, "peak_rss_mb": peak_rss_mb,
                  "heldout_giou": report.get("giou", 0.0)}
        metrics = {k: (v, END_TO_END_UNITS[k]) for k, v in values.items()}
    details["problems"] = problems
    details["stage_wall_s"] = dict(pipe.stage_wall_s)
    details["eval_report"] = report
    return {
        "correct": not problems,
        "attempted": pipe.attempted,
        "failed": pipe.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }, details


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        import_program()
    except (SetupFailed, ImportError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(BENCH_DIR))
    workload = WORKLOADS[args.workload]
    workdir = RUNS_DIR / f"{workload.name}-s{args.seed}-p{os.getpid()}"
    try:
        result, details = run_workload(workload, args.seed, args.seconds, bool(args.trace), workdir)
    except SetupFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for problem in details["problems"]:
        print(f"perfbench: check failed: {problem}", file=sys.stderr)
    if args.trace:
        trace_path = RUNS_DIR / f"trace-{workload.name}-s{args.seed}.json"
        trace_path.write_text(json.dumps(details, indent=1, sort_keys=True), encoding="utf-8")
    info = {k: details[k] for k in ("host_ref_s", "run_s", "round_s", "round_cpu_s",
                                    "stage_wall_s", "check_s")}
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
