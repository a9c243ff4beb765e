"""Print a sha256 digest of every artifact a full pipeline run writes.

Runs `pretrain-tool`, `warmup-policy`, `build-buffer`, `train` for each of
the six modes and `eval` of each mode's selected checkpoint on one config, in
a fresh temporary workdir, then prints one `sha256  relative/path` line per
file the run left there (checkpoints, the buffer, `metrics.csv`) and one
`sha256  stdout:<command>` line per command, with the workdir masked.

Two checkouts produce byte-identical artifacts when their outputs are equal:

    python scripts/artifact_digests.py config.json --src /path/to/a/src > a.txt
    python scripts/artifact_digests.py config.json --src /path/to/b/src > b.txt
    diff a.txt b.txt
"""

from __future__ import annotations

import argparse
import hashlib
import os
import subprocess
import sys
import tempfile

MODES = ("grpo", "grto", "b_grto", "b_grpo", "reverse_seq", "grto_no_filter")
DEFAULT_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _run(src: str, workdir: str, config: str, args: list[str]) -> bytes:
    """One CLI command through `python -m bgrto.cli`; returns stdout, workdir masked."""
    env = dict(os.environ, PYTHONPATH=src)
    cmd = [sys.executable, "-m", "bgrto.cli", *args, "--workdir", workdir, "--config", config]
    proc = subprocess.run(cmd, env=env, capture_output=True, check=False)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr.decode("utf-8", "replace"))
        raise SystemExit(f"command failed with exit code {proc.returncode}: {' '.join(args)}")
    return proc.stdout.replace(workdir.encode("utf-8"), b"<workdir>")


def digest_lines(src: str, config: str, eval_scenes: int) -> list[str]:
    lines = []
    with tempfile.TemporaryDirectory(prefix="bgrto-digests-") as workdir:
        commands = [["pretrain-tool"], ["warmup-policy"], ["build-buffer"]]
        commands += [["train", "--mode", mode] for mode in MODES]
        for args in commands:
            out = _run(src, workdir, config, args)
            lines.append(f"{_sha256(out)}  stdout:{' '.join(args)}")
        selected = sorted(
            os.path.join(root, "selected.ckpt")
            for root, _dirs, files in os.walk(workdir)
            if "selected.ckpt" in files
        )
        for path in selected:
            rel = os.path.relpath(path, workdir)
            args = ["eval", "--checkpoint", path, "--scenes", str(eval_scenes)]
            out = _run(src, workdir, config, args)
            lines.append(f"{_sha256(out)}  stdout:eval {rel}")
        for root, dirs, files in os.walk(workdir):
            dirs.sort()
            for name in sorted(files):
                path = os.path.join(root, name)
                with open(path, "rb") as fh:
                    lines.append(f"{_sha256(fh.read())}  {os.path.relpath(path, workdir)}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("config", help="JSON run config passed to every command")
    parser.add_argument("--src", default=DEFAULT_SRC,
                        help="the src/ directory whose bgrto to run (default: this checkout's)")
    parser.add_argument("--eval-scenes", type=int, default=3000,
                        help="held-out scenes per eval (default 3000)")
    args = parser.parse_args(argv)
    for line in digest_lines(os.path.abspath(args.src), os.path.abspath(args.config),
                             args.eval_scenes):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
