"""Run configuration: JSON schema, defaults, validation, and stable hashes.

Parsing is strict: unknown keys are rejected and every violation is reported in
one aggregated error rather than failing on the first.  An empty JSON object is
a complete, runnable default configuration.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass, field

from .env import EnvConfig
from .models import PolicyConfig, ToolConfig

MODES = ("grpo", "grto", "b_grto", "b_grpo", "reverse_seq", "grto_no_filter")
BOOTSTRAPPED_MODES = ("b_grto", "b_grpo")


class ConfigError(ValueError):
    """One or more configuration problems; `problems` lists them all."""

    def __init__(self, problems: list[str]):
        self.problems = list(problems)
        super().__init__("; ".join(self.problems))


@dataclass(frozen=True)
class TrainSection:
    mode: str = "grpo"
    lr_policy: float = 3e-4
    lr_tool: float = 1e-3
    # The bootstrap stage is budgeted at about two joint epochs, which leaves
    # the tool helped but far from converged, so the joint stage keeps the
    # full tool rate by default (reduce it when the bootstrap budget is large).
    lr_tool_second_stage: float = 1e-3
    beta_kl: float = 0.01
    eps_clip: float = 0.2
    group_size: int = 8
    scenes_per_epoch: int = 16
    epochs: int = 30
    grad_clip_norm: float = 1.0
    temperature: float = 1.0
    threshold: float = 0.5
    reward_iou_weight: float = 0.9
    reward_format_weight: float = 0.1
    groups_per_step: int = 1
    debug_checks: bool = False


@dataclass(frozen=True)
class BtoSection:
    buffer_path: str | None = None  # defaults to <workdir>/buffer.jsonl
    beta: float = 0.01
    epochs: int = 6
    frozen_rewards: bool = False
    buffer_scenes: int = 64
    buffer_passes: int = 1
    group_size: int | None = None  # None -> train.group_size


@dataclass(frozen=True)
class PretrainSection:
    scenes: int = 128
    epochs: int = 12
    lr: float = 3e-3


@dataclass(frozen=True)
class WarmupSection:
    # many unique demos, few passes: the reference policy must generalize,
    # not memorize a small demo set
    demos: int = 3072
    epochs: int = 4
    lr: float = 1e-3
    noise: float = 0.3


@dataclass(frozen=True)
class ValidationSection:
    scenes: int = 24


@dataclass(frozen=True)
class MetricsSection:
    # Real wall times break byte-identical reruns, so the CSV records zeros
    # unless timing is explicitly requested.
    deterministic_timing: bool = True


@dataclass(frozen=True)
class RunConfig:
    seed: int = 0
    domain: str = "target"
    workdir: str | None = None
    env: EnvConfig = field(default_factory=EnvConfig)
    policy: PolicyConfig = field(default_factory=PolicyConfig)
    tool: ToolConfig = field(default_factory=ToolConfig)
    train: TrainSection = field(default_factory=TrainSection)
    bto: BtoSection = field(default_factory=BtoSection)
    pretrain: PretrainSection = field(default_factory=PretrainSection)
    warmup: WarmupSection = field(default_factory=WarmupSection)
    validation: ValidationSection = field(default_factory=ValidationSection)
    metrics: MetricsSection = field(default_factory=MetricsSection)

    @property
    def buffer_group_size(self) -> int:
        return self.bto.group_size if self.bto.group_size is not None else self.train.group_size


_SECTIONS = {
    "env": EnvConfig,
    "policy": PolicyConfig,
    "tool": ToolConfig,
    "train": TrainSection,
    "bto": BtoSection,
    "pretrain": PretrainSection,
    "warmup": WarmupSection,
    "validation": ValidationSection,
    "metrics": MetricsSection,
}

def _annotation_info(hint) -> tuple[type, bool]:
    """(base type, allows None) from a stringified dataclass annotation."""
    text = hint if isinstance(hint, str) else getattr(hint, "__name__", "str")
    optional = "None" in text
    base_name = text.replace("| None", "").replace("None |", "").strip()
    base = {"str": str, "int": int, "float": float, "bool": bool}.get(base_name, str)
    return base, optional


def _check_type(key: str, value, expected: type, optional: bool, errors: list[str]) -> bool:
    if value is None:
        if optional:
            return True
        errors.append(f"{key}: null is not allowed")
        return False
    if expected is bool:
        ok = isinstance(value, bool)
    elif expected is int:
        ok = isinstance(value, int) and not isinstance(value, bool)
    elif expected is float:
        ok = isinstance(value, (int, float)) and not isinstance(value, bool)
    else:
        ok = isinstance(value, str)
    if not ok:
        errors.append(f"{key}: expected {expected.__name__}, got {type(value).__name__}")
    return ok


def _build_section(dc_type, data: dict, section: str, errors: list[str]):
    fields = {f.name: f for f in dataclasses.fields(dc_type)}
    kwargs = {}
    for key, value in data.items():
        label = f"{section}.{key}" if section else key
        if key not in fields:
            errors.append(f"unknown key {label}")
            continue
        expected, optional = _annotation_info(fields[key].type)
        if _check_type(label, value, expected, optional, errors):
            if expected is float and value is not None:
                value = float(value)
            kwargs[key] = value
    try:
        return dc_type(**kwargs)
    except TypeError:  # a reported type error already explains the failure
        return dc_type()


def _constraints(cfg: RunConfig) -> list[str]:
    problems = []
    problems.extend(cfg.env.validate())
    if cfg.domain not in ("source", "target"):
        problems.append(f"domain must be 'source' or 'target', got {cfg.domain!r}")
    t = cfg.train
    if t.mode not in MODES:
        problems.append(f"train.mode must be one of {MODES}, got {t.mode!r}")
    for name, value in (
        ("train.lr_policy", t.lr_policy),
        ("train.lr_tool", t.lr_tool),
        ("train.lr_tool_second_stage", t.lr_tool_second_stage),
        ("train.grad_clip_norm", t.grad_clip_norm),
        ("train.temperature", t.temperature),
        ("bto.beta", cfg.bto.beta),
        ("pretrain.lr", cfg.pretrain.lr),
        ("warmup.lr", cfg.warmup.lr),
    ):
        if not value > 0.0:
            problems.append(f"{name} must be positive, got {value}")
    if t.beta_kl < 0.0:
        problems.append(f"train.beta_kl must be non-negative, got {t.beta_kl}")
    if not 0.0 < t.eps_clip < 1.0:
        problems.append(f"train.eps_clip must lie in (0, 1), got {t.eps_clip}")
    if t.group_size < 2:
        problems.append(f"train.group_size must be at least 2, got {t.group_size}")
    if t.scenes_per_epoch < 1:
        problems.append("train.scenes_per_epoch must be positive")
    if t.epochs < 0 or cfg.bto.epochs < 0:
        problems.append("epoch counts must be non-negative")
    if not 0.0 < t.threshold < 1.0:
        problems.append(f"train.threshold must lie in (0, 1), got {t.threshold}")
    if t.reward_iou_weight < 0.0 or t.reward_format_weight < 0.0:
        problems.append("reward weights must be non-negative")
    if t.reward_iou_weight + t.reward_format_weight > 1.0 + 1e-12:
        problems.append("reward weights must not exceed 1 in total (reward stays in [0, 1])")
    if t.groups_per_step < 1:
        problems.append("train.groups_per_step must be positive")
    if cfg.bto.buffer_passes not in (1, 2):
        problems.append("bto.buffer_passes must be 1 or 2")
    if cfg.bto.buffer_scenes < 1:
        problems.append("bto.buffer_scenes must be positive")
    if cfg.bto.group_size is not None and cfg.bto.group_size < 2:
        problems.append("bto.group_size must be at least 2 when set")
    if cfg.pretrain.scenes < 1 or cfg.warmup.demos < 1:
        problems.append("pretrain.scenes and warmup.demos must be positive")
    if cfg.pretrain.epochs < 0 or cfg.warmup.epochs < 0:
        problems.append("pretrain.epochs and warmup.epochs must be non-negative")
    if not 0.0 <= cfg.warmup.noise <= 1.0:
        problems.append(f"warmup.noise must lie in [0, 1], got {cfg.warmup.noise}")
    if cfg.validation.scenes < 1:
        problems.append("validation.scenes must be positive")
    return problems


def from_dict(data: dict) -> RunConfig:
    """Build and validate a RunConfig, reporting every problem at once."""
    errors: list[str] = []
    if not isinstance(data, dict):
        raise ConfigError(["config root must be a JSON object"])
    top_kwargs = {}
    for key, value in data.items():
        if key in _SECTIONS:
            if not isinstance(value, dict):
                errors.append(f"{key}: expected an object")
                continue
            top_kwargs[key] = _build_section(_SECTIONS[key], value, key, errors)
        elif key in ("seed", "domain", "workdir"):
            expected = {"seed": int, "domain": str, "workdir": str}[key]
            if _check_type(key, value, expected, key == "workdir", errors):
                top_kwargs[key] = value
        else:
            errors.append(f"unknown key {key}")
    cfg = RunConfig(**top_kwargs)
    errors.extend(_constraints(cfg))
    if errors:
        raise ConfigError(errors)
    return cfg


def to_dict(cfg: RunConfig) -> dict:
    return dataclasses.asdict(cfg)


def apply_overrides(data: dict, overrides: list[str]) -> dict:
    """Apply --set key.path=value pairs onto a raw config dict."""
    problems = []
    for item in overrides:
        if "=" not in item:
            problems.append(f"override {item!r} must look like key.path=value")
            continue
        dotted, raw = item.split("=", 1)
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw  # bare strings are convenient: --set domain=target
        node = data
        parts = dotted.split(".")
        for part in parts[:-1]:
            node = node.setdefault(part, {})
            if not isinstance(node, dict):
                problems.append(f"override {item!r} descends into a non-object")
                break
        else:
            node[parts[-1]] = value
    if problems:
        raise ConfigError(problems)
    return data


def _canonical(data: dict) -> str:
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


def config_hash(cfg: RunConfig) -> str:
    return hashlib.sha256(_canonical(to_dict(cfg)).encode("utf-8")).hexdigest()


def compat_hash(cfg: RunConfig) -> str:
    """Hash of the sections that determine artifact compatibility."""
    core = {
        "env": dataclasses.asdict(cfg.env),
        "policy": dataclasses.asdict(cfg.policy),
        "tool": dataclasses.asdict(cfg.tool),
    }
    return hashlib.sha256(_canonical(core).encode("utf-8")).hexdigest()
