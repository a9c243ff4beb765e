"""Synthetic referring-segmentation scenes and the prompt action grammar.

A scene is a small grid of non-overlapping colored rectangles plus a three-token
instruction naming one of them.  Two annotation conventions coexist: the source
convention labels full rectangles, while the target convention labels each
rectangle eroded by one cell on every side.  A scene's ``domain`` selects which
convention is official for reward purposes; the geometry itself depends only on
the seed and config.

Instructions may match several objects ("the red one"); the referent is then
the largest match, a rule the policy can only discover through reward.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field

import numpy as np

from . import rng

INSTRUCTION_LEN = 3
_BASE_WORDS = ("the", "a", "object", "one", "thing", "small", "large", "pad")
_THE, _A, _OBJECT, _ONE, _THING, _SMALL, _LARGE, _PAD = range(8)

SIZE_SMALL = "small"
SIZE_LARGE = "large"


class EnvConfigError(ValueError):
    """Environment configuration cannot produce valid scenes."""


class GenerationError(RuntimeError):
    """Object placement failed for this seed/config combination."""


class GrammarUsageError(ValueError):
    """Token sequence violates a parser precondition (not mere invalidity)."""


@dataclass(frozen=True)
class EnvConfig:
    """Scene-generator settings; hashed into buffers and checkpoints."""

    width: int = 16
    height: int = 16
    colors: int = 4
    min_objects: int = 2
    max_objects: int = 4
    min_side: int = 3
    max_side: int = 8
    small_area_threshold: int = 20
    grammar: str = "standard"

    def validate(self) -> list[str]:
        problems = []
        if self.width < 6 or self.height < 6:
            problems.append("env.width and env.height must be at least 6 (erosion would empty all masks)")
        if self.colors < 1:
            problems.append("env.colors must be positive")
        if self.min_side < 3:
            problems.append("env.min_side must be at least 3 (thinner targets erode to nothing)")
        if self.max_side < self.min_side:
            problems.append("env.max_side must be >= env.min_side")
        if self.max_side > min(self.width, self.height):
            problems.append("env.max_side must fit inside the grid")
        if not 1 <= self.min_objects <= self.max_objects:
            problems.append("env object count range must satisfy 1 <= min <= max")
        if self.small_area_threshold < 1:
            problems.append("env.small_area_threshold must be positive")
        if self.grammar not in ("standard", "micro"):
            problems.append(f"env.grammar must be 'standard' or 'micro', got {self.grammar!r}")
        return problems

    def require_valid(self) -> None:
        problems = self.validate()
        if problems:
            raise EnvConfigError("; ".join(problems))

    @property
    def instruction_vocab(self) -> int:
        return len(_BASE_WORDS) + self.colors


def env_config_hash(cfg: EnvConfig) -> str:
    """Stable hex digest of the environment configuration."""
    canonical = json.dumps(asdict(cfg), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class SceneObject:
    rect: tuple[int, int, int, int]  # (x1, y1, x2, y2), inclusive cell bounds
    color: int
    size_class: str

    @property
    def area(self) -> int:
        x1, y1, x2, y2 = self.rect
        return (x2 - x1 + 1) * (y2 - y1 + 1)


@dataclass(frozen=True)
class ToolPrompt:
    """Concept (color, size or wildcard) plus bounding boxes for the mask tool."""

    color: int
    size: str | None  # None means wildcard
    boxes: tuple[tuple[int, int, int, int], ...]


@dataclass(frozen=True, eq=False)
class GridScene:
    width: int
    height: int
    colors: int
    objects: tuple[SceneObject, ...]
    instruction: tuple[int, ...]
    target_ids: tuple[int, ...]
    gt_mask_source: np.ndarray = field(repr=False)
    gt_mask_target: np.ndarray = field(repr=False)
    seed: int
    domain: str

    @property
    def official_gt(self) -> np.ndarray:
        return self.gt_mask_source if self.domain == "source" else self.gt_mask_target

    def to_json_dict(self) -> dict:
        return {
            "width": self.width,
            "height": self.height,
            "colors": self.colors,
            "objects": [[list(o.rect), o.color, o.size_class] for o in self.objects],
            "instruction": list(self.instruction),
            "target_ids": list(self.target_ids),
            "gt_mask_source": self.gt_mask_source.astype(int).reshape(-1).tolist(),
            "gt_mask_target": self.gt_mask_target.astype(int).reshape(-1).tolist(),
            "seed": self.seed,
            "domain": self.domain,
        }


@dataclass(frozen=True)
class ActionGrammar:
    """Fixed-length token grammar mapping policy outputs to tool prompts."""

    name: str
    step_sizes: tuple[int, ...]
    width: int
    height: int
    colors: int
    preset_boxes: tuple[tuple[int, int, int, int], ...] = ()

    @property
    def l_max(self) -> int:
        return len(self.step_sizes)

    @property
    def total_vocab(self) -> int:
        return sum(self.step_sizes)


def standard_grammar(cfg: EnvConfig) -> ActionGrammar:
    """[color, size-or-wildcard, x1, y1, x2, y2, EOS]."""
    return ActionGrammar(
        name="standard",
        step_sizes=(cfg.colors, 3, cfg.width, cfg.height, cfg.width, cfg.height, 1),
        width=cfg.width,
        height=cfg.height,
        colors=cfg.colors,
    )


def micro_grammar(cfg: EnvConfig) -> ActionGrammar:
    """[concept, box-id] over nine preset boxes tiling the grid 3x3."""
    boxes = []
    for row in range(3):
        for col in range(3):
            x1 = col * cfg.width // 3
            x2 = (col + 1) * cfg.width // 3 - 1
            y1 = row * cfg.height // 3
            y2 = (row + 1) * cfg.height // 3 - 1
            boxes.append((x1, y1, x2, y2))
    return ActionGrammar(
        name="micro",
        step_sizes=(cfg.colors, 9),
        width=cfg.width,
        height=cfg.height,
        colors=cfg.colors,
        preset_boxes=tuple(boxes),
    )


def grammar_for(cfg: EnvConfig) -> ActionGrammar:
    return standard_grammar(cfg) if cfg.grammar == "standard" else micro_grammar(cfg)


def _rect_mask(height: int, width: int, rect: tuple[int, int, int, int]) -> np.ndarray:
    mask = np.zeros((height, width), dtype=bool)
    x1, y1, x2, y2 = rect
    mask[y1 : y2 + 1, x1 : x2 + 1] = True
    return mask


def eroded_rect(rect: tuple[int, int, int, int]) -> tuple[int, int, int, int]:
    x1, y1, x2, y2 = rect
    return (x1 + 1, y1 + 1, x2 - 1, y2 - 1)


def erosion_ceiling(rect: tuple[int, int, int, int]) -> float:
    """Best IoU a full-rectangle prediction can score against the eroded label."""
    x1, y1, x2, y2 = rect
    w = x2 - x1 + 1
    h = y2 - y1 + 1
    return (w - 2) * (h - 2) / (w * h)


def _overlaps(a: tuple[int, int, int, int], b: tuple[int, int, int, int]) -> bool:
    return not (a[2] < b[0] or b[2] < a[0] or a[3] < b[1] or b[3] < a[1])


def _place_objects(gen: np.random.Generator, cfg: EnvConfig) -> list[SceneObject]:
    count = int(gen.integers(cfg.min_objects, cfg.max_objects + 1))
    placed: list[SceneObject] = []
    for _ in range(count):
        rect = None
        for _attempt in range(200):
            w = int(gen.integers(cfg.min_side, cfg.max_side + 1))
            h = int(gen.integers(cfg.min_side, cfg.max_side + 1))
            x1 = int(gen.integers(0, cfg.width - w + 1))
            y1 = int(gen.integers(0, cfg.height - h + 1))
            cand = (x1, y1, x1 + w - 1, y1 + h - 1)
            if not any(_overlaps(cand, o.rect) for o in placed):
                rect = cand
                break
        if rect is None:
            # deterministic first-fit fallback at the minimum size
            side = cfg.min_side
            for y1 in range(cfg.height - side + 1):
                for x1 in range(cfg.width - side + 1):
                    cand = (x1, y1, x1 + side - 1, y1 + side - 1)
                    if not any(_overlaps(cand, o.rect) for o in placed):
                        rect = cand
                        break
                if rect is not None:
                    break
        if rect is None:
            if placed:
                break  # grid is full; a smaller scene is still a valid scene
            raise GenerationError("could not place any object; grid too small for config")
        color = int(gen.integers(0, cfg.colors))
        area = (rect[2] - rect[0] + 1) * (rect[3] - rect[1] + 1)
        size_class = SIZE_SMALL if area <= cfg.small_area_threshold else SIZE_LARGE
        placed.append(SceneObject(rect=rect, color=color, size_class=size_class))
    return placed


def _pick_instruction(
    gen: np.random.Generator, cfg: EnvConfig, objects: list[SceneObject]
) -> tuple[tuple[int, ...], int]:
    """Choose an instruction template and resolve its referent.

    Returns (tokens, target_index).  When several objects match, the referent
    is the largest by area, ties broken by the lowest object index.
    """
    colors_present = sorted({o.color for o in objects})
    size_color = sorted({(o.size_class, o.color) for o in objects})
    kinds = ["color_object", "size_color", "color_one"]
    kind = kinds[int(gen.integers(0, len(kinds)))]
    color_tok = len(_BASE_WORDS)
    if kind == "size_color":
        size, color = size_color[int(gen.integers(0, len(size_color)))]
        tokens = (_SMALL if size == SIZE_SMALL else _LARGE, color_tok + color, _OBJECT)
        matches = [i for i, o in enumerate(objects) if o.color == color and o.size_class == size]
    else:
        color = colors_present[int(gen.integers(0, len(colors_present)))]
        last = _OBJECT if kind == "color_object" else _ONE
        tokens = (_THE, color_tok + color, last)
        matches = [i for i, o in enumerate(objects) if o.color == color]
    best = max(matches, key=lambda i: (objects[i].area, -i))
    return tokens, best


def generate_scene(seed: int, domain: str, cfg: EnvConfig) -> GridScene:
    """Deterministically generate the scene for (seed, domain, config)."""
    cfg.require_valid()
    if domain not in ("source", "target"):
        raise EnvConfigError(f"domain must be 'source' or 'target', got {domain!r}")
    gen = rng.stream(int(seed), "scene-gen")
    objects = _place_objects(gen, cfg)
    tokens, target = _pick_instruction(gen, cfg, objects)
    target_rect = objects[target].rect
    if target_rect[2] - target_rect[0] + 1 < 3 or target_rect[3] - target_rect[1] + 1 < 3:
        raise GenerationError("target rectangle thinner than 3 cells; config must prevent this")
    gt_source = _rect_mask(cfg.height, cfg.width, target_rect)
    gt_target = _rect_mask(cfg.height, cfg.width, eroded_rect(target_rect))
    return GridScene(
        width=cfg.width,
        height=cfg.height,
        colors=cfg.colors,
        objects=tuple(objects),
        instruction=tokens,
        target_ids=(target,),
        gt_mask_source=gt_source,
        gt_mask_target=gt_target,
        seed=int(seed),
        domain=domain,
    )


def color_grid(scene: GridScene) -> np.ndarray:
    """Per-cell color index with the background mapped to scene.colors."""
    grid = np.full((scene.height, scene.width), scene.colors, dtype=np.intp)
    for obj in scene.objects:
        x1, y1, x2, y2 = obj.rect
        grid[y1 : y2 + 1, x1 : x2 + 1] = obj.color
    return grid


def render_observation(scene: GridScene) -> np.ndarray:
    """Flat observation: per-cell one-hot occupancy then one-hot instruction.

    Layout: H*W cells row-major, each a (colors+1)-way one-hot; then
    INSTRUCTION_LEN blocks of size instruction_vocab.
    """
    channels = scene.colors + 1
    grid = color_grid(scene)
    occ = np.zeros((scene.height * scene.width, channels), dtype=np.float64)
    occ[np.arange(occ.shape[0]), grid.reshape(-1)] = 1.0
    vocab = len(_BASE_WORDS) + scene.colors
    instr = np.zeros((INSTRUCTION_LEN, vocab), dtype=np.float64)
    for pos, tok in enumerate(scene.instruction):
        instr[pos, tok] = 1.0
    return np.concatenate([occ.reshape(-1), instr.reshape(-1)])


def observation_dim(cfg: EnvConfig) -> int:
    return cfg.width * cfg.height * (cfg.colors + 1) + INSTRUCTION_LEN * cfg.instruction_vocab


_SIZE_BY_TOKEN = {0: SIZE_SMALL, 1: SIZE_LARGE, 2: None}


def parse_action_tokens(tokens, grammar: ActionGrammar) -> ToolPrompt | None:
    """Parse a fixed-length token sequence into a tool prompt; None if invalid."""
    tokens = list(tokens)
    if len(tokens) != grammar.l_max:
        raise GrammarUsageError(
            f"expected {grammar.l_max} tokens for the {grammar.name} grammar, got {len(tokens)}"
        )
    for tok, size in zip(tokens, grammar.step_sizes):
        if not 0 <= int(tok) < size:
            return None
    if grammar.name == "micro":
        return ToolPrompt(color=int(tokens[0]), size=None, boxes=(grammar.preset_boxes[int(tokens[1])],))
    color, size_tok, x1, y1, x2, y2, _eos = (int(t) for t in tokens)
    if x1 > x2 or y1 > y2:
        return None
    return ToolPrompt(color=color, size=_SIZE_BY_TOKEN[size_tok], boxes=((x1, y1, x2, y2),))


def _best_preset_box(grammar: ActionGrammar, rect) -> int:
    def iou(a, b):
        ix = max(0, min(a[2], b[2]) - max(a[0], b[0]) + 1)
        iy = max(0, min(a[3], b[3]) - max(a[1], b[1]) + 1)
        inter = ix * iy
        area_a = (a[2] - a[0] + 1) * (a[3] - a[1] + 1)
        area_b = (b[2] - b[0] + 1) * (b[3] - b[1] + 1)
        return inter / (area_a + area_b - inter)

    scores = [iou(box, rect) for box in grammar.preset_boxes]
    return int(np.argmax(scores))


def correct_tokens(scene: GridScene, grammar: ActionGrammar) -> list[int]:
    """The grammar tokens naming the (first) target object exactly."""
    obj = scene.objects[scene.target_ids[0]]
    if grammar.name == "micro":
        return [obj.color, _best_preset_box(grammar, obj.rect)]
    size_tok = 0 if obj.size_class == SIZE_SMALL else 1
    x1, y1, x2, y2 = obj.rect
    return [obj.color, size_tok, x1, y1, x2, y2, 0]


def scripted_demonstration(
    scene: GridScene, noise: float, gen: np.random.Generator, grammar: ActionGrammar
) -> list[int]:
    """Correct tokens with independent per-token corruption.

    Each position with at least two options is replaced, with probability
    ``noise``, by a uniformly drawn *different* in-vocabulary token; the EOS
    position has no alternative and is never corrupted.
    """
    if not 0.0 <= noise <= 1.0:
        raise GrammarUsageError("noise must lie in [0, 1]")
    tokens = correct_tokens(scene, grammar)
    for pos, size in enumerate(grammar.step_sizes):
        if size < 2:
            continue
        if gen.random() < noise:
            alt = int(gen.integers(0, size - 1))
            tokens[pos] = alt if alt < tokens[pos] else alt + 1
    return tokens
