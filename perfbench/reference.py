"""Independent output checks for the benchmark.

The scorer here reads checkpoint files with its own parser and recomputes, in
plain numpy, what `bgrto eval` reports: the policy MLP's greedy decode, the
tool's per-cell forward, thresholding, the box filter, IoU against the eroded
target rectangle, and the aggregate gIoU, cIoU, validity rate and mean reward.
It takes only scene geometry (rectangles, colors, instruction) from bgrto.

The property checks read `metrics.csv` and checkpoints and test what must hold
whatever the numbers are.  Every check returns a list of problems; an empty
list means it passed.
"""

from __future__ import annotations

import csv
import json
import math
import struct

import numpy as np

MAGIC = b"BGRTO\x00"
BASE_WORDS = 8  # instruction words before the color words
INSTRUCTION_LEN = 3
SIZE_BY_TOKEN = ("small", "large", None)
CONCEPT_OFFSET = {"small": 0, "large": 1, None: 2}
# A score can flip when a reordered floating-point sum moves a logit across a
# decision boundary; scenes whose margin is below this count as ambiguous.
TIE_MARGIN = 1e-9


def read_checkpoint(path: str) -> tuple[dict, dict[str, np.ndarray]]:
    """Metadata and tensors of a checkpoint file (format version 1)."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[: len(MAGIC)] != MAGIC:
        raise ValueError(f"{path}: not a checkpoint")
    pos = len(MAGIC)
    version, meta_len = struct.unpack_from("<II", blob, pos)
    if version != 1:
        raise ValueError(f"{path}: checkpoint version {version}")
    pos += 8
    meta = json.loads(blob[pos : pos + meta_len].decode("utf-8"))
    pos += meta_len
    tensors = {}
    for _ in range(meta["tensor_count"]):
        (name_len,) = struct.unpack_from("<I", blob, pos)
        pos += 4
        name = blob[pos : pos + name_len].decode("utf-8")
        pos += name_len
        (rank,) = struct.unpack_from("<I", blob, pos)
        pos += 4
        dims = struct.unpack_from(f"<{rank}Q", blob, pos)
        pos += 8 * rank
        count = int(np.prod(dims)) if dims else 1
        tensors[name] = np.frombuffer(blob, dtype="<f8", count=count, offset=pos).reshape(dims)
        pos += 8 * count
    if pos != len(blob):
        raise ValueError(f"{path}: {len(blob) - pos} trailing bytes")
    return meta, tensors


# ---------------------------------------------------------------------------
# scene encodings
# ---------------------------------------------------------------------------


def _color_grid(scene) -> np.ndarray:
    grid = np.full((scene.height, scene.width), scene.colors, dtype=np.intp)
    for obj in scene.objects:
        x1, y1, x2, y2 = obj.rect
        grid[y1 : y2 + 1, x1 : x2 + 1] = obj.color
    return grid


def _one_hot_cells(scene) -> np.ndarray:
    channels = scene.colors + 1
    return np.eye(channels)[_color_grid(scene).reshape(-1)]


def _observation(scene) -> np.ndarray:
    instr = np.zeros((INSTRUCTION_LEN, BASE_WORDS + scene.colors))
    instr[np.arange(INSTRUCTION_LEN), list(scene.instruction)] = 1.0
    return np.concatenate([_one_hot_cells(scene).reshape(-1), instr.reshape(-1)])


def _tool_features(scene) -> np.ndarray:
    """One-hot color, 3x3 zero-padded mean, and global mean per cell."""
    h, w = scene.height, scene.width
    occ = _one_hot_cells(scene).reshape(h, w, -1)
    padded = np.pad(occ, ((1, 1), (1, 1), (0, 0)))
    pooled = sum(padded[dy : dy + h, dx : dx + w] for dy in range(3) for dx in range(3)) / 9.0
    mean = np.broadcast_to(occ.mean(axis=(0, 1)), occ.shape)
    return np.concatenate([occ, pooled, mean], axis=2).reshape(h * w, -1)


def _box(height: int, width: int, rect) -> np.ndarray:
    x1, y1, x2, y2 = rect
    out = np.zeros((height, width), dtype=bool)
    out[y1 : y2 + 1, x1 : x2 + 1] = True
    return out


def target_rect(scene):
    return scene.objects[scene.target_ids[0]].rect


def eroded_gt(scene) -> np.ndarray:
    x1, y1, x2, y2 = target_rect(scene)
    return _box(scene.height, scene.width, (x1 + 1, y1 + 1, x2 - 1, y2 - 1))


# ---------------------------------------------------------------------------
# models
# ---------------------------------------------------------------------------


def greedy_tokens(policy: dict, scene) -> tuple[list[int], float]:
    """Argmax decode of the [color, size, x1, y1, x2, y2, EOS] grammar.

    Returns the tokens and the smallest gap between the two best logits.
    """
    sizes = (scene.colors, 3, scene.width, scene.height, scene.width, scene.height, 1)
    offsets = np.concatenate([[0], np.cumsum(sizes)])
    pre = _observation(scene) @ policy["policy/trunk/w1_obs"] + policy["policy/trunk/b1"]
    tokens, margin = [], math.inf
    for t in range(len(sizes)):
        h1 = np.maximum(pre, 0.0)
        h2 = np.maximum(h1 @ policy["policy/trunk/w2"] + policy["policy/trunk/b2"], 0.0)
        logits = h2 @ policy[f"policy/head{t}/w"] + policy[f"policy/head{t}/b"]
        tok = int(np.argmax(logits))
        if logits.size > 1:
            top2 = np.sort(logits)[-2:]
            margin = min(margin, float(top2[1] - top2[0]))
        tokens.append(tok)
        pre = pre + policy["policy/trunk/w1_prefix"][offsets[t] + tok]
    return tokens, margin


def parse_prompt(tokens):
    """(color, size, box) of a decoded sequence, or None when the box is empty."""
    color, size_tok, x1, y1, x2, y2, _eos = tokens
    if x1 > x2 or y1 > y2:
        return None
    return color, SIZE_BY_TOKEN[size_tok], (x1, y1, x2, y2)


def tool_logits(tool: dict, scene, color: int, size) -> np.ndarray:
    concept = color * 3 + CONCEPT_OFFSET[size]
    bias = tool["tool/embed"][concept] @ tool["tool/w_emb"] + tool["tool/b1"]
    h1 = np.maximum(_tool_features(scene) @ tool["tool/w_cell"] + bias, 0.0)
    h2 = np.maximum(h1 @ tool["tool/w2"] + tool["tool/b2"], 0.0)
    return (h2 @ tool["tool/w3"] + tool["tool/b3"]).reshape(scene.height, scene.width)


def predict_mask(tool: dict, scene, color, size, box, threshold: float):
    """Box-filtered mask and the smallest distance of an in-box logit to the cut."""
    cut = math.log(threshold / (1.0 - threshold))
    logits = tool_logits(tool, scene, color, size)
    inside = _box(scene.height, scene.width, box)
    margin = float(np.min(np.abs(logits[inside] - cut)))
    return (logits > cut) & inside, margin


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------


def score(ckpt_path: str, scenes, threshold: float, iou_weight: float, format_weight: float) -> dict:
    """The eval report of a joint checkpoint, recomputed from its tensors."""
    _, tensors = read_checkpoint(ckpt_path)
    ious, rewards = [], []
    inter_sum = union_sum = valid = ambiguous = 0
    for scene in scenes:
        gt = eroded_gt(scene)
        tokens, margin = greedy_tokens(tensors, scene)
        prompt = parse_prompt(tokens)
        if prompt is None:
            mask = np.zeros_like(gt)
            rewards.append(0.0)
        else:
            valid += 1
            mask, mask_margin = predict_mask(tensors, scene, *prompt, threshold)
            margin = min(margin, mask_margin)
        inter = int(np.count_nonzero(mask & gt))
        union = int(np.count_nonzero(mask | gt))
        iou = inter / union if union else 1.0
        if prompt is not None:
            rewards.append(iou_weight * iou + format_weight)
        ious.append(iou)
        if union:
            inter_sum += inter
            union_sum += union
        ambiguous += margin < TIE_MARGIN
    return {
        "giou": float(np.mean(ious)),
        "ciou": inter_sum / union_sum if union_sum else 1.0,
        "mean_reward": float(np.mean(rewards)),
        "validity_rate": valid / len(scenes),
        "samples": len(scenes),
        "ambiguous": ambiguous,
        "union_sum": union_sum,
    }


def check_eval_report(report: dict, ckpt_path: str, scenes, threshold: float,
                      iou_weight: float, format_weight: float) -> list[str]:
    """Compare a `bgrto eval` report with the recomputed one."""
    ref = score(ckpt_path, scenes, threshold, iou_weight, format_weight)
    if report.get("samples") != ref["samples"]:
        return [f"eval scored {report.get('samples')} scenes, expected {ref['samples']}"]
    cells = scenes[0].height * scenes[0].width
    per_scene = ref["ambiguous"] / ref["samples"]
    tolerance = {
        "giou": per_scene,
        "validity_rate": per_scene,
        "mean_reward": per_scene,
        "ciou": 2.0 * ref["ambiguous"] * cells / max(ref["union_sum"], 1),
    }
    problems = []
    for key, tol in tolerance.items():
        if not abs(report[key] - ref[key]) <= 1e-9 + tol:
            problems.append(f"eval {key} {report[key]!r} differs from the reference {ref[key]!r}")
    return problems


def check_tool_ceiling(tool_path: str, scenes, threshold: float, gap: float = 0.03) -> list[str]:
    """Source-trained tool with true prompts vs the analytic erosion ceiling."""
    _, tool = read_checkpoint(tool_path)
    ious, ceilings = [], []
    for scene in scenes:
        obj = scene.objects[scene.target_ids[0]]
        x1, y1, x2, y2 = obj.rect
        w, h = x2 - x1 + 1, y2 - y1 + 1
        mask, _ = predict_mask(tool, scene, obj.color, obj.size_class, obj.rect, threshold)
        gt = eroded_gt(scene)
        ious.append(np.count_nonzero(mask & gt) / np.count_nonzero(mask | gt))
        ceilings.append((w - 2) * (h - 2) / (w * h))
    found = abs(float(np.mean(ious)) - float(np.mean(ceilings)))
    if found > gap:
        return [f"pretrained tool IoU {np.mean(ious):.4f} is {found:.4f} from the erosion "
                f"ceiling {np.mean(ceilings):.4f} (allowed {gap})"]
    return []


def check_metrics_csv(path: str, expected_rows: int) -> list[str]:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    problems = []
    if len(rows) != expected_rows:
        problems.append(f"{path}: {len(rows)} rows, config implies {expected_rows}")
    skip = {"step", "epoch", "mode", "seed"}
    for row in rows:
        values = {k: float(v) for k, v in row.items() if k not in skip}
        bad = [k for k, v in values.items() if not math.isfinite(v)]
        if bad:
            problems.append(f"step {row['step']}: non-finite {bad}")
        if values["kl"] < 0.0:
            problems.append(f"step {row['step']}: kl {values['kl']} < 0")
        if values["tool_loss"] < 0.0:
            problems.append(f"step {row['step']}: tool_loss {values['tool_loss']} < 0")
        for key in ("giou", "ciou", "validity_rate"):
            if not 0.0 <= values[key] <= 1.0:
                problems.append(f"step {row['step']}: {key} {values[key]} outside [0, 1]")
        if len(problems) > 10:
            break
    return problems


def check_policy_untouched(before_path: str, after_path: str) -> list[str]:
    """Policy tensors of two checkpoints must be equal bit for bit."""
    _, before = read_checkpoint(before_path)
    _, after = read_checkpoint(after_path)
    names = sorted(n for n in before if n.startswith("policy/"))
    if names != sorted(n for n in after if n.startswith("policy/")):
        return [f"{after_path}: policy tensor names differ from {before_path}"]
    changed = [n for n in names if before[n].tobytes() != after[n].tobytes()]
    return [f"{after_path}: policy tensors changed: {changed}"] if changed else []


def check_report_ranges(report: dict) -> list[str]:
    return [
        f"eval {key} {report[key]!r} outside [0, 1]"
        for key in ("giou", "ciou", "validity_rate", "mean_reward")
        if not (math.isfinite(report[key]) and 0.0 <= report[key] <= 1.0)
    ]
