"""The two learnable components: a categorical prompt policy and a mask tool.

The policy is a two-hidden-layer MLP over [observation ++ one-hot token prefix]
with one output head per grammar step.  The tool is a per-cell decoder sharing
weights across cells: each cell sees its own color, a 3x3 mean-pooled
neighborhood, the global occupancy, and a learned concept embedding, and emits
one foreground logit.  The pooled neighborhood is what lets the tool tell
rectangle borders from interiors, which the target annotation convention
requires.

Cells with equal features get equal logits, so the tool runs once per
distinct feature row of a scene (about 30 of 256 cells on the default grid)
and a gather scatters the row logits back to the grid.
"""

from __future__ import annotations

import itertools
import weakref
from collections.abc import Iterable, Iterator
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import env as envmod
from .autodiff import GradientTape, NamedParams, Tensor
from .env import ActionGrammar, EnvConfig, GridScene, ToolPrompt
from .optim import OptimizerState, adamw_init, adamw_step, clip_global_norm, global_norm


class WarmupFailure(RuntimeError):
    """Warm-up budget exhausted before the validity-rate floor was reached."""


@dataclass(frozen=True)
class PolicyConfig:
    hidden: int = 64


@dataclass(frozen=True)
class ToolConfig:
    hidden: int = 32
    embed_dim: int = 8


def _glorot(gen: np.random.Generator, fan_in: int, fan_out: int, shape) -> np.ndarray:
    half_width = np.sqrt(6.0 / (fan_in + fan_out))
    return gen.uniform(-half_width, half_width, size=shape)


# ---------------------------------------------------------------------------
# policy
# ---------------------------------------------------------------------------


def policy_input_dim(cfg: EnvConfig, grammar: ActionGrammar) -> int:
    return envmod.observation_dim(cfg) + grammar.total_vocab


def policy_init(seed: int, cfg: EnvConfig, grammar: ActionGrammar, pcfg: PolicyConfig) -> NamedParams:
    """Glorot-uniform weights, zero biases, deterministic per seed.

    The first layer is stored as two row blocks (observation rows, prefix
    one-hot rows) drawn from one matrix, so the prefix contribution can be
    evaluated as a sparse row gather without changing the model.
    """
    from . import rng

    h = pcfg.hidden
    obs_dim = envmod.observation_dim(cfg)
    in_dim = policy_input_dim(cfg, grammar)
    w1 = _glorot(rng.stream(seed, "policy-init", "w1"), in_dim, h, (in_dim, h))
    params = NamedParams()
    params["policy/trunk/w1_obs"] = w1[:obs_dim]
    params["policy/trunk/w1_prefix"] = w1[obs_dim:]
    params["policy/trunk/b1"] = np.zeros(h)
    params["policy/trunk/w2"] = _glorot(rng.stream(seed, "policy-init", "w2"), h, h, (h, h))
    params["policy/trunk/b2"] = np.zeros(h)
    for t, size in enumerate(grammar.step_sizes):
        params[f"policy/head{t}/w"] = _glorot(
            rng.stream(seed, "policy-init", f"head{t}"), h, size, (h, size)
        )
        params[f"policy/head{t}/b"] = np.zeros(size)
    return params


def _prefix_offsets(grammar: ActionGrammar) -> list[int]:
    offsets = [0]
    for size in grammar.step_sizes:
        offsets.append(offsets[-1] + size)
    return offsets


def _obs_hidden_node(tape: GradientTape, params: NamedParams, scenes: list[GridScene]) -> Tensor:
    """(M, hidden) observation contribution, shared by every step on this tape."""
    key = ("policy-obs-h", tuple(id(scene) for scene in scenes))
    node = tape.cache.get(key)
    if node is None:
        w1_obs = tape.leaf("policy/trunk/w1_obs", params["policy/trunk/w1_obs"])
        obs_rows = tape.constant(np.stack([envmod.render_observation(scene) for scene in scenes]))
        node = ad.rowwise_matmul(obs_rows, w1_obs)
        tape.cache[key] = node
    return node


def _step_logits_nodes(
    tape: GradientTape,
    params: NamedParams,
    scenes: list[GridScene],
    prefixes,
    step: int,
    grammar: ActionGrammar,
) -> Tensor:
    """(M, vocab) logits of grammar step `step` for M scenes and their M token prefixes.

    Every product is row-wise, so each row carries the same bits as a call
    with that row alone: batching never changes a decode or a log-prob.
    """
    b1 = tape.leaf("policy/trunk/b1", params["policy/trunk/b1"])
    w2 = tape.leaf("policy/trunk/w2", params["policy/trunk/w2"])
    b2 = tape.leaf("policy/trunk/b2", params["policy/trunk/b2"])
    hw = tape.leaf(f"policy/head{step}/w", params[f"policy/head{step}/w"])
    hb = tape.leaf(f"policy/head{step}/b", params[f"policy/head{step}/b"])
    pre = _obs_hidden_node(tape, params, scenes)
    if step > 0:
        w1_prefix = tape.leaf("policy/trunk/w1_prefix", params["policy/trunk/w1_prefix"])
        offsets = _prefix_offsets(grammar)
        picks = [offsets[t] + int(tokens[t]) for tokens in prefixes for t in range(step)]
        picked = ad.reshape(ad.gather(w1_prefix, picks), (len(scenes), step, w1_prefix.dims[1]))
        ones = tape.constant(np.ones((len(scenes), step)))
        pre = ad.add(pre, ad.rowwise_matmul(ones, picked))
    h1 = ad.relu(ad.add(pre, b1))
    h2 = ad.relu(ad.add(ad.rowwise_matmul(h1, w2), b2))
    return ad.add(ad.rowwise_matmul(h2, hw), hb)


def _one_row_logits_nodes(
    tape: GradientTape,
    params: NamedParams,
    scene: GridScene,
    tokens,
    step: int,
    grammar: ActionGrammar,
) -> Tensor:
    """(vocab,) logits of one scene's step: `_step_logits_nodes` with one row."""
    logits = _step_logits_nodes(tape, params, [scene], [tokens], step, grammar)
    return ad.reshape(logits, (logits.dims[1],))


def policy_step_logprob_rows(
    params: NamedParams, scenes: list[GridScene], grammar: ActionGrammar, prefixes, step: int
) -> np.ndarray:
    """(M, vocab) log-probabilities of one step for M scenes and their emitted prefixes."""
    tape = GradientTape()
    return ad.log_softmax(_step_logits_nodes(tape, params, scenes, prefixes, step, grammar)).data


def policy_logprob_nodes(
    tape: GradientTape,
    params: NamedParams,
    scene: GridScene,
    tokens,
    grammar: ActionGrammar,
) -> list[Tensor]:
    """Per-token log-probability nodes of `tokens` under the policy on `tape`."""
    tokens = [int(t) for t in tokens]
    if len(tokens) != grammar.l_max:
        raise envmod.GrammarUsageError(f"expected {grammar.l_max} tokens, got {len(tokens)}")
    for tok, size in zip(tokens, grammar.step_sizes):
        if not 0 <= tok < size:
            raise envmod.GrammarUsageError(f"token {tok} outside step vocabulary of size {size}")
    nodes = []
    for t, tok in enumerate(tokens):
        logits = _one_row_logits_nodes(tape, params, scene, tokens, t, grammar)
        lp_vec = ad.log_softmax(logits)
        nodes.append(ad.reshape(ad.gather(lp_vec, [tok]), ()))
    return nodes


def policy_logprobs(
    params: NamedParams, scene: GridScene, tokens, grammar: ActionGrammar
) -> np.ndarray:
    """Per-token log-probabilities as plain values."""
    tape = GradientTape()
    nodes = policy_logprob_nodes(tape, params, scene, tokens, grammar)
    return np.array([n.item() for n in nodes])


@dataclass
class SampledSequence:
    tokens: list[int]
    logprobs: np.ndarray  # recorded under the sampling distribution


def sample_sequence(
    params: NamedParams,
    scene: GridScene,
    temperature: float,
    gen: np.random.Generator,
    grammar: ActionGrammar,
    _tape: GradientTape | None = None,
) -> SampledSequence:
    """One ancestral sample with its log-probabilities under the tempered policy."""
    if not temperature > 0.0:
        raise envmod.GrammarUsageError("temperature must be positive")
    tape = _tape if _tape is not None else GradientTape()
    inv_t = 1.0 / temperature
    tokens: list[int] = []
    lps: list[float] = []
    for t, size in enumerate(grammar.step_sizes):
        logits = _one_row_logits_nodes(tape, params, scene, tokens, t, grammar)
        lp_vec = ad.log_softmax(ad.mul(logits, inv_t)).data
        probs = np.exp(lp_vec)
        u = gen.random()
        tok = int(np.searchsorted(np.cumsum(probs), u, side="right").clip(0, size - 1))
        tokens.append(tok)
        lps.append(float(lp_vec[tok]))
    return SampledSequence(tokens=tokens, logprobs=np.array(lps))


def policy_sample(
    params: NamedParams,
    scene: GridScene,
    group_size: int,
    temperature: float,
    rngs,
    grammar: ActionGrammar,
) -> list[SampledSequence]:
    """Ancestral sampling of `group_size` token sequences.

    `rngs` is one Generator per rollout so streams stay order-independent.
    Recorded log-probabilities are taken under the tempered distribution; at
    temperature 1 they coincide bit-exactly with `policy_logprobs`.
    """
    if group_size < 2:
        raise envmod.GrammarUsageError("group size must be at least 2")
    if len(rngs) != group_size:
        raise envmod.GrammarUsageError("need one rng stream per rollout")
    tape = GradientTape()
    return [
        sample_sequence(params, scene, temperature, rngs[i], grammar, _tape=tape)
        for i in range(group_size)
    ]


# Scenes per batched greedy decode: a chunk's observation rows take about
# 2.7 MB on the default grid, where all 3000 held-out scenes would take 32 MB.
DECODE_CHUNK = 256


def greedy_decode(
    params: NamedParams, scenes: list[GridScene], grammar: ActionGrammar
) -> list[list[int]]:
    """Deterministic argmax decoding of each scene (ties resolve to the lowest token).

    One M-row policy step per grammar step decodes all M scenes; each row's
    tokens are those of decoding its scene alone.
    """
    tape = GradientTape()
    prefixes: list[list[int]] = [[] for _ in scenes]
    for t in range(grammar.l_max):
        logits = _step_logits_nodes(tape, params, scenes, prefixes, t, grammar)
        for prefix, tok in zip(prefixes, np.argmax(logits.data, axis=1)):
            prefix.append(int(tok))
    return prefixes


def greedy_prompts(
    params: NamedParams, scenes: Iterable[GridScene], grammar: ActionGrammar
) -> Iterator[ToolPrompt | None]:
    """Each scene's greedy decode, parsed (None where it does not parse).

    Decodes `DECODE_CHUNK` scenes at a time and yields lazily, so `scenes` may
    be a generator and a consumer that scores each prompt as it arrives holds
    one chunk of scenes and decodes at a time; take a list to reuse them.
    """
    remaining = iter(scenes)
    while chunk := list(itertools.islice(remaining, DECODE_CHUNK)):
        for tokens in greedy_decode(params, chunk, grammar):
            yield envmod.parse_action_tokens(tokens, grammar)


# ---------------------------------------------------------------------------
# tool
# ---------------------------------------------------------------------------

_TOOL_ROWS: "weakref.WeakKeyDictionary[GridScene, tuple[np.ndarray, np.ndarray]]" = (
    weakref.WeakKeyDictionary()
)
# Largest key that still takes one more base-10 digit within int64.
_KEY_LIMIT = (np.iinfo(np.int64).max - 9) // 10


def concept_count(cfg: EnvConfig) -> int:
    return cfg.colors * 3  # per color: small, large, wildcard


def concept_index(color: int, size: str | None) -> int:
    offset = {envmod.SIZE_SMALL: 0, envmod.SIZE_LARGE: 1, None: 2}[size]
    return color * 3 + offset


def tool_feature_dim(cfg: EnvConfig) -> int:
    return 3 * (cfg.colors + 1)


def tool_feature_rows(scene: GridScene) -> tuple[np.ndarray, np.ndarray]:
    """The scene's distinct per-cell feature rows (U, F) and each cell's row (cells,).

    A cell's features are its one-hot color, its 3x3 pooled occupancy and the
    global mean.  Pooling divides each color's count in the zero-padded 3x3
    window by 9, so border cells of an object (and of the grid) see strictly
    smaller same-color mass than interior cells.  The global mean is the same
    for every cell, so a row is fixed by the cell's color and its window
    counts; `rows[inverse]` is the full (cells, F) feature matrix.
    """
    cached = _TOOL_ROWS.get(scene)
    if cached is not None:
        return cached
    h, w = scene.height, scene.width
    channels = scene.colors + 1
    grid = envmod.color_grid(scene)
    padded = np.zeros((h + 2, w + 2, channels), dtype=np.int64)
    padded[np.arange(1, h + 1)[:, None], np.arange(1, w + 1)[None, :], grid] = 1
    window_rows = padded[:-2] + padded[1:-1] + padded[2:]
    counts = window_rows[:, :-2] + window_rows[:, 1:-1] + window_rows[:, 2:]
    counts = counts.reshape(h * w, channels)
    colors = grid.reshape(-1)
    # An exact integer key: the color, then each count (0..9) as one more
    # base-10 digit; the keys are ranked afresh before a digit could overflow.
    key = colors.astype(np.int64)
    bound = channels - 1
    for c in range(channels):
        if bound > _KEY_LIMIT:
            key = np.unique(key, return_inverse=True)[1]
            bound = int(key.max())
        key = key * 10 + counts[:, c]
        bound = bound * 10 + 9
    _, first, inverse = np.unique(key, return_index=True, return_inverse=True)
    rows = np.empty((len(first), 3 * channels))
    rows[:, :channels] = np.eye(channels)[colors[first]]
    rows[:, channels : 2 * channels] = counts[first] / 9.0
    rows[:, 2 * channels :] = np.bincount(colors, minlength=channels) / (h * w)
    _TOOL_ROWS[scene] = rows, inverse
    return rows, inverse


def tool_init(seed: int, cfg: EnvConfig, tcfg: ToolConfig) -> NamedParams:
    from . import rng

    h = tcfg.hidden
    e = tcfg.embed_dim
    f = tool_feature_dim(cfg)
    n_concepts = concept_count(cfg)
    params = NamedParams()
    params["tool/w_cell"] = _glorot(rng.stream(seed, "tool-init", "w_cell"), f, h, (f, h))
    params["tool/w_emb"] = _glorot(rng.stream(seed, "tool-init", "w_emb"), e, h, (e, h))
    params["tool/b1"] = np.zeros(h)
    params["tool/w2"] = _glorot(rng.stream(seed, "tool-init", "w2"), h, h, (h, h))
    params["tool/b2"] = np.zeros(h)
    params["tool/w3"] = _glorot(rng.stream(seed, "tool-init", "w3"), h, 1, (h, 1))
    params["tool/b3"] = np.zeros(1)
    params["tool/embed"] = _glorot(rng.stream(seed, "tool-init", "embed"), n_concepts, e, (n_concepts, e))
    return params


def _tool_cell_path_node(tape: GradientTape, params: NamedParams, scene: GridScene) -> Tensor:
    """(U, hidden) concept-independent part of the distinct rows, shared on this tape."""
    key = ("tool-cell-path", id(scene))
    node = tape.cache.get(key)
    if node is None:
        rows = tape.constant(tool_feature_rows(scene)[0])
        w_cell = tape.leaf("tool/w_cell", params["tool/w_cell"])
        node = ad.matmul(rows, w_cell)
        tape.cache[key] = node
    return node


def tool_forward_nodes(
    tape: GradientTape, params: NamedParams, scene: GridScene, prompt: ToolPrompt
) -> Tensor:
    """Mask logits (H, W) for the prompt's concept, differentiable in the tool.

    The decoder runs once per distinct feature row, and one gather hands each
    cell the logit of its row.
    """
    if prompt is None:
        raise envmod.GrammarUsageError("tool_forward requires a valid prompt; gate on validity first")
    w_emb = tape.leaf("tool/w_emb", params["tool/w_emb"])
    b1 = tape.leaf("tool/b1", params["tool/b1"])
    w2 = tape.leaf("tool/w2", params["tool/w2"])
    b2 = tape.leaf("tool/b2", params["tool/b2"])
    w3 = tape.leaf("tool/w3", params["tool/w3"])
    b3 = tape.leaf("tool/b3", params["tool/b3"])
    embed = tape.leaf("tool/embed", params["tool/embed"])
    hidden = b1.dims[0]
    cell_path = _tool_cell_path_node(tape, params, scene)
    row = ad.gather(embed, [concept_index(prompt.color, prompt.size)])
    emb_h = ad.reshape(ad.matmul(row, w_emb), (hidden,))
    concept_bias = ad.add(emb_h, b1)  # fold the concept shift into the bias once
    h1 = ad.relu(ad.add(cell_path, concept_bias))
    h2 = ad.relu(ad.add(ad.matmul(h1, w2), b2))
    logit = ad.add(ad.matmul(h2, w3), b3)
    per_row = ad.reshape(logit, (logit.dims[0],))
    per_cell = ad.gather(per_row, tool_feature_rows(scene)[1])
    return ad.reshape(per_cell, (scene.height, scene.width))


def tool_logits(params: NamedParams, scene: GridScene, prompt: ToolPrompt) -> np.ndarray:
    """Value of `tool_forward_nodes`: the (H, W) mask logits."""
    tape = GradientTape()
    return tool_forward_nodes(tape, params, scene, prompt).data.copy()


def true_prompt(scene: GridScene) -> ToolPrompt:
    """Oracle-perfect prompt: the target's concrete concept and exact box."""
    obj = scene.objects[scene.target_ids[0]]
    return ToolPrompt(color=obj.color, size=obj.size_class, boxes=(obj.rect,))


# ---------------------------------------------------------------------------
# supervised warm-up stages
# ---------------------------------------------------------------------------


def descent_step(
    params: NamedParams,
    grads: NamedParams,
    state: OptimizerState,
    lr: float,
    clip_norm: float | None = None,
) -> tuple[NamedParams, OptimizerState, float | None]:
    """One AdamW step of `params` down their entries of `grads`.

    `grads` is what `backward` returned for a loss to minimize; entries of
    other parameters on the same tape are ignored.  With `clip_norm`, the
    gradients are clipped to that global norm first.  Returns the new
    parameters and state, and the global norm before clipping (None when
    not clipping).
    """
    own = NamedParams((name, g) for name, g in grads.items() if name in params)
    norm = None
    if clip_norm is not None:
        norm = global_norm(own)
        own = clip_global_norm(own, clip_norm, norm)
    params, state = adamw_step(params, own, state, lr)
    return params, state, norm


def pretrain_tool(
    params: NamedParams,
    scenes: list[GridScene],
    epochs: int,
    lr: float,
) -> NamedParams:
    """Fit the tool to the source convention with oracle prompts.

    One unclipped AdamW step per (scene, true prompt) pair against the
    full-rectangle labels.  Zero epochs returns the parameters unchanged.
    """
    from . import objectives

    if epochs == 0:
        return params
    state = adamw_init(params)
    for _epoch in range(epochs):
        for scene in scenes:
            tape = GradientTape()
            objectives.prompt_seg_losses(tape, params, scene, [true_prompt(scene)],
                                         scene.gt_mask_source)
            params, state, _ = descent_step(params, ad.backward(tape), state, lr)
    return params


@dataclass
class WarmupResult:
    params: NamedParams
    loss_history: list[float]
    validity_rate: float


def sample_validity_rate(
    params: NamedParams,
    scenes: list[GridScene],
    grammar: ActionGrammar,
    gen: np.random.Generator,
    samples: int = 200,
) -> float:
    """Fraction of temperature-1 samples that parse into valid prompts."""
    valid = 0
    for i in range(samples):
        scene = scenes[i % len(scenes)]
        seq = sample_sequence(params, scene, 1.0, gen, grammar)
        prompt = envmod.parse_action_tokens(seq.tokens, grammar)
        valid += prompt is not None
    return valid / samples


def warmup_policy(
    params: NamedParams,
    demos: list[tuple[GridScene, list[int]]],
    epochs: int,
    lr: float,
    grammar: ActionGrammar,
    validity_gen: np.random.Generator,
    validity_samples: int = 200,
    validity_floor: float = 0.5,
) -> WarmupResult:
    """Maximize mean per-token log-likelihood of the scripted demonstrations.

    Raises WarmupFailure when the post-warmup validity rate at temperature 1
    stays below the floor; rerun with a larger epoch or demo budget.
    """
    history: list[float] = []
    if epochs > 0:
        state = adamw_init(params)
        for _epoch in range(epochs):
            epoch_losses = []
            for scene, tokens in demos:
                tape = GradientTape()
                nodes = policy_logprob_nodes(tape, params, scene, tokens, grammar)
                total = nodes[0]
                for node in nodes[1:]:
                    total = ad.add(total, node)
                loss = ad.mul(total, -1.0 / grammar.l_max)
                epoch_losses.append(loss.item())
                grads = ad.backward(tape)
                params, state = adamw_step(params, grads, state, lr)
            history.append(float(np.mean(epoch_losses)))
    scenes = [scene for scene, _ in demos]
    rate = sample_validity_rate(params, scenes, grammar, validity_gen, validity_samples)
    if epochs > 0 and rate < validity_floor:
        raise WarmupFailure(
            f"validity rate {rate:.3f} below {validity_floor} after {epochs} warm-up epochs; "
            "increase warmup.epochs or warmup.demos"
        )
    return WarmupResult(params=params, loss_history=history, validity_rate=rate)
