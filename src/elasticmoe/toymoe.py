"""A tiny deterministic MoE language model on bit-nested INT8 expert codes.

The model is small enough to run exhaustive decoding experiments in tests:
random fixed weights, a decayed-context stand-in for attention (each layer
keeps CONTEXT_DECAY times its previous context plus the new input), top-k
routed SiLU-gated experts, and greedy sampling everywhere.  Expert weights
exist only as group-quantized INT8 codes, one stored layout per expert
(ExpertWeights); the precision mode picks the code set ExpertWeights.codes
reads from them: the stored 8-bit codes (INT8_FULL) or the 4-bit MSB
surrogate used for drafting (MSB4_DRAFT), rebuilt by surrogate_codes once
per expert and mode.  Dense parts (embedding, context map, router, output
head) stay real in both modes.  gen_model keeps its last model, so a
(shape, seed) asked for again in the process is the same read-only
object, its code sets built once.

``step`` is one layer-major forward over T tokens, each continuing a given
decode state or an earlier token of the same call, so a prompt chain, a
draft level or a whole verify tree (of one decode, or of several, each
token with its own expert pool) is one call and a single token is the
T = 1 call.  Routing choices leave ``step`` as (T, n_layers, top_k) expert
id arrays; gates never do.  ``prefill`` feeds a token sequence from a
fresh state.  A decode state carries its position, the number of tokens
fed so far, and ``step`` alone maps a token's position to the row of a
routing trace it routes on: one (positions, layers, experts) score array,
from ``trace_scores``, read modulo its length.

Determinism rules: every matrix product works on fixed 32-wide input
groups: an index-ordered einsum (dense parts) or an exact integer dot
(quantized experts) per group, into group-major partials (groups, rows,
out), then a sum across groups with np.sum's rounding over a contiguous
group axis; every row is normalized, quantized and routed on its own.  So
results never depend on how many tokens are evaluated together, or with
which; routing and sampling ties break toward lower ids.
"""

from __future__ import annotations

import enum
import functools
from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .bitnest import (
    CODE_MAX,
    CODE_MIN,
    GROUP_SIZE,
    ReconstructMode,
    fp16_scale,
    surrogate_codes,
)

RMSNORM_EPS = 1e-6
# Weight of a layer's previous context in its decayed-context accumulator.
CONTEXT_DECAY = 0.5


class PrecisionMode(enum.Enum):
    INT8_FULL = "int8_full"
    MSB4_DRAFT = "msb4_draft"


@dataclass(frozen=True)
class MoEShape:
    d_model: int
    d_ff: int
    n_experts: int
    top_k: int
    n_layers: int
    vocab: int

    def __post_init__(self):
        for name in ("d_model", "d_ff", "n_experts", "top_k", "n_layers", "vocab"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive")
        if self.d_model % GROUP_SIZE or self.d_ff % GROUP_SIZE:
            raise ValueError(f"d_model and d_ff must be divisible by {GROUP_SIZE}")
        if self.top_k > self.n_experts:
            raise ValueError("top_k cannot exceed n_experts")


def quantize_rows(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-row symmetric INT8 by the bitnest.quantize_group rule over each
    whole row: returns (codes as integer-valued float64, per-row scales).
    Only a batch with a row magnitude outside [127 * 2**-14, 65504 * 127)
    (zero, tiny, huge, NaN or inf) goes through fp16_scale."""
    # A NaN or inf anywhere makes its row's magnitude non-finite; NaN
    # fails both range comparisons.
    amax = np.maximum.reduce(np.abs(v), axis=1, initial=0.0)
    lo, hi = np.minimum.reduce(amax, initial=np.inf), np.maximum.reduce(amax, initial=0.0)
    if 127.0 * 2.0**-14 <= lo and hi < 65504.0 * 127.0:
        # Every scale is normal and finite in fp16, so fp16_scale is the
        # plain cast, within 2**-11 of amax / 127: every |v / scale| rounds
        # into [-127, 127] unclamped.
        scales = (amax / 127.0).astype(np.float16).astype(np.float64)
        return np.rint(v / scales[:, None]), scales
    if not np.isfinite(amax).all():
        raise ValueError("non-finite value to quantize")
    scales = fp16_scale(amax)
    # Two ufuncs, not np.clip: its wrapper costs more on this hot path.
    codes = np.minimum(np.maximum(np.rint(v / scales[:, None]), CODE_MIN), CODE_MAX)
    return codes, scales


def quantize_matrix(w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Group-quantize a real (out, in) matrix along its input dimension:
    quantize_rows over each row's 32-wide groups.  Returns read-only
    (codes, scales) laid out as the expert kernel reads them: int8
    (groups, 32, out) codes and (groups, 1, out) fp16 scales.
    """
    w = np.asarray(w, dtype=np.float64)
    if w.ndim != 2 or w.shape[1] % GROUP_SIZE:
        raise ValueError(f"need (out, in) with in divisible by {GROUP_SIZE}")
    out_dim = w.shape[0]
    codes, scales = quantize_rows(w.reshape(-1, GROUP_SIZE))
    codes = codes.astype(np.int8).reshape(out_dim, -1, GROUP_SIZE).transpose(1, 2, 0)
    codes = np.ascontiguousarray(codes)
    scales = np.ascontiguousarray(scales.reshape(out_dim, -1).T)[:, None, :]
    codes.flags.writeable = False
    scales.flags.writeable = False
    return codes, scales


def _float_codes(codes: np.ndarray, mode: ReconstructMode) -> np.ndarray:
    # Codes rebuilt from their slices under a reconstruction mode (FULL is
    # the stored codes), as read-only float32: exact, every |code| <= 128.
    if mode is not ReconstructMode.FULL:
        codes = surrogate_codes(codes, mode)
    codes = codes.astype(np.float32)
    codes.flags.writeable = False
    return codes


@dataclass(frozen=True)
class ExpertWeights:
    """One expert's bit-nested INT8 codes and fp16 scales, as quantize_matrix
    lays them out: up and gate stacked into one 2 * d_ff output, and down."""

    up_gate: np.ndarray
    up_gate_scales: np.ndarray
    down: np.ndarray
    down_scales: np.ndarray
    _codes: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def codes(self, mode: ReconstructMode) -> tuple[np.ndarray, np.ndarray]:
        """The (up_gate, down) codes under a reconstruction mode as the
        float32 the kernel multiplies, built on first use per mode and kept
        read-only (dict.setdefault, so concurrent first calls share one)."""
        built = self._codes.get(mode)
        if built is None:
            built = self._codes.setdefault(
                mode, (_float_codes(self.up_gate, mode), _float_codes(self.down, mode))
            )
        return built


@dataclass(frozen=True)
class MoEModel:
    shape: MoEShape
    embed: np.ndarray
    w_attn: np.ndarray
    w_router: np.ndarray
    experts: tuple[tuple[ExpertWeights, ...], ...]
    w_out: np.ndarray


@dataclass(frozen=True)
class DecodeState:
    """Per-layer decayed context accumulators, shape (n_layers, d_model),
    and pos, the number of tokens fed so far: the next token's position."""

    ctx: np.ndarray
    pos: int


@dataclass(frozen=True)
class StepOutput:
    """One step call over T tokens: each token's next state, the (T, vocab)
    logits for the following positions, and the (T, n_layers, top_k)
    expert ids each token was routed to (selected, within the pool) and
    would have been routed to without one (unrestricted)."""

    states: tuple[DecodeState, ...]
    logits: np.ndarray
    selected: np.ndarray
    unrestricted: np.ndarray


# Row-wise helpers: each row is reduced on its own, along a contiguous last
# axis, so a row's result does not depend on how many rows come with it.
# The ufunc reductions are what np.sum, np.mean and np.max call, minus the
# wrappers, which cost more than the work at these sizes.


def _rmsnorm(v: np.ndarray) -> np.ndarray:
    ms = np.add.reduce(v * v, axis=-1, keepdims=True) / v.shape[-1]
    return v / np.sqrt(ms + RMSNORM_EPS)


def _softmax(z: np.ndarray) -> np.ndarray:
    e = np.exp(z - np.maximum.reduce(z, axis=-1, keepdims=True))
    return e / np.add.reduce(e, axis=-1, keepdims=True)


def log_softmax(z: np.ndarray) -> np.ndarray:
    shifted = z - np.maximum.reduce(z, axis=-1, keepdims=True)
    return shifted - np.log(np.add.reduce(np.exp(shifted), axis=-1, keepdims=True))


def _silu(v: np.ndarray) -> np.ndarray:
    return v / (1.0 + np.exp(-v))


def _group_sum(parts: np.ndarray) -> np.ndarray:
    # Sum group-major partials (groups, rows, out) over the leading axis
    # with np.sum's bits over a contiguous group axis.  numpy adds fewer
    # than 8 elements left to right from 0.0 on every reduction path, so
    # one slab-wise reduce matches; from 8 on a contiguous axis sums
    # pairwise, so the groups are made the contiguous last axis instead.
    if len(parts) >= 8:
        return np.add.reduce(np.moveaxis(parts, 0, -1).copy(), axis=-1)
    return np.add.reduce(parts, axis=0)


def _blocked_matmul(w: np.ndarray, x: np.ndarray) -> np.ndarray:
    # w (out, in) times each row of x (T, in): an index-ordered einsum over
    # each 32-wide input group, laid out group-major (order "C"; einsum
    # would otherwise keep the inputs' group-last order), then _group_sum.
    # The same accumulation structure as the quantized products.
    out_dim = w.shape[0]
    parts = np.einsum(
        "ogj,tgj->gto",
        w.reshape(out_dim, -1, GROUP_SIZE),
        x.reshape(x.shape[0], -1, GROUP_SIZE),
        order="C",
        optimize=False,
    )
    return _group_sum(parts)


def _select(
    scores: np.ndarray, k: int, permitted: Optional[np.ndarray] = None
) -> tuple[np.ndarray, np.ndarray]:
    """The one selection rule: per row of finite scores (T, n), the top-k
    ids by score (ties to the lower id, by a stable argsort), only among
    the ids a boolean permitted mask allows, and their gates renormalized
    over the selection.  Returns (ids (T, k), gates (T, k))."""
    key = -scores if permitted is None else np.where(permitted, -scores, np.inf)
    ids = key.argsort(axis=1, kind="stable")[:, :k]
    chosen = scores[np.arange(len(scores))[:, None], ids]
    return ids, chosen / np.add.reduce(chosen, axis=1, keepdims=True)


# Models kept built, by (shape, seed): every workload and suite uses one key.
MODEL_CACHE_SIZE = 1


def gen_model(shape: MoEShape, seed: int) -> MoEModel:
    """The model with fixed random weights for a shape and an integer seed:
    same seed, same model.  The last model is kept, so a repeated
    (shape, seed) returns the same read-only object (and its draft code
    sets, built once)."""
    return _build_model(shape, as_index(seed, "model seed"))


@functools.lru_cache(maxsize=MODEL_CACHE_SIZE)
def _build_model(shape: MoEShape, seed: int) -> MoEModel:
    rng = np.random.default_rng(seed)
    d, f = shape.d_model, shape.d_ff
    embed = rng.normal(0.0, 1.0, size=(shape.vocab, d))
    w_out = rng.normal(0.0, 1.0 / np.sqrt(d), size=(shape.vocab, d))
    w_attn = np.empty((shape.n_layers, d, d))
    w_router = np.empty((shape.n_layers, shape.n_experts, d))
    layers = []
    for layer in range(shape.n_layers):
        w_attn[layer] = rng.normal(0.0, 1.0 / np.sqrt(d), size=(d, d))
        w_router[layer] = rng.normal(0.0, 2.0 / np.sqrt(d), size=(shape.n_experts, d))
        experts = []
        for _ in range(shape.n_experts):
            # Up then gate, one (2f, d) draw: the same values as two (f, d).
            up_gate = quantize_matrix(rng.normal(0.0, 1.0 / np.sqrt(d), size=(2 * f, d)))
            down = quantize_matrix(rng.normal(0.0, 1.0 / np.sqrt(f), size=(d, f)))
            experts.append(ExpertWeights(*up_gate, *down))
        layers.append(tuple(experts))
    for a in (embed, w_attn, w_router, w_out):
        a.flags.writeable = False
    return MoEModel(
        shape=shape,
        embed=embed,
        w_attn=w_attn,
        w_router=w_router,
        experts=tuple(layers),
        w_out=w_out,
    )


def _weight_mode(mode: PrecisionMode, draft_reconstruct: ReconstructMode) -> ReconstructMode:
    # The code set a precision mode reads.
    if mode is PrecisionMode.INT8_FULL:
        return ReconstructMode.FULL
    if mode is PrecisionMode.MSB4_DRAFT:
        return draft_reconstruct
    raise ValueError(f"unknown mode {mode!r}")


def _quant_products(acts: np.ndarray, act_scales: np.ndarray, blocks: list) -> np.ndarray:
    # Rows of the integer-valued acts (P, in), with per-row scales, each
    # times the codes of its block: blocks are (float32 codes (groups, 32,
    # out), their (groups, 1, out) scales, lo, hi) over rows [lo, hi).
    # Every group dot is a sum of 32 products of magnitude <= 128 * 127,
    # so every partial sum is an integer below 2^24 and exact in float32
    # whatever rows BLAS sees together or order it adds in.  Each group
    # partial (ints * weight scale) * row scale is then an exact float64
    # product (<= 42 significant bits), and the group sum gives the exact
    # real value of the dequantized blocked product.
    n = acts.shape[0]
    grouped = acts.astype(np.float32).reshape(n, -1, GROUP_SIZE).transpose(1, 0, 2)
    ints = np.empty((len(grouped), n, blocks[0][0].shape[2]), dtype=np.float32)
    parts = np.empty(ints.shape)
    for codes, scales, lo, hi in blocks:
        np.matmul(grouped[:, lo:hi], codes, out=ints[:, lo:hi])
        np.multiply(ints[:, lo:hi], scales, out=parts[:, lo:hi])
    parts *= act_scales[:, None]
    return _group_sum(parts)


def _experts(
    x: np.ndarray,
    ids: np.ndarray,
    experts: Sequence[ExpertWeights],
    rec: ReconstructMode,
) -> np.ndarray:
    """The expert kernel: out[t, slot] = expert experts[ids[t, slot]] on row
    x[t], for rows x (T, d_model) and expert ids (T, k), on the code set
    ExpertWeights.codes(rec).  The (token, slot) pairs are sorted by
    expert, and each stage (the fused up-and-gate product, then down) runs
    over all pairs at once: one integer matmul and one weight-scale
    multiply per expert block into group-major partials (groups, pairs,
    out), then the row scales and the group sum once.  Activations are
    quantized per row, and SiLU gating runs once, between the stages."""
    n, k = ids.shape
    flat = ids.ravel()
    order = flat.argsort(kind="stable")
    sorted_ids = flat[order].tolist()
    up_gate, down, lo = [], [], 0
    for hi in range(1, len(order) + 1):
        if hi == len(order) or sorted_ids[hi] != sorted_ids[lo]:
            w = experts[sorted_ids[lo]]
            ug_codes, down_codes = w.codes(rec)
            up_gate.append((ug_codes, w.up_gate_scales, lo, hi))
            down.append((down_codes, w.down_scales, lo, hi))
            lo = hi
    # Each pair's row quantized on its own: the same bits as quantizing x.
    ug = _quant_products(*quantize_rows(x[order // k]), up_gate)
    f = ug.shape[1] // 2
    hq, h_scales = quantize_rows(_silu(ug[:, f:]) * ug[:, :f])
    out = _quant_products(hq, h_scales, down)
    unsorted = np.empty_like(out)
    unsorted[order] = out
    return unsorted.reshape(n, k, -1)


def as_index(value, what: str) -> int:
    """value as an int: a Python or numpy integer, not a bool, float or str
    (which int() would truncate or parse); anything else raises ValueError."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{what} {value!r} is not an integer")
    return int(value)


def _depth_waves(sources) -> tuple[list[int], list[tuple[np.ndarray, np.ndarray]], list[int]]:
    # Tokens starting from a given DecodeState, then per depth the tokens
    # continuing an earlier token of the call and those parents (as index
    # arrays), so a layer's context updates run parent before child; and
    # every token's position.
    depth, starts, waves, pos = [], [], [], []
    for i, src in enumerate(sources):
        if isinstance(src, DecodeState):
            depth.append(0)
            starts.append(i)
            pos.append(src.pos)
            continue
        p = as_index(src, "source")
        if not 0 <= p < i:
            raise ValueError(f"token {i} source {p} is not an earlier token")
        depth.append(depth[p] + 1)
        pos.append(pos[p] + 1)
        if depth[p] == len(waves):
            waves.append(([], []))
        waves[depth[p]][0].append(i)
        waves[depth[p]][1].append(p)
    return starts, [(np.array(r), np.array(p)) for r, p in waves], pos


def init_state(model: MoEModel) -> DecodeState:
    ctx = np.zeros((model.shape.n_layers, model.shape.d_model))
    ctx.flags.writeable = False
    return DecodeState(ctx=ctx, pos=0)


def step(
    model: MoEModel,
    sources: Sequence[DecodeState | int],
    tokens: Sequence[int],
    mode: PrecisionMode,
    permitted: Optional[np.ndarray] = None,
    score_traces=None,
    draft_reconstruct: ReconstructMode = ReconstructMode.LSB_AUGMENT,
) -> StepOutput:
    """Process T tokens; return each token's next state, the logits for
    its following position, and the expert ids it was routed to at each
    layer, within the pool and unrestricted.

    A token's source is a DecodeState or the index of an earlier token of
    the same call, whose next state the token continues from, so a single
    token, a prompt chain or a whole token tree is one call.  A token's
    position is its source's pos (one past its parent's position for a
    chained token).  score_traces is None, or (positions, n_layers,
    n_experts) scores: when nonempty, every token routes on row position
    modulo their length instead of the router's scores.  permitted is None
    (no token's routing is confined) or a (T, n_layers, n_experts) bool
    array, each token's pool: at layer l token t routes only among the
    experts permitted[t, l] holds, at least top_k of them, so tokens of
    several decodes, each with its own pool, can share one call.  A pool
    holding a token's whole unrestricted selection selects the same top-k
    in the same order, with the same gates, and a layer where every
    token's pool does routes once.

    The forward pass is layer-major over all T rows.  A token depends on
    its parent only through the parent's context at the same layer, so
    only that update runs in depth waves; attention, routing and the
    experts (tokens grouped by expert) run once per layer.  Every token's
    result is bit-identical to stepping it alone.
    """
    shape = model.shape
    n_layers, k = shape.n_layers, shape.top_k
    tokens = [as_index(t, "token") for t in tokens]
    sources = list(sources)
    n = len(tokens)
    if len(sources) != n:
        raise ValueError("need one source per token")
    for t in tokens:
        if not 0 <= t < shape.vocab:
            raise ValueError(f"token {t} outside vocab {shape.vocab}")
    if permitted is not None:
        permitted = np.asarray(permitted)
        if permitted.dtype != bool or permitted.shape != (n, n_layers, shape.n_experts):
            raise ValueError(f"permitted must be a bool ({n}, {n_layers}, {shape.n_experts}) array")
        if np.minimum.reduce(np.add.reduce(permitted, axis=2), axis=None, initial=k) < k:
            raise ValueError(f"a permitted pool holds fewer than top_k={k} experts")
        token_idx = np.arange(n)[:, None]
    rec = _weight_mode(mode, draft_reconstruct)
    traces = None
    if score_traces is not None and len(score_traces):
        traces = np.asarray(score_traces, dtype=np.float64)
        if traces.shape[1:] != (n_layers, shape.n_experts):
            raise ValueError(
                f"score traces must have shape (positions, {n_layers}, {shape.n_experts})"
            )
    if n == 0:
        none = np.empty((0, n_layers, k), dtype=np.intp)
        return StepOutput((), np.empty((0, shape.vocab)), none, none)
    starts, waves, pos = _depth_waves(sources)
    start_ctx = np.array([sources[i].ctx for i in starts])
    if traces is not None:
        trace_idx = np.array(pos) % len(traces)
    x = model.embed[tokens]
    ctx = np.empty((n, n_layers, shape.d_model))
    selected = np.empty((n, n_layers, k), dtype=np.intp)
    unrestricted = np.empty_like(selected)
    for layer in range(n_layers):
        if waves:
            c = np.empty((n, shape.d_model))
            c[starts] = CONTEXT_DECAY * start_ctx[:, layer] + x[starts]
            for rows, parents in waves:
                c[rows] = CONTEXT_DECAY * c[parents] + x[rows]
        else:
            c = CONTEXT_DECAY * start_ctx[:, layer] + x
        ctx[:, layer] = c
        x = x + _blocked_matmul(model.w_attn[layer], _rmsnorm(c))
        r = _rmsnorm(x)
        if traces is None:
            scores = _softmax(_blocked_matmul(model.w_router[layer], r))
        else:
            scores = traces[trace_idx, layer]
        if not np.isfinite(scores).all():
            raise ValueError("non-finite routing score")
        ids, gates = _select(scores, k)
        unrestricted[:, layer] = ids
        if permitted is not None:
            mask = permitted[:, layer]
            if not np.logical_and.reduce(mask[token_idx, ids], axis=None):
                ids, gates = _select(scores, k, mask)
        selected[:, layer] = ids
        out = _experts(r, ids, model.experts[layer], rec)
        # The gated slots added left to right from 0.0, as a slot loop does.
        x = x + np.add.reduce(gates[:, :, None] * out, axis=1, initial=0.0)
    for a in (ctx, selected, unrestricted):
        a.flags.writeable = False
    logits = _blocked_matmul(model.w_out, _rmsnorm(x))
    states = tuple(DecodeState(c, p + 1) for c, p in zip(ctx, pos))
    return StepOutput(states, logits, selected, unrestricted)


def greedy_token(logits: np.ndarray) -> int:
    """Argmax with ties to the lower token id."""
    return int(np.argmax(logits))


def prefill(
    model: MoEModel,
    tokens: Sequence[int],
    mode: PrecisionMode,
    score_traces=None,
) -> tuple[DecodeState, Optional[np.ndarray], np.ndarray]:
    """Feed tokens from a fresh state at positions 0, 1, ... as one chain
    through one step call; return the last state, its logits (None when
    tokens is empty), and the (len(tokens), n_layers, top_k) expert ids
    each position was routed to.  score_traces is as for step."""
    state = init_state(model)
    out = step(
        model, [state, *range(len(tokens) - 1)][: len(tokens)], tokens, mode, None, score_traces
    )
    if not out.states:
        return state, None, out.selected
    return out.states[-1], out.logits[-1], out.selected


def greedy_decode(
    model: MoEModel,
    prompt: Sequence[int],
    n_new: int,
    mode: PrecisionMode,
    score_traces=None,
) -> tuple[list[int], np.ndarray]:
    """Pure greedy autoregressive decoding; returns (new tokens, the
    (positions, n_layers, top_k) expert ids every processed position was
    routed to)."""
    if len(prompt) == 0:
        raise ValueError("prompt must be nonempty")
    state, logits, prompt_selected = prefill(model, prompt, mode, score_traces)
    tokens, selected = [], [prompt_selected]
    for _ in range(n_new):
        nxt = greedy_token(logits)
        tokens.append(nxt)
        out = step(model, [state], [nxt], mode, None, score_traces)
        state, logits = out.states[0], out.logits[0]
        selected.append(out.selected)
    return tokens, np.concatenate(selected)


def gen_routing_trace(
    n_tokens: int,
    n_experts: int,
    k: int,
    zipf_exponent: float,
    correlation: float,
    seed: int,
) -> np.ndarray:
    """Synthetic (n_tokens, n_experts) routing scores with tunable skew and
    stickiness, for a router whose top-k is k.

    Expert id doubles as popularity rank: base popularity is proportional
    to 1/(id+1)^zipf_exponent.  Each token draws fresh scores by an
    exponential race over the popularities, then blends them with the
    previous token's scores by the correlation factor.  All tokens' fresh
    scores are one draw; only the blend runs token by token.
    """
    if zipf_exponent < 0:
        raise ValueError("zipf_exponent must be >= 0")
    if not 0.0 <= correlation <= 1.0:
        raise ValueError("correlation must be in [0, 1]")
    if not 1 <= k <= n_experts:
        raise ValueError("need 1 <= k <= n_experts")
    if n_tokens < 0:
        raise ValueError("n_tokens must be >= 0")
    rng = np.random.default_rng(seed)
    pop = 1.0 / np.arange(1, n_experts + 1, dtype=np.float64) ** zipf_exponent
    pop /= pop.sum()
    scores = pop * rng.exponential(1.0, size=(n_tokens, n_experts))
    scores /= scores.sum(axis=1, keepdims=True)
    fresh = (1.0 - correlation) * scores
    for i in range(n_tokens):
        s = scores[0] if i == 0 else fresh[i] + correlation * scores[i - 1]
        np.divide(s, np.add.reduce(s), out=scores[i])
    if not np.isfinite(scores).all():
        raise ValueError("non-finite routing score")
    return scores


def trace_scores(traces: Sequence[np.ndarray]) -> np.ndarray:
    """Per-layer (positions, n_experts) score traces, as from
    gen_routing_trace, stacked into the score_traces of step: one read-only
    float64 array (positions, layers, experts), as long as the shortest
    layer's trace."""
    if len(traces) == 0:
        raise ValueError("need one score trace per layer, got none")
    n_tokens = min(len(t) for t in traces)
    scores = np.stack([np.asarray(t, dtype=np.float64)[:n_tokens] for t in traces], axis=1)
    scores.flags.writeable = False
    return scores
