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
head) stay real in both modes.

``step`` is one layer-major forward over T tokens, each continuing a given
decode state or an earlier token of the same call, so a prompt chain, a
draft level or a whole verify tree is one call and a single token is the
T = 1 call.  ``prefill`` feeds a token sequence from a fresh state.  A
decode state carries its position, the number of tokens fed so far, and
``step`` alone maps a token's position to the row of a routing trace it
routes on: one (positions, layers, experts) score array, from
``trace_scores``, read modulo its length.

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
from collections.abc import Sequence, Set as AbstractSet
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
    whole row: returns (codes as integer-valued float64, per-row scales)."""
    # A NaN or inf anywhere makes its row's magnitude non-finite.
    amax = np.maximum.reduce(np.abs(v), axis=1, initial=0.0)
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
class RoutingDecision:
    """Post-softmax scores, the selected expert ids (score order, ties to
    lower id), and their renormalized gates."""

    scores: np.ndarray
    selected: tuple[int, ...]
    gates: tuple[float, ...]


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
    state: DecodeState
    logits: np.ndarray
    decisions: tuple[RoutingDecision, ...]
    original_decisions: tuple[RoutingDecision, ...]


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
    shifted = z - np.max(z)
    return shifted - np.log(np.sum(np.exp(shifted)))


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


def _pool_mask(permitted, n: int, k: int) -> np.ndarray:
    ids = [int(e) for e in set(permitted)]
    if any(e < 0 or e >= n for e in ids):
        raise ValueError("permitted expert id out of range")
    if len(ids) < k:
        raise ValueError(f"permitted set smaller than k={k}")
    mask = np.zeros(n, dtype=bool)
    mask[ids] = True
    return mask


def route(
    scores: np.ndarray, k: int, permitted: Optional[Sequence[int]] = None
) -> RoutingDecision:
    """Top-k selection by score with gates renormalized over the selection.

    With a permitted set, selection is the top-k within it only; scores are
    never modified.  Ties break toward the lower expert id.
    """
    s = np.asarray(scores, dtype=np.float64)
    if s.ndim != 1:
        raise ValueError("scores must be one-dimensional")
    if not np.all(np.isfinite(s)):
        raise ValueError("non-finite routing score")
    n = s.shape[0]
    if not 1 <= k <= n:
        raise ValueError(f"k={k} invalid for {n} experts")
    mask = None if permitted is None else _pool_mask(permitted, n, k)
    ids, gates = _select(s[None], k, mask)
    return RoutingDecision(
        scores=s.copy(), selected=tuple(ids[0].tolist()), gates=tuple(gates[0].tolist())
    )


def gen_model(shape: MoEShape, seed: int) -> MoEModel:
    """Build a model with fixed random weights; same seed, same model."""
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
    rows = order // k
    sorted_ids = flat[order].tolist()
    bounds = [i for i in range(1, len(order)) if sorted_ids[i] != sorted_ids[i - 1]]
    blocks = [
        (experts[sorted_ids[lo]], lo, hi)
        for lo, hi in zip([0] + bounds, bounds + [len(order)])
    ]
    acts, act_scales = quantize_rows(x)
    up_gate = [(w.codes(rec)[0], w.up_gate_scales, lo, hi) for w, lo, hi in blocks]
    ug = _quant_products(acts[rows], act_scales[rows], up_gate)
    f = ug.shape[1] // 2
    hq, h_scales = quantize_rows(_silu(ug[:, f:]) * ug[:, :f])
    down = [(w.codes(rec)[1], w.down_scales, lo, hi) for w, lo, hi in blocks]
    out = _quant_products(hq, h_scales, down)
    unsorted = np.empty_like(out)
    unsorted[order] = out
    return unsorted.reshape(n, k, -1)


def _depth_waves(sources) -> tuple[list[int], list[tuple[list[int], list[int]]]]:
    # Tokens starting from a given DecodeState, then per depth the tokens
    # continuing an earlier token of the call and those parents, so a
    # layer's context updates run parent before child.
    depth, starts, waves = [], [], []
    for i, src in enumerate(sources):
        if isinstance(src, DecodeState):
            depth.append(0)
            starts.append(i)
            continue
        p = int(src)
        if not 0 <= p < i:
            raise ValueError(f"token {i} source {p} is not an earlier token")
        depth.append(depth[p] + 1)
        if depth[p] == len(waves):
            waves.append(([], []))
        waves[depth[p]][0].append(i)
        waves[depth[p]][1].append(p)
    return starts, waves


def _route_rows(scores: np.ndarray, k: int, mask: Optional[np.ndarray]):
    """The router over rows of scores (T, n_experts): returns the applied
    ids and gates (T, k) and, per row, the applied and the unrestricted
    RoutingDecision.  A pool holding the whole unrestricted selection has
    the same top-k, in the same order and with the same gates, so such a
    row's applied decision is its unrestricted one, routed once."""
    if not np.isfinite(scores).all():
        raise ValueError("non-finite routing score")
    scores.flags.writeable = False
    ids, gates = _select(scores, k)
    orig = [
        RoutingDecision(scores=scores[t], selected=tuple(s), gates=tuple(g))
        for t, (s, g) in enumerate(zip(ids.tolist(), gates.tolist()))
    ]
    dec = list(orig)
    lacking = [] if mask is None else np.flatnonzero(~mask[ids].all(axis=1))
    if len(lacking):
        p_ids, p_gates = _select(scores[lacking], k, mask)
        ids[lacking], gates[lacking] = p_ids, p_gates
        for t, s, g in zip(lacking.tolist(), p_ids.tolist(), p_gates.tolist()):
            dec[t] = RoutingDecision(scores=scores[t], selected=tuple(s), gates=tuple(g))
    return ids, gates, dec, orig


def init_state(model: MoEModel) -> DecodeState:
    ctx = np.zeros((model.shape.n_layers, model.shape.d_model))
    ctx.flags.writeable = False
    return DecodeState(ctx=ctx, pos=0)


def step(
    model: MoEModel,
    sources: Sequence[DecodeState | int],
    tokens: Sequence[int],
    mode: PrecisionMode,
    permitted: Optional[Sequence[Optional[AbstractSet[int]]]] = None,
    score_traces=None,
    draft_reconstruct: ReconstructMode = ReconstructMode.LSB_AUGMENT,
) -> tuple[StepOutput, ...]:
    """Process T tokens; return, per token, the next state, the logits for
    the following position, and the per-layer routing decisions (both the
    ones applied and the unrestricted originals).

    A token's source is a DecodeState or the index of an earlier token of
    the same call, whose next state the token continues from, so a single
    token, a prompt chain or a whole token tree is one call.  A token's
    position is its source's pos (one past its parent's position for a
    chained token).  score_traces is None, or (positions, n_layers,
    n_experts) scores: when nonempty, every token routes on row position
    modulo their length instead of the router's scores.  permitted is None
    or one expert-id set (or None) per layer, shared by every token.

    The forward pass is layer-major over all T rows.  A token depends on
    its parent only through the parent's context at the same layer, so
    only that update runs in depth waves; attention, routing and the
    experts (tokens grouped by expert) run once per layer.  Every token's
    result is bit-identical to stepping it alone.
    """
    shape = model.shape
    n_layers, k = shape.n_layers, shape.top_k
    tokens = [int(t) for t in tokens]
    sources = list(sources)
    n = len(tokens)
    if len(sources) != n:
        raise ValueError("need one source per token")
    for t in tokens:
        if not 0 <= t < shape.vocab:
            raise ValueError(f"token {t} outside vocab {shape.vocab}")
    if permitted is None:
        permitted = (None,) * n_layers
    elif not isinstance(permitted, Sequence) or len(permitted) != n_layers:
        raise ValueError(f"need one permitted set per layer ({n_layers})")
    masks = [None if p is None else _pool_mask(p, shape.n_experts, k) for p in permitted]
    rec = _weight_mode(mode, draft_reconstruct)
    traces = None
    if score_traces is not None and len(score_traces):
        traces = np.asarray(score_traces, dtype=np.float64)
        if traces.shape[1:] != (n_layers, shape.n_experts):
            raise ValueError(
                f"score traces must have shape (positions, {n_layers}, {shape.n_experts})"
            )
    if n == 0:
        return ()
    starts, waves = _depth_waves(sources)
    start_ctx = np.stack([sources[i].ctx for i in starts]) if starts else None
    pos = np.empty(n, dtype=np.int64)
    pos[starts] = [sources[i].pos for i in starts]
    for rows, parents in waves:
        pos[rows] = pos[parents] + 1
    if traces is not None:
        trace_idx = pos % len(traces)
    x = model.embed[tokens]
    ctx = np.empty((n, n_layers, shape.d_model))
    decisions, originals = [], []
    for layer in range(n_layers):
        c = np.empty((n, shape.d_model))
        if starts:
            c[starts] = CONTEXT_DECAY * start_ctx[:, layer] + x[starts]
        for rows, parents in waves:
            c[rows] = CONTEXT_DECAY * c[parents] + x[rows]
        ctx[:, layer] = c
        x = x + _blocked_matmul(model.w_attn[layer], _rmsnorm(c))
        r = _rmsnorm(x)
        if traces is None:
            scores = _softmax(_blocked_matmul(model.w_router[layer], r))
        else:
            scores = traces[trace_idx, layer]
        ids, gates, dec, orig = _route_rows(scores, k, masks[layer])
        decisions.append(dec)
        originals.append(orig)
        out = _experts(r, ids, model.experts[layer], rec)
        ffn = np.zeros((n, shape.d_model))
        for slot in range(k):
            ffn = ffn + gates[:, slot, None] * out[:, slot]
        x = x + ffn
    ctx.flags.writeable = False
    logits = _blocked_matmul(model.w_out, _rmsnorm(x))
    next_pos = (pos + 1).tolist()
    return tuple(
        StepOutput(
            state=DecodeState(ctx=ctx[t], pos=next_pos[t]),
            logits=logits[t],
            decisions=tuple(d[t] for d in decisions),
            original_decisions=tuple(o[t] for o in originals),
        )
        for t in range(n)
    )


def greedy_token(logits: np.ndarray) -> int:
    """Argmax with ties to the lower token id."""
    return int(np.argmax(logits))


def prefill(
    model: MoEModel,
    tokens: Sequence[int],
    mode: PrecisionMode,
    score_traces=None,
) -> tuple[DecodeState, Optional[np.ndarray], list[tuple[RoutingDecision, ...]]]:
    """Feed tokens from a fresh state at positions 0, 1, ... as one chain
    through one step call; return the last state, its logits (None when
    tokens is empty), and each position's routing decisions.  score_traces
    is as for step."""
    state = init_state(model)
    if len(tokens) == 0:
        return state, None, []
    outs = step(
        model, [state] + list(range(len(tokens) - 1)), tokens, mode, None, score_traces
    )
    return outs[-1].state, outs[-1].logits, [out.decisions for out in outs]


def greedy_decode(
    model: MoEModel,
    prompt: Sequence[int],
    n_new: int,
    mode: PrecisionMode,
    score_traces=None,
) -> tuple[list[int], list[tuple[RoutingDecision, ...]]]:
    """Pure greedy autoregressive decoding; returns (new tokens, per-step
    routing decisions for every processed position)."""
    if len(prompt) == 0:
        raise ValueError("prompt must be nonempty")
    state, logits, decisions_log = prefill(model, prompt, mode, score_traces)
    tokens = []
    for _ in range(n_new):
        nxt = greedy_token(logits)
        tokens.append(nxt)
        (out,) = step(model, [state], [nxt], mode, None, score_traces)
        state, logits = out.state, out.logits
        decisions_log.append(out.decisions)
    return tokens, decisions_log


def gen_routing_trace(
    n_tokens: int,
    n_experts: int,
    k: int,
    zipf_exponent: float,
    correlation: float,
    seed: int,
) -> list[RoutingDecision]:
    """Synthetic routing decisions with tunable skew and stickiness.

    Expert id doubles as popularity rank: base popularity is proportional
    to 1/(id+1)^zipf_exponent.  Each token draws fresh scores by an
    exponential race over the popularities, then blends them with the
    previous token's scores by the correlation factor.  All tokens' fresh
    scores are one draw; only the blend runs token by token.  The top-k of
    all tokens is one _select call, equal to routing each token alone.
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
    fresh = pop * rng.exponential(1.0, size=(n_tokens, n_experts))
    fresh /= fresh.sum(axis=1, keepdims=True)
    prev = None
    rows = []
    for f in fresh:
        s = f if prev is None else (1.0 - correlation) * f + correlation * prev
        s = s / s.sum()
        prev = s
        rows.append(s)
    if not rows:
        return []
    scores = np.array(rows)
    if not np.isfinite(scores).all():
        raise ValueError("non-finite routing score")
    ids, gates = _select(scores, k)
    return [
        RoutingDecision(scores=s, selected=tuple(sel), gates=tuple(g))
        for s, sel, g in zip(rows, ids.tolist(), gates.tolist())
    ]


def trace_scores(trace: Sequence[Sequence[RoutingDecision]]) -> np.ndarray:
    """Per-layer traces [layer][pos] as the score_traces of step: one
    read-only float64 array (positions, layers, experts), as long as the
    shortest layer's trace, so [pos][layer] is that decision's scores."""
    n_tokens = min(len(t) for t in trace)
    scores = np.array(
        [[t[pos].scores for t in trace] for pos in range(n_tokens)], dtype=np.float64
    )
    scores.flags.writeable = False
    return scores
