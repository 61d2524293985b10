"""A tiny deterministic MoE language model with switchable weight precision.

The model is small enough to run exhaustive decoding experiments in tests:
random fixed weights, a decayed-context stand-in for attention, top-k routed
SiLU-gated experts, and greedy sampling everywhere.  Expert weights live as
group-quantized INT8 codes; the precision mode picks real reference weights,
the full 8-bit codes, or the 4-bit MSB surrogate used for drafting.  Dense
parts (embedding, context map, router, output head) stay real in all modes.

``step`` processes one token; ``prefill`` feeds a token sequence from a
fresh state, and ``trace_row`` picks the routing overrides a position reads.

Determinism rules: every matrix product is an index-ordered einsum over
fixed 32-wide input groups followed by a group-axis sum, so results never
depend on how many tokens are evaluated together; routing and sampling ties
break toward lower ids.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .bitnest import GROUP_SIZE, ReconstructMode, fp16_scale, surrogate_codes

RMSNORM_EPS = 1e-6


class PrecisionMode(enum.Enum):
    REAL_REF = "real_ref"
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


@dataclass(frozen=True)
class QuantizedMatrix:
    """Weight matrix stored as int8 codes with one fp16 scale per 32-wide
    input group.  codes: (out, groups, 32) int64; scales: (out, groups)."""

    codes: np.ndarray
    scales: np.ndarray
    _surrogates: dict = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    @property
    def out_dim(self) -> int:
        return self.codes.shape[0]

    @property
    def in_dim(self) -> int:
        return self.codes.shape[1] * GROUP_SIZE

    def dequant(self) -> np.ndarray:
        """Exact real matrix codes * scales, shape (out, in)."""
        w = self.codes.astype(np.float64) * self.scales[:, :, None]
        return w.reshape(self.out_dim, self.in_dim)

    def surrogate(self, mode: ReconstructMode) -> np.ndarray:
        """Codes rebuilt from slices under the given reconstruction mode,
        built on first use per mode and kept read-only.  They stay int64:
        int8 storage makes the group einsum slower."""
        codes = self._surrogates.get(mode)
        if codes is None:
            codes = surrogate_codes(self.codes, mode)
            codes.flags.writeable = False
            codes = self._surrogates.setdefault(mode, codes)
        return codes


def quantize_matrix(w: np.ndarray) -> QuantizedMatrix:
    """Group-quantize a real matrix along its input dimension.

    Same code/scale rule as bitnest.quantize_group, applied per (row, group).
    """
    w = np.asarray(w, dtype=np.float64)
    if w.ndim != 2 or w.shape[1] % GROUP_SIZE:
        raise ValueError(f"need (out, in) with in divisible by {GROUP_SIZE}")
    if not np.all(np.isfinite(w)):
        raise ValueError("non-finite weight")
    out_dim = w.shape[0]
    vals = w.reshape(out_dim, -1, GROUP_SIZE)
    amax = np.abs(vals).max(axis=2)
    scales = np.float16(amax / 127.0).astype(np.float64)
    if np.isinf(scales).any():
        raise ValueError(f"group magnitude {amax.max()} overflows fp16 scaling")
    scales = np.maximum(scales, float(np.float16(2.0**-24)))
    scales = np.where(amax == 0.0, 1.0, scales)
    codes = np.clip(np.rint(vals / scales[:, :, None]), -127, 127).astype(np.int64)
    return QuantizedMatrix(codes=codes, scales=scales)


def quantize_activations(v: np.ndarray) -> tuple[np.ndarray, float]:
    """Per-tensor symmetric INT8: returns (codes, scale)."""
    v = np.asarray(v, dtype=np.float64)
    if not np.all(np.isfinite(v)):
        raise ValueError("non-finite activation")
    scale = fp16_scale(float(np.max(np.abs(v))) if v.size else 0.0)
    codes = np.clip(np.rint(v / scale), -127, 127).astype(np.int64)
    return codes, scale


@dataclass(frozen=True)
class ExpertWeights:
    """One expert's projections, quantized plus the real reference copies."""

    up: QuantizedMatrix
    gate: QuantizedMatrix
    down: QuantizedMatrix
    up_ref: np.ndarray
    gate_ref: np.ndarray
    down_ref: np.ndarray


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
    gamma: float

    def param_count(self) -> int:
        s = self.shape
        expert = s.n_layers * s.n_experts * (2 * s.d_model * s.d_ff + s.d_ff * s.d_model)
        dense = (
            2 * s.vocab * s.d_model
            + s.n_layers * s.d_model * s.d_model
            + s.n_layers * s.n_experts * s.d_model
        )
        return expert + dense


@dataclass(frozen=True)
class DecodeState:
    """Per-layer decayed context accumulators, shape (n_layers, d_model)."""

    ctx: np.ndarray


@dataclass(frozen=True)
class StepOutput:
    state: DecodeState
    logits: np.ndarray
    decisions: tuple[RoutingDecision, ...]
    original_decisions: tuple[RoutingDecision, ...]


def _rmsnorm(v: np.ndarray) -> np.ndarray:
    return v / np.sqrt(np.mean(v * v) + RMSNORM_EPS)


def _softmax(z: np.ndarray) -> np.ndarray:
    e = np.exp(z - np.max(z))
    return e / np.sum(e)


def log_softmax(z: np.ndarray) -> np.ndarray:
    shifted = z - np.max(z)
    return shifted - np.log(np.sum(np.exp(shifted)))


def _silu(v: np.ndarray) -> np.ndarray:
    return v / (1.0 + np.exp(-v))


def _blocked_matvec(w: np.ndarray, x: np.ndarray) -> np.ndarray:
    # Group-chunked accumulation: einsum over each 32-wide input group in
    # index order, then a fixed-order sum across groups.  Matches the
    # accumulation structure of the quantized path exactly.
    out_dim, in_dim = w.shape
    parts = np.einsum(
        "ogj,gj->og",
        w.reshape(out_dim, -1, GROUP_SIZE),
        x.reshape(-1, GROUP_SIZE),
        optimize=False,
    )
    return np.sum(parts, axis=1)


def _quant_matvec(
    codes: np.ndarray, scales: np.ndarray, acts: np.ndarray, act_scale: float
) -> np.ndarray:
    # Integer group dots are exact in int64; each group partial is then an
    # exact float64 product (<= 42 significant bits), so the result is the
    # exact real value of the dequantized blocked product.
    ints = np.einsum(
        "ogj,gj->og", codes, acts.reshape(-1, GROUP_SIZE), optimize=False
    )
    parts = ints.astype(np.float64) * scales * act_scale
    return np.sum(parts, axis=1)


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
    if permitted is None:
        candidates = range(n)
    else:
        candidates = sorted(set(int(e) for e in permitted))
        if any(e < 0 or e >= n for e in candidates):
            raise ValueError("permitted expert id out of range")
        if len(candidates) < k:
            raise ValueError(f"permitted set smaller than k={k}")
    order = sorted(candidates, key=lambda e: (-s[e], e))
    selected = tuple(order[:k])
    chosen = s[list(selected)]
    gates = tuple(float(g) for g in chosen / np.sum(chosen))
    return RoutingDecision(scores=s.copy(), selected=selected, gates=gates)


def gen_model(shape: MoEShape, seed: int, gamma: float = 0.5) -> MoEModel:
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
            up = rng.normal(0.0, 1.0 / np.sqrt(d), size=(f, d))
            gate = rng.normal(0.0, 1.0 / np.sqrt(d), size=(f, d))
            down = rng.normal(0.0, 1.0 / np.sqrt(f), size=(d, f))
            experts.append(
                ExpertWeights(
                    up=quantize_matrix(up),
                    gate=quantize_matrix(gate),
                    down=quantize_matrix(down),
                    up_ref=up,
                    gate_ref=gate,
                    down_ref=down,
                )
            )
        layers.append(tuple(experts))
    return MoEModel(
        shape=shape,
        embed=embed,
        w_attn=w_attn,
        w_router=w_router,
        experts=tuple(layers),
        w_out=w_out,
        gamma=gamma,
    )


def expert_forward(
    x: np.ndarray,
    e: ExpertWeights,
    mode: PrecisionMode,
    draft_reconstruct: ReconstructMode = ReconstructMode.LSB_AUGMENT,
) -> np.ndarray:
    """down(SiLU(gate @ x) * (up @ x)) at the requested weight precision.

    Quantized modes run integer group dots on per-tensor INT8 activations
    with dequantization fused at the group accumulator; draft mode swaps in
    the reconstructed 4-bit surrogate codes.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (e.up.in_dim,):
        raise ValueError(f"expected input shape ({e.up.in_dim},), got {x.shape}")
    if mode is PrecisionMode.REAL_REF:
        u = _blocked_matvec(e.up_ref, x)
        g = _blocked_matvec(e.gate_ref, x)
        return _blocked_matvec(e.down_ref, _silu(g) * u)
    if mode is PrecisionMode.INT8_FULL:
        up_c, gate_c, down_c = e.up.codes, e.gate.codes, e.down.codes
    elif mode is PrecisionMode.MSB4_DRAFT:
        up_c = e.up.surrogate(draft_reconstruct)
        gate_c = e.gate.surrogate(draft_reconstruct)
        down_c = e.down.surrogate(draft_reconstruct)
    else:
        raise ValueError(f"unknown mode {mode!r}")
    a, sa = quantize_activations(x)
    u = _quant_matvec(up_c, e.up.scales, a, sa)
    g = _quant_matvec(gate_c, e.gate.scales, a, sa)
    h = _silu(g) * u
    hq, sh = quantize_activations(h)
    return _quant_matvec(down_c, e.down.scales, hq, sh)


def _normalize_permitted(permitted, n_layers: int):
    if permitted is None:
        return [None] * n_layers
    if isinstance(permitted, (set, frozenset)):
        return [permitted] * n_layers
    seq = list(permitted)
    if len(seq) != n_layers:
        raise ValueError(f"need one permitted set per layer ({n_layers})")
    return seq


def init_state(model: MoEModel) -> DecodeState:
    ctx = np.zeros((model.shape.n_layers, model.shape.d_model))
    ctx.flags.writeable = False
    return DecodeState(ctx=ctx)


def step(
    model: MoEModel,
    state: DecodeState,
    token: int,
    mode: PrecisionMode,
    permitted=None,
    score_overrides: Optional[Sequence[Optional[np.ndarray]]] = None,
    draft_reconstruct: ReconstructMode = ReconstructMode.LSB_AUGMENT,
) -> StepOutput:
    """Process one token from a decode state; return the next state, the
    logits for the following position, and the per-layer routing decisions
    (both the ones applied and the unrestricted originals)."""
    shape = model.shape
    token = int(token)
    if not 0 <= token < shape.vocab:
        raise ValueError(f"token {token} outside vocab {shape.vocab}")
    permitted = _normalize_permitted(permitted, shape.n_layers)
    x = model.embed[token].copy()
    ctx_rows = []
    decisions = []
    originals = []
    for layer in range(shape.n_layers):
        c = model.gamma * state.ctx[layer] + x
        ctx_rows.append(c)
        x = x + _blocked_matvec(model.w_attn[layer], _rmsnorm(c))
        r = _rmsnorm(x)
        if score_overrides is not None and score_overrides[layer] is not None:
            scores = np.asarray(score_overrides[layer], dtype=np.float64)
        else:
            scores = _softmax(_blocked_matvec(model.w_router[layer], r))
        # A pool holding the whole unrestricted selection has the same top-k,
        # in the same order and with the same gates, so route only once then.
        orig = route(scores, shape.top_k, None)
        pool = permitted[layer]
        if pool is None or all(e in pool for e in orig.selected):
            dec = orig
        else:
            dec = route(scores, shape.top_k, pool)
        decisions.append(dec)
        originals.append(orig)
        ffn = np.zeros(shape.d_model)
        for gate_val, expert_id in zip(dec.gates, dec.selected):
            ffn = ffn + gate_val * expert_forward(
                r, model.experts[layer][expert_id], mode, draft_reconstruct
            )
        x = x + ffn
    ctx = np.stack(ctx_rows)
    ctx.flags.writeable = False
    return StepOutput(
        state=DecodeState(ctx=ctx),
        logits=_blocked_matvec(model.w_out, _rmsnorm(x)),
        decisions=tuple(decisions),
        original_decisions=tuple(originals),
    )


def greedy_token(logits: np.ndarray) -> int:
    """Argmax with ties to the lower token id."""
    return int(np.argmax(logits))


def trace_row(score_traces, pos: int):
    """Per-layer score overrides for position pos: the trace row indexed
    modulo its length, or None when there is no trace (None or empty)."""
    return score_traces[pos % len(score_traces)] if score_traces else None


def prefill(
    model: MoEModel,
    tokens: Sequence[int],
    mode: PrecisionMode,
    score_traces=None,
    draft_reconstruct: ReconstructMode = ReconstructMode.LSB_AUGMENT,
) -> tuple[DecodeState, Optional[np.ndarray], list[tuple[RoutingDecision, ...]]]:
    """Feed tokens from a fresh state at positions 0, 1, ...; return the
    last state, its logits (None when tokens is empty), and each position's
    routing decisions.  Trace rows (see trace_row) replace router scores."""
    state = init_state(model)
    logits = None
    decisions = []
    for pos, tok in enumerate(tokens):
        out = step(
            model, state, tok, mode, None, trace_row(score_traces, pos),
            draft_reconstruct,
        )
        state, logits = out.state, out.logits
        decisions.append(out.decisions)
    return state, logits, decisions


def greedy_decode(
    model: MoEModel,
    prompt: Sequence[int],
    n_new: int,
    mode: PrecisionMode,
    score_traces=None,
    draft_reconstruct: ReconstructMode = ReconstructMode.LSB_AUGMENT,
) -> tuple[list[int], list[tuple[RoutingDecision, ...]]]:
    """Pure greedy autoregressive decoding; returns (new tokens, per-step
    routing decisions for every processed position)."""
    if len(prompt) == 0:
        raise ValueError("prompt must be nonempty")
    state, logits, decisions_log = prefill(
        model, prompt, mode, score_traces, draft_reconstruct
    )
    tokens = []
    for pos in range(len(prompt), len(prompt) + n_new):
        nxt = greedy_token(logits)
        tokens.append(nxt)
        out = step(
            model, state, nxt, mode, None, trace_row(score_traces, pos),
            draft_reconstruct,
        )
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
    previous token's scores by the correlation factor.
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
    prev = None
    out = []
    for _ in range(n_tokens):
        fresh = pop * rng.exponential(1.0, size=n_experts)
        fresh /= fresh.sum()
        s = fresh if prev is None else (1.0 - correlation) * fresh + correlation * prev
        s = s / s.sum()
        prev = s
        out.append(route(s, k))
    return out


def trace_scores(trace: Sequence[Sequence[RoutingDecision]]) -> list[list[np.ndarray]]:
    """Reshape per-layer traces [layer][pos] into per-position override rows
    [pos][layer] for prefill/greedy_decode."""
    n_layers = len(trace)
    n_tokens = min(len(t) for t in trace)
    return [
        [trace[layer][pos].scores for layer in range(n_layers)]
        for pos in range(n_tokens)
    ]
