"""Elastic self-speculative decoding over the toy MoE model.

A width-w, depth-d token tree is drafted with the 4-bit MSB weight
surrogate while routing is confined to a per-layer expert pool; the full
INT8 model then verifies the top-scoring tree nodes and accepts the longest
root path that matches its own greedy choices, emitting one bonus token.
The pool's MSB pieces are pinned, so the pool is both the draft model's
expert set and an expert cache.  Expert hotness, a session-owned
(n_layers, n_experts) count of unrestricted routing selections decayed
once per step, picks the next pool before each verification, so the
pieces it adds (the step's transfers) can be fetched while verification
runs.

Greedy verification makes the emitted stream equal the full-precision
model's greedy autoregressive stream token for token, whatever the draft
quality; drafting only changes how many tokens each step yields.  A
session ingests its prompt through ``toymoe.prefill``, and every phase
reads routing overrides through ``toymoe.trace_row``, so the positions
line up with ``greedy_decode``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

from .bitnest import ReconstructMode
from .toymoe import (
    DecodeState,
    MoEModel,
    PrecisionMode,
    RoutingDecision,
    greedy_token,
    log_softmax,
    prefill,
    step,
    trace_row,
)

LayerDecision = tuple[int, RoutingDecision]


@dataclass(frozen=True)
class TreeNode:
    parent: int
    token: int
    score: float
    depth: int


@dataclass(frozen=True)
class DraftTree:
    """Candidate token tree; nodes[0] is the root (last accepted token).

    chain holds the node indices of the draft model's own greedy path,
    one per depth, always retained through expansion and verification.
    """

    nodes: tuple[TreeNode, ...]
    depth: int
    chain: tuple[int, ...]

    def __post_init__(self):
        for i, n in enumerate(self.nodes):
            if i == 0:
                if n.parent != -1 or n.depth != 0:
                    raise ValueError("node 0 must be the depth-0 root")
                continue
            if not 0 <= n.parent < i:
                raise ValueError(f"node {i} parent {n.parent} out of order")
            if n.depth != self.nodes[n.parent].depth + 1:
                raise ValueError(f"node {i} depth inconsistent with parent")
            if n.depth > self.depth:
                raise ValueError(f"node {i} deeper than tree depth {self.depth}")


@dataclass(frozen=True)
class ExpertPool:
    """Per-layer expert id sets, each of size min(capacity, n_experts)."""

    experts: tuple[frozenset[int], ...]


def accumulate_hotness(
    counts: np.ndarray, decisions: Iterable[LayerDecision]
) -> np.ndarray:
    """counts plus one per selected expert per decision, as a new
    (n_layers, n_experts) float64 array; order-independent."""
    counts = np.array(counts, dtype=np.float64)
    n_layers, n_experts = counts.shape
    for layer, dec in decisions:
        if not 0 <= layer < n_layers:
            raise ValueError(f"layer {layer} out of range")
        for e in dec.selected:
            if not 0 <= e < n_experts:
                raise ValueError(f"expert {e} out of range")
            counts[layer, e] += 1.0
    return counts


def select_pool(counts: np.ndarray, capacity: int, top_k: int = 1) -> ExpertPool:
    """Per layer, the capacity highest-count experts; ties to lower id."""
    if capacity < top_k:
        raise ValueError(f"pool capacity {capacity} below top_k {top_k}")
    order = np.argsort(-np.asarray(counts), axis=1, kind="stable")
    return ExpertPool(
        experts=tuple(frozenset(row[:capacity].tolist()) for row in order)
    )


def random_pool(
    n_layers: int, n_experts: int, capacity: int, rng: np.random.Generator, top_k: int = 1
) -> ExpertPool:
    """Uniformly random per-layer pools; the paired baseline to hotness."""
    if capacity < top_k:
        raise ValueError(f"pool capacity {capacity} below top_k {top_k}")
    size = min(capacity, n_experts)
    pools = (rng.choice(n_experts, size=size, replace=False) for _ in range(n_layers))
    return ExpertPool(experts=tuple(frozenset(p.tolist()) for p in pools))


def pool_update_plan(next_pool: ExpertPool, pool: ExpertPool) -> list[tuple[int, int]]:
    """(layer, expert) MSB pieces next_pool needs that pool does not hold,
    by layer, then expert id."""
    return [
        (layer, e)
        for layer, (experts, held) in enumerate(zip(next_pool.experts, pool.experts))
        for e in sorted(experts - held)
    ]


def sd_speedup(
    accept_len: float, lat_ar: float, d: int, lat_draft: float, lat_verify: float
) -> float:
    """Per-step speedup: (1 + accept) * lat_ar / (d * lat_draft + lat_verify)."""
    if lat_ar <= 0 or lat_verify <= 0:
        raise ValueError("latencies must be positive")
    if d < 0:
        raise ValueError("d must be >= 0")
    if d > 0 and lat_draft <= 0:
        raise ValueError("lat_draft must be positive when d > 0")
    if accept_len < 0:
        raise ValueError("accept_len must be >= 0")
    draft_term = d * lat_draft if d > 0 else 0.0
    return (1.0 + accept_len) * lat_ar / (draft_term + lat_verify)


@dataclass(frozen=True)
class DraftResult:
    tree: DraftTree
    decisions: tuple[LayerDecision, ...]
    original_decisions: tuple[LayerDecision, ...]
    step_calls: int


def draft_phase(
    model: MoEModel,
    root_token: int,
    root_state: DecodeState,
    pool: ExpertPool,
    w: int,
    d: int,
    draft_mode: PrecisionMode = PrecisionMode.MSB4_DRAFT,
    draft_reconstruct: ReconstructMode = ReconstructMode.LSB_AUGMENT,
    score_traces=None,
    start_pos: int = 0,
) -> DraftResult:
    """Expand a width-w depth-d tree with throttled draft-precision steps.

    Node scores are cumulative log-probabilities; each depth keeps the
    top-w candidates, always retaining the draft-greedy chain node.
    """
    if w < 1 or d < 0:
        raise ValueError("need w >= 1 and d >= 0")
    nodes = [TreeNode(parent=-1, token=int(root_token), score=0.0, depth=0)]
    # pre_states[i] is the decode state before node i's token is processed.
    pre_states = [root_state]
    decisions: list[LayerDecision] = []
    originals: list[LayerDecision] = []
    frontier = [0]
    chain = []
    chain_node = 0
    calls = 0
    for depth in range(1, d + 1):
        candidates = []
        chain_key = None
        # The whole frontier goes through one step call.
        outs = step(
            model,
            [pre_states[idx] for idx in frontier],
            [nodes[idx].token for idx in frontier],
            draft_mode,
            permitted=pool.experts,
            score_overrides=[
                trace_row(score_traces, start_pos + nodes[idx].depth)
                for idx in frontier
            ],
            draft_reconstruct=draft_reconstruct,
        )
        calls += len(frontier)
        for idx, out in zip(frontier, outs):
            decisions.extend(enumerate(out.decisions))
            originals.extend(enumerate(out.original_decisions))
            lp = log_softmax(out.logits)
            order = np.argsort(-lp, kind="stable")[:w]
            for tok in order.tolist():
                candidates.append(
                    (nodes[idx].score + float(lp[tok]), idx, tok, out.state)
                )
            if idx == chain_node:
                chain_key = (idx, int(np.argmax(lp)))
        candidates.sort(key=lambda c: (-c[0], c[1], c[2]))
        kept = candidates[:w]
        if chain_key is not None and not any(
            (c[1], c[2]) == chain_key for c in kept
        ):
            forced = next(c for c in candidates if (c[1], c[2]) == chain_key)
            kept = kept[:-1] + [forced]
        frontier = []
        for score, parent, tok, state in kept:
            nodes.append(TreeNode(parent=parent, token=tok, score=score, depth=depth))
            pre_states.append(state)
            frontier.append(len(nodes) - 1)
            if chain_key is not None and (parent, tok) == chain_key:
                chain_node = len(nodes) - 1
        chain.append(chain_node)
    tree = DraftTree(nodes=tuple(nodes), depth=d, chain=tuple(chain))
    return DraftResult(
        tree=tree,
        decisions=tuple(decisions),
        original_decisions=tuple(originals),
        step_calls=calls,
    )


@dataclass(frozen=True)
class VerifyResult:
    """final_state is the decode state after the last accepted token."""

    accept_length: int
    bonus_token: int
    emitted: tuple[int, ...]
    verify_token_count: int
    verify_decisions: tuple[LayerDecision, ...]
    final_state: DecodeState


def verify_phase(
    model: MoEModel,
    tree: DraftTree,
    root_state: DecodeState,
    verify_count: Optional[int] = None,
    score_traces=None,
    start_pos: int = 0,
) -> VerifyResult:
    """Verify the top-scoring tree nodes with the full-precision model.

    The verify set is the verify_count highest cumulative-score non-root
    nodes (ties to the earlier node), plus the draft-greedy chain.  Scores
    never increase along a path, so the set is closed under parents.
    Acceptance walks from the root, following at each node the unique child
    whose token equals the target's greedy token; the greedy token after the
    last accepted node is emitted as the bonus.  Routing is unrestricted.
    """
    n_nodes = len(tree.nodes)
    if verify_count is None:
        verify_count = max(n_nodes - 1, 0)
    if verify_count < 0:
        raise ValueError("verify_count must be >= 0")
    ranked = sorted(
        range(1, n_nodes), key=lambda i: (-tree.nodes[i].score, i)
    )
    selected = set(ranked[:verify_count]) | set(tree.chain)
    # The root and every selected node go through one step call; a node
    # continues from its parent's position in the call.
    call = [0] + sorted(selected)
    position = {idx: j for j, idx in enumerate(call)}
    outs = step(
        model,
        [root_state] + [position[tree.nodes[idx].parent] for idx in call[1:]],
        [tree.nodes[idx].token for idx in call],
        PrecisionMode.INT8_FULL,
        score_overrides=[
            trace_row(score_traces, start_pos + tree.nodes[idx].depth) for idx in call
        ],
    )
    decisions = [pair for out in outs for pair in enumerate(out.decisions)]
    by_node = dict(zip(call, outs))
    children: dict[int, list[int]] = {}
    for idx in call[1:]:
        children.setdefault(tree.nodes[idx].parent, []).append(idx)
    cur = 0
    accepted: list[int] = []
    while True:
        want = greedy_token(by_node[cur].logits)
        nxt = None
        for c in children.get(cur, []):
            if tree.nodes[c].token == want:
                nxt = c
                break
        if nxt is None:
            break
        accepted.append(nxt)
        cur = nxt
    bonus = greedy_token(by_node[cur].logits)
    emitted = tuple(tree.nodes[i].token for i in accepted) + (bonus,)
    return VerifyResult(
        accept_length=len(accepted),
        bonus_token=bonus,
        emitted=emitted,
        verify_token_count=len(call),
        verify_decisions=tuple(decisions),
        final_state=by_node[cur].state,
    )


@dataclass
class SdConfig:
    width: int = 2
    depth: int = 3
    verify_count: Optional[int] = None
    pool_capacity: int = 8
    hotness_decay: float = 0.5
    draft_reconstruct: ReconstructMode = ReconstructMode.LSB_AUGMENT
    draft_mode: PrecisionMode = PrecisionMode.MSB4_DRAFT
    pool_strategy: str = "hotness"
    seed: int = 0

    def __post_init__(self):
        if self.width < 1 or self.depth < 0:
            raise ValueError("need width >= 1 and depth >= 0")
        if self.pool_strategy not in ("hotness", "random"):
            raise ValueError(f"unknown pool strategy {self.pool_strategy!r}")
        if not 0.0 <= self.hotness_decay <= 1.0:
            raise ValueError("hotness_decay must be in [0, 1]")


@dataclass(frozen=True)
class SdStepResult:
    """One session step: its verify outcome, draft side and pool refresh."""

    accept_length: int
    verify_token_count: int
    emitted: tuple[int, ...]
    draft_decisions: tuple[LayerDecision, ...]
    verify_decisions: tuple[LayerDecision, ...]
    pool: ExpertPool
    next_pool: ExpertPool
    transfers: tuple[tuple[int, int], ...]
    draft_step_calls: int


@dataclass(frozen=True)
class SdRunResult:
    tokens: tuple[int, ...]
    accept_lengths: tuple[int, ...]
    steps: tuple[SdStepResult, ...]

    @property
    def mean_accept_length(self) -> float:
        if not self.accept_lengths:
            return 0.0
        return float(np.mean(self.accept_lengths))


class SdSession:
    """One decoding session: prompt ingestion, then draft/verify steps."""

    def __init__(
        self,
        model: MoEModel,
        config: SdConfig,
        prompt: Sequence[int],
        score_traces=None,
    ):
        if len(prompt) == 0:
            raise ValueError("prompt must be nonempty")
        if config.pool_capacity < model.shape.top_k:
            raise ValueError(
                f"pool capacity {config.pool_capacity} below top_k "
                f"{model.shape.top_k}"
            )
        self.model = model
        self.config = config
        self.score_traces = score_traces
        self.rng = np.random.default_rng(config.seed)
        shape = model.shape
        # The last prompt token is the first draft root, so only the
        # tokens before it are ingested here.
        self.root_state, _, prompt_decisions = prefill(
            model, prompt[:-1], PrecisionMode.INT8_FULL, score_traces
        )
        self.hotness = accumulate_hotness(
            np.zeros((shape.n_layers, shape.n_experts)),
            [pair for decs in prompt_decisions for pair in enumerate(decs)],
        )
        self.root_token = int(prompt[-1])
        self.pos = len(prompt) - 1
        self.pool = self._pick_pool()

    def _pick_pool(self) -> ExpertPool:
        shape, capacity = self.model.shape, self.config.pool_capacity
        if self.config.pool_strategy == "random":
            return random_pool(
                shape.n_layers, shape.n_experts, capacity, self.rng, shape.top_k
            )
        return select_pool(self.hotness, capacity, shape.top_k)

    def step(self) -> SdStepResult:
        cfg = self.config
        draft = draft_phase(
            self.model,
            self.root_token,
            self.root_state,
            self.pool,
            cfg.width,
            cfg.depth,
            draft_mode=cfg.draft_mode,
            draft_reconstruct=cfg.draft_reconstruct,
            score_traces=self.score_traces,
            start_pos=self.pos,
        )
        self.hotness = accumulate_hotness(
            self.hotness * cfg.hotness_decay, draft.original_decisions
        )
        next_pool = self._pick_pool()
        verify = verify_phase(
            self.model,
            draft.tree,
            self.root_state,
            cfg.verify_count,
            score_traces=self.score_traces,
            start_pos=self.pos,
        )
        self.hotness = accumulate_hotness(self.hotness, verify.verify_decisions)
        result = SdStepResult(
            accept_length=verify.accept_length,
            verify_token_count=verify.verify_token_count,
            emitted=verify.emitted,
            draft_decisions=draft.decisions,
            verify_decisions=verify.verify_decisions,
            pool=self.pool,
            next_pool=next_pool,
            transfers=tuple(pool_update_plan(next_pool, self.pool)),
            draft_step_calls=draft.step_calls,
        )
        self.root_state = verify.final_state
        self.root_token = verify.bonus_token
        self.pos += verify.accept_length + 1
        self.pool = next_pool
        return result

    def run(self, n_tokens: int) -> SdRunResult:
        """Emit at least n_tokens, truncated to exactly n_tokens."""
        tokens: list[int] = []
        accepts: list[int] = []
        steps: list[SdStepResult] = []
        while len(tokens) < n_tokens:
            res = self.step()
            tokens.extend(res.emitted)
            accepts.append(res.accept_length)
            steps.append(res)
        return SdRunResult(
            tokens=tuple(tokens[:n_tokens]),
            accept_lengths=tuple(accepts),
            steps=tuple(steps),
        )
