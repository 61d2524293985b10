"""Elastic self-speculative decoding over the toy MoE model.

A width-w, depth-d token tree is drafted with the 4-bit MSB weight
surrogate while routing is confined to a per-layer expert pool; the full
INT8 model then verifies the whole tree in one pass and accepts the longest
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
session ingests its prompt through ``toymoe.prefill``.  Decode states
carry their position, and every phase hands its routing trace (one
score array) straight to ``toymoe.step``, which picks each token's row
by position, so the rows line up with ``greedy_decode``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .bitnest import ReconstructMode
from .toymoe import (
    DecodeState,
    MoEModel,
    PrecisionMode,
    as_index,
    greedy_token,
    log_softmax,
    prefill,
    step,
)

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
    one per depth, always retained through expansion.
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


def accumulate_hotness(counts: np.ndarray, selected: np.ndarray) -> np.ndarray:
    """counts plus one per selected expert, as a new (n_layers, n_experts)
    float64 array: selected is (tokens, layers, k) expert ids, a token's
    layer-l ids counting into row l; order-independent."""
    counts = np.array(counts, dtype=np.float64)
    n_layers, n_experts = counts.shape
    selected = np.asarray(selected)
    if selected.ndim != 3 or selected.dtype.kind not in "iu":
        raise ValueError("selections must be (tokens, layers, k) integer expert ids")
    if selected.shape[1] > n_layers:
        raise ValueError(f"layer {n_layers} out of range")
    bad = selected[(selected < 0) | (selected >= n_experts)]
    if len(bad):
        raise ValueError(f"expert {bad[0]} out of range")
    # One unbuffered add per selection, in (token, layer, slot) order, as a
    # loop adds.
    layers = np.arange(selected.shape[1])[:, None]
    np.add.at(counts, (layers, selected), 1.0)
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
    """The tree, and the (drafted tokens, n_layers, top_k) expert ids each
    drafting step was routed to within the pool and unrestricted, in step
    order."""

    tree: DraftTree
    selected: np.ndarray
    unrestricted: np.ndarray
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
) -> DraftResult:
    """Expand a width-w depth-d tree with throttled draft-precision steps.

    Node scores are cumulative log-probabilities; each depth keeps the
    top-w candidates, always retaining the draft-greedy chain node.
    """
    if w < 1 or d < 0:
        raise ValueError("need w >= 1 and d >= 0")
    root = TreeNode(parent=-1, token=as_index(root_token, "root token"), score=0.0, depth=0)
    nodes = [root]
    # pre_states[i] is the decode state before node i's token is processed.
    pre_states = [root_state]
    none = np.empty((0, model.shape.n_layers, model.shape.top_k), dtype=np.intp)
    selected, unrestricted = [none], [none]
    frontier = [0]
    chain = []
    chain_node = 0
    calls = 0
    for depth in range(1, d + 1):
        candidates = []
        chain_key = None
        # The whole frontier goes through one step call.
        out = step(
            model,
            [pre_states[idx] for idx in frontier],
            [nodes[idx].token for idx in frontier],
            draft_mode,
            permitted=pool.experts,
            score_traces=score_traces,
            draft_reconstruct=draft_reconstruct,
        )
        calls += len(frontier)
        selected.append(out.selected)
        unrestricted.append(out.unrestricted)
        # Each row's log-probabilities and its tokens by descending
        # log-probability (ties to the lower id, so the first is argmax).
        lps = log_softmax(out.logits)
        tops = np.argsort(-lps, axis=1, kind="stable")[:, :w].tolist()
        for idx, state, lp, top in zip(frontier, out.states, lps.tolist(), tops):
            for tok in top:
                candidates.append((nodes[idx].score + lp[tok], idx, tok, state))
            if idx == chain_node:
                chain_key = (idx, top[0])
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
        selected=np.concatenate(selected),
        unrestricted=np.concatenate(unrestricted),
        step_calls=calls,
    )


@dataclass(frozen=True)
class VerifyResult:
    """selected holds the (verified tokens, n_layers, top_k) expert ids
    each verified token was routed to; final_state is the decode state
    after the last accepted token."""

    accept_length: int
    bonus_token: int
    emitted: tuple[int, ...]
    verify_token_count: int
    selected: np.ndarray
    final_state: DecodeState


def verify_phase(
    model: MoEModel,
    tree: DraftTree,
    root_state: DecodeState,
    score_traces=None,
) -> VerifyResult:
    """Verify the whole tree with the full-precision model.

    The root and every tree node go through one step call in index order,
    each node continuing from its parent.  Acceptance walks from the root,
    following at each node the unique child whose token equals the
    target's greedy token; the greedy token after the last accepted node
    is emitted as the bonus.  Routing is unrestricted.
    """
    nodes = tree.nodes
    out = step(
        model,
        [root_state] + [n.parent for n in nodes[1:]],
        [n.token for n in nodes],
        PrecisionMode.INT8_FULL,
        score_traces=score_traces,
    )
    children: dict[int, list[int]] = {}
    for idx, n in enumerate(nodes[1:], 1):
        children.setdefault(n.parent, []).append(idx)
    cur = 0
    accepted: list[int] = []
    while True:
        want = greedy_token(out.logits[cur])
        nxt = None
        for c in children.get(cur, []):
            if nodes[c].token == want:
                nxt = c
                break
        if nxt is None:
            break
        accepted.append(nxt)
        cur = nxt
    bonus = greedy_token(out.logits[cur])
    emitted = tuple(nodes[i].token for i in accepted) + (bonus,)
    return VerifyResult(
        accept_length=len(accepted),
        bonus_token=bonus,
        emitted=emitted,
        verify_token_count=len(nodes),
        selected=out.selected,
        final_state=out.states[cur],
    )


@dataclass
class SdConfig:
    width: int = 2
    depth: int = 3
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
    """One session step: its verify outcome, draft side and pool refresh.
    draft_selected and verify_selected are the expert ids the drafted and
    the verified tokens were routed to (DraftResult.selected and
    VerifyResult.selected)."""

    accept_length: int
    verify_token_count: int
    emitted: tuple[int, ...]
    draft_selected: np.ndarray
    verify_selected: np.ndarray
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
        self.model = model
        self.config = config
        self.score_traces = score_traces
        self.rng = np.random.default_rng(config.seed)
        shape = model.shape
        # The last prompt token is the first draft root, so only the
        # tokens before it are ingested here.
        self.root_state, _, prompt_selected = prefill(
            model, prompt[:-1], PrecisionMode.INT8_FULL, score_traces
        )
        self.hotness = accumulate_hotness(
            np.zeros((shape.n_layers, shape.n_experts)), prompt_selected
        )
        self.root_token = as_index(prompt[-1], "prompt token")
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
        )
        self.hotness = accumulate_hotness(
            self.hotness * cfg.hotness_decay, draft.unrestricted
        )
        next_pool = self._pick_pool()
        verify = verify_phase(
            self.model,
            draft.tree,
            self.root_state,
            score_traces=self.score_traces,
        )
        self.hotness = accumulate_hotness(self.hotness, verify.selected)
        result = SdStepResult(
            accept_length=verify.accept_length,
            verify_token_count=verify.verify_token_count,
            emitted=verify.emitted,
            draft_selected=draft.selected,
            verify_selected=verify.selected,
            pool=self.pool,
            next_pool=next_pool,
            transfers=tuple(pool_update_plan(next_pool, self.pool)),
            draft_step_calls=draft.step_calls,
        )
        self.root_state = verify.final_state
        self.root_token = verify.bonus_token
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
