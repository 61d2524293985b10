"""Elastic self-speculative decoding over the toy MoE model.

A width-w, depth-d token tree is drafted with the 4-bit MSB weight
surrogate while routing is confined to a per-layer expert pool; the full
INT8 model then verifies the whole tree in one pass and accepts the longest
root path that matches its own greedy choices, emitting one bonus token.
A tree is two int tuples, (parents, tokens): node 0 is the root (the last
accepted token, parent -1), and nodes run depth by depth, parents[i] < i.
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

Sessions of one model and draft geometry can step in lockstep
(``run_sessions``): each draft depth of all their trees is one
``toymoe.step`` call and all their verify trees one more, as a serving
system batches its requests' draft and verify passes.
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
    log_softmax,
    prefill,
    step,
)

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


def _pool(ids: np.ndarray, n_experts: int) -> np.ndarray:
    # One row of expert ids per layer as a read-only (n_layers, n_experts) mask.
    pool = np.zeros((len(ids), n_experts), dtype=bool)
    pool[np.arange(len(ids))[:, None], ids] = True
    pool.flags.writeable = False
    return pool


def select_pool(counts: np.ndarray, capacity: int, top_k: int = 1) -> np.ndarray:
    """Per layer, the capacity highest-count experts (ties to lower id), as
    a read-only (n_layers, n_experts) bool pool mask."""
    if capacity < top_k:
        raise ValueError(f"pool capacity {capacity} below top_k {top_k}")
    order = np.argsort(-np.asarray(counts), axis=1, kind="stable")
    return _pool(order[:, :capacity], order.shape[1])


def random_pool(
    n_layers: int, n_experts: int, capacity: int, rng: np.random.Generator, top_k: int = 1
) -> np.ndarray:
    """Uniformly random per-layer pools; the paired baseline to hotness."""
    if capacity < top_k:
        raise ValueError(f"pool capacity {capacity} below top_k {top_k}")
    size = min(capacity, n_experts)
    ids = [rng.choice(n_experts, size=size, replace=False) for _ in range(n_layers)]
    return _pool(ids, n_experts)


def pool_update_plan(next_pool: np.ndarray, pool: np.ndarray) -> list[tuple[int, int]]:
    """(layer, expert) MSB pieces the next_pool mask needs that the pool
    mask does not hold, by layer, then expert id.  The masks must have
    one shape (ValueError otherwise)."""
    if next_pool.shape != pool.shape:
        raise ValueError(f"pool shapes differ: {next_pool.shape} and {pool.shape}")
    layers, experts = (next_pool & ~pool).nonzero()
    return list(zip(layers.tolist(), experts.tolist()))


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
    """The tree's (parents, tokens), and the (drafted tokens, n_layers,
    top_k) expert ids each drafting step was routed to within the pool and
    unrestricted, in step order."""

    parents: tuple[int, ...]
    tokens: tuple[int, ...]
    selected: np.ndarray
    unrestricted: np.ndarray
    step_calls: int


def _grow(parents, tree_tokens, frontier, chain, w, rows, sources, tokens):
    # One depth of one tree: append the top-w children of its frontier's
    # (node, cumulative log-probability) pairs to parents and tree_tokens,
    # the child extending the draft-greedy chain at node chain forced into
    # the last kept place, and each child's state and token to the next
    # call's sources and tokens; rows yields each frontier node's next
    # state, log-probabilities and top-w tokens.  Returns the new frontier
    # and chain node.
    candidates = []
    # zip reads frontier first, so it takes no row past this tree's.  The
    # chain node is always kept, so the loop sets chain_key.
    for (idx, score), (state, lp, top) in zip(frontier, rows):
        candidates += [(score + lp[tok], idx, tok, state) for tok in top]
        if idx == chain:
            chain_key = (idx, top[0])
    candidates.sort(key=lambda c: (-c[0], c[1], c[2]))
    kept = candidates[:w]
    if not any((c[1], c[2]) == chain_key for c in kept):
        kept[-1] = next(c for c in candidates if (c[1], c[2]) == chain_key)
    frontier = []
    for score, parent, tok, state in kept:
        if (parent, tok) == chain_key:
            chain = len(tree_tokens)
        frontier.append((len(tree_tokens), score))
        parents.append(parent)
        tree_tokens.append(tok)
        sources.append(state)
        tokens.append(tok)
    return frontier, chain


def draft_phase(
    model: MoEModel,
    root_tokens: Sequence[int],
    root_states: Sequence[DecodeState],
    pools: Sequence[np.ndarray],
    w: int,
    d: int,
    draft_mode: PrecisionMode = PrecisionMode.MSB4_DRAFT,
    draft_reconstruct: ReconstructMode = ReconstructMode.LSB_AUGMENT,
    score_traces=None,
) -> list[DraftResult]:
    """Expand one width-w depth-d tree from each root token and state, with
    throttled draft-precision steps confined to that tree's pool (an
    (n_layers, n_experts) bool mask); returns one DraftResult per root.

    Each depth keeps the top-w children by cumulative log-probability (then
    parent, then token), always retaining the draft-greedy chain node.  The
    frontiers of every tree at a depth go through one step call, each
    token with its own tree's pool; no tree reads another's rows.
    """
    w, d = as_index(w, "w"), as_index(d, "d")
    if w < 1 or d < 0:
        raise ValueError("need w >= 1 and d >= 0")
    tokens = [as_index(token, "root token") for token in root_tokens]
    sources = list(root_states)
    # step would read an int root state as another tree's row.
    if not all(isinstance(state, DecodeState) for state in sources):
        raise ValueError("every root state must be a DecodeState")
    if not len(tokens) == len(sources) == len(pools):
        raise ValueError("need one root state and one pool per root token")
    if not tokens:
        return []
    masks = np.array(pools)
    none = np.empty((0, model.shape.n_layers, model.shape.top_k), dtype=np.intp)
    # Per tree: its parents and tokens, frontier and chain node, and its
    # rows of every call.
    trees = [([-1], [token]) for token in tokens]
    frontiers = [[(0, 0.0)] for _ in tokens]
    chains = [0] * len(tokens)
    selected = [[none] for _ in tokens]
    unrestricted = [[none] for _ in tokens]
    for _ in range(d):
        permitted = np.repeat(masks, [len(frontier) for frontier in frontiers], axis=0)
        out = step(model, sources, tokens, draft_mode, permitted, score_traces, draft_reconstruct)
        # Each row's log-probabilities and its tokens by descending
        # log-probability (ties to the lower id, so the first is argmax).
        lps = log_softmax(out.logits)
        tops = np.argsort(-lps, axis=1, kind="stable")[:, :w].tolist()
        rows = zip(out.states, lps.tolist(), tops)
        sources, tokens = [], []
        lo = 0
        for j, frontier in enumerate(frontiers):
            hi = lo + len(frontier)
            selected[j].append(out.selected[lo:hi])
            unrestricted[j].append(out.unrestricted[lo:hi])
            frontiers[j], chains[j] = _grow(
                *trees[j], frontier, chains[j], w, rows, sources, tokens
            )
            lo = hi
    return [
        DraftResult(
            parents=tuple(parents),
            tokens=tuple(tree_tokens),
            selected=np.concatenate(sel),
            unrestricted=np.concatenate(orig),
            step_calls=sum(map(len, sel)),
        )
        for (parents, tree_tokens), sel, orig in zip(trees, selected, unrestricted)
    ]


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
    trees: Sequence[tuple[Sequence[int], Sequence[int]]],
    root_states: Sequence[DecodeState],
    score_traces=None,
) -> list[VerifyResult]:
    """Verify each (parents, tokens) tree, from its own root state, with
    the full-precision model; returns one VerifyResult per tree.

    Every tree's nodes go through one step call, tree by tree in index
    order, each node continuing from its parent; a parent that is not an
    earlier node raises ValueError.  One pass in index order finds the
    accepted path: node i extends it when parents[i] is the path's last
    node and tokens[i] equals the target's greedy token at that node's
    row.  The greedy token after the last accepted node is emitted as the
    bonus.  Routing is unrestricted.
    """
    sources: list = []
    tokens: list[int] = []
    bases = []
    for (parents, tree_tokens), state in zip(trees, root_states, strict=True):
        if not isinstance(state, DecodeState):
            raise ValueError("every root state must be a DecodeState")
        # A negative parent would index an earlier tree's rows.
        if len(parents) != len(tree_tokens) or min(parents[1:], default=0) < 0:
            raise ValueError("a tree needs one parent per token, each an earlier node")
        base = len(tokens)
        bases.append(base)
        sources += [state] + [base + p for p in parents[1:]]
        tokens += tree_tokens
    out = step(model, sources, tokens, PrecisionMode.INT8_FULL, None, score_traces)
    # Every row's greedy token (greedy_token's argmax, ties to the lower id).
    greedy = np.argmax(out.logits, axis=1).tolist()
    results = []
    for (parents, tree_tokens), base in zip(trees, bases):
        last, accepted = 0, []
        for i in range(1, len(tree_tokens)):
            if parents[i] == last and tree_tokens[i] == greedy[base + last]:
                last = i
                accepted.append(tree_tokens[i])
        bonus = greedy[base + last]
        results.append(VerifyResult(
            accept_length=len(accepted),
            bonus_token=bonus,
            emitted=tuple(accepted) + (bonus,),
            verify_token_count=len(tree_tokens),
            selected=out.selected[base:base + len(tree_tokens)],
            final_state=out.states[base + last],
        ))
    return results


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
        width, depth = as_index(self.width, "width"), as_index(self.depth, "depth")
        if width < 1 or depth < 0:
            raise ValueError("need width >= 1 and depth >= 0")
        if as_index(self.pool_capacity, "pool_capacity") < 1:
            raise ValueError("need pool_capacity >= 1")
        if not isinstance(self.draft_reconstruct, ReconstructMode):
            raise ValueError(f"draft_reconstruct {self.draft_reconstruct!r} is not a ReconstructMode")
        if not isinstance(self.draft_mode, PrecisionMode):
            raise ValueError(f"draft_mode {self.draft_mode!r} is not a PrecisionMode")
        if self.pool_strategy not in ("hotness", "random"):
            raise ValueError(f"unknown pool strategy {self.pool_strategy!r}")
        if not 0.0 <= self.hotness_decay <= 1.0:
            raise ValueError("hotness_decay must be in [0, 1]")


@dataclass(frozen=True)
class SdStepResult:
    """One session step: its verify outcome, draft side and pool refresh.
    draft_selected and verify_selected are the expert ids the drafted and
    the verified tokens were routed to (DraftResult.selected and
    VerifyResult.selected); pool and next_pool are the (n_layers,
    n_experts) bool masks drafted with and picked for the next step."""

    accept_length: int
    verify_token_count: int
    emitted: tuple[int, ...]
    draft_selected: np.ndarray
    verify_selected: np.ndarray
    pool: np.ndarray
    next_pool: np.ndarray
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

    def _pick_pool(self) -> np.ndarray:
        shape, capacity = self.model.shape, self.config.pool_capacity
        if self.config.pool_strategy == "random":
            return random_pool(
                shape.n_layers, shape.n_experts, capacity, self.rng, shape.top_k
            )
        return select_pool(self.hotness, capacity, shape.top_k)

    def step(self) -> SdStepResult:
        """One draft/verify step: run_sessions' step for this session alone."""
        return _step_together([self])[0]

    def run(self, n_tokens: int) -> SdRunResult:
        """Emit at least n_tokens, truncated to exactly n_tokens."""
        return run_sessions([self], n_tokens)[0]


def _step_together(sessions: Sequence[SdSession]) -> list[SdStepResult]:
    # One draft/verify step of every session: each draft depth of all their
    # trees is one step call, and all their verify trees one more.  Each
    # session picks its next pool after its own draft and before its
    # verify, so its hotness and pool RNG see what stepping alone shows.
    first, cfg = sessions[0], sessions[0].config
    drafts = draft_phase(
        first.model,
        [s.root_token for s in sessions],
        [s.root_state for s in sessions],
        [s.pool for s in sessions],
        cfg.width,
        cfg.depth,
        draft_mode=cfg.draft_mode,
        draft_reconstruct=cfg.draft_reconstruct,
        score_traces=first.score_traces,
    )
    next_pools = []
    for s, draft in zip(sessions, drafts):
        s.hotness = accumulate_hotness(s.hotness * s.config.hotness_decay, draft.unrestricted)
        next_pools.append(s._pick_pool())
    verifies = verify_phase(
        first.model,
        [(draft.parents, draft.tokens) for draft in drafts],
        [s.root_state for s in sessions],
        score_traces=first.score_traces,
    )
    results = []
    for s, draft, verify, next_pool in zip(sessions, drafts, verifies, next_pools):
        s.hotness = accumulate_hotness(s.hotness, verify.selected)
        results.append(SdStepResult(
            accept_length=verify.accept_length,
            verify_token_count=verify.verify_token_count,
            emitted=verify.emitted,
            draft_selected=draft.selected,
            verify_selected=verify.selected,
            pool=s.pool,
            next_pool=next_pool,
            transfers=tuple(pool_update_plan(next_pool, s.pool)),
            draft_step_calls=draft.step_calls,
        ))
        s.root_state = verify.final_state
        s.root_token = verify.bonus_token
        s.pool = next_pool
    return results


def run_sessions(sessions: Sequence[SdSession], n_tokens: int) -> list[SdRunResult]:
    """Run several sessions in lockstep until each has emitted at least
    n_tokens; return each one's run, truncated to exactly n_tokens.

    Each round steps the sessions still short of n_tokens together, so
    every draft depth of all their trees is one toymoe.step call and all
    their verify trees one more.  Every result equals the session's own
    SdSession.run, field for field.  The sessions must be distinct and
    share the model, the score-trace array (the same object, or None),
    width, depth, draft mode and draft reconstruct mode; otherwise
    ValueError.
    """
    sessions = list(sessions)
    if len({id(s) for s in sessions}) != len(sessions):
        raise ValueError("a session cannot be stepped twice in one round")
    # Every tree has the same depths, and one step call per depth reads
    # one model, trace and code set.
    shared = {
        (id(s.model), id(s.score_traces), s.config.width, s.config.depth,
         s.config.draft_mode, s.config.draft_reconstruct)
        for s in sessions
    }
    if len(shared) > 1:
        raise ValueError(
            "sessions stepped together must share the model, score traces, "
            "width, depth, draft mode and draft reconstruct mode"
        )
    tokens: list[list[int]] = [[] for _ in sessions]
    steps: list[list[SdStepResult]] = [[] for _ in sessions]
    active = range(len(sessions))
    while active := [i for i in active if len(tokens[i]) < n_tokens]:
        for i, res in zip(active, _step_together([sessions[i] for i in active])):
            tokens[i].extend(res.emitted)
            steps[i].append(res)
    return [
        SdRunResult(
            tokens=tuple(emitted[:n_tokens]),
            accept_lengths=tuple(res.accept_length for res in done),
            steps=tuple(done),
        )
        for emitted, done in zip(tokens, steps)
    ]
