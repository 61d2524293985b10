import dataclasses
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from elasticmoe import elastic_sd, toymoe
from elasticmoe.bitnest import ReconstructMode
from elasticmoe.elastic_sd import (
    SdConfig,
    SdSession,
    accumulate_hotness,
    draft_phase,
    pool_update_plan,
    random_pool,
    run_sessions,
    sd_speedup,
    select_pool,
    verify_phase,
)
from elasticmoe.toymoe import (
    MoEShape,
    PrecisionMode,
    gen_model,
    gen_routing_trace,
    greedy_decode,
    greedy_token,
    init_state,
    log_softmax,
    prefill,
    step,
    trace_scores,
)

SHAPE = MoEShape(d_model=64, d_ff=128, n_experts=8, top_k=2, n_layers=2, vocab=64)


def zeros(n_layers, n_experts):
    return np.zeros((n_layers, n_experts))


def pool_of(n_experts, *layers):
    """A pool mask holding one set of expert ids per layer."""
    pool = np.zeros((len(layers), n_experts), dtype=bool)
    for layer, ids in enumerate(layers):
        pool[layer, list(ids)] = True
    return pool


def pool_sets(pool):
    """A pool mask's expert ids, one set per layer."""
    return [set(np.flatnonzero(row).tolist()) for row in pool]


def selections(*rows):
    """(tokens, layers, k) expert ids, one row of per-layer id lists per
    token."""
    return np.array(rows, dtype=np.intp)


class TestHotness:
    def test_one_hot_sums(self):
        counts = accumulate_hotness(zeros(1, 4), selections([[0, 2]], [[0, 1]]))
        assert counts[0].tolist() == [2.0, 1.0, 1.0, 0.0]

    def test_empty_is_noop(self):
        counts = zeros(2, 4)
        counts[1, 3] = 0.5
        again = accumulate_hotness(counts, np.empty((0, 2, 2), dtype=np.intp))
        assert np.array_equal(counts, again)
        assert again is not counts

    def test_order_independent(self):
        rng = np.random.default_rng(3)
        selected = np.array([
            [sorted(rng.choice(4, 2, replace=False).tolist()) for _ in range(2)]
            for _ in range(30)
        ])
        a = accumulate_hotness(zeros(2, 4), selected)
        b = accumulate_hotness(zeros(2, 4), selected[rng.permutation(len(selected))])
        assert np.array_equal(a, b)
        # One count per selected id, as a loop over the selections adds.
        want = zeros(2, 4)
        for token in selected:
            for layer, ids in enumerate(token):
                for e in ids:
                    want[layer, e] += 1.0
        assert np.array_equal(a, want)

    def test_out_of_range_rejected(self):
        counts = zeros(1, 4)
        with pytest.raises(ValueError, match="layer 1 out of range"):
            accumulate_hotness(counts, selections([[0], [1]]))
        for bad in (4, -1):
            with pytest.raises(ValueError, match=f"expert {bad} out of range"):
                accumulate_hotness(counts, selections([[0]], [[bad]]))
        for malformed in (selections([0, 1]), np.array([[[0.0]]])):
            with pytest.raises(ValueError, match="integer expert ids"):
                accumulate_hotness(counts, malformed)
        assert not counts.any()


class TestSelectPool:
    def test_top_by_count(self):
        counts = accumulate_hotness(zeros(1, 4), selections(*[[[0, 2]]] * 5))
        # counts [5, 0, 5, 0]
        pool = select_pool(counts, 2)
        assert pool_sets(pool) == [{0, 2}]
        assert pool.dtype == bool and not pool.flags.writeable

    def test_tie_breaks_low_id(self):
        counts = accumulate_hotness(zeros(1, 3), selections(*[[[0, 1]]] * 3))
        counts = accumulate_hotness(counts, selections([[2]]))
        # counts [3, 3, 1]
        pool = select_pool(counts, 1)
        assert pool_sets(pool) == [{0}]
        # Unseen experts tie at zero and fill the pool from the lowest id.
        assert pool_sets(select_pool(zeros(1, 5), 3)) == [{0, 1, 2}]

    def test_full_capacity(self):
        pool = select_pool(zeros(2, 4), 4)
        assert pool.all() and pool.shape == (2, 4)
        assert np.array_equal(select_pool(zeros(2, 4), 9), pool)

    def test_capacity_below_topk(self):
        with pytest.raises(ValueError):
            select_pool(zeros(1, 4), 1, top_k=2)

    def test_random_pool_sized_and_seeded(self):
        rng = np.random.default_rng(7)
        p1 = random_pool(2, 8, 3, rng)
        assert p1.shape == (2, 8) and p1.sum(axis=1).tolist() == [3, 3]
        assert p1.dtype == bool and not p1.flags.writeable
        p2 = random_pool(2, 8, 3, np.random.default_rng(7))
        assert np.array_equal(p1, p2)


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_pools_and_update_plan_equal_set_reference(data):
    # select_pool, random_pool and pool_update_plan against the frozenset
    # rules they replaced: the capacity highest counts with ties to the
    # lower id, the generator's choice draws per layer, and the missing
    # (layer, expert) pieces by layer, then expert id.
    n_layers = data.draw(st.integers(1, 4), label="n_layers")
    n_experts = data.draw(st.integers(1, 12), label="n_experts")
    top_k = data.draw(st.integers(1, n_experts), label="top_k")
    capacity = data.draw(st.integers(top_k, n_experts + 2), label="capacity")
    counts = np.array(data.draw(st.lists(
        st.lists(st.sampled_from([0.0, 0.25, 1.0, 2.5]), min_size=n_experts, max_size=n_experts),
        min_size=n_layers, max_size=n_layers,
    ), label="counts"))
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
    hot = select_pool(counts, capacity, top_k)
    rnd = random_pool(n_layers, n_experts, capacity, np.random.default_rng(seed), top_k)
    want_hot = [
        set(sorted(range(n_experts), key=lambda e: (-row[e], e))[:capacity]) for row in counts
    ]
    rng = np.random.default_rng(seed)
    want_rnd = [
        set(rng.choice(n_experts, size=min(capacity, n_experts), replace=False).tolist())
        for _ in range(n_layers)
    ]
    for pool, want in ((hot, want_hot), (rnd, want_rnd)):
        assert pool.shape == (n_layers, n_experts) and pool.dtype == bool
        assert not pool.flags.writeable
        assert pool_sets(pool) == want
    for new, held, new_sets, held_sets in (
        (hot, rnd, want_hot, want_rnd), (rnd, hot, want_rnd, want_hot)
    ):
        plan = pool_update_plan(new, held)
        assert plan == [
            (layer, e)
            for layer, (experts, have) in enumerate(zip(new_sets, held_sets))
            for e in sorted(experts - have)
        ]
        assert all(type(layer) is int and type(e) is int for layer, e in plan)


def one_layer_pool(*experts):
    return pool_of(4, experts)


class TestPoolUpdatePlan:
    def test_cached_superset_means_empty(self):
        plan = pool_update_plan(one_layer_pool(1, 2), one_layer_pool(1, 2, 3))
        assert plan == []

    def test_disjoint_fetches_everything(self):
        pool = pool_of(4, {1, 2}, {0, 3})
        held = pool_of(4, {0, 3}, {1, 2})
        assert pool_update_plan(pool, held) == [(0, 1), (0, 2), (1, 0), (1, 3)]

    def test_partial(self):
        assert pool_update_plan(one_layer_pool(1, 2), one_layer_pool(2)) == [(0, 1)]

    @pytest.mark.parametrize("next_shape, held_shape", [((1, 4), (2, 4)), ((2, 4), (1, 4))])
    def test_shapes_must_match(self, next_shape, held_shape):
        # Broadcasting would plan 8 pieces over two layers for a 1-layer pool.
        with pytest.raises(ValueError, match="pool shapes differ"):
            pool_update_plan(np.ones(next_shape, bool), np.zeros(held_shape, bool))


class TestSdSpeedup:
    def test_worked_example(self):
        assert sd_speedup(3, 10, 4, 1, 12) == pytest.approx(2.5, rel=1e-12)

    def test_break_even_exact(self):
        assert sd_speedup(0, 16.0, 4, 1.0, 12.0) == 1.0

    def test_linear_in_accept(self):
        a = sd_speedup(1, 10, 2, 1, 8)
        b = sd_speedup(3, 10, 2, 1, 8)
        assert b == pytest.approx(2 * a)

    def test_depth_zero_ignores_draft_latency(self):
        assert sd_speedup(0, 10, 0, 0, 10) == 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            sd_speedup(1, 0, 2, 1, 8)
        with pytest.raises(ValueError):
            sd_speedup(1, 10, 2, 0, 8)
        with pytest.raises(ValueError):
            sd_speedup(-1, 10, 2, 1, 8)


def tree_of(res):
    return res.parents, res.tokens


def draft_greedy_path(model, root, state, pool, d):
    """The draft model's own greedy tokens after root: d one-token steps at
    draft precision within pool."""
    path = []
    for _ in range(d):
        out = step(model, [state], [root], PrecisionMode.MSB4_DRAFT, pool[None])
        state, root = out.states[0], greedy_token(out.logits[0])
        path.append(root)
    return path


def is_root_path(res, path):
    node = 0
    for token in path:
        children = [
            i for i in range(node + 1, len(res.tokens))
            if res.parents[i] == node and res.tokens[i] == token
        ]
        if not children:
            return False
        node = children[0]
    return True


class TestDraftTreeInvariants:
    def test_bad_parent_order(self):
        # Every parent must be an earlier node of its own tree.
        model = gen_model(SHAPE, seed=11)
        st = init_state(model)
        root_only = ((-1,), (3,))
        for bad in (((-1, 2), (0, 1)), ((-1, 1), (0, 1)), ((-1, -1), (0, 1)), ((-1, 0), (0,))):
            for trees in ([bad], [root_only, bad]):
                with pytest.raises(ValueError, match="earlier"):
                    verify_phase(model, trees, [st] * len(trees))


class TestDraftPhase:
    def setup_method(self):
        self.model = gen_model(SHAPE, seed=11)
        self.full_pool = np.ones((2, 8), dtype=bool)

    def test_single_chain_node_is_greedy(self):
        st = init_state(self.model)
        out = step(self.model, [st], [4], PrecisionMode.MSB4_DRAFT)
        expected = greedy_token(out.logits[0])
        res = draft_phase(self.model, [4], [st], [self.full_pool], w=1, d=1)[0]
        assert tree_of(res) == ((-1, 0), (4, expected))
        assert is_root_path(res, draft_greedy_path(self.model, 4, st, self.full_pool, 1))

    def test_depth_zero_gives_root_only(self):
        st = init_state(self.model)
        res = draft_phase(self.model, [4], [st], [self.full_pool], w=2, d=0)[0]
        assert tree_of(res) == ((-1,), (4,))
        assert res.step_calls == 0
        for ids in (res.selected, res.unrestricted):
            assert ids.shape == (0, SHAPE.n_layers, SHAPE.top_k)

    def test_throttling_audit(self):
        pool = pool_of(8, {0, 1, 2, 3}, {2, 3, 4, 5})
        st = init_state(self.model)
        res = draft_phase(self.model, [9], [st], [pool], w=2, d=3)[0]
        assert res.selected.shape == (res.step_calls, SHAPE.n_layers, SHAPE.top_k)
        assert res.step_calls
        for layer, experts in enumerate(pool_sets(pool)):
            assert set(res.selected[:, layer].ravel().tolist()) <= experts

    def test_node_count_and_width(self):
        st = init_state(self.model)
        res = draft_phase(self.model, [7], [st], [self.full_pool], w=3, d=4)[0]
        depths = [0]
        for parent in res.parents[1:]:
            depths.append(depths[parent] + 1)
        # Nodes run depth by depth, w to a depth.
        assert depths == [0] + [1] * 3 + [2] * 3 + [3] * 3 + [4] * 3
        assert is_root_path(res, draft_greedy_path(self.model, 7, st, self.full_pool, 4))

    def test_tied_scores_rank_by_parent_then_token(self):
        # With every logit equal, all children at a depth tie on score, so
        # the lower parent, then the lower token, is kept.
        flat = dataclasses.replace(self.model, w_out=np.zeros_like(self.model.w_out))
        st = init_state(flat)
        (res,) = draft_phase(flat, [4], [st], [self.full_pool], w=2, d=2)
        assert tree_of(res) == ((-1, 0, 0, 1, 1), (4, 0, 1, 0, 1))

    def test_width_and_depth_must_be_integers(self):
        st = init_state(self.model)
        # w=2.0 once failed in a slice, d=1.0 in range, and w=True ran as 1.
        for w, d in ((2.0, 1), (2, 1.0), (True, 1)):
            with pytest.raises(ValueError, match="is not an integer"):
                draft_phase(self.model, [4], [st], [self.full_pool], w=w, d=d)

    def test_one_root_state_and_pool_per_root(self):
        st = init_state(self.model)
        with pytest.raises(ValueError, match="one root state and one pool"):
            draft_phase(self.model, [4, 5], [st], [self.full_pool] * 2, w=2, d=1)
        with pytest.raises(ValueError, match="one root state and one pool"):
            draft_phase(self.model, [4], [st], [self.full_pool] * 2, w=2, d=1)
        (res,) = draft_phase(self.model, [4], [st], [self.full_pool], w=2, d=1)
        with pytest.raises(ValueError):
            verify_phase(self.model, [tree_of(res)], [st, st])

    def test_root_states_must_be_decode_states(self):
        # step reads an int source as an earlier token of its call, so an
        # int root state would continue the other tree's root row.
        st = init_state(self.model)
        with pytest.raises(ValueError, match="must be a DecodeState"):
            draft_phase(self.model, [1, 2], [st, 0], [self.full_pool] * 2, w=2, d=1)
        tree = ((-1, 0), (3, 4))
        with pytest.raises(ValueError, match="must be a DecodeState"):
            verify_phase(self.model, [tree, tree], [st, 0])


def reference_tree(model, root, state, pool, w, d, mode, reconstruct, traces):
    """draft_phase's tree from one root, rebuilt without its batched calls:
    each depth replays every frontier node's root path with one-token
    steps, ranks the nodes' top-w children by the recomputed cumulative
    log-probability, then parent, then token, and forces the draft-greedy
    chain child into the last kept place.  Returns the tree and how many
    children it forced."""
    parents, tokens = [-1], [root]

    def replay(node):
        # node's cumulative log-probability and its next log-probabilities.
        path = []
        while node >= 0:
            path.append(node)
            node = parents[node]
        st, score, lp = state, 0.0, None
        for node in reversed(path):
            if lp is not None:
                score += lp[tokens[node]]
            out = step(model, [st], [tokens[node]], mode, pool[None], traces, reconstruct)
            st, lp = out.states[0], log_softmax(out.logits)[0].tolist()
        return score, lp

    frontier, chain, forced = [0], 0, 0
    for _ in range(d):
        candidates = []
        for node in frontier:
            score, lp = replay(node)
            top = sorted(range(len(lp)), key=lambda t: (-lp[t], t))[:w]
            candidates += [(score + lp[t], node, t) for t in top]
            if node == chain:
                chain_child = (node, top[0])
        candidates.sort(key=lambda c: (-c[0], c[1], c[2]))
        kept = [(node, t) for _, node, t in candidates[:w]]
        if chain_child not in kept:
            kept[-1] = chain_child
            forced += 1
        frontier = []
        for node, t in kept:
            if (node, t) == chain_child:
                chain = len(tokens)
            frontier.append(len(tokens))
            parents.append(node)
            tokens.append(t)
    return (tuple(parents), tuple(tokens)), forced


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_draft_trees_equal_path_replay_reference(data):
    # Vocab below width leaves ragged frontiers; each tree of one call has
    # its own root state and a pool no other tree has.
    n_experts = data.draw(st.integers(2, 6), label="n_experts")
    shape = MoEShape(
        d_model=32,
        d_ff=32,
        n_experts=n_experts,
        top_k=data.draw(st.integers(1, 2), label="top_k"),
        n_layers=data.draw(st.integers(1, 2), label="n_layers"),
        vocab=data.draw(st.integers(1, 6), label="vocab"),
    )
    model = gen_model(shape, seed=data.draw(st.integers(0, 2**16), label="seed"))
    w = data.draw(st.integers(1, 8), label="w")
    d = data.draw(st.integers(0, 3), label="d")
    mode = data.draw(st.sampled_from(list(PrecisionMode)), label="draft_mode")
    reconstruct = data.draw(st.sampled_from(list(ReconstructMode)), label="reconstruct")
    traces = None
    if data.draw(st.booleans(), label="traced"):
        traces = trace_scores([
            gen_routing_trace(5, n_experts, shape.top_k, 1.0, 0.5, seed=layer)
            for layer in range(shape.n_layers)
        ])
    layer_pool = st.frozensets(st.integers(0, n_experts - 1), min_size=shape.top_k)
    pools = data.draw(st.lists(
        st.tuples(*[layer_pool] * shape.n_layers), min_size=1, max_size=3, unique=True,
    ), label="pools")
    pools = [pool_of(n_experts, *experts) for experts in pools]
    token = st.integers(0, shape.vocab - 1)
    roots, states = [], []
    for i in range(len(pools)):
        prompt = data.draw(st.lists(token, max_size=2), label=f"prompt{i}")
        states.append(prefill(model, prompt, PrecisionMode.INT8_FULL, traces)[0])
        roots.append(data.draw(token, label=f"root{i}"))
    results = draft_phase(model, roots, states, pools, w, d, mode, reconstruct, traces)
    for res, root, state, pool in zip(results, roots, states, pools, strict=True):
        want, _ = reference_tree(model, root, state, pool, w, d, mode, reconstruct, traces)
        assert tree_of(res) == want


def test_forced_chain_child_equals_reference():
    # Few drawn cases force the chain child in; this call's first tree
    # forces one, beside a second tree with another pool and root state.
    shape = MoEShape(d_model=32, d_ff=32, n_experts=4, top_k=2, n_layers=2, vocab=4)
    model = gen_model(shape, seed=35)
    pools = [
        pool_of(4, range(4), {0, 2, 3}),
        pool_of(4, {0, 1}, {2, 3}),
    ]
    states = [init_state(model), prefill(model, [3], PrecisionMode.INT8_FULL)[0]]
    mode, reconstruct = PrecisionMode.MSB4_DRAFT, ReconstructMode.LSB_AUGMENT
    results = draft_phase(model, [1, 2], states, pools, w=2, d=3)
    want, forced = reference_tree(model, 1, states[0], pools[0], 2, 3, mode, reconstruct, None)
    assert forced and tree_of(results[0]) == want
    want, _ = reference_tree(model, 2, states[1], pools[1], 2, 3, mode, reconstruct, None)
    assert tree_of(results[1]) == want


class TestVerifyPhase:
    def setup_method(self):
        self.model = gen_model(SHAPE, seed=11)
        self.full_pool = np.ones((2, 8), dtype=bool)

    def test_self_agreement_reaches_full_depth(self):
        # Full-precision draft with the full pool is the target model, so
        # the greedy chain must be accepted whole.
        st = init_state(self.model)
        for d in (1, 2, 4):
            (res,) = draft_phase(
                self.model,
                [5],
                [st],
                [self.full_pool],
                w=2,
                d=d,
                draft_mode=PrecisionMode.INT8_FULL,
            )
            (ver,) = verify_phase(self.model, [tree_of(res)], [st])
            assert ver.accept_length == d
            # The root and every drafted node are verified.
            assert ver.verify_token_count == len(res.tokens) == 1 + 2 * d

    def test_adversarial_tree_accepts_nothing(self):
        st = init_state(self.model)
        out = step(self.model, [st], [5], PrecisionMode.INT8_FULL)
        wrong = (greedy_token(out.logits[0]) + 1) % SHAPE.vocab
        (ver,) = verify_phase(self.model, [((-1, 0), (5, wrong))], [st])
        assert ver.accept_length == 0
        assert ver.bonus_token == greedy_token(out.logits[0])
        assert ver.emitted == (ver.bonus_token,)

    def test_empty_tree_degenerates_to_ar(self):
        st = init_state(self.model)
        (res,) = draft_phase(self.model, [5], [st], [self.full_pool], w=2, d=0)
        (ver,) = verify_phase(self.model, [tree_of(res)], [st])
        out = step(self.model, [st], [5], PrecisionMode.INT8_FULL)
        assert ver.accept_length == 0
        assert ver.verify_token_count == 1
        assert ver.bonus_token == greedy_token(out.logits[0])
        assert np.array_equal(ver.selected, out.selected)

    def test_accept_matches_path_replay_oracle(self):
        pool = pool_of(8, {0, 1, 2, 5}, {1, 3, 4, 6})
        for seed in (1, 2, 3, 4):
            model = gen_model(SHAPE, seed=seed)
            st = init_state(model)
            (res,) = draft_phase(model, [seed], [st], [pool], w=2, d=3)
            (ver,) = verify_phase(model, [tree_of(res)], [st])
            assert ver.accept_length == self._oracle_accept(model, tree_of(res), st)

    def _oracle_accept(self, model, tree, root_state):
        # Independent re-derivation: enumerate every root path of the tree
        # and replay target greedy decoding along it.
        parents, tokens = tree
        children = {}
        for i in range(1, len(tokens)):
            children.setdefault(parents[i], []).append(i)

        def paths_from(node):
            kids = children.get(node, [])
            if not kids:
                return [[]]
            out = []
            for c in kids:
                out.extend([[c] + rest for rest in paths_from(c)])
            return out

        best = 0
        for path in paths_from(0):
            out = step(model, [root_state], [tokens[0]], PrecisionMode.INT8_FULL)
            matched = 0
            for node in path:
                if greedy_token(out.logits[0]) != tokens[node]:
                    break
                matched += 1
                out = step(model, [out.states[0]], [tokens[node]], PrecisionMode.INT8_FULL)
            best = max(best, matched)
        return best


class TestSdSession:
    def test_stream_equals_greedy_ar(self):
        model = gen_model(SHAPE, seed=17)
        cfg = SdConfig(width=2, depth=3, pool_capacity=4)
        ar, _ = greedy_decode(model, [3, 5], 40, PrecisionMode.INT8_FULL)
        # An empty trace means no trace, as it does for greedy_decode.
        for traces in (None, []):
            session = SdSession(model, cfg, prompt=[3, 5], score_traces=traces)
            got = session.run(40).tokens
            assert list(got) == ar

    def test_stream_equality_with_trace_overrides(self):
        model = gen_model(SHAPE, seed=18)
        layer_traces = [
            gen_routing_trace(100, SHAPE.n_experts, SHAPE.top_k, 1.0, 0.8, seed=50 + i)
            for i in range(SHAPE.n_layers)
        ]
        traces = trace_scores(layer_traces)
        cfg = SdConfig(width=2, depth=2, pool_capacity=4)
        session = SdSession(model, cfg, prompt=[1, 2, 3], score_traces=traces)
        got = session.run(30).tokens
        ar, _ = greedy_decode(
            model, [1, 2, 3], 30, PrecisionMode.INT8_FULL, score_traces=traces
        )
        assert list(got) == ar

    def test_root_state_position_counts_emitted_tokens(self):
        # The root state follows the prompt minus its last token (the first
        # draft root) and every token emitted so far, traced or not.
        model = gen_model(SHAPE, seed=23)
        short = trace_scores([
            gen_routing_trace(7, SHAPE.n_experts, SHAPE.top_k, 1.0, 0.8, seed=70 + i)
            for i in range(SHAPE.n_layers)
        ])
        cfg = SdConfig(width=2, depth=3, pool_capacity=4)
        for prompt in ([4], [1, 2, 3, 4]):
            for traces in (None, short):
                session = SdSession(model, cfg, prompt=prompt, score_traces=traces)
                emitted = 0
                assert session.root_state.pos == len(prompt) - 1
                for _ in range(6):
                    emitted += len(session.step().emitted)
                    assert session.root_state.pos == len(prompt) - 1 + emitted

    def test_deterministic_accept_stats(self):
        model = gen_model(SHAPE, seed=19)
        cfg = SdConfig(width=2, depth=3, pool_capacity=4)
        r1 = SdSession(model, cfg, prompt=[7]).run(30)
        r2 = SdSession(model, cfg, prompt=[7]).run(30)
        assert r1.accept_lengths == r2.accept_lengths
        assert r1.tokens == r2.tokens

    def test_draft_decisions_respect_pool(self):
        model = gen_model(SHAPE, seed=20)
        cfg = SdConfig(width=2, depth=3, pool_capacity=4)
        session = SdSession(model, cfg, prompt=[2, 4])
        run = session.run(30)
        checked = 0
        for s in run.steps:
            for layer, experts in enumerate(pool_sets(s.pool)):
                assert set(s.draft_selected[:, layer].ravel().tolist()) <= experts
                checked += s.draft_selected[:, layer].size
        assert checked > 0

    def test_pool_stable_under_frozen_trace(self):
        model = gen_model(SHAPE, seed=21)
        layer_traces = [
            gen_routing_trace(80, SHAPE.n_experts, SHAPE.top_k, 1.0, 1.0, seed=60 + i)
            for i in range(SHAPE.n_layers)
        ]
        traces = trace_scores(layer_traces)
        cfg = SdConfig(width=2, depth=2, pool_capacity=4)
        session = SdSession(model, cfg, prompt=[5, 6], score_traces=traces)
        run = session.run(25)
        pools = [s.next_pool for s in run.steps]
        assert all(np.array_equal(p, pools[0]) for p in pools[1:])

    def test_emitted_count_is_accept_plus_one(self):
        model = gen_model(SHAPE, seed=22)
        cfg = SdConfig(width=2, depth=3, pool_capacity=4)
        run = SdSession(model, cfg, prompt=[9]).run(20)
        for s in run.steps:
            assert len(s.emitted) == s.accept_length + 1
            assert s.accept_length <= cfg.depth

    def test_transfers_track_pool_changes(self):
        model = gen_model(SHAPE, seed=23)
        cfg = SdConfig(width=2, depth=2, pool_capacity=4, pool_strategy="random")
        session = SdSession(model, cfg, prompt=[1])
        res = session.step()
        resident_before = {
            (layer, e)
            for layer, experts in enumerate(pool_sets(res.pool))
            for e in experts
        }
        expected = [
            (layer, e)
            for layer, experts in enumerate(pool_sets(res.next_pool))
            for e in sorted(experts)
            if (layer, e) not in resident_before
        ]
        assert list(res.transfers) == expected

    def test_config_validation(self):
        model = gen_model(SHAPE, seed=24)
        with pytest.raises(ValueError):
            SdConfig(width=0)
        with pytest.raises(ValueError):
            SdConfig(pool_strategy="magic")
        with pytest.raises(ValueError):
            SdConfig(hotness_decay=1.5)
        with pytest.raises(ValueError):
            SdSession(model, SdConfig(pool_capacity=1), prompt=[1])
        with pytest.raises(ValueError):
            SdSession(model, SdConfig(), prompt=[])

    @pytest.mark.parametrize("field, value", [
        ("width", 2.0), ("width", True), ("depth", True), ("depth", 1.5),
        ("pool_capacity", 2.5), ("pool_capacity", 0), ("pool_capacity", "8"),
        ("draft_reconstruct", "lsb_augment"), ("draft_reconstruct", PrecisionMode.MSB4_DRAFT),
        ("draft_mode", "msb4_draft"), ("draft_mode", ReconstructMode.FULL),
    ], ids=repr)
    def test_config_rejects_non_integer_sizes_and_unknown_modes(self, field, value):
        # Each of these once failed deep in a session, or ran as another
        # value (depth=True as depth 1).
        with pytest.raises(ValueError, match=field):
            SdConfig(**{field: value})

    def test_draft_steps_reuse_surrogate_codes(self, monkeypatch):
        calls = Counter()
        build = toymoe.surrogate_codes

        def counting(codes, mode):
            calls[mode] += 1
            return build(codes, mode)

        monkeypatch.setattr(toymoe, "surrogate_codes", counting)
        # A cleared store, so no earlier call built this model's code sets.
        toymoe._build_model.cache_clear()
        model = gen_model(SHAPE, seed=25)
        modes = (ReconstructMode.LSB_AUGMENT, ReconstructMode.TRUNCATE)
        for mode in modes:
            cfg = SdConfig(width=2, depth=3, pool_capacity=4, draft_reconstruct=mode)
            run = SdSession(model, cfg, prompt=[4, 2]).run(16)
            assert sum(s.draft_step_calls for s in run.steps) > 10
        # Each expert's up_gate and down are built at most once per draft
        # mode, and the FULL codes of the verify steps are never rebuilt.
        assert set(calls) == set(modes)
        assert ReconstructMode.FULL not in calls
        assert max(calls.values()) <= 2 * SHAPE.n_layers * SHAPE.n_experts
        expert = model.experts[0][0]
        for mode in modes + (ReconstructMode.FULL,):
            codes = expert.codes(mode)
            assert codes is expert.codes(mode)
            assert len(codes) == 2
            for array in codes:
                assert not array.flags.writeable

    def test_one_step_call_per_draft_level_and_one_per_verify_tree(self, monkeypatch):
        calls = []

        def counting(batched):
            def wrapper(model, state, token, mode, *args, **kwargs):
                calls.append((mode, token))
                return batched(model, state, token, mode, *args, **kwargs)

            return wrapper

        monkeypatch.setattr(elastic_sd, "step", counting(elastic_sd.step))
        monkeypatch.setattr(toymoe, "step", counting(toymoe.step))
        model = gen_model(SHAPE, seed=26)
        cfg = SdConfig(width=2, depth=3, pool_capacity=4)
        session = SdSession(model, cfg, prompt=[4, 2, 7])
        # The prompt before the first root is prefilled as one chain.
        assert calls == [(PrecisionMode.INT8_FULL, [4, 2])]
        for _ in range(4):
            calls.clear()
            res = session.step()
            # One call per draft depth over its frontier, then one call for
            # the root and every verified node.
            assert len(calls) == cfg.depth + 1
            sizes = [(mode, len(tokens)) for mode, tokens in calls]
            assert sizes[:-1] == [(cfg.draft_mode, 1)] + [(cfg.draft_mode, 2)] * 2
            assert sizes[-1] == (PrecisionMode.INT8_FULL, res.verify_token_count)
            assert res.draft_step_calls == 1 + cfg.width * (cfg.depth - 1)


def assert_same_runs(got, want):
    """Two runs of one session equal field for field, arrays bit for bit."""
    assert (got.tokens, got.accept_lengths) == (want.tokens, want.accept_lengths)
    assert len(got.steps) == len(want.steps)
    for a, b in zip(got.steps, want.steps):
        for f in dataclasses.fields(a):
            x, y = getattr(a, f.name), getattr(b, f.name)
            if isinstance(x, np.ndarray):
                assert (x.dtype, x.shape, x.tobytes()) == (y.dtype, y.shape, y.tobytes()), f.name
            else:
                assert x == y, f.name


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_sessions_stepped_together_equal_sessions_alone(data):
    # 1-4 sessions of one model, geometry, draft mode and trace, each with
    # its own prompt, pool strategy, capacity, decay and seed, so that they
    # hold different pools and finish at different steps.
    n_experts = data.draw(st.integers(2, 6), label="n_experts")
    shape = MoEShape(
        d_model=32,
        d_ff=data.draw(st.sampled_from([32, 64]), label="d_ff"),
        n_experts=n_experts,
        top_k=data.draw(st.integers(1, min(n_experts, 3)), label="top_k"),
        n_layers=data.draw(st.integers(1, 2), label="n_layers"),
        vocab=data.draw(st.integers(2, 24), label="vocab"),
    )
    model = gen_model(shape, seed=data.draw(st.integers(0, 2**16), label="seed"))
    shared = dict(
        width=data.draw(st.integers(1, 3), label="width"),
        depth=data.draw(st.integers(0, 3), label="depth"),
        draft_reconstruct=data.draw(st.sampled_from(list(ReconstructMode)), label="reconstruct"),
        draft_mode=data.draw(st.sampled_from(list(PrecisionMode)), label="draft_mode"),
    )
    traces = None
    n_trace = data.draw(st.integers(0, 8), label="trace_tokens")
    if n_trace:
        traces = trace_scores([
            gen_routing_trace(n_trace, n_experts, shape.top_k, 1.0, 0.5, seed=layer)
            for layer in range(shape.n_layers)
        ])
    configs, prompts = [], []
    for i in range(data.draw(st.integers(1, 4), label="sessions")):
        configs.append(SdConfig(
            **shared,
            pool_capacity=data.draw(st.integers(shape.top_k, n_experts), label=f"capacity{i}"),
            hotness_decay=data.draw(st.sampled_from([0.0, 0.5, 1.0]), label=f"decay{i}"),
            pool_strategy=data.draw(st.sampled_from(["hotness", "random"]), label=f"pools{i}"),
            seed=data.draw(st.integers(0, 3), label=f"pool seed{i}"),
        ))
        prompts.append(data.draw(
            st.lists(st.integers(0, shape.vocab - 1), min_size=1, max_size=4),
            label=f"prompt{i}",
        ))
    n_new = data.draw(st.integers(0, 10), label="n_new")

    def sessions():
        return [
            SdSession(model, cfg, prompt, score_traces=traces)
            for cfg, prompt in zip(configs, prompts)
        ]

    together, alone = sessions(), sessions()
    runs = run_sessions(together, n_new)
    assert len(runs) == len(alone)
    for run, lone, session in zip(runs, alone, together):
        assert_same_runs(run, lone.run(n_new))
        assert session.root_token == lone.root_token
        assert session.root_state.pos == lone.root_state.pos
        assert session.root_state.ctx.tobytes() == lone.root_state.ctx.tobytes()
        assert session.hotness.tobytes() == lone.hotness.tobytes()
        assert session.pool.tobytes() == lone.pool.tobytes()


def test_sessions_that_finish_at_different_steps_run_as_alone():
    # Three sessions of 6, 8 and 8 steps: the first stops stepping after
    # its sixth round while the others go on.
    model = gen_model(SHAPE, seed=32)
    configs = [
        SdConfig(pool_capacity=4),
        SdConfig(pool_capacity=4, pool_strategy="random", seed=3),
        SdConfig(pool_capacity=2, hotness_decay=0.0),
    ]
    prompts = [[3, 5], [1], [7, 7, 2]]
    alone = [SdSession(model, cfg, prompt).run(20) for cfg, prompt in zip(configs, prompts)]
    assert [len(run.steps) for run in alone] == [6, 8, 8]
    sessions = [SdSession(model, cfg, prompt) for cfg, prompt in zip(configs, prompts)]
    for run, lone in zip(run_sessions(sessions, 20), alone):
        assert_same_runs(run, lone)


@pytest.mark.parametrize("change", [
    "width", "depth", "draft_mode", "draft_reconstruct", "model", "traces", "twice",
])
def test_run_sessions_rejects_sessions_that_cannot_step_together(change):
    model = gen_model(SHAPE, seed=31)
    traces = trace_scores([
        gen_routing_trace(20, SHAPE.n_experts, SHAPE.top_k, 1.0, 0.5, seed=layer)
        for layer in range(SHAPE.n_layers)
    ])
    first = SdSession(model, SdConfig(), [1, 2], score_traces=traces)
    fields = {
        "width": {"width": 3},
        "depth": {"depth": 2},
        "draft_mode": {"draft_mode": PrecisionMode.INT8_FULL},
        "draft_reconstruct": {"draft_reconstruct": ReconstructMode.TRUNCATE},
    }
    other = SdSession(
        gen_model(SHAPE, seed=33) if change == "model" else model,
        SdConfig(**fields.get(change, {})),
        [3],
        score_traces=traces.copy() if change == "traces" else traces,
    )
    with pytest.raises(ValueError, match="stepped"):
        run_sessions([first, first if change == "twice" else other], 4)
    # Pool strategy, capacity, decay, seed and prompt may differ.
    mixed = SdConfig(pool_capacity=4, hotness_decay=0.25, pool_strategy="random", seed=5)
    run_sessions([first, SdSession(model, mixed, [3], score_traces=traces)], 4)


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_stream_equals_greedy_property(data):
    n_experts = data.draw(st.integers(1, 6), label="n_experts")
    shape = MoEShape(
        d_model=32,
        d_ff=data.draw(st.sampled_from([32, 64]), label="d_ff"),
        n_experts=n_experts,
        top_k=data.draw(st.integers(1, min(n_experts, 3)), label="top_k"),
        n_layers=data.draw(st.integers(1, 2), label="n_layers"),
        vocab=data.draw(st.integers(2, 24), label="vocab"),
    )
    model = gen_model(shape, seed=data.draw(st.integers(0, 2**16), label="seed"))
    cfg = SdConfig(
        width=data.draw(st.integers(1, 3), label="width"),
        depth=data.draw(st.integers(0, 3), label="depth"),
        pool_capacity=data.draw(
            st.integers(shape.top_k, n_experts + 1), label="pool_capacity"
        ),
        draft_reconstruct=data.draw(
            st.sampled_from(list(ReconstructMode)), label="reconstruct"
        ),
        pool_strategy=data.draw(
            st.sampled_from(["hotness", "random"]), label="pool_strategy"
        ),
    )
    traces = None
    n_trace = data.draw(st.integers(0, 8), label="trace_tokens")
    if n_trace:
        # Short traces wrap around, so positions past the end reuse rows.
        traces = trace_scores([
            gen_routing_trace(n_trace, n_experts, shape.top_k, 1.0, 0.5, seed=layer)
            for layer in range(shape.n_layers)
        ])
    prompt = data.draw(
        st.lists(st.integers(0, shape.vocab - 1), min_size=1, max_size=3),
        label="prompt",
    )
    n_new = data.draw(st.integers(1, 10), label="n_new")
    got = SdSession(model, cfg, prompt, score_traces=traces).run(n_new).tokens
    ar, _ = greedy_decode(
        model, prompt, n_new, PrecisionMode.INT8_FULL, score_traces=traces
    )
    assert list(got) == ar


# Values int() would truncate or parse into a token id or a source index.
NON_INTEGERS = [True, False, np.bool_(True), 2.7, 1.0, np.float64(2.0), "3"]


def _call_with(where, value):
    model = gen_model(SHAPE, seed=30)
    st = init_state(model)
    if where == "step token":
        step(model, [st], [value], PrecisionMode.INT8_FULL)
    elif where == "step source":
        step(model, [st, value], [1, 2], PrecisionMode.INT8_FULL)
    elif where == "greedy_decode prompt":
        greedy_decode(model, [value], 3, PrecisionMode.INT8_FULL)
    elif where == "session prompt":
        SdSession(model, SdConfig(), prompt=[value, 1]).run(3)
    elif where == "session last prompt token":
        SdSession(model, SdConfig(), prompt=[3, value]).run(3)
    else:
        pool = np.ones((SHAPE.n_layers, SHAPE.n_experts), dtype=bool)
        draft_phase(model, [value], [st], [pool], w=2, d=1)


@pytest.mark.parametrize("value", NON_INTEGERS, ids=repr)
@pytest.mark.parametrize("where", [
    "step token", "step source", "greedy_decode prompt", "session prompt",
    "session last prompt token", "draft root",
])
def test_non_integer_token_or_source_rejected(where, value):
    with pytest.raises(ValueError, match="is not an integer"):
        _call_with(where, value)


def test_numpy_integer_tokens_accepted():
    model = gen_model(SHAPE, seed=30)
    prompt = np.array([3, 1], dtype=np.int32)
    ar, _ = greedy_decode(model, [3, 1], 6, PrecisionMode.INT8_FULL)
    assert greedy_decode(model, list(prompt), 6, PrecisionMode.INT8_FULL)[0] == ar
    assert list(SdSession(model, SdConfig(), prompt=prompt).run(6).tokens) == ar
    sources = [init_state(model), np.int64(0)]
    out = step(model, sources, [np.uint8(3), np.int16(1)], PrecisionMode.INT8_FULL)
    assert np.array_equal(out.logits, step(model, sources[:1] + [0], [3, 1],
                                           PrecisionMode.INT8_FULL).logits)
