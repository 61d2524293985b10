from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from elasticmoe import elastic_sd, toymoe
from elasticmoe.bitnest import ReconstructMode
from elasticmoe.elastic_sd import (
    DraftTree,
    ExpertPool,
    SdConfig,
    SdSession,
    TreeNode,
    accumulate_hotness,
    draft_phase,
    pool_update_plan,
    random_pool,
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
    step,
    trace_scores,
)

SHAPE = MoEShape(d_model=64, d_ff=128, n_experts=8, top_k=2, n_layers=2, vocab=64)


def zeros(n_layers, n_experts):
    return np.zeros((n_layers, n_experts))


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
        assert pool.experts[0] == frozenset({0, 2})

    def test_tie_breaks_low_id(self):
        counts = accumulate_hotness(zeros(1, 3), selections(*[[[0, 1]]] * 3))
        counts = accumulate_hotness(counts, selections([[2]]))
        # counts [3, 3, 1]
        pool = select_pool(counts, 1)
        assert pool.experts[0] == frozenset({0})
        # Unseen experts tie at zero and fill the pool from the lowest id.
        assert select_pool(zeros(1, 5), 3).experts[0] == frozenset({0, 1, 2})

    def test_full_capacity(self):
        pool = select_pool(zeros(2, 4), 4)
        assert all(p == frozenset(range(4)) for p in pool.experts)
        assert select_pool(zeros(2, 4), 9).experts == pool.experts

    def test_capacity_below_topk(self):
        with pytest.raises(ValueError):
            select_pool(zeros(1, 4), 1, top_k=2)

    def test_random_pool_sized_and_seeded(self):
        rng = np.random.default_rng(7)
        p1 = random_pool(2, 8, 3, rng)
        assert all(len(p) == 3 for p in p1.experts)
        p2 = random_pool(2, 8, 3, np.random.default_rng(7))
        assert p1.experts == p2.experts


def one_layer_pool(*experts):
    return ExpertPool(experts=(frozenset(experts),))


class TestPoolUpdatePlan:
    def test_cached_superset_means_empty(self):
        plan = pool_update_plan(one_layer_pool(1, 2), one_layer_pool(1, 2, 3))
        assert plan == []

    def test_disjoint_fetches_everything(self):
        pool = ExpertPool(experts=(frozenset({1, 2}), frozenset({0, 3})))
        held = ExpertPool(experts=(frozenset({0, 3}), frozenset({1, 2})))
        assert pool_update_plan(pool, held) == [(0, 1), (0, 2), (1, 0), (1, 3)]

    def test_partial(self):
        assert pool_update_plan(one_layer_pool(1, 2), one_layer_pool(2)) == [(0, 1)]


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


class TestDraftTreeInvariants:
    def test_bad_parent_order(self):
        with pytest.raises(ValueError):
            DraftTree(
                nodes=(
                    TreeNode(-1, 0, 0.0, 0),
                    TreeNode(2, 1, -0.1, 1),
                ),
                depth=1,
                chain=(),
            )

    def test_depth_consistency(self):
        with pytest.raises(ValueError):
            DraftTree(
                nodes=(
                    TreeNode(-1, 0, 0.0, 0),
                    TreeNode(0, 1, -0.1, 2),
                ),
                depth=2,
                chain=(),
            )


class TestDraftPhase:
    def setup_method(self):
        self.model = gen_model(SHAPE, seed=11)
        self.full_pool = ExpertPool(experts=(frozenset(range(8)),) * 2)

    def test_single_chain_node_is_greedy(self):
        st = init_state(self.model)
        out = step(self.model, [st], [4], PrecisionMode.MSB4_DRAFT)
        expected = greedy_token(out.logits[0])
        res = draft_phase(self.model, 4, st, self.full_pool, w=1, d=1)
        assert len(res.tree.nodes) == 2
        assert res.tree.nodes[1].token == expected
        assert res.tree.chain == (1,)

    def test_depth_zero_gives_root_only(self):
        st = init_state(self.model)
        res = draft_phase(self.model, 4, st, self.full_pool, w=2, d=0)
        assert len(res.tree.nodes) == 1
        assert res.tree.chain == ()
        assert res.step_calls == 0
        for ids in (res.selected, res.unrestricted):
            assert ids.shape == (0, SHAPE.n_layers, SHAPE.top_k)

    def test_throttling_audit(self):
        pool = ExpertPool(experts=(frozenset({0, 1, 2, 3}), frozenset({2, 3, 4, 5})))
        st = init_state(self.model)
        res = draft_phase(self.model, 9, st, pool, w=2, d=3)
        assert res.selected.shape == (res.step_calls, SHAPE.n_layers, SHAPE.top_k)
        assert res.step_calls
        for layer, experts in enumerate(pool.experts):
            assert set(res.selected[:, layer].ravel().tolist()) <= experts

    def test_node_count_and_width(self):
        st = init_state(self.model)
        res = draft_phase(self.model, 7, st, self.full_pool, w=3, d=4)
        per_depth = {}
        for n in res.tree.nodes[1:]:
            per_depth[n.depth] = per_depth.get(n.depth, 0) + 1
        assert per_depth == {1: 3, 2: 3, 3: 3, 4: 3}
        assert len(res.tree.chain) == 4

    def test_scores_nonincreasing_along_paths(self):
        st = init_state(self.model)
        res = draft_phase(self.model, 2, st, self.full_pool, w=2, d=3)
        for i, n in enumerate(res.tree.nodes):
            if n.parent >= 0:
                assert n.score <= res.tree.nodes[n.parent].score + 1e-12


class TestVerifyPhase:
    def setup_method(self):
        self.model = gen_model(SHAPE, seed=11)
        self.full_pool = ExpertPool(experts=(frozenset(range(8)),) * 2)

    def test_self_agreement_reaches_full_depth(self):
        # Full-precision draft with the full pool is the target model, so
        # the greedy chain must be accepted whole.
        st = init_state(self.model)
        for d in (1, 2, 4):
            res = draft_phase(
                self.model,
                5,
                st,
                self.full_pool,
                w=2,
                d=d,
                draft_mode=PrecisionMode.INT8_FULL,
            )
            ver = verify_phase(self.model, res.tree, st)
            assert ver.accept_length == d
            # The root and every drafted node are verified.
            assert ver.verify_token_count == len(res.tree.nodes) == 1 + 2 * d

    def test_adversarial_tree_accepts_nothing(self):
        st = init_state(self.model)
        out = step(self.model, [st], [5], PrecisionMode.INT8_FULL)
        wrong = (greedy_token(out.logits[0]) + 1) % SHAPE.vocab
        tree = DraftTree(
            nodes=(TreeNode(-1, 5, 0.0, 0), TreeNode(0, wrong, -0.5, 1)),
            depth=1,
            chain=(1,),
        )
        ver = verify_phase(self.model, tree, st)
        assert ver.accept_length == 0
        assert ver.bonus_token == greedy_token(out.logits[0])
        assert ver.emitted == (ver.bonus_token,)

    def test_empty_tree_degenerates_to_ar(self):
        st = init_state(self.model)
        res = draft_phase(self.model, 5, st, self.full_pool, w=2, d=0)
        ver = verify_phase(self.model, res.tree, st)
        out = step(self.model, [st], [5], PrecisionMode.INT8_FULL)
        assert ver.accept_length == 0
        assert ver.verify_token_count == 1
        assert ver.bonus_token == greedy_token(out.logits[0])
        assert np.array_equal(ver.selected, out.selected)

    def test_accept_matches_path_replay_oracle(self):
        pool = ExpertPool(experts=(frozenset({0, 1, 2, 5}), frozenset({1, 3, 4, 6})))
        for seed in (1, 2, 3, 4):
            model = gen_model(SHAPE, seed=seed)
            st = init_state(model)
            res = draft_phase(model, seed, st, pool, w=2, d=3)
            ver = verify_phase(model, res.tree, st)
            assert ver.accept_length == self._oracle_accept(model, res.tree, st)

    def _oracle_accept(self, model, tree, root_state):
        # Independent re-derivation: enumerate every root path of the tree
        # and replay target greedy decoding along it.
        children = {}
        for i in range(1, len(tree.nodes)):
            children.setdefault(tree.nodes[i].parent, []).append(i)

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
            out = step(model, [root_state], [tree.nodes[0].token], PrecisionMode.INT8_FULL)
            matched = 0
            for node in path:
                if greedy_token(out.logits[0]) != tree.nodes[node].token:
                    break
                matched += 1
                out = step(
                    model, [out.states[0]], [tree.nodes[node].token], PrecisionMode.INT8_FULL
                )
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
            for layer, experts in enumerate(s.pool.experts):
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
        pools = [s.next_pool.experts for s in run.steps]
        assert all(p == pools[0] for p in pools[1:])

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
            for layer, experts in enumerate(res.pool.experts)
            for e in experts
        }
        expected = [
            (layer, e)
            for layer, experts in enumerate(res.next_pool.experts)
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

    def test_draft_steps_reuse_surrogate_codes(self, monkeypatch):
        calls = Counter()
        build = toymoe.surrogate_codes

        def counting(codes, mode):
            calls[mode] += 1
            return build(codes, mode)

        monkeypatch.setattr(toymoe, "surrogate_codes", counting)
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
        pool = ExpertPool(experts=(frozenset(range(8)),) * SHAPE.n_layers)
        draft_phase(model, value, st, pool, w=2, d=1)


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
