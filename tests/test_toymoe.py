import dataclasses
import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from elasticmoe import hwmodel, runner, toymoe
from elasticmoe.bitnest import GROUP_SIZE, ReconstructMode, quantize_group, surrogate_codes
from elasticmoe.toymoe import (
    ExpertWeights,
    MoEShape,
    PrecisionMode,
    gen_model,
    gen_routing_trace,
    greedy_decode,
    greedy_token,
    init_state,
    prefill,
    quantize_matrix,
    step,
    trace_scores,
)

SHAPE = MoEShape(d_model=64, d_ff=128, n_experts=8, top_k=2, n_layers=2, vocab=64)

# pyproject.toml's ignore for the warning that libcst raises when
# hypothesis imports it to print a failing example.  A test's own "error"
# mark overrides pyproject, so the test repeats the ignore above that
# mark; otherwise a failing property aborts the pytest run with INTERNALERROR.
LIBCST_IMPORT_WARNING = "ignore:mypy_extensions.TypedDict is deprecated:DeprecationWarning"

# Group magnitude whose scale is the largest finite fp16, 65504.
FP16_MAX_AMAX = 65504.0 * 127.0
GROUP_KINDS = ("zero", "floor", "max", "decades")


def draw_group(rng, kind):
    """32 values whose fp16 scale falls in one regime of the scale rule."""
    if kind == "zero":
        return np.zeros(GROUP_SIZE)
    v = rng.uniform(-1.0, 1.0, GROUP_SIZE)
    if kind == "floor":
        # amax / 127 rounds to 0 in fp16, so the subnormal floor applies.
        return v * 10.0 ** rng.uniform(-12, -6)
    if kind == "max":
        v[rng.integers(GROUP_SIZE)] = rng.choice([-1.0, 1.0])
        return v * FP16_MAX_AMAX
    # Magnitudes spread over 16 decades within the group.
    return v * 10.0 ** rng.uniform(-10, 6, GROUP_SIZE)


def silu(v):
    return v / (1.0 + np.exp(-v))


def blocked_real_matvec(w, x):
    # Same chunked accumulation order as the library uses.
    out_dim = w.shape[0]
    parts = np.einsum(
        "ogj,gj->og",
        w.reshape(out_dim, -1, GROUP_SIZE),
        x.reshape(-1, GROUP_SIZE),
        optimize=False,
    )
    return np.sum(parts, axis=1)


def dequant(codes, scales):
    # Exact real matrix codes * scales, shape (out, in), from the
    # (groups, 32, out) codes and (groups, 1, out) scales of quantize_matrix.
    w = codes.astype(np.float64) * scales
    return w.transpose(2, 0, 1).reshape(codes.shape[2], -1)


def quantized_expert(up, gate, down):
    # An ExpertWeights holding the codes of real up, gate and down matrices.
    return ExpertWeights(*quantize_matrix(np.concatenate([up, gate])), *quantize_matrix(down))


def quantize_vector(v):
    # quantize_rows of one vector: (int64 codes, scale).
    codes, scales = toymoe.quantize_rows(np.asarray(v, dtype=np.float64)[None])
    return codes[0].astype(np.int64), float(scales[0])


def expert_on_row(x, e, rec=ReconstructMode.FULL):
    # The expert kernel on one row routed to the one expert e.
    x = np.asarray(x, dtype=np.float64)[None]
    return toymoe._experts(x, np.zeros((1, 1), dtype=np.int64), (e,), rec)[0, 0]


def mirror_expert_int8(x, e):
    # Real-arithmetic mirror of the fused integer path: dequantized weights,
    # dequantized activations, identical accumulation structure.
    a, sa = quantize_vector(x)
    xa = a.astype(np.float64) * sa
    w_up_gate = dequant(e.up_gate, e.up_gate_scales)
    f = w_up_gate.shape[0] // 2
    u = blocked_real_matvec(w_up_gate[:f], xa)
    g = blocked_real_matvec(w_up_gate[f:], xa)
    h = silu(g) * u
    hq, sh = quantize_vector(h)
    return blocked_real_matvec(dequant(e.down, e.down_scales), hq.astype(np.float64) * sh)


def route(scores, k, permitted=None):
    """The (ids, gates) step's router gives one row of scores: its top-k
    by the one selection rule, toymoe._select, within a permitted set of
    expert ids when one is given."""
    s = np.asarray(scores, dtype=np.float64)[None]
    mask = None
    if permitted is not None:
        mask = np.zeros(s.shape, dtype=bool)
        mask[0, list(permitted)] = True
    ids, gates = toymoe._select(s, k, mask)
    return tuple(ids[0].tolist()), tuple(gates[0].tolist())


def pools_mask(shape, pools):
    """step's permitted array for one pool per token, each pool None (every
    expert) or one set of expert ids (or None, every expert) per layer."""
    mask = np.ones((len(pools), shape.n_layers, shape.n_experts), dtype=bool)
    for t, pool in enumerate(pools):
        for layer, ids in enumerate(pool or ()):
            if ids is not None:
                mask[t, layer] = False
                mask[t, layer, list(ids)] = True
    return mask


class TestRoute:
    def test_basic_topk(self):
        selected, gates = route(np.array([0.5, 0.3, 0.15, 0.05]), 2)
        assert selected == (0, 1)
        assert gates == pytest.approx((0.625, 0.375))

    def test_permitted_subset(self):
        selected, gates = route(np.array([0.5, 0.3, 0.15, 0.05]), 2, permitted={1, 3})
        assert selected == (1, 3)
        assert gates == pytest.approx((0.3 / 0.35, 0.05 / 0.35))

    def test_k_equals_n(self):
        s = np.array([0.4, 0.3, 0.2, 0.1])
        selected, gates = route(s, 4)
        assert selected == (0, 1, 2, 3)
        assert gates == pytest.approx(tuple(s))

    def test_tie_breaks_to_lower_id(self):
        assert route(np.array([0.2, 0.4, 0.4]), 1)[0] == (1,)
        assert route(np.array([0.4, 0.2, 0.4]), 2)[0] == (0, 2)

    def test_gates_sum_to_one(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            s = rng.dirichlet(np.ones(16))
            assert sum(route(s, 4)[1]) == pytest.approx(1.0)

    def test_throttle_superset_is_noop(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            s = rng.dirichlet(np.ones(12))
            base = route(s, 3)
            permitted = set(base[0]) | {0, 5, 11}
            assert route(s, 3, permitted=permitted) == base

    def test_selection_is_topk_of_original_scores_within_pool(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            s = rng.dirichlet(np.ones(12))
            pool = sorted(rng.choice(12, size=6, replace=False).tolist())
            expected = sorted(pool, key=lambda e: (-s[e], e))[:3]
            assert list(route(s, 3, permitted=pool)[0]) == expected

    def test_permitted_too_small(self):
        # step rejects a pool that leaves any token fewer than top_k
        # experts at any layer.
        model = gen_model(SHAPE, seed=21)
        st = init_state(model)
        for pools in ([[{0}, None]], [None, [set(range(8)), {5}]], [[set(), set()]]):
            with pytest.raises(ValueError, match="fewer than top_k"):
                step(model, [st] * len(pools), [1] * len(pools), PrecisionMode.MSB4_DRAFT,
                     pools_mask(SHAPE, pools))

    def test_rejects_nonfinite(self):
        # step checks every row it routes on, the router's or a trace's.
        model = gen_model(SHAPE, seed=21)
        traces = np.full((1, SHAPE.n_layers, SHAPE.n_experts), 1.0 / SHAPE.n_experts)
        traces[0, -1, 1] = float("nan")
        with pytest.raises(ValueError, match="non-finite routing score"):
            step(model, [init_state(model)], [1], PrecisionMode.INT8_FULL, score_traces=traces)


class TestQuantizeMatrix:
    @pytest.mark.filterwarnings(LIBCST_IMPORT_WARNING)
    @pytest.mark.filterwarnings("error")
    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_matches_group_quantizer_bitwise(self, data):
        # quantize_matrix per (row, group) and quantize_rows of one
        # 32-vector both equal quantize_group bit for bit, in every regime
        # of the fp16 scale rule.
        rows = data.draw(st.integers(1, 4), label="rows")
        groups = data.draw(st.integers(1, 4), label="groups")
        kinds = data.draw(
            st.lists(
                st.sampled_from(GROUP_KINDS),
                min_size=rows * groups,
                max_size=rows * groups,
            ),
            label="kinds",
        )
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        w = np.concatenate([draw_group(rng, k) for k in kinds])
        w = w.reshape(rows, groups * GROUP_SIZE)
        w_codes, w_scales = quantize_matrix(w)
        assert w_codes.dtype == np.int8
        assert w_codes.shape == (groups, GROUP_SIZE, rows)
        assert w_scales.shape == (groups, 1, rows)
        for row in range(rows):
            for g in range(groups):
                vals = w[row, g * GROUP_SIZE : (g + 1) * GROUP_SIZE]
                ref = quantize_group(vals)
                assert ref.scale == w_scales[g, 0, row]
                assert np.array_equal(ref.codes, w_codes[g, :, row])
                codes, scale = quantize_vector(vals)
                assert type(scale) is float and scale == ref.scale
                assert np.array_equal(codes, ref.codes)

    def test_codes_and_scales_read_only(self):
        for array in quantize_matrix(np.ones((2, GROUP_SIZE))):
            assert not array.flags.writeable

    def test_full_surrogate_is_the_stored_codes(self, monkeypatch):
        # codes(FULL) casts the stored codes and rebuilds nothing from slices.
        def unexpected(*args):
            raise AssertionError("FULL codes rebuilt from slices")

        monkeypatch.setattr(toymoe, "surrogate_codes", unexpected)
        rng = np.random.default_rng(9)
        e = quantized_expert(*rng.normal(size=(3, 2 * GROUP_SIZE, GROUP_SIZE)))
        up_gate, down = e.codes(ReconstructMode.FULL)
        assert up_gate.dtype == down.dtype == np.float32
        assert np.array_equal(up_gate, e.up_gate)
        assert np.array_equal(down, e.down)

    def test_dequant_is_exact_product(self):
        rng = np.random.default_rng(10)
        w = rng.normal(size=(4, GROUP_SIZE))
        codes, scales = quantize_matrix(w)
        deq = dequant(codes, scales)
        for row in range(4):
            for j in range(GROUP_SIZE):
                assert deq[row, j] == codes[0, j, row] * scales[0, 0, row]

    def test_zero_rows(self):
        w = np.zeros((3, GROUP_SIZE))
        codes, scales = quantize_matrix(w)
        assert np.all(codes == 0)
        assert np.all(scales == 1.0)

    def test_surrogate_lsb_augment(self):
        rng = np.random.default_rng(11)
        e = quantized_expert(*rng.normal(size=(3, 2 * GROUP_SIZE, 2 * GROUP_SIZE)))
        up_gate, down = e.codes(ReconstructMode.LSB_AUGMENT)
        assert np.array_equal(up_gate, 16 * (e.up_gate >> 4) + 8)
        assert np.array_equal(down, 16 * (e.down >> 4) + 8)

    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            quantize_matrix(np.zeros((4, 33)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_weights(self, bad):
        w = np.ones((2, 2 * GROUP_SIZE))
        w[1, GROUP_SIZE + 3] = bad
        with pytest.raises(ValueError, match="non-finite") as err:
            quantize_matrix(w)
        assert "activation" not in str(err.value)

    @pytest.mark.filterwarnings(LIBCST_IMPORT_WARNING)
    @pytest.mark.filterwarnings("error")
    def test_rejects_fp16_scale_overflow(self):
        # Every quantizer raises the ValueError, and numpy warns of nothing.
        # amax / 127 = 65520 is the tie that rounds to fp16 inf.
        for amax in (1e7, 65520.0 * 127.0):
            w = np.full((1, GROUP_SIZE), amax)
            with pytest.raises(ValueError, match="overflows fp16"):
                quantize_group(w[0])
            with pytest.raises(ValueError, match="overflows fp16"):
                quantize_matrix(w)
            with pytest.raises(ValueError, match="overflows fp16"):
                quantize_vector(w[0])
        # The largest fp16 scale still quantizes, as it does per group.
        edge = np.full((1, GROUP_SIZE), FP16_MAX_AMAX)
        assert quantize_matrix(edge)[1][0, 0, 0] == quantize_group(edge[0]).scale
        assert quantize_vector(edge[0])[1] == 65504.0


# quantize_rows casts straight to fp16 when every row magnitude lies in
# [FP16_NORMAL_AMAX, FP16_MAX_AMAX); these magnitudes sit at, one ulp inside
# and one ulp outside both bounds, and in each regime outside them.
FP16_NORMAL_AMAX = 127.0 * 2.0**-14
EDGE_AMAXES = [
    FP16_MAX_AMAX,
    np.nextafter(FP16_MAX_AMAX, 0.0),
    np.nextafter(FP16_MAX_AMAX, np.inf),
    FP16_NORMAL_AMAX,
    np.nextafter(FP16_NORMAL_AMAX, 0.0),
    np.nextafter(FP16_NORMAL_AMAX, np.inf),
    0.0,
    1e-9,  # amax / 127 rounds to 0 in fp16: the subnormal floor
    1e-4,  # a subnormal fp16 scale
    np.nextafter(65520.0 * 127.0, 0.0),  # the largest that does not overflow
    1.0,
]
OVERFLOW_AMAXES = [65520.0 * 127.0, 1e7, 1e300]


def row_with_amax(rng, amax):
    # 32 values whose largest magnitude is exactly amax.
    v = rng.uniform(-1.0, 1.0, GROUP_SIZE) * amax
    v[rng.integers(GROUP_SIZE)] = rng.choice([-1.0, 1.0]) * amax
    return v


class TestQuantizeRows:
    @pytest.mark.filterwarnings(LIBCST_IMPORT_WARNING)
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("amax", EDGE_AMAXES)
    def test_edge_rows_equal_group_quantizer(self, amax):
        v = row_with_amax(np.random.default_rng(3), amax)
        ref = quantize_group(v)
        codes, scale = quantize_vector(v)
        assert scale == ref.scale
        assert np.array_equal(codes, ref.codes)

    @pytest.mark.filterwarnings(LIBCST_IMPORT_WARNING)
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("amax", OVERFLOW_AMAXES)
    def test_overflow_rows_raise_the_group_message(self, amax):
        v = row_with_amax(np.random.default_rng(4), amax)
        with pytest.raises(ValueError, match="overflows fp16") as want:
            quantize_group(v)
        with pytest.raises(ValueError) as got:
            quantize_vector(v)
        assert str(got.value) == str(want.value)

    @pytest.mark.filterwarnings(LIBCST_IMPORT_WARNING)
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rows_raise(self, bad):
        v = row_with_amax(np.random.default_rng(5), 1.0)
        v[7] = bad
        for batch in (v[None], np.stack([np.ones(GROUP_SIZE), v, np.zeros(GROUP_SIZE)])):
            with pytest.raises(ValueError, match="^non-finite value to quantize$"):
                toymoe.quantize_rows(batch)

    @pytest.mark.filterwarnings(LIBCST_IMPORT_WARNING)
    @pytest.mark.filterwarnings("error")
    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_mixed_batches_equal_group_quantizer(self, data):
        # A batch mixing in-range and out-of-range rows quantizes every row
        # as quantize_group does; one bad row fails the whole batch with
        # the message it raises alone (the largest overflow's, or the
        # non-finite one before any overflow).
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        amaxes = data.draw(
            st.lists(st.sampled_from(EDGE_AMAXES), min_size=1, max_size=9), label="amaxes"
        )
        bad = data.draw(
            st.lists(st.sampled_from(OVERFLOW_AMAXES + [np.nan, np.inf]), max_size=2),
            label="bad rows",
        )
        rows = [row_with_amax(rng, a) for a in amaxes]
        for b in bad:
            row = row_with_amax(rng, 1.0 if np.isnan(b) or np.isinf(b) else b)
            if np.isnan(b) or np.isinf(b):
                row[3] = b
            rows.insert(data.draw(st.integers(0, len(rows)), label="at"), row)
        batch = np.stack(rows)
        if bad:
            non_finite = any(np.isnan(b) or np.isinf(b) for b in bad)
            want = "non-finite value to quantize"
            if not non_finite:
                with pytest.raises(ValueError) as err:
                    quantize_group(rows[int(np.argmax(np.abs(batch).max(axis=1)))])
                want = str(err.value)
            with pytest.raises(ValueError) as got:
                toymoe.quantize_rows(batch)
            assert str(got.value) == want
            return
        codes, scales = toymoe.quantize_rows(batch)
        for row, c, s in zip(rows, codes, scales):
            ref = quantize_group(row)
            assert s == ref.scale
            assert np.array_equal(c.astype(np.int64), ref.codes)


def model_arrays(model) -> list[tuple[str, np.ndarray]]:
    """(path, array) for every array reachable from a model: its fields,
    its experts' fields and each expert's code set in every mode."""
    def walk(path, value):
        if isinstance(value, np.ndarray):
            yield path, value
        elif isinstance(value, tuple):
            for i, item in enumerate(value):
                yield from walk(f"{path}[{i}]", item)
        elif dataclasses.is_dataclass(value):
            for f in dataclasses.fields(value):
                yield from walk(f"{path}.{f.name}", getattr(value, f.name))
            if isinstance(value, ExpertWeights):
                for mode in ReconstructMode:
                    yield from walk(f"{path}.codes({mode.name})", value.codes(mode))

    return list(walk("model", model))


class TestGenModel:
    def test_determinism(self):
        # Same seed, same model, also when rebuilt after the store evicted it.
        m1 = gen_model(SHAPE, seed=42)
        for seed in range(toymoe.MODEL_CACHE_SIZE):
            gen_model(MoEShape(32, 32, 1, 1, 1, 8), seed=seed)
        assert toymoe._build_model.cache_info().currsize <= toymoe.MODEL_CACHE_SIZE
        m2 = gen_model(SHAPE, seed=42)
        assert m2 is not m1
        arrays1, arrays2 = model_arrays(m1), model_arrays(m2)
        assert [path for path, _ in arrays1] == [path for path, _ in arrays2]
        assert len(arrays1) == 4 + SHAPE.n_layers * SHAPE.n_experts * (4 + 2 * len(ReconstructMode))
        for (path, a1), (_, a2) in zip(arrays1, arrays2):
            assert a1.dtype == a2.dtype and np.array_equal(a1, a2), path

    def test_repeated_key_shares_one_read_only_model(self):
        model = gen_model(SHAPE, seed=42)
        assert gen_model(SHAPE, seed=np.int64(42)) is model
        for path, a in model_arrays(model):
            # Rewrites the same values, so a writeable array stays intact.
            with pytest.raises(ValueError, match="read-only"):
                a[...] = a
                pytest.fail(f"{path} is writeable")

    @pytest.mark.parametrize("seed", [None, 1.5, True])
    def test_seed_must_be_an_integer(self, seed):
        with pytest.raises(ValueError, match="model seed"):
            gen_model(SHAPE, seed)

    @pytest.mark.parametrize(
        "shape",
        [SHAPE, MoEShape(d_model=32, d_ff=96, n_experts=3, top_k=1, n_layers=3, vocab=8)],
    )
    def test_cost_model_prices_the_stored_bytes(self, shape):
        # hwmodel's per-expert byte tallies are the INT8 codes toymoe stores.
        full = hwmodel.expert_bytes_full(shape)
        assert hwmodel.expert_bytes_msb(shape) == full / 2
        for layer in gen_model(shape, seed=5).experts:
            for e in layer:
                assert e.up_gate.nbytes + e.down.nbytes == full

    def test_seeds_differ(self):
        m1 = gen_model(SHAPE, seed=1)
        m2 = gen_model(SHAPE, seed=2)
        assert not np.array_equal(m1.embed, m2.embed)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            MoEShape(d_model=60, d_ff=128, n_experts=8, top_k=2, n_layers=1, vocab=16)
        with pytest.raises(ValueError):
            MoEShape(d_model=64, d_ff=128, n_experts=4, top_k=5, n_layers=1, vocab=16)


class TestExpertForward:
    def setup_method(self):
        self.model = gen_model(SHAPE, seed=3)
        self.e = self.model.experts[0][0]

    def test_zero_input_gives_zero_output(self):
        x = np.zeros(SHAPE.d_model)
        for rec in ReconstructMode:
            assert np.all(expert_on_row(x, self.e, rec) == 0.0)

    def test_int8_matches_dequantized_mirror_bitwise(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            x = rng.normal(size=SHAPE.d_model)
            got = expert_on_row(x, self.e)
            ref = mirror_expert_int8(x, self.e)
            assert np.array_equal(got, ref)

    def test_draft_equals_int8_on_surrogate_codes(self):
        rng = np.random.default_rng(14)
        lsb = ReconstructMode.LSB_AUGMENT
        sur = ExpertWeights(
            surrogate_codes(self.e.up_gate, lsb),
            self.e.up_gate_scales,
            surrogate_codes(self.e.down, lsb),
            self.e.down_scales,
        )
        for _ in range(5):
            x = rng.normal(size=SHAPE.d_model)
            draft = expert_on_row(x, self.e, ReconstructMode.LSB_AUGMENT)
            full_on_sur = expert_on_row(x, sur)
            assert np.array_equal(draft, full_on_sur)

    def test_on_grid_weights_dequantize_exactly(self):
        # Codes times a power-of-two scale with a full-range entry per group:
        # quantization recovers the matrix bit for bit.
        rng = np.random.default_rng(15)
        k = rng.integers(-127, 128, size=(8, 2 * GROUP_SIZE)).astype(np.float64)
        k[:, 0] = 127
        k[:, GROUP_SIZE] = -127
        w = k * 0.5
        codes, scales = quantize_matrix(w)
        assert np.all(scales == 0.5)
        assert np.array_equal(dequant(codes, scales), w)

    def test_real_vs_int8_difference_is_small(self):
        # Real weights drawn at gen_model's scales; the reference is real
        # arithmetic on them, the kernel runs on their quantized codes.
        rng = np.random.default_rng(16)
        d, f = SHAPE.d_model, SHAPE.d_ff
        up = rng.normal(0.0, 1.0 / np.sqrt(d), size=(f, d))
        gate = rng.normal(0.0, 1.0 / np.sqrt(d), size=(f, d))
        down = rng.normal(0.0, 1.0 / np.sqrt(f), size=(d, f))
        e = quantized_expert(up, gate, down)
        diffs = []
        for _ in range(10):
            x = rng.normal(size=d)
            a = blocked_real_matvec(
                down, silu(blocked_real_matvec(gate, x)) * blocked_real_matvec(up, x)
            )
            b = expert_on_row(x, e)
            denom = np.linalg.norm(a)
            diffs.append(np.linalg.norm(a - b) / denom)
        assert max(diffs) < 0.05


def step_with_scores(*args, **kwargs):
    """step(*args, **kwargs), and the (T, n_experts) scores each layer
    routed on, recorded from the router's unrestricted _select calls."""
    scores = []
    select = toymoe._select

    def recording(layer_scores, k, permitted=None):
        if permitted is None:
            scores.append(layer_scores.copy())
        return select(layer_scores, k, permitted)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(toymoe, "_select", recording)
        return step(*args, **kwargs), scores


class TestStep:
    def setup_method(self):
        self.model = gen_model(SHAPE, seed=21)

    def test_full_permitted_equals_absent(self):
        st = init_state(self.model)
        a = step(self.model, [st], [5], PrecisionMode.INT8_FULL)
        b = step(
            self.model, [st], [5], PrecisionMode.INT8_FULL,
            permitted=pools_mask(SHAPE, [[set(range(8))] * SHAPE.n_layers]),
        )
        assert np.array_equal(a.logits, b.logits)
        assert np.array_equal(a.selected[0, 0], b.selected[0, 0])

    def test_deterministic(self):
        st = init_state(self.model)
        a = step(self.model, [st], [9], PrecisionMode.MSB4_DRAFT)
        b = step(self.model, [st], [9], PrecisionMode.MSB4_DRAFT)
        assert np.array_equal(a.logits, b.logits)
        assert np.array_equal(a.states[0].ctx, b.states[0].ctx)

    def test_greedy_next_token_deterministic(self):
        _, logits, _ = prefill(self.model, [3, 1, 4], PrecisionMode.INT8_FULL)
        _, logits2, _ = prefill(self.model, [3, 1, 4], PrecisionMode.INT8_FULL)
        assert greedy_token(logits) == greedy_token(logits2)
        assert np.array_equal(logits, logits2)

    def test_throttled_decisions_stay_in_pool(self):
        st = init_state(self.model)
        pool = {0, 2, 4, 6}
        out = step(
            self.model, [st], [7], PrecisionMode.MSB4_DRAFT,
            permitted=pools_mask(SHAPE, [[pool] * SHAPE.n_layers]),
        )
        assert set(out.selected.ravel().tolist()) <= pool

    def test_permitted_needs_one_set_per_layer(self):
        # permitted is one (n_layers, n_experts) row of experts per token.
        st = init_state(self.model)
        pool = pools_mask(SHAPE, [[{0, 2}, {1, 3}]])
        for bad in (
            pool[:, :1],  # one layer of two
            pool[0],  # no token axis
            np.repeat(pool, 2, axis=0),  # two tokens' pools for one token
            pool[:, :, :4],  # four experts of eight
            [[{0, 2}, {1, 3}]],  # id sets, not a mask
        ):
            with pytest.raises(ValueError, match="permitted must be a bool"):
                step(self.model, [st], [3], PrecisionMode.MSB4_DRAFT, bad)
        # One pool per token, not one pool shared by every token.
        with pytest.raises(ValueError, match="permitted must be a bool"):
            step(self.model, [st, st], [3, 4], PrecisionMode.MSB4_DRAFT, pool)

    def test_permitted_must_be_bool(self):
        # A 0/1 integer or float mask of the right shape is rejected, not
        # read as expert ids or truth values.
        st = init_state(self.model)
        pool = pools_mask(SHAPE, [[{0, 2}, {1, 3}]])
        for dtype in (np.int8, np.intp, np.float64):
            with pytest.raises(ValueError, match="permitted must be a bool"):
                step(self.model, [st], [3], PrecisionMode.MSB4_DRAFT, pool.astype(dtype))
        out = step(self.model, [st], [3], PrecisionMode.MSB4_DRAFT, pool)
        assert set(out.selected[0, 0].tolist()) <= {0, 2}

    def test_original_decisions_unrestricted(self):
        st = init_state(self.model)
        out_free = step(self.model, [st], [7], PrecisionMode.MSB4_DRAFT)
        out_pool, scores = step_with_scores(
            self.model, [st], [7], PrecisionMode.MSB4_DRAFT,
            permitted=pools_mask(SHAPE, [[{0, 2, 4, 6}] * SHAPE.n_layers]),
        )
        # Layer 0 sees identical input in both runs, so its unrestricted
        # selection matches the free run exactly.
        assert np.array_equal(out_pool.unrestricted[0, 0], out_free.selected[0, 0])
        # Every layer's unrestricted selection is the top-k of the scores
        # that run actually computed (later layers diverge because earlier
        # FFN outputs differ under the pool).
        assert len(scores) == SHAPE.n_layers
        for layer, layer_scores in enumerate(scores):
            assert tuple(out_pool.unrestricted[0, layer]) == route(layer_scores[0], SHAPE.top_k)[0]

    def test_pool_holding_selection_routes_once(self, monkeypatch):
        calls = []
        select = toymoe._select

        def counting_select(*args, **kwargs):
            calls.append(args)
            return select(*args, **kwargs)

        monkeypatch.setattr(toymoe, "_select", counting_select)
        st = init_state(self.model)
        full = step(
            self.model, [st], [7], PrecisionMode.MSB4_DRAFT,
            permitted=pools_mask(SHAPE, [[set(range(8))] * SHAPE.n_layers]),
        )
        assert len(calls) == SHAPE.n_layers
        assert np.array_equal(full.selected, full.unrestricted)
        free = step(self.model, [st], [7], PrecisionMode.MSB4_DRAFT)
        assert np.array_equal(full.logits, free.logits)
        # A pool missing part of the selection still gets its own top-k.
        monkeypatch.undo()
        pool = {0, 2, 4, 6}
        out, scores = step_with_scores(
            self.model, [st], [7], PrecisionMode.MSB4_DRAFT,
            permitted=pools_mask(SHAPE, [[pool] * SHAPE.n_layers]),
        )
        for layer, layer_scores in enumerate(scores):
            sel, orig = out.selected[0, layer], out.unrestricted[0, layer]
            assert tuple(sel) == route(layer_scores[0], SHAPE.top_k, pool)[0]
            assert np.array_equal(sel, orig) == (set(orig.tolist()) <= pool)

    def test_score_override_controls_routing(self):
        # A traced token routes on the trace row at its position modulo the
        # trace length: row 1 for positions 1 and 3 of a two-row trace.
        traces = np.zeros((2, SHAPE.n_layers, SHAPE.n_experts))
        traces[0, :, [0, 1]] = 0.5
        traces[1, :, 3] = 0.7
        traces[1, :, 5] = 0.3
        st = init_state(self.model)
        outs, scores = step_with_scores(
            self.model, [st, 0, 1, 2], [2, 4, 6, 8], PrecisionMode.INT8_FULL,
            score_traces=traces,
        )
        assert [state.pos for state in outs.states] == [1, 2, 3, 4]
        for t, row in enumerate([0, 1, 0, 1]):
            for layer in range(SHAPE.n_layers):
                assert tuple(outs.selected[t, layer]) == ((0, 1), (3, 5))[row]
                assert np.array_equal(scores[layer][t], traces[row, layer])
        out = step(
            self.model, [outs.states[2]], [1], PrecisionMode.INT8_FULL,
            score_traces=traces,
        )
        assert out.selected.tolist() == [[[3, 5]] * SHAPE.n_layers]

    def test_token_range(self):
        st = init_state(self.model)
        with pytest.raises(ValueError):
            step(self.model, [st], [SHAPE.vocab], PrecisionMode.INT8_FULL)

    def test_batched_sources_must_be_earlier_tokens(self):
        st = init_state(self.model)
        for sources in ([st, 1], [st, -1], [0, st]):
            with pytest.raises(ValueError, match="not an earlier token"):
                step(self.model, sources, [1, 2], PrecisionMode.INT8_FULL)
        with pytest.raises(ValueError, match="one source"):
            step(self.model, [st], [1, 2], PrecisionMode.INT8_FULL)
        none = step(self.model, [], [], PrecisionMode.INT8_FULL)
        assert none.states == ()
        assert none.logits.shape == (0, SHAPE.vocab)
        for ids in (none.selected, none.unrestricted):
            assert ids.shape == (0, SHAPE.n_layers, SHAPE.top_k)

    def test_score_override_needs_one_score_per_expert(self):
        # A trace needs one row of n_experts scores per layer; an empty
        # trace is no trace.
        st = init_state(self.model)
        n, e = SHAPE.n_layers, SHAPE.n_experts
        for shape in ((3, n, e - 1), (3, n + 1, e), (3, e), (3, n, e, 1)):
            with pytest.raises(ValueError, match="score traces must have shape"):
                step(self.model, [st], [2], PrecisionMode.INT8_FULL,
                     score_traces=np.full(shape, 0.5))
        free = step(self.model, [st], [2], PrecisionMode.INT8_FULL)
        for empty in ([], np.empty((0, n, e))):
            out = step(self.model, [st], [2], PrecisionMode.INT8_FULL, score_traces=empty)
            assert np.array_equal(out.logits, free.logits)

    def test_prefill_is_one_chained_call(self, monkeypatch):
        calls = []
        batched = toymoe.step

        def counting(model, state, token, mode, *args, **kwargs):
            calls.append(token)
            return batched(model, state, token, mode, *args, **kwargs)

        monkeypatch.setattr(toymoe, "step", counting)
        state, logits, selected = prefill(self.model, [3, 1, 4, 1, 5], PrecisionMode.INT8_FULL)
        assert calls == [[3, 1, 4, 1, 5]]
        monkeypatch.undo()
        assert selected.shape == (5, SHAPE.n_layers, SHAPE.top_k)
        out_state = init_state(self.model)
        for pos, tok in enumerate([3, 1, 4, 1, 5]):
            out = step(self.model, [out_state], [tok], PrecisionMode.INT8_FULL)
            out_state = out.states[0]
            assert np.array_equal(selected[pos], out.selected[0])
        assert np.array_equal(out.logits[0], logits)
        assert np.array_equal(out_state.ctx, state.ctx)

    def test_greedy_decode_reproducible(self):
        toks1, _ = greedy_decode(self.model, [1, 2], 12, PrecisionMode.INT8_FULL)
        toks2, _ = greedy_decode(self.model, [1, 2], 12, PrecisionMode.INT8_FULL)
        assert toks1 == toks2
        assert len(toks1) == 12


def _routing_trace_reference(n_tokens, n_experts, zipf_exponent, correlation, seed):
    """The per-token loop gen_routing_trace must reproduce: the same draws
    and the same blend, one token at a time."""
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
        out.append(s)
    return out


def trace_ids(trace, k):
    """The (tokens, k) expert ids a router whose scores are the trace's
    rows selects."""
    return toymoe._select(trace, k)[0]


def expert_frequencies(trace, k):
    counts = np.bincount(trace_ids(trace, k).ravel(), minlength=trace.shape[1])
    return counts / counts.sum()


# sha256 of gen_routing_trace's scores per (n_tokens, n_experts, k, zipf,
# correlation, seed), recorded from the row-at-a-time blend.
TRACE_DIGESTS = {
    (0, 16, 2, 1.0, 0.5, 0): "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    (1, 16, 2, 1.0, 0.5, 1): "a6df8393aa3d921197de3fffb12e4a75c9ca75fc594f753331d5d5a03814575d",
    (50, 16, 2, 1.2, 0.0, 2): "215cbb8b2c5b1b637884569183067d7abea34dceb6ec040ad13674d0bd94204b",
    (160, 16, 2, 1.0, 0.5, 3): "68dfbf1b7b63abb33e16d35d5732b09847be692dcb3d0e2e814a2dbd8d82dc20",
    (160, 16, 2, 0.8, 1.0, 4): "b4941a3a6eebc73b25db7691dd336e5871b7f2fa42326d63dd27c3299335c4b2",
    (4096, 8, 2, 1.5, 0.3, 5): "9ee884d4df707a4da380d4b39da783e14ba8581e537a1f39c5a4a1348acce544",
}


class TestRoutingTrace:
    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_batched_top_k_equals_per_token_route(self, data):
        # The blend over all tokens gives the per-token loop's scores bit
        # for bit, and their top-k in one call is each row's top-k alone.
        n_experts = data.draw(st.integers(1, 64), label="n_experts")
        k = data.draw(st.integers(1, n_experts), label="k")
        n_tokens = data.draw(st.integers(0, 120), label="n_tokens")
        zipf = data.draw(st.sampled_from([0.0, 0.5, 1.0]) | st.floats(0.0, 4.0), label="zipf")
        corr = data.draw(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0), label="corr")
        seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
        got = gen_routing_trace(n_tokens, n_experts, k, zipf, corr, seed)
        want = _routing_trace_reference(n_tokens, n_experts, zipf, corr, seed)
        assert got.shape == (n_tokens, n_experts)
        assert got.dtype == np.float64
        for g, w in zip(got, want):
            assert g.tobytes() == w.tobytes()
        ids = trace_ids(got, k)
        assert ids.shape == (n_tokens, k)
        for row, w in zip(ids, want):
            assert tuple(row) == route(w, k)[0]
        # The trace owns its scores.
        assert got.flags.owndata

    def test_full_correlation_freezes_selection(self):
        ids = trace_ids(gen_routing_trace(50, 8, 2, 1.0, 1.0, seed=33), 2)
        assert (ids == ids[0]).all()

    @pytest.mark.parametrize("args", list(TRACE_DIGESTS), ids=lambda a: "-".join(map(str, a)))
    def test_trace_bytes_are_pinned(self, args):
        # The blend loop's bits, checked directly and not only through the
        # golden CSV.
        trace = gen_routing_trace(*args)
        assert hashlib.sha256(trace.tobytes()).hexdigest() == TRACE_DIGESTS[args]

    def test_deterministic_per_seed(self):
        a = gen_routing_trace(100, 8, 2, 0.8, 0.5, seed=44)
        b = gen_routing_trace(100, 8, 2, 0.8, 0.5, seed=44)
        assert np.array_equal(trace_ids(a, 2), trace_ids(b, 2))

    def test_uniform_when_flat_and_uncorrelated(self):
        freq = expert_frequencies(gen_routing_trace(100_000, 8, 2, 0.0, 0.0, seed=55), 2)
        assert np.all(np.abs(freq - 1 / 8) < 0.01)

    def test_zipf_concentrates_on_low_ids(self):
        freq = expert_frequencies(gen_routing_trace(20_000, 8, 2, 1.0, 0.0, seed=66), 2)
        assert freq[0] > 1 / 8

    def test_marginals_monotone_in_rank(self):
        freq = expert_frequencies(gen_routing_trace(20_000, 8, 2, 1.2, 0.0, seed=77), 2)
        assert np.all(np.diff(freq) <= 0.01)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            gen_routing_trace(10, 8, 2, -0.1, 0.0, seed=1)
        with pytest.raises(ValueError):
            gen_routing_trace(10, 8, 2, 1.0, 1.5, seed=1)
        with pytest.raises(ValueError):
            gen_routing_trace(10, 8, 9, 1.0, 0.5, seed=1)

    def test_trace_scores_layout(self):
        layer_traces = [
            gen_routing_trace(30, 8, 2, 1.0, 0.5, seed=100 + layer)
            for layer in range(2)
        ]
        per_pos = trace_scores(layer_traces)
        assert per_pos.shape == (30, 2, 8)
        assert np.array_equal(per_pos[4][1], layer_traces[1][4])
        assert not per_pos.flags.writeable
        # As long as the shortest layer's trace.
        short = trace_scores([layer_traces[0], layer_traces[1][:12]])
        assert np.array_equal(short, per_pos[:12])

    def test_trace_scores_keeps_three_axes_for_empty_traces(self):
        for lengths in ((0, 0), (0, 5), (5, 0)):
            traces = [gen_routing_trace(n, 8, 2, 1.0, 0.5, seed=n) for n in lengths]
            assert trace_scores(traces).shape == (0, 2, 8)

    def test_trace_scores_rejects_no_layers(self):
        with pytest.raises(ValueError, match="got none"):
            trace_scores([])


class TestOverrideIntegration:
    def test_injected_trace_drives_decisions(self):
        model = gen_model(SHAPE, seed=8)
        layer_traces = [
            gen_routing_trace(40, SHAPE.n_experts, SHAPE.top_k, 1.0, 0.9, seed=9 + i)
            for i in range(SHAPE.n_layers)
        ]
        per_pos = trace_scores(layer_traces)
        _, _, selected = prefill(
            model, [1, 2, 3], PrecisionMode.INT8_FULL, score_traces=per_pos
        )
        for pos in range(3):
            for layer in range(SHAPE.n_layers):
                want = trace_ids(layer_traces[layer][pos : pos + 1], SHAPE.top_k)[0]
                assert np.array_equal(selected[pos, layer], want)


def test_group_sum_rounds_as_numpy_sum():
    # The group sum of group-major partials (groups, ...) gives np.sum's
    # bits over a contiguous group axis, below and above numpy's 8-element
    # pairwise threshold, for a contiguous copy and a strided view alike;
    # -0.0 partials sum to 0.0, as np.sum's do.
    rng = np.random.default_rng(17)
    for groups in range(1, 18):
        for shape in [(1, groups), (3, 7, groups), (2, 1, groups), (40, groups)]:
            parts = rng.normal(size=shape) * 10.0 ** rng.uniform(-8, 8, size=shape)
            want = np.sum(parts, axis=-1).tobytes()
            view = np.moveaxis(parts, -1, 0)
            for grouped in (np.ascontiguousarray(view), view):
                assert toymoe._group_sum(grouped).tobytes() == want, (groups, shape)
        zeros = np.full((groups, 3), -0.0)
        assert toymoe._group_sum(zeros).tobytes() == np.sum(zeros.T, axis=-1).tobytes()


def quant_product_reference(codes, scales, v):
    # The quantized product of one row v under (groups, 32, out) float32
    # codes and (groups, 1, out) scales: int64 group dots of v's
    # quantize_rows codes, times the weight scales, times the row scale,
    # then np.sum over a contiguous group axis.
    a, sa = quantize_vector(v)
    ints = np.einsum(
        "gjo,gj->og", codes.astype(np.int64), a.reshape(-1, GROUP_SIZE), optimize=False
    )
    return np.sum(ints * scales[:, 0, :].T * sa, axis=1)


def expert_row_reference(x, e, rec):
    # One (token, slot) pair through expert e on its own: up and gate,
    # SiLU gating, requantization and down, per row.
    up_gate, down = e.codes(rec)
    ug = quant_product_reference(up_gate, e.up_gate_scales, x)
    f = len(ug) // 2
    return quant_product_reference(down, e.down_scales, silu(ug[f:]) * ug[:f])


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_kernels_equal_per_row_reference(data):
    # _experts and _blocked_matmul over many rows equal a per-row
    # reference of the blocked arithmetic bit for bit, for 1-9 input
    # groups, so on both sides of numpy's 8-element pairwise threshold.
    rng = np.random.default_rng(data.draw(st.integers(0, 2**16), label="seed"))
    groups_st = st.integers(1, 7) | st.integers(8, 9)
    d = GROUP_SIZE * data.draw(groups_st, label="d_model groups")
    f = GROUP_SIZE * data.draw(groups_st, label="d_ff groups")
    n_experts = data.draw(st.integers(1, 24), label="n_experts")
    n = data.draw(st.integers(1, 65), label="T")
    k = data.draw(st.integers(1, 3), label="k")
    rec = data.draw(st.sampled_from(list(ReconstructMode)), label="reconstruct")
    experts = [
        quantized_expert(
            *rng.normal(0.0, 1.0 / np.sqrt(d), size=(2, f, d)),
            rng.normal(0.0, 1.0 / np.sqrt(f), size=(d, f)),
        )
        for _ in range(n_experts)
    ]
    x = rng.normal(size=(n, d)) * 10.0 ** rng.uniform(-3, 1, size=(n, 1))
    x[data.draw(st.integers(0, n - 1), label="zero row")] = 0.0
    ids = rng.integers(0, n_experts, size=(n, k))
    out = toymoe._experts(x, ids, experts, rec)
    for t in range(n):
        for slot in range(k):
            want = expert_row_reference(x[t], experts[ids[t, slot]], rec)
            assert same_bits(out[t, slot], want), (t, slot)
    w = rng.normal(size=(f, d))
    dense = toymoe._blocked_matmul(w, x)
    for t in range(n):
        assert same_bits(dense[t], blocked_real_matvec(w, x[t])), t


def same_bits(a, b):
    return np.asarray(a).tobytes() == np.asarray(b).tobytes()


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_batched_step_equals_one_at_a_time(data):
    # One step call over a random forest of tokens (each continuing a given
    # state or an earlier token of the call) equals stepping every token
    # alone from its parent's state, bit for bit, in every field, with no
    # trace, an empty one, or one of 1-8 rows read from roots at several
    # positions.
    n_experts = data.draw(st.integers(1, 6), label="n_experts")
    shape = MoEShape(
        d_model=data.draw(st.sampled_from([32, 64, 96]), label="d_model"),
        d_ff=data.draw(st.sampled_from([32, 64, 256]), label="d_ff"),
        n_experts=n_experts,
        top_k=data.draw(st.integers(1, min(n_experts, 3)), label="top_k"),
        n_layers=data.draw(st.integers(1, 3), label="n_layers"),
        vocab=data.draw(st.integers(2, 24), label="vocab"),
    )
    model = gen_model(shape, seed=data.draw(st.integers(0, 2**16), label="seed"))
    mode = data.draw(st.sampled_from(list(PrecisionMode)), label="mode")
    rec = data.draw(st.sampled_from(list(ReconstructMode)), label="reconstruct")
    token_st = st.integers(0, shape.vocab - 1)
    roots = [init_state(model)] + [
        prefill(model, prompt, PrecisionMode.INT8_FULL)[0]
        for prompt in data.draw(
            st.lists(st.lists(token_st, min_size=1, max_size=9), max_size=3),
            label="root prompts",
        )
    ]
    n = data.draw(st.integers(1, 6), label="T")
    sources = []
    for i in range(n):
        if i and data.draw(st.booleans(), label=f"chained{i}"):
            sources.append(data.draw(st.integers(0, i - 1), label=f"parent{i}"))
        else:
            sources.append(roots[data.draw(st.integers(0, len(roots) - 1))])
    tokens = data.draw(st.lists(token_st, min_size=n, max_size=n), label="tokens")
    # Each token's pool is None or one of up to three drawn pools (each
    # None or one set or None per layer), so one call mixes tokens that
    # share a pool, carry different pools or have none.
    pool_st = st.none() | st.sets(
        st.integers(0, n_experts - 1), min_size=shape.top_k, max_size=n_experts
    )
    pools = data.draw(
        st.lists(
            st.none() | st.lists(pool_st, min_size=shape.n_layers, max_size=shape.n_layers),
            min_size=1, max_size=3,
        ),
        label="pools",
    )
    token_pools = data.draw(
        st.none() | st.lists(st.sampled_from(pools), min_size=n, max_size=n),
        label="permitted",
    )
    permitted = None if token_pools is None else pools_mask(shape, token_pools)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**16), label="score seed"))
    n_rows = data.draw(st.none() | st.integers(0, 8), label="trace rows")
    traces = None
    if n_rows is not None:
        traces = rng.dirichlet(np.ones(n_experts), size=(n_rows, shape.n_layers))
    outs = step(model, sources, tokens, mode, permitted, traces, rec)
    assert len(outs.states) == n
    assert_equals_one_at_a_time(outs, model, sources, tokens, mode, permitted, traces, rec)


def assert_equals_one_at_a_time(outs, model, sources, tokens, mode, permitted, traces, rec):
    """The outputs of one batched step call equal stepping every token
    alone from its parent's state, bit for bit, in every field.  A token's
    position is its source state's, or one past its parent token's, and it
    routes on the trace row at that position modulo the trace length, and
    within its own pool."""
    ref, positions = [], []
    for t, (src, tok) in enumerate(zip(sources, tokens)):
        if isinstance(src, int):
            state, pos = ref[src].states[0], positions[src] + 1
        else:
            state, pos = src, src.pos
        row = None if traces is None or not len(traces) else traces[[pos % len(traces)]]
        pool = None if permitted is None else permitted[t : t + 1]
        ref.append(step(model, [state], [tok], mode, pool, row, rec))
        positions.append(pos)
    for t, (want, pos) in enumerate(zip(ref, positions)):
        got = outs.states[t]
        assert got.pos == want.states[0].pos == pos + 1
        assert same_bits(outs.logits[t], want.logits[0])
        assert same_bits(got.ctx, want.states[0].ctx)
        assert same_bits(outs.selected[t], want.selected[0])
        assert same_bits(outs.unrestricted[t], want.unrestricted[0])
        for layer, (sel, orig) in enumerate(zip(outs.selected[t], outs.unrestricted[t])):
            held = permitted is None or permitted[t, layer, orig].all()
            assert np.array_equal(sel, orig) == held


@pytest.mark.parametrize("mode", list(PrecisionMode))
def test_calls_at_size_bounds_equal_one_at_a_time(mode):
    # The largest calls the run config allows: a verify tree of
    # 1 + MAX_SD_WIDTH * MAX_SD_DEPTH tokens (each level's nodes continuing
    # random nodes of the level above) and a MAX_PROMPT_LEN prefill chain,
    # the chain traced by 100 rows, so its positions wrap.  Every row of
    # these wide calls keeps the bits of a one-token call.
    w, d = runner.MAX_SD_WIDTH, runner.MAX_SD_DEPTH
    model = gen_model(MoEShape(96, 256, 8, 2, 2, 64), seed=5)
    rng = np.random.default_rng(6)
    root = prefill(model, [3, 1, 4], PrecisionMode.INT8_FULL)[0]
    tree = [root] + [
        int(rng.integers(max(0, 1 + (level - 1) * w), 1 + level * w) if level else 0)
        for level in range(d)
        for _ in range(w)
    ]
    chain = [init_state(model)] + list(range(runner.MAX_PROMPT_LEN - 1))
    # The tree's tokens carry three pools in turn: two pools and none.
    pools = ([{0, 2, 4, 6}, set(range(8))], [{1, 3}, {5, 6, 7}], None)
    rec = ReconstructMode.LSB_AUGMENT
    traces = rng.dirichlet(np.ones(8), size=(100, 2))
    for sources, permitted, call_traces in (
        (tree, pools_mask(model.shape, [pools[i % 3] for i in range(len(tree))]), None),
        (chain, None, traces),
    ):
        tokens = rng.integers(0, 64, size=len(sources)).tolist()
        outs = step(model, sources, tokens, mode, permitted, call_traces, rec)
        assert len(outs.states) in (1 + w * d, runner.MAX_PROMPT_LEN)
        assert_equals_one_at_a_time(
            outs, model, sources, tokens, mode, permitted, call_traces, rec
        )


# Shapes the pinned step digest runs: the example shape, 9 input groups into
# the experts, top-9 routing over 9-group down projections, a single layer,
# and three layers of 16 experts.
DIGEST_SHAPES = [
    (MoEShape(64, 128, 8, 2, 2, 64), 1),
    (MoEShape(288, 64, 6, 2, 2, 32), 2),
    (MoEShape(64, 288, 12, 9, 2, 40), 3),
    (MoEShape(96, 256, 4, 1, 1, 16), 4),
    (MoEShape(32, 64, 16, 2, 3, 64), 5),
]
# sha256 of every step output below, recorded from the per-token routing
# objects step returned before selections became arrays.
STEP_DIGEST = "59b31a3a91fb86c4d14e9f11e8f57354afa8306f98033618a299f1a34bdef0e2"


def step_digest_update(h, out):
    # A call's logits, every token's next ctx and pos, then its selected
    # and unrestricted expert ids.
    h.update(out.logits.tobytes())
    for state in out.states:
        h.update(state.ctx.tobytes())
        h.update(state.pos.to_bytes(8, "little"))
    h.update(np.asarray(out.selected, dtype=np.int64).tobytes())
    h.update(np.asarray(out.unrestricted, dtype=np.int64).tobytes())


def test_step_digest_is_pinned():
    # step's every output bit over the shapes above, both precisions and
    # all four draft reconstructions, with and without a pool (one that
    # holds every expert in the last of several layers) and a score trace (5 rows, so
    # positions wrap), for one token, a level of independent tokens, a
    # chain and a tree mixing states and earlier tokens.
    h = hashlib.sha256()
    modes = [(PrecisionMode.INT8_FULL, ReconstructMode.FULL)] + [
        (PrecisionMode.MSB4_DRAFT, rec) for rec in ReconstructMode
    ]
    for shape, seed in DIGEST_SHAPES:
        model = gen_model(shape, seed)
        rng = np.random.default_rng(seed)
        a = init_state(model)
        b = prefill(model, [1, 2, 3], PrecisionMode.INT8_FULL)[0]
        calls = [
            [a],
            [b, a],
            [a, 0, 1, 2, 3],
            [b, a, 0, 0, 1, 2, b, 4],
        ]
        n_pool = min(shape.n_experts, shape.top_k + 2)
        pool = [set(rng.choice(shape.n_experts, n_pool, replace=False).tolist())
                for _ in range(shape.n_layers)]
        if shape.n_layers > 1:
            pool[-1] = set(range(shape.n_experts))
        traces = rng.dirichlet(np.ones(shape.n_experts), size=(5, shape.n_layers))
        for mode, rec in modes:
            for permitted in (None, pool):
                for call_traces in (None, traces):
                    for sources in calls:
                        tokens = rng.integers(0, shape.vocab, len(sources)).tolist()
                        pools = None
                        if permitted is not None:
                            pools = pools_mask(shape, [permitted] * len(sources))
                        outs = step(model, sources, tokens, mode, pools, call_traces, rec)
                        step_digest_update(h, outs)
    assert h.hexdigest() == STEP_DIGEST
