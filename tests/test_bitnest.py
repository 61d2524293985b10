import numpy as np
import pytest

from elasticmoe.bitnest import (
    BitSlicePair,
    GROUP_SIZE,
    QuantGroup,
    ReconstructMode,
    dequantize,
    fp16_scale,
    quantize_group,
    reconstruct,
    split_slices,
    split_slices_array,
    surrogate_codes,
)

ALL_CODES = list(range(-127, 128))


def ref_split(code: int) -> tuple[int, int]:
    # Independent reference: arithmetic shift emulated with floor division.
    msb = code // 16
    lsb = code - 16 * msb
    return msb, lsb


class TestQuantizeGroup:
    def test_zero_group(self):
        g = quantize_group([0.0] * GROUP_SIZE)
        assert g.scale == 1.0
        assert np.all(g.codes == 0)

    def test_example_scale_and_code(self):
        # max|v| = 1.27 and one element 0.50: scale is fp16(1.27/127),
        # the 0.50 element lands on code round(0.50/scale) = 50.
        vals = np.zeros(GROUP_SIZE)
        vals[0] = 1.27
        vals[1] = 0.50
        g = quantize_group(vals)
        expected_scale = float(np.float16(1.27 / 127.0))
        assert g.scale == expected_scale
        assert round(0.50 / expected_scale) == 50  # oracle for the code below
        assert g.codes[1] == 50

    def test_negative_max_hits_minus_127(self):
        vals = np.zeros(GROUP_SIZE)
        vals[3] = -2.0
        g = quantize_group(vals)
        assert g.codes[3] == -127

    def test_code_range_never_produces_minus_128(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            vals = rng.normal(size=GROUP_SIZE) * rng.uniform(1e-3, 1e3)
            g = quantize_group(vals)
            assert g.codes.min() >= -127
            assert g.codes.max() <= 127

    def test_roundtrip_within_half_scale(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            vals = rng.uniform(-5.0, 5.0, size=GROUP_SIZE)
            g = quantize_group(vals)
            amax = np.abs(vals).max()
            for i in range(GROUP_SIZE):
                # Inside the clamp range the error is bounded by scale/2.
                if abs(vals[i]) <= 127 * g.scale and abs(vals[i]) < amax:
                    assert abs(dequantize(g, i) - vals[i]) <= g.scale / 2 + 1e-15

    def test_pure_function(self):
        rng = np.random.default_rng(3)
        vals = rng.normal(size=GROUP_SIZE)
        a = quantize_group(vals)
        b = quantize_group(vals.copy())
        assert a.scale == b.scale
        assert np.array_equal(a.codes, b.codes)

    def test_round_half_even(self):
        # Values exactly halfway between codes must round to the even code.
        vals = np.zeros(GROUP_SIZE)
        vals[0] = 127.0  # forces scale = fp16(1.0) = 1.0 exactly
        vals[1] = 2.5
        vals[2] = 3.5
        vals[3] = -2.5
        g = quantize_group(vals)
        assert g.scale == 1.0
        assert g.codes[1] == 2
        assert g.codes[2] == 4
        assert g.codes[3] == -2

    def test_rejects_nonfinite(self):
        vals = [0.0] * GROUP_SIZE
        vals[5] = float("nan")
        with pytest.raises(ValueError):
            quantize_group(vals)
        vals[5] = float("inf")
        with pytest.raises(ValueError):
            quantize_group(vals)

    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError):
            quantize_group([1.0] * 31)

    def test_tiny_values_keep_positive_scale(self):
        vals = [0.0] * GROUP_SIZE
        vals[0] = 1e-12
        g = quantize_group(vals)
        assert g.scale > 0.0


class TestDequantize:
    def test_zero_code(self):
        g = QuantGroup(codes=np.zeros(GROUP_SIZE, dtype=np.int64), scale=0.25)
        assert dequantize(g, 0) == 0.0

    def test_exact_product(self):
        codes = np.zeros(GROUP_SIZE, dtype=np.int64)
        codes[4] = 50
        codes[5] = -127
        g = QuantGroup(codes=codes, scale=0.01)
        assert dequantize(g, 4) == 50 * 0.01
        assert dequantize(g, 5) == -127 * 0.01

    def test_unit_scale(self):
        codes = np.zeros(GROUP_SIZE, dtype=np.int64)
        codes[0] = -127
        g = QuantGroup(codes=codes, scale=1.0)
        assert dequantize(g, 0) == -127.0

    def test_index_error(self):
        g = QuantGroup(codes=np.zeros(GROUP_SIZE, dtype=np.int64), scale=1.0)
        with pytest.raises(IndexError):
            dequantize(g, 32)
        with pytest.raises(IndexError):
            dequantize(g, -1)


class TestSplitSlices:
    def test_examples(self):
        assert split_slices(0) == BitSlicePair(0, 0)
        assert split_slices(127) == BitSlicePair(7, 15)
        assert split_slices(-1) == BitSlicePair(-1, 15)

    def test_exhaustive_reassembly(self):
        for code in ALL_CODES:
            pair = split_slices(code)
            ref_msb, ref_lsb = ref_split(code)
            assert (pair.msb, pair.lsb) == (ref_msb, ref_lsb)
            assert 16 * pair.msb + pair.lsb == code
            assert -8 <= pair.msb <= 7
            assert 0 <= pair.lsb <= 15

    def test_rejects_minus_128(self):
        with pytest.raises(ValueError):
            split_slices(-128)
        with pytest.raises(ValueError):
            split_slices(128)

    def test_array_split_matches_scalar(self):
        codes = np.array(ALL_CODES, dtype=np.int64)
        msb, lsb = split_slices_array(codes)
        for i, code in enumerate(ALL_CODES):
            pair = split_slices(code)
            assert msb[i] == pair.msb
            assert lsb[i] == pair.lsb

    def test_array_split_signed_dtype(self):
        codes = np.array([-127, -1, 127], dtype=np.int8)
        msb, lsb = split_slices_array(codes)
        assert list(msb) == [-8, -1, 7]
        assert list(lsb) == [1, 15, 15]


class TestReconstruct:
    def test_truncate_example(self):
        pair = split_slices(127)
        assert reconstruct(pair, ReconstructMode.TRUNCATE) == 112
        assert 127 - 112 == 15

    def test_lsb_augment_example(self):
        pair = split_slices(127)
        assert reconstruct(pair, ReconstructMode.LSB_AUGMENT) == 120
        assert 127 - 120 == 7

    def test_full_identity_exhaustive(self):
        for code in ALL_CODES:
            assert reconstruct(split_slices(code), ReconstructMode.FULL) == code

    def test_truncate_error_range_exhaustive(self):
        for code in ALL_CODES:
            err = code - reconstruct(split_slices(code), ReconstructMode.TRUNCATE)
            assert 0 <= err <= 15
            assert err == split_slices(code).lsb

    def test_lsb_augment_error_range_exhaustive(self):
        for code in ALL_CODES:
            err = code - reconstruct(split_slices(code), ReconstructMode.LSB_AUGMENT)
            assert -8 <= err <= 7
            assert err == split_slices(code).lsb - 8

    def test_lsb_augment_error_mean(self):
        # Over any window where lsb is uniform the residual mean is exactly
        # -0.5 (mean of lsb - 8 for lsb = 0..15).
        window = [code for code in range(-64, -48)]
        errs = [
            code - reconstruct(split_slices(code), ReconstructMode.LSB_AUGMENT)
            for code in window
        ]
        assert sorted(errs) == list(range(-8, 8))
        assert sum(errs) / len(errs) == -0.5
        # The full [-127, 127] domain excludes -128, so lsb = 0 appears one
        # time fewer than the others and the exhaustive mean shifts to -8/17.
        all_errs = [
            code - reconstruct(split_slices(code), ReconstructMode.LSB_AUGMENT)
            for code in ALL_CODES
        ]
        assert sum(all_errs) / len(all_errs) == pytest.approx(-8.0 / 17.0)

    def test_msb_round_half_even(self):
        # 16*msb + 8 is the tie point; round-half-even keeps even msb.
        assert reconstruct(split_slices(40), ReconstructMode.MSB_ROUND) == 32
        assert reconstruct(split_slices(24), ReconstructMode.MSB_ROUND) == 32
        assert reconstruct(split_slices(-24), ReconstructMode.MSB_ROUND) == -32
        assert reconstruct(split_slices(127), ReconstructMode.MSB_ROUND) == 112

    def test_msb_round_error_bound(self):
        for code in ALL_CODES:
            rec = reconstruct(split_slices(code), ReconstructMode.MSB_ROUND)
            assert rec % 16 == 0
            assert -8 * 16 <= rec <= 7 * 16
            if code <= 112:
                assert abs(code - rec) <= 8

    def test_surrogate_codes_match_scalar(self):
        codes = np.array(ALL_CODES, dtype=np.int64)
        for mode in ReconstructMode:
            vec = surrogate_codes(codes, mode)
            for i, code in enumerate(ALL_CODES):
                assert vec[i] == reconstruct(split_slices(code), mode)


class TestTypeInvariants:
    def test_quant_group_rejects_out_of_range(self):
        codes = np.zeros(GROUP_SIZE, dtype=np.int64)
        codes[0] = -128
        with pytest.raises(ValueError):
            QuantGroup(codes=codes, scale=1.0)

    def test_quant_group_rejects_bad_scale(self):
        codes = np.zeros(GROUP_SIZE, dtype=np.int64)
        with pytest.raises(ValueError):
            QuantGroup(codes=codes, scale=0.0)
        with pytest.raises(ValueError):
            QuantGroup(codes=codes, scale=-1.0)

    def test_pair_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            BitSlicePair(8, 0)
        with pytest.raises(ValueError):
            BitSlicePair(0, 16)
        with pytest.raises(ValueError):
            BitSlicePair(-9, 0)
        with pytest.raises(ValueError):
            BitSlicePair(0, -1)

    def test_fp16_scale_is_fp16_representable(self):
        for amax in [1.27, 3.0, 0.001, 127.0]:
            s = fp16_scale(amax)
            assert s == float(np.float16(s))

    def test_fp16_scale_array_is_elementwise(self):
        # Zero group, subnormal floor, ordinary and largest finite scales.
        amax = np.array([[0.0, 1e-9], [3.0, 65504.0 * 127.0]])
        got = fp16_scale(amax)
        assert got.dtype == np.float64 and got.shape == amax.shape
        want = [fp16_scale(float(a)) for a in amax.ravel()]
        assert got.ravel().tolist() == want
        assert want[:2] == [1.0, 2.0**-24]
