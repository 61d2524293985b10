"""Group-wise symmetric INT8 quantization and nested bit-slice arithmetic.

Weights are quantized in groups of 32 codes sharing one half-precision scale.
Each signed 8-bit code splits into a signed 4-bit MSB slice and an unsigned
4-bit LSB slice such that ``16*msb + lsb`` recovers the code exactly.  The
MSB slice doubles as a 4-bit weight: plain truncation leaves a one-sided
clipping error in [0, 15] code units, while adding the half-unit offset
(``16*msb + 8``) turns it into a rounding error in [-8, 7].
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

GROUP_SIZE = 32
CODE_MIN = -127
CODE_MAX = 127

# Smallest positive fp16 subnormal; floor for scales that would otherwise
# round to zero.
_FP16_TINY = float(np.float16(2.0**-24))


class ReconstructMode(enum.Enum):
    """How a code is rebuilt from its slices."""

    TRUNCATE = "truncate"
    MSB_ROUND = "msb_round"
    LSB_AUGMENT = "lsb_augment"
    FULL = "full"


@dataclass(frozen=True)
class QuantGroup:
    """32 signed int8 codes in [-127, 127] plus one shared positive scale.

    The scale is stored at fp16 precision (as a float) and the dequantized
    value of code ``c`` is exactly ``c * scale``.
    """

    codes: np.ndarray
    scale: float

    def __post_init__(self):
        codes = np.array(self.codes, dtype=np.int64, copy=True)
        if codes.shape != (GROUP_SIZE,):
            raise ValueError(f"expected {GROUP_SIZE} codes, got shape {codes.shape}")
        if codes.min() < CODE_MIN or codes.max() > CODE_MAX:
            raise ValueError("codes outside [-127, 127]")
        if not (self.scale > 0.0 and np.isfinite(self.scale)):
            raise ValueError(f"scale must be finite and positive, got {self.scale}")
        codes.flags.writeable = False
        object.__setattr__(self, "codes", codes)


@dataclass(frozen=True)
class BitSlicePair:
    """Signed 4-bit MSB slice and unsigned 4-bit LSB slice of one code."""

    msb: int
    lsb: int

    def __post_init__(self):
        if not -8 <= self.msb <= 7:
            raise ValueError(f"msb {self.msb} outside [-8, 7]")
        if not 0 <= self.lsb <= 15:
            raise ValueError(f"lsb {self.lsb} outside [0, 15]")

    @property
    def code(self) -> int:
        return 16 * self.msb + self.lsb


def fp16_scale(amax: float | np.ndarray) -> float | np.ndarray:
    """Scale fp16(amax / 127) for groups with absolute maximum ``amax``: a
    float for a scalar, a float64 array for an array.

    An all-zero group gets scale 1; underflow clamps to the smallest
    positive fp16 subnormal so the scale stays positive; a scale beyond
    the largest finite fp16 raises ValueError.  The cast runs with numpy
    raising on overflow, so no warning is printed and no pass looks for
    inf afterwards.  The expert kernel's quantize_rows casts in-range
    magnitudes itself and calls this only for a stage with a row outside
    [127 * 2**-14, 65504 * 127).
    """
    try:
        with np.errstate(over="raise"):
            s = np.float64(np.float16(amax / 127.0))
    except FloatingPointError:
        raise ValueError(
            f"group magnitude {np.max(amax)} overflows fp16 scaling"
        ) from None
    s = np.where(amax == 0.0, 1.0, np.maximum(s, _FP16_TINY))
    return float(s) if s.ndim == 0 else s


def quantize_group(values) -> QuantGroup:
    """Quantize 32 finite reals to a symmetric INT8 group.

    scale = fp16(max|v| / 127), codes = clamp(round-half-even(v / scale),
    -127, 127).  Code -128 is never produced.
    """
    vals = np.asarray(values, dtype=np.float64)
    if vals.shape != (GROUP_SIZE,):
        raise ValueError(f"expected {GROUP_SIZE} values, got shape {vals.shape}")
    if not np.all(np.isfinite(vals)):
        raise ValueError("non-finite value in quantization group")
    scale = fp16_scale(float(np.max(np.abs(vals))))
    codes = np.clip(np.rint(vals / scale), CODE_MIN, CODE_MAX).astype(np.int64)
    return QuantGroup(codes=codes, scale=scale)


def dequantize(group: QuantGroup, index: int) -> float:
    """Exact dequantized value ``codes[index] * scale``."""
    if not 0 <= index < GROUP_SIZE:
        raise IndexError(f"index {index} outside [0, {GROUP_SIZE})")
    return float(group.codes[index]) * group.scale


def split_slices(code: int) -> BitSlicePair:
    """Split a code in [-127, 127] into (msb, lsb) with 16*msb + lsb == code.

    msb is the arithmetic right shift by 4, lsb the low 4 bits.  -128 is
    rejected: reserving it keeps msb in [-8, 7] over the full code range.
    """
    code = int(code)
    if not CODE_MIN <= code <= CODE_MAX:
        raise ValueError(f"code {code} outside [-127, 127]")
    return BitSlicePair(msb=code >> 4, lsb=code & 0x0F)


def reconstruct(pair: BitSlicePair, mode: ReconstructMode) -> int:
    """Rebuild a code-scale integer from a slice pair.

    TRUNCATE keeps the MSB slice alone (16*msb, clipping error in [0, 15]),
    LSB_AUGMENT adds the hardwired half-unit (16*msb + 8, rounding error in
    [-8, 7]), FULL is exact, and MSB_ROUND rounds the code onto the 4-bit
    grid, altering the MSB value (comparison baseline only).
    """
    if mode is ReconstructMode.TRUNCATE:
        return 16 * pair.msb
    if mode is ReconstructMode.LSB_AUGMENT:
        return 16 * pair.msb + 8
    if mode is ReconstructMode.FULL:
        return pair.code
    if mode is ReconstructMode.MSB_ROUND:
        # code / 16 is exact, and round() breaks ties to even.
        return 16 * min(max(round(pair.code / 16), -8), 7)
    raise ValueError(f"unknown mode {mode!r}")


def split_slices_array(codes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized split: (msb, lsb) arrays for an int code array."""
    codes = np.asarray(codes)
    if codes.size and (codes.min() < CODE_MIN or codes.max() > CODE_MAX):
        raise ValueError("code outside [-127, 127]")
    return codes >> 4, codes & 0x0F


def surrogate_codes(codes: np.ndarray, mode: ReconstructMode) -> np.ndarray:
    """Vectorized reconstruct() over a code array, returning new int64 codes."""
    msb, _ = split_slices_array(codes)
    msb, codes = msb.astype(np.int64), np.array(codes, dtype=np.int64)
    if mode is ReconstructMode.TRUNCATE:
        return 16 * msb
    if mode is ReconstructMode.LSB_AUGMENT:
        return 16 * msb + 8
    if mode is ReconstructMode.FULL:
        return codes
    if mode is ReconstructMode.MSB_ROUND:
        return 16 * np.clip(np.rint(codes / 16.0).astype(np.int64), -8, 7)
    raise ValueError(f"unknown mode {mode!r}")
