"""Bit-level codecs for every operation data type in the study.

The bitflip analysis of §4.2 works on *representations*: an SDC record
stores the expected and actual values, and the analysis XORs their bit
patterns to find which positions flipped (Figures 4-7).  This module
provides exact, reversible encode/decode between Python values and
fixed-width bit patterns (held as non-negative Python ints), including
the 80-bit x87 extended-precision format (``float64x``) which has no
native Python/NumPy portable representation.

Precision loss (Figure 4(e)-(h)) is the relative error
``|actual - expected| / |expected|`` computed on decoded values.

Record columns hold the same patterns as uint64 low/high word pairs
(only ``float64x`` has a high word): :func:`encode_words` encodes a
whole burst of values through NumPy where that is bit-exact, and
:func:`split_words` splits Python-int patterns into the pair.
"""

from __future__ import annotations

import math
import struct
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..errors import DataTypeError
from .features import DataType

__all__ = [
    "encode",
    "encode_words",
    "split_words",
    "decode",
    "flip",
    "xor_mask",
    "flipped_positions",
    "popcount",
    "relative_precision_loss",
    "random_value",
    "random_values",
    "FLOAT64X_BIAS",
]

#: Exponent bias of the 80-bit extended format (15-bit exponent).
FLOAT64X_BIAS = 16383

_F32_STRUCT = struct.Struct("<f")
_F64_STRUCT = struct.Struct("<d")


def _check_width(bits: int, dtype: DataType) -> int:
    if bits < 0 or bits >> dtype.width:
        raise DataTypeError(
            f"bit pattern {bits:#x} does not fit in {dtype.width}-bit {dtype}"
        )
    return bits


def encode(value, dtype: DataType) -> int:
    """Encode ``value`` into its ``dtype`` bit pattern (a Python int).

    Integers out of range raise :class:`DataTypeError` rather than
    silently wrapping: a study tool should never fabricate values.
    """
    if dtype is DataType.INT16 or dtype is DataType.INT32:
        width = dtype.width
        lo, hi = -(1 << (width - 1)), (1 << (width - 1)) - 1
        if not isinstance(value, int) or isinstance(value, bool):
            raise DataTypeError(f"{dtype} requires an int, got {value!r}")
        if not lo <= value <= hi:
            raise DataTypeError(f"{value} out of range for {dtype}")
        return value & ((1 << width) - 1)
    if dtype.is_float:
        return _encode_float(float(value), dtype)
    # Unsigned integers and raw binary payloads share a representation.
    width = dtype.width
    if not isinstance(value, int) or isinstance(value, bool):
        raise DataTypeError(f"{dtype} requires an int, got {value!r}")
    if not 0 <= value < (1 << width):
        raise DataTypeError(f"{value} out of range for {dtype}")
    return value


#: A column of patterns as (low 64 bits, high bits or ``None``).
Words = Tuple[np.ndarray, Optional[np.ndarray]]

_MASK64 = (1 << 64) - 1
_U64 = np.uint64


def split_words(patterns: Sequence[int], width: int) -> Words:
    """``width``-bit patterns as uint64 low words, plus high words.

    The high word is ``None`` for widths of at most 64 bits.
    """
    if width <= 64:
        return np.array(patterns, dtype=np.uint64), None
    return (
        np.array([bits & _MASK64 for bits in patterns], dtype=np.uint64),
        np.array([bits >> 64 for bits in patterns], dtype=np.uint64),
    )


def encode_words(values: Sequence, dtype: DataType) -> Words:
    """``[encode(v, dtype) for v in values]`` as :func:`split_words` words.

    Floats convert as whole columns: float64 reinterprets, float32
    narrows with the C cast ``struct`` performs, and float64x builds
    from each double's sign, exponent and fraction.  Integers convert
    after one type and range check per column.  Any value the column
    path cannot prove exact (a float32 overflow, a NaN, a non-``int``
    or out-of-range integer) sends the burst through :func:`encode`,
    which returns or raises exactly what it always does.
    """
    words = _encode_column(values, dtype)
    if words is None:
        return split_words(
            [encode(value, dtype) for value in values], dtype.width
        )
    return words


def _encode_column(values: Sequence, dtype: DataType) -> Optional[Words]:
    if dtype.is_float:
        doubles = np.array(values, dtype=np.float64)
        if dtype is DataType.FLOAT64:
            return doubles.view(np.uint64), None
        if dtype is DataType.FLOAT32:
            with np.errstate(over="ignore", invalid="ignore"):
                singles = doubles.astype(np.float32)
            if np.any(np.isnan(doubles) | (
                np.isinf(singles) & np.isfinite(doubles)
            )):
                return None
            return singles.view(np.uint32).astype(np.uint64), None
        return _float80_words(doubles.view(np.uint64))
    if not all(type(value) is int for value in values):
        return None
    width = dtype.width
    if dtype is DataType.INT16 or dtype is DataType.INT32:
        low, high = -(1 << (width - 1)), (1 << (width - 1)) - 1
    else:
        low, high = 0, (1 << width) - 1
    if len(values) and (min(values) < low or max(values) > high):
        return None
    if width == 64:
        return np.array(values, dtype=np.uint64), None
    ints = np.array(values, dtype=np.int64)
    return (ints & ((1 << width) - 1)).astype(np.uint64), None


def _float80_words(bits: np.ndarray) -> Words:
    """x87 extended words of doubles given as their uint64 patterns.

    The column form of :func:`_encode_float80`: a normal double keeps
    its fraction under an explicit integer bit and rebiases its
    exponent; a subnormal one normalizes its fraction by its bit
    length; zeros keep their sign, infinities and NaNs take the
    all-ones exponent (a NaN the quiet-NaN significand).
    """
    sign = (bits >> _U64(63)) << _U64(15)
    exponent = (bits >> _U64(52)) & _U64(0x7FF)
    fraction = bits & _U64((1 << 52) - 1)
    high = sign | (exponent + _U64(FLOAT64X_BIAS - 1023))
    low = _U64(1 << 63) | (fraction << _U64(11))
    zero_exponent = exponent == 0
    subnormal = np.flatnonzero(zero_exponent & (fraction != 0))
    if subnormal.size:
        # frexp of an integer-valued double returns its bit length.
        length = np.frexp(fraction[subnormal].astype(np.float64))[1]
        high[subnormal] = sign[subnormal] | (
            length + (FLOAT64X_BIAS - 1075)
        ).astype(np.uint64)
        low[subnormal] = fraction[subnormal] << (64 - length).astype(
            np.uint64
        )
    zero = zero_exponent & (fraction == 0)
    high[zero] = sign[zero]
    low[zero] = 0
    special = exponent == 0x7FF
    high[special] = sign[special] | _U64(0x7FFF)
    low[special] = np.where(
        fraction[special] != 0, _U64(3 << 62), _U64(1 << 63)
    )
    return low, high


def decode(bits: int, dtype: DataType):
    """Decode a ``dtype`` bit pattern back into a Python value."""
    _check_width(bits, dtype)
    if dtype is DataType.INT16 or dtype is DataType.INT32:
        width = dtype.width
        if bits & (1 << (width - 1)):
            return bits - (1 << width)
        return bits
    if dtype.is_float:
        return _decode_float(bits, dtype)
    return bits


def _encode_float(value: float, dtype: DataType) -> int:
    if dtype is DataType.FLOAT32:
        return int.from_bytes(_F32_STRUCT.pack(value), "little")
    if dtype is DataType.FLOAT64:
        return int.from_bytes(_F64_STRUCT.pack(value), "little")
    return _encode_float80(value)


def _decode_float(bits: int, dtype: DataType) -> float:
    if dtype is DataType.FLOAT32:
        return _F32_STRUCT.unpack(bits.to_bytes(4, "little"))[0]
    if dtype is DataType.FLOAT64:
        return _F64_STRUCT.unpack(bits.to_bytes(8, "little"))[0]
    return _decode_float80(bits)


def _encode_float80(value: float) -> int:
    """Encode a Python float into the 80-bit x87 extended format.

    Layout (bit 79 is the MSB): sign(1) | exponent(15, bias 16383) |
    significand(64, explicit integer bit at position 63).  Every IEEE-754
    double converts exactly, which is all the study needs (workload
    values originate as doubles).
    """
    sign = 1 if math.copysign(1.0, value) < 0 else 0
    if math.isnan(value):
        return (sign << 79) | (0x7FFF << 64) | (1 << 63) | (1 << 62)
    if math.isinf(value):
        return (sign << 79) | (0x7FFF << 64) | (1 << 63)
    if value == 0.0:
        return sign << 79
    mantissa, exponent = math.frexp(abs(value))  # value = mantissa * 2**exponent
    # frexp gives mantissa in [0.5, 1); normalize to [1, 2).
    mantissa *= 2.0
    exponent -= 1
    biased = exponent + FLOAT64X_BIAS
    if biased <= 0:  # pragma: no cover - doubles cannot reach float80 subnormals
        raise DataTypeError(f"{value} underflows float64x")
    significand = round(mantissa * (1 << 63))
    if significand == 1 << 64:  # rounding carried into a new bit
        significand >>= 1
        biased += 1
    return (sign << 79) | (biased << 64) | significand


def _decode_float80(bits: int) -> float:
    sign = -1.0 if bits >> 79 else 1.0
    biased = (bits >> 64) & 0x7FFF
    significand = bits & ((1 << 64) - 1)
    if biased == 0x7FFF:
        if significand & ((1 << 63) - 1):
            return math.nan
        return sign * math.inf
    if biased == 0 and significand == 0:
        return sign * 0.0
    exponent = biased - FLOAT64X_BIAS
    # ldexp handles the deep-negative exponents of tiny doubles, where
    # a naive ``2.0 ** n`` would underflow to zero prematurely.  The
    # float() conversion rounds 80-bit-only precision to the nearest
    # double, which is the best a Python float can represent.
    try:
        value = math.ldexp(float(significand), exponent - 63)
    except OverflowError:
        # Beyond the double range (a flipped high exponent bit): the
        # nearest double is infinity, as NumPy's ldexp in the columnar
        # decoder rounds it.
        value = math.inf
    return sign * value


def flip(bits: int, mask: int, dtype: DataType) -> int:
    """Apply a bitflip mask to a pattern, validating widths."""
    _check_width(bits, dtype)
    _check_width(mask, dtype)
    return bits ^ mask


def xor_mask(expected_bits: int, actual_bits: int) -> int:
    """The mask of differing bits between two patterns (§4.2's masks)."""
    return expected_bits ^ actual_bits


def flipped_positions(mask: int) -> List[int]:
    """Bit indices set in a mask, LSB = index 0 (the paper's convention).

    Walks set bits only (isolate the lowest set bit, record its index,
    clear it): SDC masks are sparse — mostly 1-2 flips in an up-to-80-bit
    word — so this beats the shift-every-position scan the analysis hot
    loops used to pay.
    """
    positions = []
    while mask:
        low = mask & -mask
        positions.append(low.bit_length() - 1)
        mask ^= low
    return positions


if hasattr(int, "bit_count"):  # Python >= 3.10

    def popcount(mask: int) -> int:
        """Number of set bits (number of flipped bits in an SDC)."""
        return mask.bit_count()

else:  # pragma: no cover - Python 3.9 fallback

    def popcount(mask: int) -> int:
        """Number of set bits (number of flipped bits in an SDC)."""
        return bin(mask).count("1")


def relative_precision_loss(expected, actual, dtype: DataType) -> Optional[float]:
    """Relative precision loss between expected and actual values.

    Returns ``None`` for non-numeric types (Figure 4 only covers numeric
    data) and ``math.inf`` when the expected value is zero but the
    actual is not, or when the corrupted float decodes to inf/nan.
    """
    if not dtype.is_numeric:
        return None
    expected_value = float(decode(encode(expected, dtype), dtype)) if not isinstance(
        expected, float
    ) else float(expected)
    actual_value = float(actual)
    if math.isnan(actual_value) or math.isinf(actual_value):
        return math.inf
    if expected_value == 0.0:
        return 0.0 if actual_value == 0.0 else math.inf
    return abs(actual_value - expected_value) / abs(expected_value)


def random_value(rng, dtype: DataType):
    """Draw a representative operand value for a data type.

    Floats avoid exact zero so relative precision loss is always
    well-defined.  Integer magnitudes are log-uniform: production
    integers (counters, sizes, ids) are usually small relative to their
    storage width, which is why mid-representation bitflips cause the
    large integer precision losses of Figure 4(e).
    """
    if dtype.is_float:
        magnitude = float(rng.uniform(0.5, 1000.0))
        sign = -1.0 if rng.random() < 0.5 else 1.0
        return sign * magnitude
    width = dtype.width
    if dtype.is_integer:
        max_exponent = math.log10((1 << (width - 1 if dtype.is_signed else width)) - 1)
        magnitude = int(10.0 ** rng.uniform(0.0, max_exponent))
        if dtype.is_signed and rng.random() < 0.5:
            return -magnitude
        return magnitude
    return int(rng.integers(0, 1 << min(width, 63)))


def random_values(rng, dtype: DataType, count: int) -> List:
    """Draw ``count`` operand values with batched generator calls.

    Semantically ``[random_value(rng, dtype) for _ in range(count)]``,
    but the uniform/sign draws are pulled from the generator in one
    vectorized call instead of ``2 * count`` round trips, which is the
    dominant cost when materializing large error bursts.  The values are
    bit-identical to the scalar loop: ``Generator.uniform(a, b)``
    computes ``a + (b - a) * next_double``, so re-deriving it from
    ``Generator.random`` output reproduces the same doubles.
    """
    if count <= 0:
        return []
    if dtype.is_float:
        draws = rng.random(2 * count)
        magnitudes = 0.5 + (1000.0 - 0.5) * draws[0::2]
        return [
            float(-m) if s < 0.5 else float(m)
            for m, s in zip(magnitudes, draws[1::2])
        ]
    width = dtype.width
    if dtype.is_integer:
        max_exponent = math.log10(
            (1 << (width - 1 if dtype.is_signed else width)) - 1
        )
        if dtype.is_signed:
            draws = rng.random(2 * count)
            # 10.0 ** x stays a scalar op: Python's pow and NumPy's SIMD
            # np.power differ in the last ulp, and int() truncation
            # would amplify that into different operands.
            return [
                -int(10.0 ** (max_exponent * u)) if s < 0.5
                else int(10.0 ** (max_exponent * u))
                for u, s in zip(draws[0::2], draws[1::2])
            ]
        draws = rng.random(count)
        return [int(10.0 ** (max_exponent * u)) for u in draws]
    return [int(v) for v in rng.integers(0, 1 << min(width, 63), size=count)]
