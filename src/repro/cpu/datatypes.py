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
"""

from __future__ import annotations

import math
import struct
from typing import Iterable, List, Optional

from ..errors import DataTypeError
from .features import DataType

__all__ = [
    "encode",
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


def values_to_masks(
    pairs: Iterable[tuple], dtype: DataType
) -> List[int]:
    """Convenience: XOR masks for (expected, actual) value pairs."""
    return [
        xor_mask(encode(exp, dtype), encode(act, dtype)) for exp, act in pairs
    ]
