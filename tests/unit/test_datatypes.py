"""Unit tests for bit-level codecs (including 80-bit extended floats)."""

import math
import struct

import pytest

from repro.cpu import DataType
from repro.cpu.datatypes import (
    decode,
    encode,
    encode_words,
    flip,
    flipped_positions,
    popcount,
    relative_precision_loss,
    split_words,
    xor_mask,
)
from repro.errors import DataTypeError


class TestIntegerCodecs:
    def test_int16_roundtrip(self):
        for value in (-32768, -1, 0, 1, 32767, 1234):
            assert decode(encode(value, DataType.INT16), DataType.INT16) == value

    def test_int32_roundtrip(self):
        for value in (-(2**31), -1, 0, 2**31 - 1, 987654321):
            assert decode(encode(value, DataType.INT32), DataType.INT32) == value

    def test_uint32_roundtrip(self):
        for value in (0, 1, 2**32 - 1, 0xDEADBEEF):
            assert decode(encode(value, DataType.UINT32), DataType.UINT32) == value

    def test_int_out_of_range_rejected(self):
        with pytest.raises(DataTypeError):
            encode(2**31, DataType.INT32)
        with pytest.raises(DataTypeError):
            encode(-1, DataType.UINT32)

    def test_negative_int_twos_complement(self):
        assert encode(-1, DataType.INT32) == 0xFFFFFFFF

    def test_bool_rejected(self):
        with pytest.raises(DataTypeError):
            encode(True, DataType.INT32)


class TestFloatCodecs:
    @pytest.mark.parametrize(
        "dtype", [DataType.FLOAT32, DataType.FLOAT64, DataType.FLOAT64X]
    )
    def test_special_values(self, dtype):
        for value in (0.0, 1.0, -1.0, 2.5, -1024.125):
            assert decode(encode(value, dtype), dtype) == value

    def test_float64_roundtrip_exact(self):
        for value in (math.pi, 1e-300, -1e300, 0.1):
            assert decode(encode(value, DataType.FLOAT64), DataType.FLOAT64) == value

    def test_float64x_roundtrip_exact_for_doubles(self):
        # Every double converts exactly into 80-bit extended.
        for value in (math.pi, 1e-300, -1e300, 0.1, 3.5, -2.0**1000):
            bits = encode(value, DataType.FLOAT64X)
            assert decode(bits, DataType.FLOAT64X) == value

    def test_float64x_width(self):
        bits = encode(-math.e, DataType.FLOAT64X)
        assert 0 <= bits < (1 << 80)

    def test_float64x_explicit_integer_bit(self):
        bits = encode(1.0, DataType.FLOAT64X)
        # Normalized numbers carry an explicit leading 1 at bit 63.
        assert bits >> 63 & 1 == 1

    def test_float64x_infinity_and_nan(self):
        inf_bits = encode(math.inf, DataType.FLOAT64X)
        assert decode(inf_bits, DataType.FLOAT64X) == math.inf
        neg_inf = encode(-math.inf, DataType.FLOAT64X)
        assert decode(neg_inf, DataType.FLOAT64X) == -math.inf
        nan_bits = encode(math.nan, DataType.FLOAT64X)
        assert math.isnan(decode(nan_bits, DataType.FLOAT64X))

    def test_negative_zero_sign(self):
        bits = encode(-0.0, DataType.FLOAT64X)
        assert bits >> 79 == 1
        assert decode(bits, DataType.FLOAT64X) == 0.0

    def test_fraction_flip_small_loss(self):
        # Observation 7: a low-fraction-bit flip yields a tiny loss.
        value = 1.75
        bits = encode(value, DataType.FLOAT64)
        corrupted = decode(bits ^ 1, DataType.FLOAT64)
        loss = relative_precision_loss(value, corrupted, DataType.FLOAT64)
        assert 0 < loss < 1e-12


class TestMasks:
    def test_xor_mask(self):
        assert xor_mask(0b1010, 0b0110) == 0b1100

    def test_flip_is_involution(self):
        bits = encode(12345, DataType.UINT32)
        mask = 0b101
        assert flip(flip(bits, mask, DataType.UINT32), mask, DataType.UINT32) == bits

    def test_flip_rejects_oversized_mask(self):
        with pytest.raises(DataTypeError):
            flip(0, 1 << 40, DataType.UINT32)

    def test_flipped_positions(self):
        assert flipped_positions(0b1001001) == [0, 3, 6]
        assert flipped_positions(0) == []

    def test_popcount(self):
        assert popcount(0) == 0
        assert popcount(0xFF) == 8
        assert popcount(1 << 79) == 1


class TestPrecisionLoss:
    def test_non_numeric_returns_none(self):
        assert relative_precision_loss(3, 5, DataType.BIN32) is None

    def test_integer_loss(self):
        assert relative_precision_loss(100, 150, DataType.INT32) == pytest.approx(0.5)

    def test_zero_expected(self):
        assert relative_precision_loss(0, 0, DataType.INT32) == 0.0
        assert relative_precision_loss(0, 5, DataType.INT32) == math.inf

    def test_nan_actual_is_infinite_loss(self):
        assert relative_precision_loss(1.0, math.nan, DataType.FLOAT64) == math.inf


class TestFloat64xBeyondDoubleRange:
    """A flipped top exponent bit can lift an 80-bit value past the
    largest double; it decodes to the nearest double, ±infinity, as the
    columnar decoder does."""

    # 0.75 has biased exponent 0x3FFE; setting bit 78 makes it 0x7FFE.
    EXPECTED = encode(0.75, DataType.FLOAT64X)
    ACTUAL = EXPECTED ^ (1 << 78)

    def test_decodes_to_signed_infinity(self):
        assert decode(self.ACTUAL, DataType.FLOAT64X) == math.inf
        negative = self.ACTUAL | (1 << 79)
        assert decode(negative, DataType.FLOAT64X) == -math.inf

    def test_precision_loss_is_infinite(self):
        actual = decode(self.ACTUAL, DataType.FLOAT64X)
        loss = relative_precision_loss(0.75, actual, DataType.FLOAT64X)
        assert loss == math.inf

    def test_scalar_summary_matches_columnar(self):
        from repro.analysis import RecordFrame, summarize_precision
        from repro.analysis import summarize_precision_frame
        from repro.testing import RecordStore, SDCRecord

        def record(expected_bits, actual_bits):
            return SDCRecord(
                processor_id="P", testcase_id="T", pcore_id=0,
                defect_id="D", instruction="FATAN_F64X",
                dtype=DataType.FLOAT64X, expected_bits=expected_bits,
                actual_bits=actual_bits, temperature_c=78.0, time_s=0.0,
            )

        store = RecordStore(records=[
            record(self.EXPECTED, self.ACTUAL),
            record(self.EXPECTED, self.EXPECTED ^ 1),
        ])
        scalar = summarize_precision(store.records, DataType.FLOAT64X)
        columnar = summarize_precision_frame(
            RecordFrame.from_store(store), DataType.FLOAT64X
        )
        assert scalar == columnar
        assert scalar.max == math.inf


class TestColumnEncoder:
    """``encode_words`` is ``encode`` over a burst, word for word."""

    @staticmethod
    def _patterns(values, dtype):
        low, high = encode_words(values, dtype)
        if high is None:
            return [int(word) for word in low]
        return [(int(h) << 64) | int(l) for l, h in zip(low, high)]

    def _assert_matches(self, values, dtype):
        assert self._patterns(values, dtype) == [
            encode(value, dtype) for value in values
        ]

    FLOATS = (
        0.0, -0.0, math.inf, -math.inf,
        5e-324, -5e-324,                      # smallest subnormal double
        2.2250738585072009e-308,              # largest subnormal double
        2.2250738585072014e-308,              # smallest normal double
        1.401298464324817e-45,                # smallest subnormal float32
        1.1754942106924411e-38,               # largest subnormal float32
        7.006492321624085e-46,                # float32 tie: rounds to 0
        2.1019476964872256e-45,               # float32 tie: rounds to even
        1.0000000596046448,                   # float32 tie: 1 + 2**-24
        1.0000001788139343,                   # float32 tie: 1 + 3 * 2**-24
        3.4028234663852886e38,                # float32 max
        1.5, -1024.125, math.pi, 1e30, -1e-310,
    )

    @pytest.mark.parametrize(
        "dtype", [DataType.FLOAT32, DataType.FLOAT64, DataType.FLOAT64X]
    )
    def test_float_specials(self, dtype):
        wide = () if dtype is DataType.FLOAT32 else (1e300, -1.7e308)
        self._assert_matches([*self.FLOATS, *wide], dtype)

    @pytest.mark.parametrize("dtype", [DataType.FLOAT64, DataType.FLOAT64X])
    def test_nan_payloads(self, dtype):
        nans = [
            struct.unpack("<d", struct.pack("<Q", bits))[0]
            for bits in (0x7FF8000000000000, 0xFFF8000000000001,
                         0x7FF0000000000001)
        ]
        self._assert_matches(nans, dtype)

    def test_float32_nan_and_overflow_take_the_scalar_codec(self):
        self._assert_matches([1.5, math.nan, -math.nan], DataType.FLOAT32)
        with pytest.raises(OverflowError):
            encode_words([1.0, 3.4028235677973366e38], DataType.FLOAT32)

    @pytest.mark.parametrize("dtype", [
        d for d in DataType if not d.is_float
    ], ids=str)
    def test_integer_extremes(self, dtype):
        width = dtype.width
        if dtype in (DataType.INT16, DataType.INT32):
            low, high = -(1 << (width - 1)), (1 << (width - 1)) - 1
        else:
            low, high = 0, (1 << width) - 1
        self._assert_matches(
            sorted({low, high, low + 1, high - 1, 0, 1, high // 2}), dtype
        )

    @pytest.mark.parametrize("values, dtype", [
        ([0, 2**31], DataType.INT32),
        ([0, -1], DataType.UINT32),
        ([0, -1], DataType.BIN64),
        ([0, 2**64], DataType.BIN64),
        ([0, True], DataType.INT32),
        ([0, 1.0], DataType.BYTE),
    ])
    def test_rejects_what_encode_rejects(self, values, dtype):
        with pytest.raises(DataTypeError):
            encode_words(values, dtype)

    def test_empty_burst(self):
        low, high = encode_words([], DataType.FLOAT64X)
        assert low.size == 0 and high.size == 0

    def test_split_words(self):
        patterns = [0, 1, (1 << 79) | 5, (1 << 64) - 1]
        low, high = split_words(patterns, 80)
        assert [(int(h) << 64) | int(l) for l, h in zip(low, high)] == patterns
        low, high = split_words(patterns[:2], 64)
        assert high is None and low.tolist() == [0, 1]
