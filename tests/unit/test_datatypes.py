"""Unit tests for bit-level codecs (including 80-bit extended floats)."""

import math

import pytest

from repro.cpu import DataType
from repro.cpu.datatypes import (
    decode,
    encode,
    flip,
    flipped_positions,
    popcount,
    relative_precision_loss,
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
