"""Property tests for bitflip models, SECDED, the trigger law, thermal."""

import math

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.cpu import ARCHITECTURES, DataType
from repro.cpu.datatypes import popcount
from repro.cpu.defects import TriggerProfile
from repro.detectors import DecodeStatus, Secded64, crc32
from repro.faults import (
    IIDBitflip,
    PatternBitflip,
    PositionBiasedBitflip,
    TriggerModel,
    UniformBitflip,
)
from repro.rng import substream
from repro.thermal import PackageThermalModel

from tests.unit.test_defects import make_computation_defect

dtypes = st.sampled_from(
    [
        DataType.INT16,
        DataType.INT32,
        DataType.UINT32,
        DataType.FLOAT32,
        DataType.FLOAT64,
        DataType.FLOAT64X,
        DataType.BIN8,
        DataType.BIN32,
        DataType.BIN64,
    ]
)


@settings(max_examples=100, deadline=None)
@given(dtypes, st.integers(min_value=0, max_value=2**32))
def test_bitflip_masks_always_valid(dtype, seed):
    rng = substream(seed, "prop-bitflip")
    for model in (PositionBiasedBitflip(), UniformBitflip(), IIDBitflip()):
        mask = model.sample_mask(dtype, rng)
        assert 0 < mask < (1 << dtype.width)
        assert 1 <= popcount(mask) <= 4


@settings(max_examples=150, deadline=None)
@given(
    st.lists(
        st.floats(min_value=1e-6, max_value=1e6), min_size=1, max_size=12
    ),
    st.one_of(st.just(1.0), st.floats(min_value=0.0, max_value=1.0)),
    st.integers(min_value=0, max_value=2**32),
)
def test_pattern_cdf_draw_matches_generator_choice(weights, probability, seed):
    """The cached-CDF bisect draw returns the mask `Generator.choice`
    picks and leaves the bit generator in the same state."""
    dtype = DataType.INT32
    masks = [index + 1 for index in range(len(weights))]
    fallback = IIDBitflip()
    model = PatternBitflip(
        {dtype: list(zip(masks, weights))}, probability, fallback
    )
    rng = substream(seed, "prop-pattern")
    reference = substream(seed, "prop-pattern")
    p = np.array(weights, dtype=float)
    p /= p.sum()
    for _ in range(8):
        drawn = model.sample_mask(dtype, rng)
        if reference.random() < probability:
            expected = masks[int(reference.choice(len(masks), p=p))]
        else:
            expected = fallback.sample_mask(dtype, reference)
        assert drawn == expected
    assert rng.bit_generator.state == reference.bit_generator.state


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=0, max_value=2**64 - 1),
    st.integers(min_value=0, max_value=71),
)
def test_secded_corrects_any_single_flip(data, position):
    codeword = Secded64.encode(data)
    result = Secded64.decode(codeword ^ (1 << position), true_data=data)
    assert result.status is DecodeStatus.CORRECTED
    assert result.data == data


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=0, max_value=2**64 - 1),
    st.integers(min_value=0, max_value=71),
    st.integers(min_value=0, max_value=71),
)
def test_secded_flags_any_double_flip(data, a, b):
    assume(a != b)
    codeword = Secded64.encode(data)
    result = Secded64.decode(
        codeword ^ (1 << a) ^ (1 << b), true_data=data
    )
    assert result.status is DecodeStatus.DETECTED_UNCORRECTABLE


@settings(max_examples=80, deadline=None)
@given(
    st.floats(min_value=40.0, max_value=95.0),
    st.floats(min_value=40.0, max_value=95.0),
    st.floats(min_value=2.1e5, max_value=1.0e6),
)
def test_trigger_frequency_monotone_in_temperature(t1, t2, usage):
    """Above tmin the law is non-decreasing in temperature (Obs. 10)."""
    defect = make_computation_defect(
        trigger=TriggerProfile(
            tmin=45.0, log10_freq_at_tmin=0.0, temp_slope=0.15,
            tmin_jitter=0.0, freq_jitter=0.0,
        )
    )
    model = TriggerModel()
    lo, hi = sorted((t1, t2))
    f_lo = model.occurrence_frequency(defect, "s", lo, usage, 3)
    f_hi = model.occurrence_frequency(defect, "s", hi, usage, 3)
    assert f_hi >= f_lo


@settings(max_examples=80, deadline=None)
@given(
    st.floats(min_value=2.1e5, max_value=9.9e5),
    st.floats(min_value=2.1e5, max_value=9.9e5),
)
def test_trigger_frequency_monotone_in_usage(u1, u2):
    defect = make_computation_defect(
        trigger=TriggerProfile(
            tmin=45.0, log10_freq_at_tmin=0.0, temp_slope=0.15,
            tmin_jitter=0.0, freq_jitter=0.0,
        )
    )
    model = TriggerModel()
    lo, hi = sorted((u1, u2))
    assert model.occurrence_frequency(
        defect, "s", 60.0, hi, 3
    ) >= model.occurrence_frequency(defect, "s", 60.0, lo, 3)


@settings(max_examples=30, deadline=None)
@given(
    st.floats(min_value=0.0, max_value=1.0),
    st.floats(min_value=0.2, max_value=1.6),
    st.integers(min_value=1, max_value=600),
)
def test_thermal_temperatures_bounded(utilization, heat, steps):
    """Core temperatures stay between ambient and a physical ceiling."""
    model = PackageThermalModel(ARCHITECTURES["M5"])
    loads = {c: (utilization, heat) for c in range(12)}
    for _ in range(steps):
        model.step(10.0, loads)
    for core in range(12):
        temp = model.core_temp(core)
        assert model.params.ambient_c <= temp <= 130.0


@settings(max_examples=100, deadline=None)
@given(st.binary(max_size=64))
def test_crc32_matches_zlib_everywhere(data):
    import zlib

    assert crc32(data) == zlib.crc32(data)
