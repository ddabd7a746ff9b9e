"""Unit tests for bitflip models."""

import pytest

from repro.cpu import DataType
from repro.cpu.datatypes import flipped_positions, popcount
from repro.errors import ConfigurationError
from repro.faults import (
    IIDBitflip,
    PatternBitflip,
    PositionBiasedBitflip,
    UniformBitflip,
)
from repro.rng import substream


@pytest.fixture()
def rng():
    return substream(123, "bitflip-tests")


class TestPositionBiased:
    def test_masks_fit_width(self, rng):
        model = PositionBiasedBitflip()
        for dtype in (DataType.INT32, DataType.FLOAT64, DataType.FLOAT64X):
            for _ in range(200):
                mask = model.sample_mask(dtype, rng)
                assert 0 < mask < (1 << dtype.width)

    def test_float_flips_mostly_in_fraction(self, rng):
        # Observation 7: "a bitflip usually hits the fraction part".
        model = PositionBiasedBitflip()
        _, fraction_bits = DataType.FLOAT64.float_fields
        in_fraction = 0
        total = 0
        for _ in range(400):
            mask = model.sample_mask(DataType.FLOAT64, rng)
            for position in flipped_positions(mask):
                total += 1
                if position < fraction_bits:
                    in_fraction += 1
        assert in_fraction / total > 0.9

    def test_msb_rare_for_int32(self, rng):
        model = PositionBiasedBitflip()
        msb_hits = 0
        total = 0
        for _ in range(500):
            mask = model.sample_mask(DataType.INT32, rng)
            for position in flipped_positions(mask):
                total += 1
                if position >= 28:
                    msb_hits += 1
        assert msb_hits / total < 0.05

    def test_flip_counts_follow_distribution(self, rng):
        model = PositionBiasedBitflip()
        counts = {1: 0, 2: 0, 3: 0}
        n = 1000
        for _ in range(n):
            bits = popcount(model.sample_mask(DataType.FLOAT64, rng))
            counts[min(bits, 3)] += 1
        # Defaults: 0.90 / 0.08 / 0.02.
        assert counts[1] / n == pytest.approx(0.90, abs=0.05)
        assert counts[2] / n == pytest.approx(0.08, abs=0.04)

    def test_invalid_params_rejected(self):
        with pytest.raises(ConfigurationError):
            PositionBiasedBitflip(center=1.5)
        with pytest.raises(ConfigurationError):
            PositionBiasedBitflip(spread=0.0)
        with pytest.raises(ConfigurationError):
            PositionBiasedBitflip(fraction_bias=2.0)


class TestUniform:
    def test_masks_fit_width(self, rng):
        model = UniformBitflip()
        for _ in range(200):
            mask = model.sample_mask(DataType.BIN64, rng)
            assert 0 < mask < (1 << 64)

    def test_positions_roughly_uniform(self, rng):
        # Figure 5: non-numeric flips spread over all positions.
        model = UniformBitflip()
        hits = [0] * 32
        for _ in range(3000):
            for position in flipped_positions(
                model.sample_mask(DataType.BIN32, rng)
            ):
                hits[position] += 1
        # Every position hit at least once; no position dominates.
        assert min(hits) > 0
        assert max(hits) < 12 * min(hits)


class TestPattern:
    def test_pattern_masks_dominate(self, rng):
        patterns = {DataType.INT32: [(0b1000, 1.0)]}
        model = PatternBitflip(
            patterns=patterns,
            pattern_probability=1.0,
            fallback=UniformBitflip(),
        )
        for _ in range(50):
            assert model.sample_mask(DataType.INT32, rng) == 0b1000

    def test_fallback_used_for_unknown_dtype(self, rng):
        model = PatternBitflip(
            patterns={DataType.INT32: [(0b1, 1.0)]},
            pattern_probability=1.0,
            fallback=UniformBitflip(),
        )
        mask = model.sample_mask(DataType.BIN64, rng)
        assert 0 < mask < (1 << 64)

    def test_mixture(self, rng):
        model = PatternBitflip(
            patterns={DataType.INT32: [(0b1000, 1.0)]},
            pattern_probability=0.5,
            fallback=IIDBitflip(),
        )
        hits = sum(
            1
            for _ in range(800)
            if model.sample_mask(DataType.INT32, rng) == 0b1000
        )
        # ~0.5 plus IID occasionally sampling the same mask.
        assert 0.4 < hits / 800 < 0.65

    def test_weighted_choice(self, rng):
        model = PatternBitflip(
            patterns={DataType.INT32: [(0b1, 3.0), (0b10, 1.0)]},
            pattern_probability=1.0,
            fallback=UniformBitflip(),
        )
        first = sum(
            1
            for _ in range(1000)
            if model.sample_mask(DataType.INT32, rng) == 0b1
        )
        assert 0.65 < first / 1000 < 0.85

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            PatternBitflip(
                patterns={DataType.INT32: []},
                pattern_probability=0.5,
                fallback=UniformBitflip(),
            )
        with pytest.raises(ConfigurationError):
            PatternBitflip(
                patterns={DataType.INT32: [(0, 1.0)]},
                pattern_probability=0.5,
                fallback=UniformBitflip(),
            )
        with pytest.raises(ConfigurationError):
            PatternBitflip(
                patterns={DataType.INT32: [(1 << 40, 1.0)]},
                pattern_probability=0.5,
                fallback=UniformBitflip(),
            )


class TestIID:
    def test_single_bit_always(self, rng):
        model = IIDBitflip()
        for _ in range(300):
            mask = model.sample_mask(DataType.FLOAT64, rng)
            assert popcount(mask) == 1

    def test_uniform_over_positions(self, rng):
        # The model the paper critiques: no location preference at all.
        model = IIDBitflip()
        hits = [0] * 16
        for _ in range(4000):
            hits[flipped_positions(model.sample_mask(DataType.INT16, rng))[0]] += 1
        assert min(hits) > 0
        assert max(hits) < 3 * min(hits)


def _burst_models():
    from repro.cpu import full_catalog

    pattern = PatternBitflip(
        patterns={DataType.FLOAT64: [(0b1, 1.0), (0b110, 0.5)]},
        pattern_probability=0.7,
        fallback=PositionBiasedBitflip(),
    )
    nested = PatternBitflip(
        patterns={DataType.INT32: [(0b1000, 1.0)]},
        pattern_probability=0.5,
        fallback=pattern,
    )
    models = [
        PositionBiasedBitflip(),
        PositionBiasedBitflip(center=0.9, spread=0.5, fraction_bias=0.2),
        UniformBitflip(),
        IIDBitflip(),
        pattern,
        nested,
    ]
    catalog = {
        defect.defect_id: defect.bitflip
        for processor in full_catalog().values()
        for defect in processor.defects
        if defect.bitflip is not None
    }
    return models + list(catalog.values())


class TestSampleMasks:
    """A burst's masks equal ``count`` single draws, stream included."""

    @pytest.mark.parametrize(
        "model", _burst_models(), ids=lambda model: type(model).__name__
    )
    def test_equals_repeated_sample_mask(self, model):
        for dtype in DataType:
            for seed, count in ((0, 1), (1, 7), (2, 120)):
                single = substream(seed, "sample-masks", str(dtype))
                burst = substream(seed, "sample-masks", str(dtype))
                expected = [model.sample_mask(dtype, single) for _ in range(count)]
                assert model.sample_masks(dtype, burst, count) == expected
                assert burst.bit_generator.state == single.bit_generator.state

    def test_zero_count_draws_nothing(self, rng):
        before = rng.bit_generator.state
        assert PositionBiasedBitflip().sample_masks(DataType.FLOAT32, rng, 0) == []
        assert rng.bit_generator.state == before
