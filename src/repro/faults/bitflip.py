"""Bitflip models: how an SDC corrupts a value's representation.

§4.2 characterizes computation SDCs at the bit level:

* **Observation 7** — for numeric data, flips concentrate in the middle
  of the representation and rarely hit the most significant bits; for
  floats this lands overwhelmingly in the IEEE-754 fraction, so
  precision losses are small.  Non-numeric (``bin*``) data shows roughly
  uniform flip positions (Figure 5).
* **Observation 8** — per setting (testcase × processor), flips tend to
  recur at fixed positions: *bitflip patterns*, i.e. recurring XOR
  masks, sometimes flipping 2 or more bits at once (Figure 7).

Three models implement this spectrum, plus the IID single-bit model the
paper critiques ("current failure models ... assume that every bitflip
on every position is IID" §4.2), kept for comparison experiments.
"""

from __future__ import annotations

import abc
import bisect
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import ConfigurationError
from ..cpu.features import DataType

__all__ = [
    "BitflipModel",
    "PositionBiasedBitflip",
    "UniformBitflip",
    "PatternBitflip",
    "IIDBitflip",
    "default_flip_count_probs",
]


def default_flip_count_probs() -> Tuple[float, ...]:
    """Default distribution over number of simultaneously flipped bits.

    Figure 7 reports mostly single-bit flips with a considerable tail of
    2 and >2 flips (e.g. float64: 0.90 / 0.08 / 0.02).
    """
    return (0.90, 0.08, 0.02)


class BitflipModel(abc.ABC):
    """Samples an XOR mask to apply to a correct result's bit pattern."""

    @abc.abstractmethod
    def sample_mask(self, dtype: DataType, rng: np.random.Generator) -> int:
        """Return a non-zero XOR mask that fits in ``dtype.width`` bits."""

    def corrupt_bits(
        self, bits: int, dtype: DataType, rng: np.random.Generator
    ) -> int:
        """Apply a sampled mask to a bit pattern."""
        return bits ^ self.sample_mask(dtype, rng)


def _sample_flip_count(
    probs: Sequence[float], rng: np.random.Generator, max_bits: int
) -> int:
    """Draw the number of bits to flip: probs are P(1), P(2), P(>2)."""
    u = rng.random()
    if u < probs[0] or max_bits == 1:
        return 1
    if u < probs[0] + probs[1] or max_bits == 2:
        return 2
    # ">2" resolves to 3-4 flips, capped by the representation width.
    return min(int(rng.integers(3, 5)), max_bits)


#: How often a float flip lands in the fraction field, per type.
#: Observation 7: fraction flips dominate; the tiny exponent tail is
#: what produces float32's >5% losses, while the paper observed *no*
#: exponent hits at all for extended precision (all float64x losses
#: below 0.002%).
_FRACTION_BIAS: Dict[DataType, float] = {
    DataType.FLOAT32: 0.97,
    DataType.FLOAT64: 0.999,
    DataType.FLOAT64X: 1.0,
}

#: Top-of-fraction guard bits: fraction flips never land within this
#: many positions of the fraction's MSB.  Calibrated against Figure
#: 4(e)-(h)'s loss bands — float64x losses stay under ~2e-5, float32
#: fraction losses can reach a few percent.
_FRACTION_GUARD: Dict[DataType, int] = {
    DataType.FLOAT32: 3,
    DataType.FLOAT64: 0,
    DataType.FLOAT64X: 16,
}


@dataclass
class PositionBiasedBitflip(BitflipModel):
    """Numeric-data model: mid-representation concentration, MSB-shy.

    Positions are drawn from a discretized Gaussian centred at
    ``center`` (a relative position, 0 = LSB end, 1 = MSB end) with
    standard deviation ``spread`` (relative).  For floats the draw is
    restricted to the fraction field with a per-type probability
    (Observation 7: "a bitflip usually hits the fraction part").
    """

    center: float = 0.42
    spread: float = 0.14
    fraction_bias: float = 0.97
    flip_count_probs: Tuple[float, ...] = field(
        default_factory=default_flip_count_probs
    )

    def __post_init__(self) -> None:
        if not 0.0 <= self.center <= 1.0:
            raise ConfigurationError("center must be a relative position in [0,1]")
        if self.spread <= 0:
            raise ConfigurationError("spread must be positive")
        if not 0.0 <= self.fraction_bias <= 1.0:
            raise ConfigurationError("fraction_bias must be in [0,1]")

    def _position_range(self, dtype: DataType, rng: np.random.Generator) -> Tuple[int, int]:
        """Inclusive (low, high) bit-index range to draw from."""
        width = dtype.width
        if dtype.is_float:
            bias = min(self.fraction_bias, _FRACTION_BIAS[dtype])
            if rng.random() < bias:
                _, fraction_bits = dtype.float_fields
                guard = _FRACTION_GUARD[dtype]
                return 0, max(fraction_bits - 1 - guard, 1)
        return 0, width - 1

    def _sample_position(self, low: int, high: int, rng: np.random.Generator) -> int:
        span = high - low + 1
        mean = low + self.center * (span - 1)
        sd = self.spread * span
        for _ in range(64):
            pos = int(round(rng.normal(mean, sd)))
            if low <= pos <= high:
                return pos
        return int(rng.integers(low, high + 1))

    def sample_mask(self, dtype: DataType, rng: np.random.Generator) -> int:
        if not dtype.is_numeric:
            # Figure 5: non-numerical data shows no positional
            # preference — "all the positions have comparable amount of
            # bitflips".
            count = _sample_flip_count(
                self.flip_count_probs, rng, dtype.width
            )
            positions = rng.choice(dtype.width, size=count, replace=False)
            mask = 0
            for pos in positions:
                mask |= 1 << int(pos)
            return mask
        low, high = self._position_range(dtype, rng)
        count = _sample_flip_count(self.flip_count_probs, rng, high - low + 1)
        positions: set = set()
        while len(positions) < count:
            positions.add(self._sample_position(low, high, rng))
        mask = 0
        for pos in positions:
            mask |= 1 << pos
        return mask


@dataclass
class UniformBitflip(BitflipModel):
    """Non-numeric-data model: all positions comparably likely (Fig. 5)."""

    flip_count_probs: Tuple[float, ...] = field(
        default_factory=default_flip_count_probs
    )

    def sample_mask(self, dtype: DataType, rng: np.random.Generator) -> int:
        width = dtype.width
        count = _sample_flip_count(self.flip_count_probs, rng, width)
        positions = rng.choice(width, size=count, replace=False)
        mask = 0
        for pos in positions:
            mask |= 1 << int(pos)
        return mask


@dataclass
class PatternBitflip(BitflipModel):
    """Pattern-dominant model implementing Observation 8.

    With probability ``pattern_probability`` the mask is one of the
    defect's fixed per-datatype patterns (weighted choice); otherwise it
    falls back to a positional model.  A "setting" in the paper is a
    (testcase, processor) pair; because a testcase determines the
    operation datatype, per-datatype patterns reproduce per-setting
    patterns.
    """

    patterns: Dict[DataType, List[Tuple[int, float]]]
    pattern_probability: float
    fallback: BitflipModel
    #: dtype → (masks, CDF) draw tables, built on a dtype's first
    #: pattern draw (fleet generation builds thousands of these models
    #: and most never draw).  ``patterns`` is treated as immutable.
    _tables: Optional[Dict[DataType, Tuple[List[int], List[float]]]] = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if not 0.0 <= self.pattern_probability <= 1.0:
            raise ConfigurationError("pattern_probability must be in [0,1]")
        for dtype, entries in self.patterns.items():
            if not entries:
                raise ConfigurationError(f"empty pattern list for {dtype}")
            for mask, weight in entries:
                if mask <= 0 or mask >> dtype.width:
                    raise ConfigurationError(
                        f"pattern {mask:#x} invalid for {dtype}"
                    )
                if weight <= 0:
                    raise ConfigurationError("pattern weights must be positive")

    def _table(self, dtype: DataType) -> Tuple[List[int], List[float]]:
        tables = self._tables
        if tables is None:
            tables = self._tables = {}
        table = tables.get(dtype)
        if table is None:
            entries = self.patterns[dtype]
            # The float ops `Generator.choice(n, p=weights)` performs:
            # normalize, cumulative sum, renormalize by the last entry.
            weights = np.array([weight for _, weight in entries], dtype=float)
            weights /= weights.sum()
            cdf = weights.cumsum()
            cdf /= cdf[-1]
            table = tables[dtype] = ([mask for mask, _ in entries], cdf.tolist())
        return table

    def sample_mask(self, dtype: DataType, rng: np.random.Generator) -> int:
        entries = self.patterns.get(dtype)
        if entries and rng.random() < self.pattern_probability:
            masks, cdf = self._table(dtype)
            # `choice` draws one double and returns
            # `cdf.searchsorted(u, side="right")`: same draw, same index.
            return masks[bisect.bisect_right(cdf, rng.random())]
        return self.fallback.sample_mask(dtype, rng)


@dataclass
class IIDBitflip(BitflipModel):
    """The classical irradiation-style model the paper critiques.

    Every position equally likely, exactly one bit flipped, independent
    across events.  Used as the comparison model when demonstrating the
    deficiencies listed at the end of §4.2 (location preference and
    flip correlation are both absent here).
    """

    def sample_mask(self, dtype: DataType, rng: np.random.Generator) -> int:
        return 1 << int(rng.integers(0, dtype.width))
