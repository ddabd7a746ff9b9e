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
from typing import Callable, Dict, List, Optional, Sequence, Tuple

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

    def mask_sampler(
        self, dtype: DataType
    ) -> Callable[[np.random.Generator], int]:
        """:meth:`sample_mask` bound to ``dtype``.

        Models override it to look up their per-dtype tables once, when
        the sampler is built, instead of once per mask.
        """
        sample = self.sample_mask
        return lambda rng: sample(dtype, rng)

    def sample_masks(
        self, dtype: DataType, rng: np.random.Generator, count: int
    ) -> List[int]:
        """``count`` masks for one burst of ``dtype`` errors.

        Equal to ``count`` calls of :meth:`sample_mask`, masks and
        generator end state alike, with one :meth:`mask_sampler` per
        burst.
        """
        draw = self.mask_sampler(dtype)
        return [draw(rng) for _ in range(count)]


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


def _uniform_mask(
    probs: Sequence[float], rng: np.random.Generator, width: int
) -> int:
    """A mask of ``probs``-distributed size at uniform distinct positions."""
    count = _sample_flip_count(probs, rng, width)
    positions = rng.choice(width, size=count, replace=False)
    mask = 0
    for pos in positions:
        mask |= 1 << int(pos)
    return mask


def _sample_position(
    low: int, high: int, mean: float, sd: float, rng: np.random.Generator
) -> int:
    """One Gaussian bit index in ``[low, high]``, redrawn up to 64 times
    before a uniform fallback."""
    for _ in range(64):
        pos = int(round(rng.normal(mean, sd)))
        if low <= pos <= high:
            return pos
    return int(rng.integers(low, high + 1))


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

    def _range(self, low: int, high: int) -> Tuple[int, int, float, float]:
        """An inclusive bit-index range with its Gaussian mean and sd."""
        span = high - low + 1
        return low, high, low + self.center * (span - 1), self.spread * span

    def _layout(self, dtype: DataType):
        """Per-dtype draw constants of a numeric mask.

        ``(bias, fraction_range, full_range)``: a float draws the
        fraction range with probability ``bias`` (Observation 7), an
        integer always draws the full range (``bias`` is ``None``).
        """
        full = self._range(0, dtype.width - 1)
        if not dtype.is_float:
            return None, None, full
        _, fraction_bits = dtype.float_fields
        guard = _FRACTION_GUARD[dtype]
        return (
            min(self.fraction_bias, _FRACTION_BIAS[dtype]),
            self._range(0, max(fraction_bits - 1 - guard, 1)),
            full,
        )

    def _numeric_mask(self, layout, rng: np.random.Generator) -> int:
        bias, fraction, full = layout
        if bias is not None and rng.random() < bias:
            low, high, mean, sd = fraction
        else:
            low, high, mean, sd = full
        count = _sample_flip_count(self.flip_count_probs, rng, high - low + 1)
        positions: set = set()
        while len(positions) < count:
            positions.add(_sample_position(low, high, mean, sd, rng))
        mask = 0
        for pos in positions:
            mask |= 1 << pos
        return mask

    def sample_mask(self, dtype: DataType, rng: np.random.Generator) -> int:
        if not dtype.is_numeric:
            # Figure 5: non-numerical data shows no positional
            # preference — "all the positions have comparable amount of
            # bitflips".
            return _uniform_mask(self.flip_count_probs, rng, dtype.width)
        return self._numeric_mask(self._layout(dtype), rng)

    def mask_sampler(
        self, dtype: DataType
    ) -> Callable[[np.random.Generator], int]:
        if not dtype.is_numeric:
            return super().mask_sampler(dtype)
        layout = self._layout(dtype)
        numeric_mask = self._numeric_mask
        return lambda rng: numeric_mask(layout, rng)


@dataclass
class UniformBitflip(BitflipModel):
    """Non-numeric-data model: all positions comparably likely (Fig. 5)."""

    flip_count_probs: Tuple[float, ...] = field(
        default_factory=default_flip_count_probs
    )

    def sample_mask(self, dtype: DataType, rng: np.random.Generator) -> int:
        return _uniform_mask(self.flip_count_probs, rng, dtype.width)


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

    def mask_sampler(
        self, dtype: DataType
    ) -> Callable[[np.random.Generator], int]:
        fallback = self.fallback.mask_sampler(dtype)
        if not self.patterns.get(dtype):
            return fallback
        masks, cdf = self._table(dtype)
        probability = self.pattern_probability
        bisect_right = bisect.bisect_right

        def draw(rng: np.random.Generator) -> int:
            if rng.random() < probability:
                return masks[bisect_right(cdf, rng.random())]
            return fallback(rng)

        return draw


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
