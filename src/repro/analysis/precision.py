"""Precision-loss analysis (Observation 7, Figure 4(e)-(h)).

The paper quantifies each computation SDC's damage as the relative
precision loss between expected and actual values, and plots its CDF
per numeric data type on a base-10 logarithmic axis.  Because flips
land overwhelmingly in IEEE-754 fraction bits, float losses are tiny
(all float64x losses < 0.002%; 99.9% of float64 < 0.02%; 80.25% of
float32 < 5%) while integer losses are large (40.2% of int32 > 100%).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, List, Sequence, Tuple

from ..errors import ConfigurationError
from ..cpu.features import DataType
from ..testing.records import SDCRecord

__all__ = [
    "precision_losses",
    "log10_losses",
    "empirical_cdf",
    "fraction_below",
    "fraction_above",
    "PrecisionSummary",
    "summarize_precision",
]


def precision_losses(
    records: Iterable[SDCRecord], dtype: DataType
) -> List[float]:
    """Relative precision losses of records of one numeric type."""
    if not dtype.is_numeric:
        raise ConfigurationError(f"{dtype} has no precision-loss semantics")
    losses = []
    for record in records:
        if record.dtype is not dtype:
            continue
        loss = record.precision_loss
        if loss is not None:
            losses.append(loss)
    return losses


def log10_losses(losses: Sequence[float]) -> List[float]:
    """Base-10 logs of non-zero, finite losses (Figure 4's x axis)."""
    return [
        math.log10(loss)
        for loss in losses
        if loss > 0.0 and math.isfinite(loss)
    ]


def empirical_cdf(values: Sequence[float]) -> List[Tuple[float, float]]:
    """(value, cumulative fraction) pairs of the empirical CDF."""
    if not values:
        return []
    ordered = sorted(values)
    n = len(ordered)
    return [(value, (index + 1) / n) for index, value in enumerate(ordered)]


def fraction_below(losses: Sequence[float], threshold: float) -> float:
    """Fraction of losses strictly below a threshold."""
    if not losses:
        return 0.0
    return sum(1 for loss in losses if loss < threshold) / len(losses)


def fraction_above(losses: Sequence[float], threshold: float) -> float:
    if not losses:
        return 0.0
    return sum(1 for loss in losses if loss > threshold) / len(losses)


@dataclass(frozen=True)
class PrecisionSummary:
    """The headline statistics §4.2 quotes per data type."""

    dtype: DataType
    count: int
    median: float
    p999: float
    max: float
    #: Fractions at the thresholds the paper quotes.
    below_0002pct: float  # < 0.002%  (float64x claim)
    below_002pct: float   # < 0.02%   (float64 claim)
    below_5pct: float     # < 5%      (float32 claim)
    above_100pct: float   # > 100%    (int32 claim)


def summarize_precision(
    records: Iterable[SDCRecord], dtype: DataType
) -> PrecisionSummary:
    losses = precision_losses(records, dtype)
    if not losses:
        return PrecisionSummary(dtype, 0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
    ordered = sorted(losses)
    n = len(ordered)

    def quantile(q: float) -> float:
        return ordered[min(int(q * n), n - 1)]

    return PrecisionSummary(
        dtype=dtype,
        count=n,
        median=quantile(0.5),
        p999=quantile(0.999),
        max=ordered[-1],
        below_0002pct=fraction_below(losses, 0.002 / 100.0),
        below_002pct=fraction_below(losses, 0.02 / 100.0),
        below_5pct=fraction_below(losses, 5.0 / 100.0),
        above_100pct=fraction_above(losses, 100.0 / 100.0),
    )
