"""Least-squares fits and Pearson correlation.

§5 fits ``log10(occurrence frequency)`` against core temperature "based
on the least square method" and reports Pearson correlation
coefficients (Figure 8: r = 0.7903 / 0.9243 / 0.8855; Figure 9:
r = −0.8272).  Implemented directly (closed-form simple regression)
rather than through scipy, so the formulas under the paper's numbers
are visible and unit-testable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from ..errors import ConfigurationError

__all__ = ["LinearFit", "linear_fit", "pearson_r"]


@dataclass(frozen=True)
class LinearFit:
    """y = slope * x + intercept, with the fit's Pearson r."""

    slope: float
    intercept: float
    pearson_r: float
    n: int

    def predict(self, x: float) -> float:
        return self.slope * x + self.intercept


def _validate(xs: Sequence[float], ys: Sequence[float]) -> None:
    if len(xs) != len(ys):
        raise ConfigurationError("x and y must have equal length")
    if len(xs) < 2:
        raise ConfigurationError("need at least two points")


def pearson_r(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Pearson correlation coefficient of two samples."""
    _validate(xs, ys)
    n = len(xs)
    mean_x = sum(xs) / n
    mean_y = sum(ys) / n
    cov = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
    var_x = sum((x - mean_x) ** 2 for x in xs)
    var_y = sum((y - mean_y) ** 2 for y in ys)
    if var_x == 0.0 or var_y == 0.0:
        return 0.0
    return cov / math.sqrt(var_x * var_y)


def linear_fit(xs: Sequence[float], ys: Sequence[float]) -> LinearFit:
    """Ordinary least squares simple regression."""
    _validate(xs, ys)
    n = len(xs)
    mean_x = sum(xs) / n
    mean_y = sum(ys) / n
    var_x = sum((x - mean_x) ** 2 for x in xs)
    if var_x == 0.0:
        raise ConfigurationError("x values are constant; slope undefined")
    cov = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
    slope = cov / var_x
    intercept = mean_y - slope * mean_x
    return LinearFit(
        slope=slope,
        intercept=intercept,
        pearson_r=pearson_r(xs, ys),
        n=n,
    )
