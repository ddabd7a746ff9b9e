"""Range-prediction SDC detection (§6.2's "Prediction").

HPC silent-error detectors predict a plausible range for each result
from recent history and flag values outside it [29-31].  Observation 7
is their undoing for CPU SDCs: fraction-bit flips cause *minor*
precision losses that sit comfortably inside any usable range, so the
detector must choose between missing them (wide range) and false
alarms (narrow range).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Optional, Tuple

from ..errors import ConfigurationError

__all__ = ["RangePredictor", "PredictionOutcome"]


@dataclass(frozen=True)
class PredictionOutcome:
    value: float
    flagged: bool
    low: float
    high: float


@dataclass
class RangePredictor:
    """A moving-window range predictor over a numeric stream.

    The window's [min, max] is widened by ``tolerance`` (relative).
    ``tolerance=0.05`` means a value must leave the recent envelope by
    more than 5% of its magnitude to be flagged — already wider than
    most float fraction-flip losses.
    """

    window: int = 32
    tolerance: float = 0.05

    def __post_init__(self) -> None:
        if self.window < 2:
            raise ConfigurationError("window must be at least 2")
        if self.tolerance < 0:
            raise ConfigurationError("tolerance must be non-negative")
        self._history: Deque[float] = deque(maxlen=self.window)
        self.flags = 0
        self.observations = 0

    def bounds(self) -> Optional[Tuple[float, float]]:
        if len(self._history) < 2:
            return None
        low = min(self._history)
        high = max(self._history)
        pad = self.tolerance * max(abs(low), abs(high), 1e-300)
        return low - pad, high + pad

    def observe(self, value: float) -> PredictionOutcome:
        """Check a value against the predicted range, then learn it.

        Flagged values are *not* learned (a detector that learns its
        own anomalies drifts).
        """
        self.observations += 1
        bounds = self.bounds()
        if bounds is None:
            self._history.append(value)
            return PredictionOutcome(value, False, float("-inf"), float("inf"))
        low, high = bounds
        flagged = not (low <= value <= high)
        if flagged:
            self.flags += 1
        else:
            self._history.append(value)
        return PredictionOutcome(value, flagged, low, high)
