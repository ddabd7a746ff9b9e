"""Farron's adaptive temperature boundary (§7.1).

Farron separates the cooling-device boundary from the workload-backoff
boundary and makes the latter adaptive:

    "Farron employs a window to track recent temperature monitoring
    records, raising the temperature boundary for workload backoff if
    more than a half of temperature records within the window exceed
    current boundary, indicating that the temperature is within normal
    working range for the application ... If less than half of the
    temperature records exceed current boundary, workload backoff will
    be triggered, until the temperature is below the boundary."

Starting from a conservative initial boundary, Farron thereby
"autonomously learns the standard working temperature" and reserves
backoff for abnormal excursions — which is what keeps the measured
backoff overhead at seconds per hour (§7.2).
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass
from typing import Deque, List, Tuple

from ..errors import ConfigurationError

__all__ = ["BoundaryDecision", "AdaptiveTemperatureBoundary"]


class BoundaryDecision(enum.Enum):
    """Outcome of recording one temperature sample."""

    OK = "ok"                  # at or below the boundary
    RAISED = "raised"          # boundary adapted upward (normal range)
    BACKOFF = "backoff"        # abnormal excursion: back the workload off


@dataclass
class AdaptiveTemperatureBoundary:
    """The workload-backoff boundary with its window-vote adaptation."""

    initial_c: float = 50.0
    #: Increment applied when the window votes to raise.
    step_c: float = 1.0
    window: int = 64
    #: Hard ceiling the boundary may never exceed (the cooling-device
    #: boundary stays above the backoff boundary by design).
    hard_cap_c: float = 85.0
    vote_fraction: float = 0.5
    #: Learning grace: during the first ``warmup_samples`` records the
    #: boundary only learns (a would-be backoff snaps the boundary up to
    #: the observed temperature instead).  Without this, the machine's
    #: initial climb from idle — a slow approach from below — would be
    #: mistaken for an abnormal excursion and throttled ("By iteratively
    #: increasing the temperature threshold, Farron autonomously learns
    #: the standard working temperature", §7.1).
    warmup_samples: int = 64
    #: Margin added when warm-up snaps the boundary to an observed
    #: temperature; the thermal asymptote keeps creeping slightly above
    #: the climb-time reading, and an epsilon exceedance must not count
    #: as an excursion.
    snap_margin_c: float = 1.0

    def __post_init__(self) -> None:
        if self.step_c <= 0:
            raise ConfigurationError("step_c must be positive")
        if self.window <= 0:
            raise ConfigurationError("window must be positive")
        if self.initial_c > self.hard_cap_c:
            raise ConfigurationError("initial boundary above hard cap")
        if not 0.0 < self.vote_fraction < 1.0:
            raise ConfigurationError("vote_fraction must be in (0, 1)")
        self._boundary_c = self.initial_c
        self._records: Deque[float] = deque(maxlen=self.window)
        self._raises: List[Tuple[int, float]] = []
        self._sample_count = 0

    @property
    def boundary_c(self) -> float:
        return self._boundary_c

    @property
    def raise_history(self) -> List[Tuple[int, float]]:
        """(sample index, new boundary) for every adaptation."""
        return list(self._raises)

    def record(self, temperature_c: float) -> BoundaryDecision:
        """Feed one monitoring record; returns the action to take."""
        self._records.append(temperature_c)
        self._sample_count += 1
        if temperature_c <= self._boundary_c:
            return BoundaryDecision.OK
        exceed = sum(1 for t in self._records if t > self._boundary_c)
        if exceed > self.vote_fraction * len(self._records):
            # The app normally runs this hot: learn, don't throttle.
            self._boundary_c = min(
                self._boundary_c + self.step_c, self.hard_cap_c
            )
            self._raises.append((self._sample_count, self._boundary_c))
            return BoundaryDecision.RAISED
        if self._sample_count <= self.warmup_samples:
            self._boundary_c = min(
                temperature_c + self.snap_margin_c, self.hard_cap_c
            )
            self._raises.append((self._sample_count, self._boundary_c))
            return BoundaryDecision.RAISED
        return BoundaryDecision.BACKOFF

    def reset(self, boundary_c: float = None) -> None:
        """Reset window and boundary (e.g. when the app changes)."""
        self._boundary_c = (
            self.initial_c if boundary_c is None else min(boundary_c, self.hard_cap_c)
        )
        self._records.clear()
        self._raises.clear()
        self._sample_count = 0
