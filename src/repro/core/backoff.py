"""Workload backoff: Farron's run-time triggering-condition control.

§5 proposes two temperature controls — cooling devices and "limiting
the CPU utilization of the workloads (called 'workload backoff')" — and
Farron uses the latter because cooling control "is not widely
applicable in Alibaba Cloud yet".  Backoff also reduces instruction
usage stress, the other triggering condition.

The controller clamps the application's utilization while the core
temperature is above the adaptive boundary and releases it once the
temperature drops back, accounting every throttled second (Table 4's
"Control" overhead; §7.2 measured 0.864 backoff seconds per hour).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Tuple

from ..errors import ConfigurationError
from ..rng import substream
from .boundary import AdaptiveTemperatureBoundary, BoundaryDecision

__all__ = ["BackoffController", "ExponentialBackoff"]


@dataclass(frozen=True)
class ExponentialBackoff:
    """Exponential retry backoff with deterministic jitter.

    The *workload* backoff below throttles an application; this is the
    other backoff the resilience layer needs — how long to wait before
    retrying a flaky worker or shard.  Delays grow geometrically to a
    cap, and jitter (which de-synchronizes a fleet of retrying
    scanners) is derived from ``(seed, key, attempt)`` through
    :func:`repro.rng.substream` rather than the wall clock, so a
    resumed campaign replays the same schedule.
    """

    base_s: float = 0.05
    factor: float = 2.0
    cap_s: float = 5.0
    #: Multiplicative jitter half-width: delay scales by a factor drawn
    #: uniformly from [1 - jitter, 1 + jitter].
    jitter: float = 0.5
    seed: int = 0

    def __post_init__(self) -> None:
        if not math.isfinite(self.base_s) or self.base_s < 0:
            raise ConfigurationError(
                f"base_s must be a non-negative finite number of seconds, "
                f"got {self.base_s!r}"
            )
        if not math.isfinite(self.factor) or self.factor < 1.0:
            raise ConfigurationError(
                f"factor must be >= 1 (delays must not shrink), got "
                f"{self.factor!r}"
            )
        if not math.isfinite(self.cap_s) or self.cap_s < self.base_s:
            raise ConfigurationError(
                f"cap_s must be finite and >= base_s, got {self.cap_s!r}"
            )
        if not 0.0 <= self.jitter < 1.0:
            raise ConfigurationError(
                f"jitter must be in [0, 1), got {self.jitter!r}"
            )

    def delay_s(self, attempt: int, key: str = "") -> float:
        """Delay before retry number ``attempt`` (1-based) of ``key``."""
        if attempt < 1:
            raise ConfigurationError(
                f"attempt is 1-based, got {attempt!r}"
            )
        delay = min(self.base_s * self.factor ** (attempt - 1), self.cap_s)
        if self.jitter > 0.0 and delay > 0.0:
            rng = substream(self.seed, "retry-backoff", key, str(attempt))
            delay *= 1.0 + self.jitter * (2.0 * rng.random() - 1.0)
        return delay


@dataclass
class BackoffController:
    """Applies utilization clamping driven by the adaptive boundary."""

    boundary: AdaptiveTemperatureBoundary
    #: Utilization cap while backing off (0 = full stop).  Low, so an
    #: excursion is clipped before the core crosses any tricky setting's
    #: minimum triggering temperature and recovers quickly.
    backoff_utilization: float = 0.1
    #: Minimum backoff duration.  Without a hold-down, a sustained
    #: excursion makes the controller chatter: release as soon as the
    #: temperature dips under the boundary, immediately re-heat, repeat
    #: — each cycle briefly re-exposing the core above the boundary.
    hold_s: float = 60.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.backoff_utilization < 1.0:
            raise ConfigurationError(
                f"backoff_utilization must be in [0, 1), got "
                f"{self.backoff_utilization!r}"
            )
        if not math.isfinite(self.hold_s) or self.hold_s < 0:
            raise ConfigurationError(
                f"hold_s must be a non-negative finite number of seconds, "
                f"got {self.hold_s!r}"
            )
        self._backing_off = False
        self._backoff_seconds = 0.0
        self._total_seconds = 0.0
        self._episodes: List[Tuple[float, float]] = []
        self._episode_start = 0.0

    @property
    def backing_off(self) -> bool:
        return self._backing_off

    @property
    def backoff_seconds(self) -> float:
        return self._backoff_seconds

    @property
    def total_seconds(self) -> float:
        return self._total_seconds

    @property
    def episodes(self) -> List[Tuple[float, float]]:
        """(start_s, end_s) of completed backoff episodes."""
        return list(self._episodes)

    def backoff_seconds_per_hour(self) -> float:
        """The §7.2 overhead statistic (0.864 s/hour in the paper)."""
        if self._total_seconds == 0.0:
            return 0.0
        return self._backoff_seconds / (self._total_seconds / 3_600.0)

    def control_overhead(self) -> float:
        """Backoff fraction of total time (Table 4's Control column)."""
        if self._total_seconds == 0.0:
            return 0.0
        return self._backoff_seconds / self._total_seconds

    def step(self, temperature_c: float, dt_s: float, requested_utilization: float) -> float:
        """Advance one control interval; returns the granted utilization.

        Backoff engages on a BACKOFF decision and persists until the
        temperature falls back below the boundary ("until the
        temperature is below the boundary", §7.1).
        """
        if not math.isfinite(dt_s) or dt_s <= 0:
            raise ConfigurationError(
                f"dt_s must be a positive finite control interval in "
                f"seconds, got {dt_s!r}"
            )
        if not 0.0 <= requested_utilization <= 1.0:
            # Also rejects NaN (every comparison with NaN is false).
            raise ConfigurationError(
                f"requested_utilization must be in [0, 1], got "
                f"{requested_utilization!r}"
            )
        if not math.isfinite(temperature_c):
            raise ConfigurationError(
                f"temperature_c must be finite (a NaN sample would poison "
                f"the adaptive boundary window), got {temperature_c!r}"
            )
        if self._backing_off:
            # Throttled/recovery temperatures are not "standard working
            # temperature" samples — feeding them into the boundary's
            # window would make every later re-approach of the normal
            # range look like an excursion and re-trigger backoff.
            held_long_enough = (
                self._total_seconds - self._episode_start >= self.hold_s
            )
            if temperature_c <= self.boundary.boundary_c and held_long_enough:
                self._backing_off = False
                self._episodes.append(
                    (self._episode_start, self._total_seconds)
                )
        else:
            decision = self.boundary.record(temperature_c)
            if decision is BoundaryDecision.BACKOFF:
                self._backing_off = True
                self._episode_start = self._total_seconds
        self._total_seconds += dt_s
        if self._backing_off:
            self._backoff_seconds += dt_s
            return min(requested_utilization, self.backoff_utilization)
        return requested_utilization
