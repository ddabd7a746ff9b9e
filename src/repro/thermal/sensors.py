"""Temperature monitoring.

The study "monitor[s] the processor temperature during testcase
execution by reading cooling device monitor data from system kernel
file" (§5).  :class:`TemperatureMonitor` plays that role for the
simulation: it samples a thermal model at a fixed period and keeps a
bounded history window — the same window Farron's adaptive temperature
boundary votes over (§7.1).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, List, Optional

from ..errors import ConfigurationError
from .model import PackageThermalModel

__all__ = ["TemperatureSample", "TemperatureMonitor"]


@dataclass(frozen=True)
class TemperatureSample:
    """One reading: simulation time, core id, temperature."""

    time_s: float
    core_id: int
    temperature_c: float


@dataclass
class TemperatureMonitor:
    """Bounded-window temperature sampler over a thermal model."""

    model: PackageThermalModel
    core_id: int
    window: int = 64

    def __post_init__(self) -> None:
        if self.window <= 0:
            raise ConfigurationError("window must be positive")
        self._samples: Deque[TemperatureSample] = deque(maxlen=self.window)

    def sample(self) -> TemperatureSample:
        """Take one reading and append it to the window."""
        reading = TemperatureSample(
            time_s=self.model.elapsed_s,
            core_id=self.core_id,
            temperature_c=self.model.core_temp(self.core_id),
        )
        self._samples.append(reading)
        return reading

    @property
    def readings(self) -> List[TemperatureSample]:
        return list(self._samples)

    @property
    def temperatures(self) -> List[float]:
        return [s.temperature_c for s in self._samples]

    @property
    def latest(self) -> Optional[TemperatureSample]:
        return self._samples[-1] if self._samples else None

    def fraction_above(self, threshold_c: float) -> float:
        """Fraction of windowed readings above a threshold.

        This is the statistic Farron's adaptive boundary votes on:
        "raising the temperature boundary ... if more than a half of
        temperature records within the window exceed current boundary".
        """
        if not self._samples:
            return 0.0
        above = sum(1 for s in self._samples if s.temperature_c > threshold_c)
        return above / len(self._samples)

    def clear(self) -> None:
        self._samples.clear()
