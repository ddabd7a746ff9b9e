"""Cooling devices and their controllers.

Datacenters "strive to minimize temperature influence through cooling
systems" (§5), and one of the two temperature-control options §5 names
is "controlling the cooling devices" — noted as not widely applicable
in Alibaba Cloud, which is why Farron uses workload backoff instead.
Both options exist here so the trade-off can be studied.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from ..errors import ConfigurationError
from .model import PackageThermalModel

__all__ = ["CoolingDevice", "FanCurveController"]


@dataclass
class CoolingDevice:
    """A cooling device with discrete performance levels.

    Level 0 is the baseline (cooling factor 1.0); each higher level
    multiplies the package's thermal resistance by ``step_factor``
    (stronger airflow → lower effective resistance → cooler package).
    """

    model: PackageThermalModel
    levels: int = 4
    step_factor: float = 0.88

    def __post_init__(self) -> None:
        if self.levels < 1:
            raise ConfigurationError("a cooling device needs at least one level")
        if not 0.0 < self.step_factor < 1.0:
            raise ConfigurationError("step_factor must be in (0, 1)")
        self._level = 0
        self._apply()

    @property
    def level(self) -> int:
        return self._level

    def set_level(self, level: int) -> None:
        if not 0 <= level < self.levels:
            raise ConfigurationError(
                f"level {level} out of range (0..{self.levels - 1})"
            )
        self._level = level
        self._apply()

    def _apply(self) -> None:
        self.model.set_cooling_factor(self.step_factor**self._level)


@dataclass
class FanCurveController:
    """A simple hysteretic fan controller driving a cooling device.

    Raises the cooling level when the package exceeds ``high_c``, lowers
    it when the package falls below ``low_c``.  Called once per thermal
    step.
    """

    device: CoolingDevice
    high_c: float = 75.0
    low_c: float = 60.0

    def __post_init__(self) -> None:
        if self.low_c >= self.high_c:
            raise ConfigurationError("low_c must be below high_c")
        self.transitions: List[tuple] = []

    def update(self) -> None:
        temp = self.device.model.package_temp
        if temp > self.high_c and self.device.level < self.device.levels - 1:
            self.device.set_level(self.device.level + 1)
            self.transitions.append((self.device.model.elapsed_s, self.device.level))
        elif temp < self.low_c and self.device.level > 0:
            self.device.set_level(self.device.level - 1)
            self.transitions.append((self.device.model.elapsed_s, self.device.level))
