"""Stress-tool equivalent of the Linux ``stress`` command.

§5 uses stress tooling two ways, both reproduced here:

* *preheating*: "before testing, we use stress toolchains ... to
  preheat the processor to the desired temperature" — settings that
  cannot naturally reach high temperatures get driven there first;
* *stress/temperature separation*: "we use stress toolchain on some
  cores that are not under test while execute test workloads on target
  cores", raising utilization with temperature almost unchanged (the
  stress cores produce the heat; the tested core's own contribution is
  negligible).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

from ..errors import ConfigurationError
from .model import PackageThermalModel

__all__ = [
    "PREHEAT_DT_S",
    "PREHEAT_TIMEOUT_S",
    "STRESS_HEAT_FACTOR",
    "StressTool",
]

#: Heat factor of a stressed core: the burn-in load of a preheat.
STRESS_HEAT_FACTOR = 1.4
#: Preheat step, and the stepping time after which a preheat gives up.
PREHEAT_DT_S = 2.0
PREHEAT_TIMEOUT_S = 3_600.0


@dataclass
class StressTool:
    """Drives selected cores at a fixed utilization to generate heat."""

    model: PackageThermalModel
    heat_factor: float = STRESS_HEAT_FACTOR

    def __post_init__(self) -> None:
        if self.heat_factor <= 0:
            raise ConfigurationError("heat_factor must be positive")

    def loads(
        self, cores: Sequence[int], utilization: float = 1.0
    ) -> Dict[int, Tuple[float, float]]:
        """The ``core_loads`` mapping stressing the given cores."""
        return {core: (utilization, self.heat_factor) for core in cores}

    def preheat_to(
        self,
        target_c: float,
        monitor_core: int,
        stress_cores: Optional[Sequence[int]] = None,
        timeout_s: float = PREHEAT_TIMEOUT_S,
        dt_s: float = PREHEAT_DT_S,
    ) -> bool:
        """Heat the package until ``monitor_core`` reaches ``target_c``.

        Stresses all cores by default.  Returns False if the target is
        physically unreachable within the timeout (the caller should
        then use a stronger heat source or accept the ceiling).
        """
        if stress_cores is None:
            stress_cores = range(self.model.arch.physical_cores)
        loads = self.loads(list(stress_cores))
        elapsed = 0.0
        while elapsed < timeout_s:
            if self.model.core_temp(monitor_core) >= target_c:
                return True
            self.model.step(dt_s, loads)
            elapsed += dt_s
        return self.model.core_temp(monitor_core) >= target_c

    def busy_neighbours(
        self, victim_core: int, n_busy: int
    ) -> Dict[int, Tuple[float, float]]:
        """Loads with ``n_busy`` non-victim cores running at full tilt.

        Reproduces the "other core behaviors" case: the victim core is
        idle in this mapping, yet its temperature rises with ``n_busy``
        because the cores share cooling.
        """
        total = self.model.arch.physical_cores
        if not 0 <= victim_core < total:
            raise ConfigurationError(f"core {victim_core} out of range")
        if not 0 <= n_busy < total:
            raise ConfigurationError("n_busy must leave the victim idle")
        others = [c for c in range(total) if c != victim_core]
        return self.loads(others[:n_busy])
