"""A lumped-RC thermal model of a multi-core package.

Observation 10's mechanisms all reduce to heat flow:

* *shared cooling*: cores share a package/heatsink, so "one defective
  core only produces errors when other cores are busy" — busy
  neighbours raise the package temperature every core rides on;
* *remaining heat*: a hot testcase leaves the package warm for the next
  one (test-order dependence), so the package needs a thermal time
  constant of tens of seconds;
* *framework efficiency*: a toolchain that burns fewer cycles per test
  generates less heat and reproduces fewer SDCs.

The model is the standard two-level lumped RC network: the package
integrates total power against ambient through ``r_package``, and each
core adds a fast local delta through ``r_core``::

    C_pkg  * dT_pkg/dt   = P_total - (T_pkg - T_ambient) / R_pkg
    C_core * dDelta_i/dt = P_i - Delta_i / R_core
    T_core_i             = T_pkg + Delta_i

Defaults are tuned so an idle package sits near the paper's ~45 °C idle
temperature and a fully-loaded one reaches the high-70s, with single
hot cores pushing beyond 80 °C.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from ..errors import ConfigurationError
from ..cpu.processor import MicroArchitecture

__all__ = ["ThermalParams", "PackageThermalModel"]


@dataclass(frozen=True)
class ThermalParams:
    """Physical constants of the package's thermal network."""

    ambient_c: float = 38.0
    #: Package-to-ambient thermal resistance (°C per watt).  Lowering it
    #: models a stronger cooling device.
    r_package: float = 0.25
    #: Package heat capacity (joules per °C); tau = R*C ≈ 90 s gives the
    #: minutes-scale "remaining heat" the paper observed.
    c_package: float = 360.0
    #: Core-local resistance and capacity (fast, small).
    r_core: float = 1.0
    c_core: float = 5.0
    #: Idle (leakage + uncore) package power in watts.
    idle_power_w: float = 28.0

    def __post_init__(self) -> None:
        for name in ("r_package", "c_package", "r_core", "c_core"):
            if getattr(self, name) <= 0:
                raise ConfigurationError(f"{name} must be positive")


@dataclass
class PackageThermalModel:
    """Steppable thermal state of one processor package."""

    arch: MicroArchitecture
    params: ThermalParams = field(default_factory=ThermalParams)
    #: Cooling effectiveness multiplier on r_package; <1 means stronger
    #: cooling (a controllable cooling device, §5's "controlling the
    #: cooling devices").
    cooling_factor: float = 1.0

    def __post_init__(self) -> None:
        if self.cooling_factor <= 0:
            raise ConfigurationError("cooling_factor must be positive")
        self._t_package = self.equilibrium_package_temp(0.0)
        self._deltas: List[float] = [0.0] * self.arch.physical_cores
        self._elapsed_s = 0.0

    # -- power --------------------------------------------------------------

    @property
    def dynamic_budget_per_core(self) -> float:
        """Max dynamic watts one core draws at heat factor 1.0."""
        return (self.arch.tdp_watts - self.params.idle_power_w) / (
            self.arch.physical_cores
        )

    def _core_power(self, utilization: float, heat_factor: float) -> float:
        if not 0.0 <= utilization <= 1.0:
            raise ConfigurationError("utilization must be in [0, 1]")
        if heat_factor < 0:
            raise ConfigurationError("heat_factor must be non-negative")
        return utilization * heat_factor * self.dynamic_budget_per_core

    # -- equilibria -----------------------------------------------------------

    def equilibrium_package_temp(self, dynamic_power_w: float) -> float:
        total = self.params.idle_power_w + dynamic_power_w
        return self.params.ambient_c + total * self.params.r_package * (
            self.cooling_factor
        )

    def equilibrium_core_temp(
        self, utilization: float, heat_factor: float = 1.0, others_power_w: float = 0.0
    ) -> float:
        """Steady-state temperature of a core under sustained load."""
        p_core = self._core_power(utilization, heat_factor)
        t_pkg = self.equilibrium_package_temp(p_core + others_power_w)
        return t_pkg + p_core * self.params.r_core

    # -- stepping -------------------------------------------------------------

    def step(
        self,
        dt_s: float,
        core_loads: Optional[Dict[int, tuple]] = None,
    ) -> None:
        """Advance the model ``dt_s`` seconds.

        ``core_loads`` maps physical-core id to ``(utilization,
        heat_factor)``; unlisted cores are idle.  Large ``dt_s`` values
        are internally substepped for stability.
        """
        if dt_s <= 0:
            raise ConfigurationError("dt_s must be positive")
        loads = core_loads or {}
        for core_id in loads:
            if not 0 <= core_id < self.arch.physical_cores:
                raise ConfigurationError(f"core {core_id} out of range")
        powers = [0.0] * self.arch.physical_cores
        for core_id, (utilization, heat_factor) in loads.items():
            powers[core_id] = self._core_power(utilization, heat_factor)

        remaining = dt_s
        max_substep = min(self.params.c_core * self.params.r_core, 2.0)
        while remaining > 1e-12:
            h = min(remaining, max_substep)
            total_power = self.params.idle_power_w + sum(powers)
            r_eff = self.params.r_package * self.cooling_factor
            dT = (
                total_power - (self._t_package - self.params.ambient_c) / r_eff
            ) / self.params.c_package
            self._t_package += dT * h
            for i in range(self.arch.physical_cores):
                dD = (powers[i] - self._deltas[i] / self.params.r_core) / (
                    self.params.c_core
                )
                self._deltas[i] += dD * h
            remaining -= h
        self._elapsed_s += dt_s

    def run_to_equilibrium(
        self, core_loads: Optional[Dict[int, tuple]] = None, tolerance: float = 0.01
    ) -> None:
        """Step until temperatures stop changing (used for preheating)."""
        previous = self.package_temp
        for _ in range(10_000):
            self.step(5.0, core_loads)
            if abs(self.package_temp - previous) < tolerance:
                return
            previous = self.package_temp

    # -- readouts -------------------------------------------------------------

    @property
    def package_temp(self) -> float:
        return self._t_package

    @property
    def elapsed_s(self) -> float:
        return self._elapsed_s

    def core_temp(self, core_id: int) -> float:
        if not 0 <= core_id < self.arch.physical_cores:
            raise ConfigurationError(f"core {core_id} out of range")
        return self._t_package + self._deltas[core_id]

    def core_temps(self) -> List[float]:
        return [self._t_package + d for d in self._deltas]

    # -- control ---------------------------------------------------------------

    def set_cooling_factor(self, factor: float) -> None:
        if factor <= 0:
            raise ConfigurationError("cooling factor must be positive")
        self.cooling_factor = factor

    def reset(self, temperature_c: Optional[float] = None) -> None:
        """Reset to idle equilibrium (or a given package temperature)."""
        self._t_package = (
            self.equilibrium_package_temp(0.0)
            if temperature_c is None
            else temperature_c
        )
        self._deltas = [0.0] * self.arch.physical_cores
        self._elapsed_s = 0.0
