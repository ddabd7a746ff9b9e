"""Struct-of-arrays batch integration of the lumped-RC thermal model.

:class:`BatchPackageThermalModel` steps *N* independent package models
at once with NumPy array ops, **bit-identical per lane** to stepping
*N* scalar :class:`~repro.thermal.model.PackageThermalModel` instances.
The Farron co-simulations (:mod:`repro.testing.batch`,
:func:`repro.core.batch_online.simulate_online_batch`) spend most of
their time here, so the inner loop must be array-shaped — but the
benchmarks assert exact parity with the scalar path, so every
floating-point operation must happen in the same order per lane:

* one ``state`` array ``[lanes, 1 + max_cores]`` holds the package
  temperature (column 0) and the core deltas; full-shape constants
  ``offset`` (ambient | 0.0), ``R`` (r_package·cooling_factor | r_core)
  and ``C`` (c_package | c_core) make both Euler updates one kernel,
  ``x + ((q - (x - offset) / R) / C) * h``.  A core column computes
  ``d - 0.0 == d`` and then the scalar model's own operations in its
  order.  The constants stay full-shape: a ``(cols,)`` row broadcast
  makes NumPy loop lane by lane;
* the drive ``q`` (:meth:`drive`) is ``[total power | core powers]``;
  the package power accumulates **core by core**, reproducing the
  scalar ``sum(powers)`` left-to-right order (a pairwise
  ``np.sum(axis=1)`` would round differently);
* lanes with fewer cores than the widest lane are zero-padded; padded
  powers and deltas stay exactly ``0.0`` (their ODE is ``dD = (0 -
  0/R)/C = 0``) and ``x + 0.0 == x`` for the non-negative power sums,
  so padding never perturbs a lane;
* a dt vector becomes per-substep full-shape ``h`` arrays through the
  scalar model's own ``min(remaining, max_substep)`` loop, lane by
  lane; finished lanes get ``h = 0.0`` (``x + dX * 0.0 == x`` for the
  finite thermal states).  The schedule is reused while callers pass
  the same vector, which the window loops almost always do.
"""

from __future__ import annotations

from itertools import zip_longest
from typing import List, Optional, Sequence

import numpy as np

from ..cpu.processor import MicroArchitecture
from ..errors import ConfigurationError
from .model import ThermalParams

__all__ = ["BatchPackageThermalModel"]


class BatchPackageThermalModel:
    """Thermal state of ``N`` packages, stepped together.

    Lane ``i`` mirrors ``PackageThermalModel(archs[i], params,
    cooling_factor)`` exactly.  Readouts are arrays over lanes;
    :attr:`t_package` and :attr:`deltas` are views into :attr:`state`.
    Cores beyond a lane's ``physical_cores`` are padding and must be
    masked by the caller (see :attr:`core_mask`).
    """

    def __init__(
        self,
        archs: Sequence[MicroArchitecture],
        params: Optional[ThermalParams] = None,
        cooling_factor: float = 1.0,
    ):
        if not archs:
            raise ConfigurationError("archs must be non-empty")
        if cooling_factor <= 0:
            raise ConfigurationError("cooling_factor must be positive")
        params = params if params is not None else ThermalParams()
        self.params = params
        self.cooling_factor = cooling_factor
        self.n_lanes = len(archs)
        self.n_cores = np.array(
            [arch.physical_cores for arch in archs], dtype=np.intp
        )
        self.max_cores = int(self.n_cores.max())
        #: [n_lanes, max_cores] — True where the core exists on the lane.
        self.core_mask = (
            np.arange(self.max_cores)[None, :] < self.n_cores[:, None]
        )
        #: Max dynamic watts per core at heat factor 1.0, per lane.
        self.dynamic_budget_per_core = np.array(
            [
                (arch.tdp_watts - params.idle_power_w) / arch.physical_cores
                for arch in archs
            ]
        )
        shape = (self.n_lanes, 1 + self.max_cores)
        self.offset = np.zeros(shape)
        self.offset[:, 0] = params.ambient_c
        self.R = np.full(shape, params.r_core)
        self.R[:, 0] = params.r_package * cooling_factor
        self.C = np.full(shape, params.c_core)
        self.C[:, 0] = params.c_package
        #: [n_lanes, 1 + max_cores]: package temperature | core deltas.
        #: Starts at idle equilibrium, one scalar expression identical
        #: to each lane's own ``equilibrium_package_temp(0.0)``.
        self.state = np.zeros(shape)
        self.state[:, 0] = params.ambient_c + (
            params.idle_power_w * params.r_package * cooling_factor
        )
        self.t_package = self.state[:, 0]
        self.deltas = self.state[:, 1:]
        self._scratch = np.empty(shape)
        self._dt_key: Optional[bytes] = None
        self._schedule: List[np.ndarray] = []
        self.elapsed_s = 0.0
        #: Integration substeps executed so far (all lanes advance
        #: together, so this counts wall work, not lane-substeps).
        #: Telemetry reads it after a run — the hot loop itself never
        #: touches an Observability object.
        self.substeps = 0

    def core_powers(
        self, utilization: np.ndarray, heat_factor: np.ndarray
    ) -> np.ndarray:
        """[n_lanes, max_cores] watts for a uniform all-core load.

        Matches the scalar ``_core_power(utilization, heat_factor)`` —
        the product associates ``(utilization * heat_factor) * budget``
        — applied to every existing core of the lane; padded cores get
        exactly 0.0.  Callers zero out additional columns (masked
        cores) before building the :meth:`drive`.
        """
        if np.any(utilization < 0.0) or np.any(utilization > 1.0):
            raise ConfigurationError("utilization must be in [0, 1]")
        if np.any(heat_factor < 0.0):
            raise ConfigurationError("heat_factor must be non-negative")
        per_core = (
            (utilization * heat_factor) * self.dynamic_budget_per_core
        )
        return np.where(self.core_mask, per_core[:, None], 0.0)

    def drive(self, powers: np.ndarray) -> np.ndarray:
        """``[total power | core powers]`` for ``powers`` [n_lanes, max_cores].

        The total is idle power plus the scalar ``sum(powers)``: it
        starts from 0 and adds core by core, and a padded column adds
        +0.0, which is exact for the non-negative power rows.  A drive
        depends on ``powers`` alone, so callers build it only when
        their power rows change and pass it to every step in between.
        """
        total = np.zeros(self.n_lanes)
        for core in range(self.max_cores):
            total = total + powers[:, core]
        drive = np.empty_like(self.state)
        drive[:, 0] = self.params.idle_power_w + total
        drive[:, 1:] = powers
        return drive

    def step(self, dt_s: float, drive: np.ndarray) -> None:
        """Advance every lane ``dt_s`` seconds under ``drive``.

        ``drive`` comes from :meth:`drive`; the lanes share one clock.
        """
        if dt_s <= 0:
            raise ConfigurationError("dt_s must be positive")
        self.step_lanewise(np.full(self.n_lanes, dt_s), drive)
        self.elapsed_s += dt_s

    def step_lanewise(self, dt_lanes: np.ndarray, drive: np.ndarray) -> None:
        """Advance lane ``i`` by ``dt_lanes[i]`` seconds under ``drive``.

        The screening engine runs heterogeneous plans in lockstep:
        lanes mid-entry request their own window lengths, finished
        lanes request 0.0 and hold exactly still.  Unlike :meth:`step`
        this does not advance :attr:`elapsed_s`; the caller tracks
        per-lane elapsed time itself.
        """
        state, scratch = self.state, self._scratch
        schedule = self._substep_schedule(dt_lanes)
        for h in schedule:
            # Every `out=` call is one IEEE-754 op of the scalar update.
            np.subtract(state, self.offset, out=scratch)
            np.divide(scratch, self.R, out=scratch)
            np.subtract(drive, scratch, out=scratch)
            np.divide(scratch, self.C, out=scratch)
            np.multiply(scratch, h, out=scratch)
            np.add(state, scratch, out=state)
        self.substeps += len(schedule)

    def _substep_schedule(self, dt_lanes: np.ndarray) -> List[np.ndarray]:
        """Full-shape ``h`` per substep of ``dt_lanes``, cached by value."""
        dt = np.asarray(dt_lanes, dtype=float)
        key = dt.tobytes()
        if key == self._dt_key:
            return self._schedule
        if np.any(dt < 0.0):
            raise ConfigurationError("dt_lanes must be non-negative")
        max_substep = min(self.params.c_core * self.params.r_core, 2.0)
        lanes = []
        for remaining in dt.tolist():
            chunks = []
            while remaining > 1e-12:
                h = min(remaining, max_substep)
                chunks.append(h)
                remaining -= h
            lanes.append(chunks)
        schedule: List[np.ndarray] = []
        previous = None
        for column in zip_longest(*lanes, fillvalue=0.0):
            if column != previous:  # a run of equal substeps shares one h
                previous = column
                h = np.repeat(np.array([column]).T, self.state.shape[1], 1)
            schedule.append(h)
        self._dt_key, self._schedule = key, schedule
        return schedule

    # -- readouts -----------------------------------------------------------

    def core_temps(self) -> np.ndarray:
        """[n_lanes, max_cores]; padded columns read as package temp."""
        return self.t_package[:, None] + self.deltas

    def max_core_temp(self, active_mask: np.ndarray) -> np.ndarray:
        """Per-lane max core temperature over ``active_mask`` columns.

        ``active_mask`` is [n_lanes, max_cores] and must select at
        least one core per lane (the scalar simulation's unmasked-core
        list is never empty).
        """
        temps = np.where(active_mask, self.core_temps(), -np.inf)
        return temps.max(axis=1)

    def lane_states(self) -> List[tuple]:
        """Per-lane ``(t_package, deltas)`` snapshots (tests/debugging)."""
        return [
            (float(self.t_package[i]), self.deltas[i, : self.n_cores[i]].tolist())
            for i in range(self.n_lanes)
        ]
