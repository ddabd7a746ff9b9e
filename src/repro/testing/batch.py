"""Struct-of-arrays toolchain screening: one plan per processor, all at
once, bit-identical to the scalar runner.

:class:`BatchScreeningEngine` executes *B* test plans against *B*
processors simultaneously and returns the same :class:`ToolchainReport`
objects — records, consistency records, temperatures, run metadata and
RNG end positions all equal, bit for bit, to looping
``TestFramework.execute(plan, processor)`` per processor.
``TestFramework(engine="batch").execute_batch`` runs groups of two or
more processors here; one processor always screens on the scalar
runner, which is faster for a single lane.  The speedup comes from
where toolchain time actually goes: thermal co-simulation and
temperature readouts, which become lane-parallel NumPy updates on the
existing :class:`~repro.thermal.batch.BatchPackageThermalModel`
(busy-neighbour heating, cross-testcase heat persistence and the
``HEAT_THROTTLE`` ceiling all included, because the very same power
rows drive it).

The draw discipline is the one :mod:`repro.detectors.evaluate`
established for batched engines:

* each lane owns its scalar substream — ``substream(seed, "runner",
  processor_id)`` — so cross-lane execution order is free while
  per-lane draw order is sacred;
* the scalar runner touches its RNG only when a setting's Poisson mean
  is positive, which requires the core temperature to reach the
  setting's ``tmin``.  The engine therefore vectorizes the *no-draw*
  common path (a ``temps >= tmin`` mask over each lane's compiled
  settings) and replays the sparse surviving events through the exact
  scalar helpers — :class:`~repro.faults.trigger.CompiledSetting`
  sampling and ``ToolchainRunner._emit_records`` operand/bitflip
  draws — in scalar window → core → setting order;
* heterogeneous plans run in lockstep global windows: every lane
  advances by its own ``min(WINDOW_S, remaining)`` window each
  iteration
  (:meth:`~repro.thermal.batch.BatchPackageThermalModel.step_lanewise`),
  finished lanes request 0.0 and hold exactly still;
* power rows change only at entry boundaries, so the engine builds the
  model's :meth:`~repro.thermal.batch.BatchPackageThermalModel.drive`
  (``[total power | core powers]``) there and passes it to every
  window in between.

Preheat (Farron's burn-in) is batched with the same check-before-step
semantics and the same burn-in constants as
:meth:`repro.thermal.stress.StressTool.preheat_to`.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Union

import numpy as np

from ..errors import ConfigurationError
from ..obs.context import span
from ..cpu.features import Feature
from ..cpu.processor import Processor
from ..faults.trigger import TriggerModel
from ..thermal.batch import BatchPackageThermalModel
from ..thermal.stress import PREHEAT_DT_S, PREHEAT_TIMEOUT_S, STRESS_HEAT_FACTOR
from .framework import TestPlan, ToolchainReport
from .library import TestcaseLibrary
from .runner import HEAT_THROTTLE, WINDOW_S, TestcaseRun, ToolchainRunner
from .testcase import ConsistencyKind

__all__ = ["BatchScreeningEngine", "screening_record_frame"]


class _Lane:
    """Per-processor execution state threaded through the engine."""

    __slots__ = (
        "index", "processor", "plan", "runner", "report",
        "entry_idx", "run", "settings", "setting_cols", "setting_tmins",
        "default_cores", "col_template", "active_row", "row_is_default",
        "budget", "comp_mnemonics", "has_cache_cons", "has_trx_cons",
    )

    def __init__(self, index, processor, plan, runner):
        self.index = index
        self.processor = processor
        self.plan = plan
        self.runner = runner
        self.report = ToolchainReport(processor_id=processor.processor_id)
        self.entry_idx = -1
        self.run = None
        self.settings: list = []
        self.setting_cols = None
        self.setting_tmins = None
        # Filled by the engine: default-core power/active templates and
        # the defect prefilter (see ``BatchScreeningEngine.__init__``).
        self.default_cores: list = []
        self.col_template = None
        self.active_row = None
        self.row_is_default = False
        self.budget = 0.0
        self.comp_mnemonics: list = []
        self.has_cache_cons = False
        self.has_trx_cons = False


class BatchScreeningEngine:
    """Runs per-processor test plans in lockstep across lanes.

    ``plans`` is either one shared :class:`TestPlan` or a sequence with
    one plan per processor.  ``seed`` is shared: each lane draws from
    its own ``substream(seed, "runner", processor_id)``, as a scalar
    runner built with that seed does.
    After :meth:`run`, :attr:`runners` holds each lane's scalar
    :class:`ToolchainRunner` — its ``_rng.bit_generator.state`` is the
    lane's RNG end position, comparable against the scalar oracle's.
    """

    def __init__(
        self,
        processors: Sequence[Processor],
        plans: Union[TestPlan, Sequence[TestPlan]],
        library: TestcaseLibrary,
        trigger_model: Optional[TriggerModel] = None,
        seed: int = 0,
        heat_scale: float = 1.0,
        obs=None,
    ):
        if not processors:
            raise ConfigurationError("processors must be non-empty")
        n = len(processors)
        if isinstance(plans, TestPlan):
            plans = [plans] * n
        else:
            plans = list(plans)
            if len(plans) != n:
                raise ConfigurationError(
                    f"got {len(plans)} plans for {n} processors"
                )
        self.library = library
        self.trigger = trigger_model or TriggerModel()
        self.heat_scale = heat_scale
        self.obs = obs
        self.lanes = [
            _Lane(
                i,
                processor,
                plans[i],
                ToolchainRunner(
                    processor,
                    trigger_model=self.trigger,
                    seed=seed,
                    heat_scale=heat_scale,
                ),
            )
            for i, processor in enumerate(processors)
        ]
        self.thermal = BatchPackageThermalModel(
            [p.arch for p in processors]
        )
        #: Per-lane thermal clock, the scalar model's ``elapsed_s``
        #: (preheat time included — records carry absolute times).
        self.elapsed = np.zeros(n)
        self.windows = 0
        #: testcase_id → throttled heat factor; shared across lanes
        #: (heat depends only on testcase and heat_scale).
        self._heat: Dict[str, float] = {}
        # Per-lane constants the per-entry hot path leans on: the
        # unmasked-core column templates (one vector multiply writes a
        # power row instead of two scatter assignments), and a defect
        # prefilter — on a full-library sweep most (lane, testcase)
        # pairs trigger nothing, so one mnemonic/feature check skips
        # the whole compile step for them.
        for lane in self.lanes:
            lane.budget = float(
                self.thermal.dynamic_budget_per_core[lane.index]
            )
            lane.default_cores = lane.runner.default_cores()
            template = np.zeros(self.thermal.max_cores)
            template[lane.default_cores] = 1.0
            lane.col_template = template
            lane.active_row = template > 0.0
            mnemonics: Dict[str, None] = {}
            for defect in lane.processor.active_defects():
                if defect.is_consistency:
                    if Feature.CACHE in defect.features:
                        lane.has_cache_cons = True
                    if Feature.TRX_MEM in defect.features:
                        lane.has_trx_cons = True
                else:
                    for mnemonic in defect.instructions:
                        mnemonics[mnemonic] = None
            lane.comp_mnemonics = list(mnemonics)

    @property
    def runners(self) -> List[ToolchainRunner]:
        return [lane.runner for lane in self.lanes]

    # -- phases -------------------------------------------------------------

    def _preheat(self) -> None:
        """Batched ``StressTool.preheat_to`` for lanes whose plan asks.

        Scalar semantics per lane: check ``core_temp(0) >= target``
        *before* each ``PREHEAT_DT_S`` step, stress every physical core
        (masked included) at ``(1.0, STRESS_HEAT_FACTOR)``, give up
        after ``PREHEAT_TIMEOUT_S`` of stepping.  Lanes without a
        preheat target never move.
        """
        thermal = self.thermal
        targets = np.array([
            lane.plan.preheat_to_c
            if lane.plan.preheat_to_c is not None else -np.inf
            for lane in self.lanes
        ])
        if not np.any(targets > -np.inf):
            return
        n = thermal.n_lanes
        stress_powers = thermal.core_powers(
            np.ones(n), np.full(n, STRESS_HEAT_FACTOR)
        )
        preheat_elapsed = np.zeros(n)
        # The heating set shrinks monotonically (a lane drops out when
        # core 0 reaches target or it times out), so the drive only
        # needs rebuilding on the rare iterations where membership
        # changes.
        prev_heating = None
        drive = None
        while True:
            core0 = thermal.t_package + thermal.deltas[:, 0]
            heating = (core0 < targets) & (
                preheat_elapsed < PREHEAT_TIMEOUT_S
            )
            if not heating.any():
                return
            if prev_heating is None or not np.array_equal(
                heating, prev_heating
            ):
                drive = thermal.drive(
                    np.where(heating[:, None], stress_powers, 0.0)
                )
                prev_heating = heating
            dt = np.where(heating, PREHEAT_DT_S, 0.0)
            thermal.step_lanewise(dt, drive)
            preheat_elapsed = preheat_elapsed + dt
            self.elapsed = self.elapsed + dt

    def _start_entry(self, lane: _Lane, powers, active_cols) -> bool:
        """Move a lane to its next plan entry; False when exhausted.

        Mirrors the top of the scalar ``run_testcase`` — same
        validation, same core list, same throttled heat and power per
        run core — and compiles the lane's trigger settings into flat
        arrays for the window mask.
        """
        i = lane.index
        while True:
            lane.entry_idx += 1
            if lane.entry_idx >= len(lane.plan.entries):
                powers[i, :] = 0.0
                active_cols[i, :] = False
                lane.run = None
                lane.settings = []
                return False
            entry = lane.plan.entries[lane.entry_idx]
            break
        runner = lane.runner
        processor = lane.processor
        duration_s = entry.duration_s
        if not math.isfinite(duration_s) or duration_s <= 0:
            raise ConfigurationError(
                f"duration_s must be positive and finite, got {duration_s!r}"
            )
        testcase = self.library[entry.testcase_id]
        heat = self._heat.get(entry.testcase_id)
        if heat is None:
            heat = min(
                testcase.heat_factor() * self.heat_scale,
                HEAT_THROTTLE,
            )
            self._heat[entry.testcase_id] = heat
        # Scalar `_core_power(1.0, heat)` is `(1.0 * heat) * budget`;
        # `1.0 * heat == heat` exactly, so one multiply per lane.
        power = heat * lane.budget
        if entry.cores is None:
            cores = lane.default_cores
            # The 0/1 template times the scalar power writes the whole
            # row in one op: `1.0 * power == power` exactly, masked and
            # padded columns stay 0.0.  The active row only needs
            # rewriting after a custom-cores entry disturbed it.
            np.multiply(lane.col_template, power, out=powers[i])
            if not lane.row_is_default:
                active_cols[i, :] = lane.active_row
                lane.row_is_default = True
        else:
            cores = list(entry.cores)
            masked = [c for c in cores if c in processor.masked_cores]
            if masked:
                raise ConfigurationError(f"cores {masked} are masked out")
            powers[i, :] = 0.0
            active_cols[i, :] = False
            powers[i, cores] = power
            active_cols[i, cores] = True
            lane.row_is_default = False
        lane.run = TestcaseRun(
            processor_id=processor.processor_id,
            testcase_id=testcase.testcase_id,
            duration_s=duration_s,
            start_temp_c=float(self.thermal.t_package[i]),
        )
        # Defect prefilter: when no active defect can match this
        # testcase the compiled settings are empty by construction, so
        # skip the per-core compile walk entirely — no draw changes.
        if testcase.is_consistency:
            matches = (
                lane.has_cache_cons
                if testcase.consistency_kind is ConsistencyKind.COHERENCE
                else lane.has_trx_cons
            )
        else:
            matches = any(
                testcase.uses_instruction(m) for m in lane.comp_mnemonics
            )
        if not matches:
            lane.settings = []
            return True
        settings = []
        cols = []
        tmins = []
        for pcore_id, core_settings in runner.compiled_core_settings(
            testcase, cores
        ):
            for compiled, defect, mnemonic in core_settings:
                settings.append(
                    (compiled, defect, mnemonic, pcore_id, testcase)
                )
                cols.append(pcore_id)
                tmins.append(compiled.tmin_c)
        lane.settings = settings
        if settings:
            lane.setting_cols = np.array(cols, dtype=np.intp)
            lane.setting_tmins = np.array(tmins)
        return True

    def _finish_entry(self, lane: _Lane, run_max) -> None:
        """Scalar end-of-run bookkeeping: temps, store, report totals."""
        i = lane.index
        run = lane.run
        run.end_temp_c = float(self.thermal.t_package[i])
        run.max_core_temp_c = float(run_max[i])
        report = lane.report
        report.store.extend(run.records)
        report.store.extend_consistency(run.consistency_records)
        report.runs.append(run)
        report.total_duration_s += lane.plan.entries[lane.entry_idx].duration_s

    def _collect_window(self, lane: _Lane, temps_row, dt_i, time_i) -> None:
        """Replay one lane's window draws in exact scalar order.

        ``temps_row`` is the lane's post-step core-temperature row; the
        vectorized ``temps >= tmin`` mask drops every setting the
        scalar path would not draw for (its Poisson mean is zero below
        ``tmin``), and the survivors sample and materialize through the
        lane's own scalar runner and RNG.
        """
        hits = np.nonzero(
            temps_row[lane.setting_cols] >= lane.setting_tmins
        )[0]
        if hits.size == 0:
            return
        run = lane.run
        runner = lane.runner
        rng = runner._rng
        for j in hits:
            compiled, defect, mnemonic, pcore_id, testcase = lane.settings[j]
            # Python-float temperature: the ramp/power/pow chain below
            # must run in scalar arithmetic — `10.0 ** x` on a NumPy
            # scalar is not guaranteed the last-ulp-identical libm pow.
            temp = float(temps_row[pcore_id])
            count = compiled.sample_errors(temp, dt_i, rng)
            if count:
                runner._emit_records(
                    run, testcase, defect, mnemonic, pcore_id,
                    count, temp, time_i,
                )

    # -- main loop ----------------------------------------------------------

    def run(self) -> List[ToolchainReport]:
        with span(
            self.obs,
            "toolchain.batch_screen",
            lanes=len(self.lanes),
            mode="batch",
        ):
            reports = self._run()
        if self.obs is not None:
            self.obs.inc(
                "repro_toolchain_screen_lanes_total",
                len(self.lanes),
                mode="batch",
            )
            self.obs.inc(
                "repro_toolchain_screen_windows_total",
                self.windows,
                mode="batch",
            )
            self.obs.inc(
                "repro_toolchain_screen_substeps_total",
                self.thermal.substeps,
                mode="batch",
            )
            self.obs.inc(
                "repro_toolchain_screen_errors_total",
                sum(report.error_count for report in reports),
                mode="batch",
            )
        return reports

    def _run(self) -> List[ToolchainReport]:
        thermal = self.thermal
        n = thermal.n_lanes
        self._preheat()
        powers = np.zeros((n, thermal.max_cores))
        active_cols = np.zeros((n, thermal.max_cores), dtype=bool)
        durations = np.zeros(n)
        entry_elapsed = np.zeros(n)
        run_max = np.zeros(n)
        running = np.zeros(n, dtype=bool)
        # Lanes whose current entry has live settings; everything else
        # rides the pure-array path with no per-window Python work.
        hot: Dict[int, _Lane] = {}
        for lane in self.lanes:
            if self._start_entry(lane, powers, active_cols):
                running[lane.index] = True
                durations[lane.index] = lane.plan.entries[
                    lane.entry_idx
                ].duration_s
                if lane.settings:
                    hot[lane.index] = lane
        # Power rows only change at entry boundaries, so their drive
        # (a pure function of the rows) is carried across the windows
        # in between.
        drive = thermal.drive(powers)
        # Reusable window buffers; the np.*(..., out=) calls perform the
        # exact operations of the allocating forms they replace.
        temps = np.empty((n, thermal.max_cores))
        masked_temps = np.empty_like(temps)
        window_max = np.empty(n)
        while running.any():
            # Scalar window: `step = min(WINDOW_S, duration_s - elapsed)`,
            # loop while `elapsed < duration_s - 1e-9`.
            dt = np.where(
                running, np.minimum(WINDOW_S, durations - entry_elapsed), 0.0
            )
            thermal.step_lanewise(dt, drive)
            entry_elapsed = entry_elapsed + dt
            self.elapsed = self.elapsed + dt
            self.windows += 1
            # `core_temps()` is `t_package[:, None] + deltas`.
            np.add(thermal.t_package[:, None], thermal.deltas, out=temps)
            masked_temps.fill(-np.inf)
            np.copyto(masked_temps, temps, where=active_cols)
            masked_temps.max(axis=1, out=window_max)
            np.maximum(run_max, window_max, out=run_max)
            for i, lane in hot.items():
                if dt[i] > 0.0:
                    self._collect_window(
                        lane, temps[i], float(dt[i]), float(self.elapsed[i])
                    )
            finished = running & (entry_elapsed >= durations - 1e-9)
            if finished.any():
                for i in np.nonzero(finished)[0]:
                    lane = self.lanes[i]
                    self._finish_entry(lane, run_max)
                    run_max[i] = 0.0
                    entry_elapsed[i] = 0.0
                    if self._start_entry(lane, powers, active_cols):
                        durations[i] = lane.plan.entries[
                            lane.entry_idx
                        ].duration_s
                        if lane.settings:
                            hot[int(i)] = lane
                        else:
                            hot.pop(int(i), None)
                    else:
                        running[i] = False
                        hot.pop(int(i), None)
                drive = thermal.drive(powers)
        return [lane.report for lane in self.lanes]


def screening_record_frame(reports: Sequence[ToolchainReport]):
    """Column layout of a screening's computation-SDC records.

    The batched engine materializes the same ``SDCRecord`` stream as
    the scalar runner, so the columnar analytics layer consumes it
    directly: this stacks every report's store into one
    :class:`~repro.analysis.columnar.RecordFrame` (struct-of-arrays,
    record order = lane order then store order).
    """
    from ..analysis.columnar import RecordFrame

    records = []
    for report in reports:
        records.extend(report.store.records)
    return RecordFrame.from_records(records)
