"""Fleet-scale Farron online simulation: many processors per step.

:func:`simulate_online_batch` runs
:func:`~repro.core.evaluation.simulate_online` for a whole batch of
``(processor, application)`` lanes at once, stepping temperature,
boundary adaptation, workload backoff, and SDC sampling as NumPy array
ops across lanes.  Per lane the output is **bit-identical** to the
scalar simulation (same ``sdc_count``, ``backoff_seconds``,
``final_boundary_c``, ``max_temp_c``), which is what lets the Table 4
and Figure 8 benchmarks run at fleet scale without changing a single
asserted number.

Exactness has three pillars:

* **Thermal** — :class:`~repro.thermal.batch.BatchPackageThermalModel`
  integrates each lane with the scalar model's op order (see its
  module docstring).
* **Control** — the adaptive boundary's window vote and the backoff
  controller's hold/release ladder are pure comparisons plus a handful
  of elementwise float adds, replayed with the scalar branch structure:
  lanes backing off at entry do not feed the window that step, a
  releasing lane records nothing, warm-up snaps mirror
  ``AdaptiveTemperatureBoundary.record`` term for term.
* **Sampling** — the trigger law's transcendentals (``10.0 ** x``,
  ``x ** q``) round differently under NumPy vectorization than under
  scalar libm, so lanes are *gated* vectorized (a draw happens iff the
  Poisson mean is positive, which reduces to cheap comparisons) and
  the rare passing entries are evaluated with scalar Python floats in
  the scalar entry order, drawing from that lane's own
  ``substream(seed, "online", processor_id, app.name)``.

The batch builds fresh per-lane boundary/controller state from the
Farron config — the parity contract is against a scalar run whose
``farron`` has no prior boundary state for the processor (a fresh
:class:`~repro.core.farron.Farron`, which is how the evaluation
harness and benchmarks run it).  ``control="cooling"`` lanes fall back
to the scalar simulation (the cooling-device path drives a per-lane
fan curve and is not on the fleet-scale hot path).
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..errors import ConfigurationError
from ..obs.context import span
from ..cpu.processor import Processor
from ..faults.trigger import TriggerModel
from ..rng import substream
from ..testing.library import TestcaseLibrary
from ..testing.runner import HEAT_THROTTLE
from ..thermal.batch import BatchPackageThermalModel
from .backoff import BackoffController
from .boundary import AdaptiveTemperatureBoundary
from .evaluation import (
    ApplicationProfile,
    OnlineSimulationResult,
    simulate_online,
)
from .farron import Farron

__all__ = ["simulate_online_batch"]


def _lane_entries(
    processor: Processor,
    app: ApplicationProfile,
    trigger: TriggerModel,
    cores: Sequence[int],
) -> List[Tuple[int, float, float, float, float, float, float]]:
    """Flatten one lane's (core, defect-item) SDC entries, scalar order.

    Each entry is ``(core, usage_base, multiplier, tmin, log10_f0,
    slope, stress_exponent)``.  Entries that can never draw — zero core
    multiplier, or zero base usage — are dropped: the scalar loop
    reaches ``sample_errors`` for them with a zero mean (or skips them
    on its own ``> 0`` gates) and never consumes a Poisson draw.
    """
    setting_key = f"APP-{app.name}"
    entries = []
    for core in cores:
        for defect in processor.active_defects():
            multiplier = defect.core_multiplier(core)
            if defect.is_consistency:
                items = [app.consistency_ops_per_s]
            else:
                items = [
                    app.instruction_usage.get(mnemonic, 0.0)
                    for mnemonic in defect.instructions
                ]
            for usage_base in items:
                if usage_base <= 0.0 or multiplier == 0.0:
                    continue
                behaviour = trigger.behaviour(defect, setting_key)
                entries.append((
                    core,
                    usage_base,
                    multiplier,
                    behaviour.tmin_c,
                    behaviour.log10_freq_at_tmin,
                    behaviour.temp_slope,
                    behaviour.stress_exponent,
                ))
    return entries


def simulate_online_batch(
    processors: Sequence[Processor],
    apps: Sequence[ApplicationProfile],
    hours: float = 8.0,
    protected: bool = True,
    farron: Optional[Farron] = None,
    library: Optional[TestcaseLibrary] = None,
    trigger: Optional[TriggerModel] = None,
    dt_s: float = 5.0,
    seed: int = 0,
    control: str = "backoff",
    obs=None,
) -> List[OnlineSimulationResult]:
    """Batch of :func:`simulate_online` runs, bit-identical per lane.

    ``processors[i]`` runs ``apps[i]``; all lanes share ``hours``,
    ``protected``, ``dt_s``, ``seed`` and ``control`` (call the scalar
    function for heterogeneous lanes).  Results come back in lane
    order.
    """
    if len(processors) != len(apps):
        raise ConfigurationError(
            f"got {len(processors)} processors but {len(apps)} apps"
        )
    if not processors:
        return []
    if not math.isfinite(hours) or hours <= 0:
        raise ConfigurationError(f"hours must be positive, got {hours!r}")
    if not math.isfinite(dt_s) or dt_s <= 0:
        raise ConfigurationError(
            f"dt_s must be a positive finite step in seconds, got {dt_s!r}"
        )
    if control not in ("backoff", "cooling"):
        raise ConfigurationError("control must be 'backoff' or 'cooling'")
    trigger = trigger or TriggerModel()
    if farron is None:
        if library is None:
            raise ConfigurationError(
                "simulate_online_batch needs a Farron instance or a library"
            )
        farron = Farron(library)
    if control == "cooling" and protected:
        # Per-lane fan-curve control: not array-shaped; scalar lanes.
        return [
            simulate_online(
                processor, app, hours=hours, protected=protected,
                farron=farron, trigger=trigger, dt_s=dt_s, seed=seed,
                control=control, obs=obs,
            )
            for processor, app in zip(processors, apps)
        ]

    n = len(processors)
    thermal = BatchPackageThermalModel([p.arch for p in processors])
    max_cores = thermal.max_cores

    lane_cores: List[List[int]] = [
        [
            c.pcore_id
            for c in processor.physical_cores
            if c.pcore_id not in processor.masked_cores
        ]
        for processor in processors
    ]
    active_mask = np.zeros((n, max_cores), dtype=bool)
    for lane, cores in enumerate(lane_cores):
        if not cores:
            raise ConfigurationError(
                f"{processors[lane].processor_id} has no unmasked cores"
            )
        active_mask[lane, cores] = True

    heat = np.array(
        [min(app.heat_factor, HEAT_THROTTLE) for app in apps]
    )
    if np.any(heat < 0.0):
        raise ConfigurationError("heat_factor must be non-negative")
    rngs = [
        substream(seed, "online", processor.processor_id, app.name)
        for processor, app in zip(processors, apps)
    ]

    # -- SDC entry arrays, lane-major (the scalar draw order) --------------
    e_lane_list: List[int] = []
    e_rows: List[Tuple[int, float, float, float, float, float, float]] = []
    for lane, (processor, app) in enumerate(zip(processors, apps)):
        lane_rows = _lane_entries(processor, app, trigger, lane_cores[lane])
        e_lane_list += [lane] * len(lane_rows)
        e_rows += lane_rows
    e_lane = np.array(e_lane_list, dtype=np.intp)
    e_core = np.array([r[0] for r in e_rows], dtype=np.intp)
    e_usage_base = np.array([r[1] for r in e_rows])
    e_mult = [r[2] for r in e_rows]
    e_tmin = np.array([r[3] for r in e_rows])
    e_l0 = [r[4] for r in e_rows]
    e_slope = [r[5] for r in e_rows]
    e_sexp = [r[6] for r in e_rows]
    usage_floor = trigger.usage_floor
    ramp_cap = trigger.ramp_cap_c
    reference = trigger.reference_usage
    max_freq = trigger.max_freq_per_min

    # -- application request schedule, vectorized --------------------------
    app_base = np.array([app.base_utilization for app in apps])
    app_spike = np.array([app.spike_utilization for app in apps])
    app_period = np.array([app.spike_period_s for app in apps])
    app_duration = np.array([app.spike_duration_s for app in apps])
    has_spikes = app_period > 0.0
    spike_threshold = app_period - app_duration

    def requested_at(time_s: float) -> np.ndarray:
        # Mirrors ApplicationProfile.requested_utilization: positive
        # operands make np.mod the same libm fmod as Python's ``%``.
        phase = np.mod(time_s, np.where(has_spikes, app_period, 1.0))
        spiking = has_spikes & (phase >= spike_threshold)
        return np.where(spiking, app_spike, app_base)

    # -- boundary + backoff state (fresh per lane, Farron config) ----------
    # Constants come from the very constructors Farron.controller_for
    # uses, so a change to their defaults flows through automatically.
    config = farron.config
    template = BackoffController(AdaptiveTemperatureBoundary(
        initial_c=config.boundary_initial_c,
        hard_cap_c=config.boundary_hard_cap_c,
    ))
    boundary_c = np.full(n, float(template.boundary.initial_c))
    hard_cap = float(template.boundary.hard_cap_c)
    step_c = float(template.boundary.step_c)
    window = int(template.boundary.window)
    vote_fraction = float(template.boundary.vote_fraction)
    warmup_samples = int(template.boundary.warmup_samples)
    snap_margin = float(template.boundary.snap_margin_c)
    backoff_utilization = float(template.backoff_utilization)
    hold_s = float(template.hold_s)
    records = np.zeros((n, window))
    sample_count = np.zeros(n, dtype=np.int64)
    backing = np.zeros(n, dtype=bool)
    episode_start = np.zeros(n)
    backoff_seconds = np.zeros(n)
    total_seconds = 0.0

    sdc_count = [0] * n
    max_temp = thermal.t_package.copy()
    budget = thermal.dynamic_budget_per_core
    window_slots = np.arange(window)[None, :]

    steps = int(hours * 3_600.0 / dt_s)
    drive_key = None
    engagements = 0
    track = obs is not None
    # Core temperatures are read once per step, after it: their masked
    # maximum is both the step's max-temperature sample and the next
    # step's `hottest`, and the SDC gate reads the same array.
    hottest = thermal.max_core_temp(active_mask)
    with span(
        obs, "online.simulate_batch", lanes=n, steps=steps,
        protected=protected, control=control, mode="batch",
    ):
        for step in range(steps):
            time_s = step * dt_s
            requested = requested_at(time_s)
            if np.any(requested < 0.0) or np.any(requested > 1.0):
                raise ConfigurationError(
                    "requested_utilization must be in [0, 1]"
                )
            if protected:
                if not np.all(np.isfinite(hottest)):
                    raise ConfigurationError("temperature_c must be finite")
                # BackoffController.step, lane-parallel.  Branches follow
                # the *entry* backing state: a lane releasing this step
                # records nothing, exactly like the scalar if/else.
                entry_backing = backing.copy()
                release = (
                    entry_backing
                    & (hottest <= boundary_c)
                    & (total_seconds - episode_start >= hold_s)
                )
                backing[release] = False
                feed = ~entry_backing
                if np.any(feed):
                    # AdaptiveTemperatureBoundary.record for feed lanes.
                    slot = sample_count % window
                    records[feed, slot[feed]] = hottest[feed]
                    sample_count[feed] += 1
                    win_len = np.minimum(sample_count, window)
                    over = feed & (hottest > boundary_c)
                    if np.any(over):
                        valid = window_slots < win_len[:, None]
                        exceed = (
                            (records > boundary_c[:, None]) & valid
                        ).sum(axis=1)
                        vote_raise = over & (
                            exceed > vote_fraction * win_len
                        )
                        boundary_c[vote_raise] = np.minimum(
                            boundary_c[vote_raise] + step_c, hard_cap
                        )
                        warm_snap = (
                            over
                            & ~vote_raise
                            & (sample_count <= warmup_samples)
                        )
                        boundary_c[warm_snap] = np.minimum(
                            hottest[warm_snap] + snap_margin, hard_cap
                        )
                        entered = over & ~vote_raise & ~warm_snap
                        backing[entered] = True
                        episode_start[entered] = total_seconds
                        if track:
                            engagements += int(np.count_nonzero(entered))
                total_seconds += dt_s
                backoff_seconds[backing] += dt_s
                granted = np.where(
                    backing,
                    np.minimum(requested, backoff_utilization),
                    requested,
                )
            else:
                granted = requested
            # The drive is a pure function of the granted utilisation,
            # which moves only at spike edges and backoff changes.
            granted_key = granted.tobytes()
            if granted_key != drive_key:
                drive = thermal.drive(np.where(
                    active_mask, ((granted * heat) * budget)[:, None], 0.0
                ))
                drive_key = granted_key
            thermal.step(dt_s, drive)
            temps = thermal.core_temps()
            hottest = np.where(active_mask, temps, -np.inf).max(axis=1)
            np.maximum(max_temp, hottest, out=max_temp)
            # -- SDC sampling: vectorized gate, scalar math on survivors ------
            if len(e_rows):
                usage_e = e_usage_base * granted[e_lane]
                temp_e = temps[e_lane, e_core]
                passing = (
                    (usage_e > 0.0)
                    & (usage_e >= usage_floor)
                    & (temp_e >= e_tmin)
                )
                for index in np.flatnonzero(passing):
                    # TriggerModel.occurrence_frequency with scalar libm
                    # transcendentals (the scalar path's exact op order).
                    usage = float(usage_e[index])
                    ramp = min(float(temp_e[index]) - float(e_tmin[index]),
                               ramp_cap)
                    log10_freq = e_l0[index] + e_slope[index] * ramp
                    stress = (usage / reference) ** e_sexp[index]
                    freq = (10.0 ** log10_freq) * stress * e_mult[index]
                    mean = min(freq, max_freq) * dt_s / 60.0
                    if mean <= 0.0:
                        continue
                    lane = int(e_lane[index])
                    sdc_count[lane] += int(rngs[lane].poisson(mean))

    if obs is not None:
        obs.inc("repro_online_steps_total", steps * n, mode="batch")
        obs.inc("repro_online_sdc_total", sum(sdc_count), mode="batch")
        obs.inc(
            "repro_thermal_substeps_total", thermal.substeps, mode="batch"
        )
        if protected:
            obs.inc(
                "repro_online_backoff_engagements_total",
                engagements,
                mode="batch",
            )
    return [
        OnlineSimulationResult(
            processor_id=processors[lane].processor_id,
            app_name=apps[lane].name,
            protected=protected,
            hours=hours,
            sdc_count=sdc_count[lane],
            backoff_seconds=(
                float(backoff_seconds[lane]) if protected else 0.0
            ),
            final_boundary_c=float(boundary_c[lane]),
            max_temp_c=float(max_temp[lane]),
        )
        for lane in range(n)
    ]
