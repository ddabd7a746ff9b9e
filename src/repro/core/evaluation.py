"""The §7.2 evaluation harness: coverage (Fig. 11) and overhead (Table 4).

Coverage is "the ratio of detected errors to the total known errors in
the faulty processor" for one round of regular tests.  Overhead has two
components for Farron — testing (round duration over the three-month
period) and control (backoff time fraction during online operation) —
and only testing for the baseline (0.488%: 10.55 h / 90 days).

The online simulation reproduces the protection experiment: "We
simulate workloads affected by these errors using our toolchain for
hours and find these workloads do not trigger SDCs with the protection
of Farron", with workload backoff engaging for under a second per hour
thanks to the adaptive boundary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from ..errors import ConfigurationError
from ..obs.context import span
from ..rng import derive_seed, substream
from ..cpu.features import Feature
from ..cpu.processor import Processor
from ..faults.trigger import TriggerModel
from ..testing.framework import TestFramework
from ..testing.library import TestcaseLibrary
from ..testing.runner import HEAT_THROTTLE
from ..thermal.cooling import CoolingDevice
from ..thermal.model import PackageThermalModel
from .baseline import AlibabaBaseline
from .boundary import BoundaryDecision
from .farron import Farron, FarronConfig

__all__ = [
    "ApplicationProfile",
    "CoverageResult",
    "OnlineSimulationResult",
    "OverheadResult",
    "coverage_experiment",
    "coverage_experiment_group",
    "coverage_sweep",
    "simulate_online",
    "overhead_experiment",
]


@dataclass(frozen=True)
class ApplicationProfile:
    """The protected application, as Farron sees it.

    ``instruction_usage`` is executions/second per mnemonic at full
    utilization; utilization scales it (workload backoff therefore also
    reduces instruction usage stress, §5).  The default schedule is a
    steady base load with periodic spikes — the excursions the adaptive
    boundary must distinguish from the standard working range.
    """

    name: str
    features: frozenset
    instruction_usage: Dict[str, float]
    heat_factor: float = 1.0
    base_utilization: float = 0.35
    #: Rare load excursions: the abnormal-temperature events the
    #: adaptive boundary must *not* learn and backoff must clip.  Set
    #: ``spike_utilization == base_utilization`` for a steady app (no
    #: excursions → zero control overhead, like FPU1/FPU2/CNST2's rows
    #: in Table 4).
    spike_utilization: float = 0.9
    spike_period_s: float = 3600.0
    spike_duration_s: float = 120.0
    #: Rate of consistency-sensitive shared-memory operations (lock /
    #: transactional traffic) at full utilization; lets CNST-style
    #: defects corrupt the application too.
    consistency_ops_per_s: float = 0.0

    def requested_utilization(self, time_s: float) -> float:
        if self.spike_period_s <= 0:
            return self.base_utilization
        # Spikes land at the *end* of each period so the first one
        # arrives only after the boundary's warm-up learning completes.
        phase = time_s % self.spike_period_s
        if phase >= self.spike_period_s - self.spike_duration_s:
            return self.spike_utilization
        return self.base_utilization


@dataclass
class CoverageResult:
    """Figure 11's quantity for one (processor, strategy) pair."""

    processor_id: str
    strategy: str
    known_settings: int
    detected_settings: int
    round_duration_s: float

    @property
    def coverage(self) -> float:
        if self.known_settings == 0:
            return math.nan
        return self.detected_settings / self.known_settings


def coverage_experiment(
    processor: Processor,
    library: TestcaseLibrary,
    strategy: str,
    known: Optional[Set[Tuple[str, str]]] = None,
    framework: Optional[TestFramework] = None,
    app_features: Optional[Set[Feature]] = None,
    seed: int = 0,
) -> CoverageResult:
    """One regular-round coverage measurement (Fig. 11).

    For Farron, priorities are seeded the way production seeds them: a
    pre-production adequate round on the same processor populates the
    suspected set, then coverage is measured on a fresh regular round.
    """
    framework = framework or TestFramework(library, seed=seed)
    if known is None:
        known = framework.known_failing_settings(processor)
    if strategy == "baseline":
        baseline = AlibabaBaseline(library, framework=framework)
        plan = framework.equal_allocation_plan(
            baseline.config.per_testcase_s
        )
        report = framework.execute(plan, processor)
        detected = report.failed_settings() & known
        return CoverageResult(
            processor_id=processor.processor_id,
            strategy="baseline",
            known_settings=len(known),
            detected_settings=len(detected),
            round_duration_s=report.total_duration_s,
        )
    if strategy != "farron":
        raise ConfigurationError(f"unknown strategy {strategy!r}")
    farron = Farron(library, framework=framework)
    # Seed priorities from history: the pre-production round's failures
    # become this processor's suspected testcases (§7.1).
    pre = framework.execute(
        framework.equal_allocation_plan(
            farron.config.pre_production_per_testcase_s
        ),
        processor,
    )
    farron.pool.add(processor)
    farron.priorities.record_processor_detections(
        processor.processor_id, pre.failed_testcase_ids
    )
    boundary = farron.boundary_for(processor.processor_id)
    plan = farron.scheduler.regular_plan(
        processor.processor_id, boundary.boundary_c, app_features
    )
    report = framework.execute(plan, processor)
    detected = report.failed_settings() & known
    return CoverageResult(
        processor_id=processor.processor_id,
        strategy="farron",
        known_settings=len(known),
        detected_settings=len(detected),
        round_duration_s=report.total_duration_s,
    )


def coverage_experiment_group(
    processors: List[Processor],
    library: TestcaseLibrary,
    strategy: str,
    app_features: Optional[Set[Feature]] = None,
    seeds: Optional[List[int]] = None,
    obs=None,
) -> List[CoverageResult]:
    """:func:`coverage_experiment` for a group, phase-batched.

    Bit-identical to calling :func:`coverage_experiment` per processor
    with the matching seed: every ``framework.execute`` inside the
    scalar experiment starts a fresh runner — fresh substream position,
    idle-equilibrium thermal state — so each phase (ground truth,
    pre-production seeding, the measured regular round) batches across
    the whole group with no cross-lane coupling.  Heterogeneous phases
    (per-processor candidate plans, Farron's prioritized plans) run in
    lockstep on the batch engine.
    """
    if strategy not in ("baseline", "farron"):
        raise ConfigurationError(f"unknown strategy {strategy!r}")
    from ..testing.batch import screen_plans
    from ..testing.framework import TestFramework as _TF

    n = len(processors)
    seeds = [0] * n if seeds is None else list(seeds)
    if len(seeds) != n:
        raise ConfigurationError(f"got {len(seeds)} seeds for {n} processors")
    frameworks = [
        _TF(library, seed=seed) for seed in seeds
    ]
    with span(
        obs, "coverage.group", lanes=n, strategy=strategy, mode="batch"
    ):
        # Ground truth: per-processor generous candidate plans.
        known_plans = [
            fw.known_failing_plan(processor)
            for fw, processor in zip(frameworks, processors)
        ]
        known = [
            report.failed_settings()
            for report in screen_plans(
                processors, known_plans, library, seed=seeds, obs=obs
            )
        ]
        if strategy == "baseline":
            per_testcase_s = AlibabaBaseline(library).config.per_testcase_s
            plans = [
                fw.equal_allocation_plan(per_testcase_s) for fw in frameworks
            ]
            reports = screen_plans(
                processors, plans, library, seed=seeds, obs=obs
            )
            return [
                CoverageResult(
                    processor_id=processor.processor_id,
                    strategy="baseline",
                    known_settings=len(known[i]),
                    detected_settings=len(
                        reports[i].failed_settings() & known[i]
                    ),
                    round_duration_s=reports[i].total_duration_s,
                )
                for i, processor in enumerate(processors)
            ]
        # Farron: a pre-production round seeds each processor's
        # priorities, then the measured regular round runs the
        # scheduler's prioritized plan.
        farrons = [Farron(library, framework=fw) for fw in frameworks]
        pre_plans = [
            fw.equal_allocation_plan(
                farron.config.pre_production_per_testcase_s
            )
            for fw, farron in zip(frameworks, farrons)
        ]
        pre_reports = screen_plans(
            processors, pre_plans, library, seed=seeds, obs=obs
        )
        regular_plans = []
        for i, processor in enumerate(processors):
            farron = farrons[i]
            farron.pool.add(processor)
            farron.priorities.record_processor_detections(
                processor.processor_id, pre_reports[i].failed_testcase_ids
            )
            boundary = farron.boundary_for(processor.processor_id)
            regular_plans.append(
                farron.scheduler.regular_plan(
                    processor.processor_id, boundary.boundary_c, app_features
                )
            )
        reports = screen_plans(
            processors, regular_plans, library, seed=seeds, obs=obs
        )
    return [
        CoverageResult(
            processor_id=processor.processor_id,
            strategy="farron",
            known_settings=len(known[i]),
            detected_settings=len(reports[i].failed_settings() & known[i]),
            round_duration_s=reports[i].total_duration_s,
        )
        for i, processor in enumerate(processors)
    ]


# Per-worker context for coverage_sweep: the library and app features
# are shipped once per worker process (initializer), not once per task.
_SWEEP_CONTEXT: Dict[str, object] = {}


def _coverage_sweep_init(library, app_features) -> None:
    _SWEEP_CONTEXT["library"] = library
    _SWEEP_CONTEXT["app_features"] = app_features


def _coverage_sweep_task(task) -> CoverageResult:
    processor, strategy, seed = task
    return coverage_experiment(
        processor,
        _SWEEP_CONTEXT["library"],
        strategy,
        app_features=_SWEEP_CONTEXT["app_features"],
        seed=seed,
    )


def _coverage_sweep_group_task(task) -> List[CoverageResult]:
    processors, strategy, seeds = task
    return coverage_experiment_group(
        list(processors),
        _SWEEP_CONTEXT["library"],
        strategy,
        app_features=_SWEEP_CONTEXT["app_features"],
        seeds=list(seeds),
    )


def coverage_sweep(
    processors: List[Processor],
    library: TestcaseLibrary,
    strategy: str,
    app_features: Optional[Set[Feature]] = None,
    seed: int = 0,
    workers: Optional[int] = None,
    retries: int = 0,
    timeout_s: Optional[float] = None,
    health=None,
    obs=None,
    engine: str = "scalar",
    group_size: int = 16,
) -> List[CoverageResult]:
    """Figure 11 across many processors, process-parallel and supervised.

    Each processor's experiment is seeded from its own id
    (``derive_seed(seed, "coverage-sweep", processor_id)``) and results
    come back in processor order, so the output is bit-identical for
    any ``workers`` value — parallelism only changes wall-clock time.
    Retries and pool degradation re-run pure tasks, so supervision
    (``retries``, ``timeout_s``, ``health`` — see
    :func:`repro.perf.parallel.deterministic_map`) never changes
    results either; a sweep item that keeps failing surfaces as
    :class:`~repro.errors.TransientWorkerError` naming the processor.

    ``engine="batch"`` groups ``group_size`` processors per worker
    task and runs each group's experiment phases on the batched
    screening engine (:func:`coverage_experiment_group`); per-processor
    seeds are derived exactly as in the scalar sweep, so results stay
    bit-identical — grouping and batching only change wall-clock time.
    The scalar path (one processor per task) is unchanged.
    """
    if strategy not in ("baseline", "farron"):
        # Fail fast in the parent: otherwise every worker task fails
        # one by one, each burning its whole retry budget.
        raise ConfigurationError(f"unknown strategy {strategy!r}")
    if engine not in ("scalar", "batch"):
        raise ConfigurationError(
            f"engine must be 'scalar' or 'batch', got {engine!r}"
        )
    if group_size <= 0:
        raise ConfigurationError("group_size must be positive")
    # Imported here, not at module top: repro.perf.parallel pulls in
    # repro.core.backoff, so a top-level import would be circular when
    # the perf layer loads first.
    from ..perf.parallel import deterministic_map

    if engine == "batch":
        group_tasks = []
        for start in range(0, len(processors), group_size):
            group = processors[start:start + group_size]
            group_tasks.append((
                group,
                strategy,
                [
                    derive_seed(seed, "coverage-sweep", p.processor_id)
                    for p in group
                ],
            ))
        grouped = deterministic_map(
            _coverage_sweep_group_task,
            group_tasks,
            workers=workers,
            initializer=_coverage_sweep_init,
            initargs=(library, app_features),
            retries=retries,
            timeout_s=timeout_s,
            health=health,
            obs=obs,
        )
        return [result for group in grouped for result in group]
    tasks = [
        (
            processor,
            strategy,
            derive_seed(seed, "coverage-sweep", processor.processor_id),
        )
        for processor in processors
    ]
    return deterministic_map(
        _coverage_sweep_task,
        tasks,
        workers=workers,
        initializer=_coverage_sweep_init,
        initargs=(library, app_features),
        retries=retries,
        timeout_s=timeout_s,
        health=health,
        obs=obs,
    )


@dataclass
class OnlineSimulationResult:
    """Outcome of hours of protected (or unprotected) operation."""

    processor_id: str
    app_name: str
    protected: bool
    hours: float
    sdc_count: int
    backoff_seconds: float
    final_boundary_c: float
    max_temp_c: float

    @property
    def backoff_seconds_per_hour(self) -> float:
        return self.backoff_seconds / self.hours if self.hours else 0.0

    @property
    def control_overhead(self) -> float:
        return self.backoff_seconds / (self.hours * 3_600.0) if self.hours else 0.0


def simulate_online(
    processor: Processor,
    app: ApplicationProfile,
    hours: float = 8.0,
    protected: bool = True,
    farron: Optional[Farron] = None,
    library: Optional[TestcaseLibrary] = None,
    trigger: Optional[TriggerModel] = None,
    dt_s: float = 5.0,
    seed: int = 0,
    control: str = "backoff",
    obs=None,
) -> OnlineSimulationResult:
    """Run the application on the processor, with or without Farron.

    SDCs arrive per the trigger law evaluated at live core temperatures
    and utilization-scaled instruction usage.  ``control`` selects the
    §5 temperature-control mechanism when ``protected``:

    * ``"backoff"`` — Farron's choice: clamp application utilization
      (costs performance, universally deployable);
    * ``"cooling"`` — drive the cooling device harder instead ("has no
      impact on application performance, but unfortunately it is not
      widely applicable in Alibaba Cloud yet", §5).
    """
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
                "simulate_online needs a Farron instance or a library"
            )
        farron = Farron(library)
    controller = farron.controller_for(processor.processor_id)
    boundary = farron.boundary_for(processor.processor_id)
    thermal = PackageThermalModel(processor.arch)
    cooling = CoolingDevice(thermal, levels=5) if control == "cooling" else None
    rng = substream(seed, "online", processor.processor_id, app.name)

    cores = [
        c.pcore_id
        for c in processor.physical_cores
        if c.pcore_id not in processor.masked_cores
    ]
    heat = min(app.heat_factor, HEAT_THROTTLE)
    setting_key = f"APP-{app.name}"

    sdc_count = 0
    max_temp = thermal.package_temp
    steps = int(hours * 3_600.0 / dt_s)
    with span(
        obs,
        "online.simulate",
        processor=processor.processor_id,
        app=app.name,
        mode="scalar",
        protected=protected,
        control=control,
        steps=steps,
    ):
        sdc_count, max_temp = _online_step_loop(
            steps, dt_s, app, cores, thermal, boundary, controller,
            cooling, protected, processor, trigger, setting_key, heat,
            rng, max_temp,
        )
    if obs is not None:
        obs.inc("repro_online_steps_total", steps, mode="scalar")
        obs.inc("repro_online_sdc_total", sdc_count, mode="scalar")
        if protected and cooling is None:
            # An engagement is one entry into backoff: the completed
            # episodes plus the one still open at simulation end.
            engagements = len(controller.episodes) + (
                1 if controller.backing_off else 0
            )
            obs.inc(
                "repro_online_backoff_engagements_total",
                engagements,
                mode="scalar",
            )
    backoff_seconds = (
        controller.backoff_seconds
        if protected and cooling is None
        else 0.0
    )
    return OnlineSimulationResult(
        processor_id=processor.processor_id,
        app_name=app.name,
        protected=protected,
        hours=hours,
        sdc_count=sdc_count,
        backoff_seconds=backoff_seconds,
        final_boundary_c=boundary.boundary_c,
        max_temp_c=max_temp,
    )


def _online_step_loop(
    steps, dt_s, app, cores, thermal, boundary, controller, cooling,
    protected, processor, trigger, setting_key, heat, rng, max_temp,
):
    """The hot per-step loop of :func:`simulate_online`, unchanged.

    Hoisted out of the instrumented wrapper so the loop body carries
    zero telemetry branches — all counters are derived after the run.
    """
    sdc_count = 0
    for step in range(steps):
        time_s = step * dt_s
        requested = app.requested_utilization(time_s)
        hottest = max(thermal.core_temp(c) for c in cores)
        if protected and cooling is not None:
            # Cooling-device control: raise the fan level on an
            # excursion, relax when back under; utilization untouched.
            decision = boundary.record(hottest)
            if decision is BoundaryDecision.BACKOFF:
                if cooling.level < cooling.levels - 1:
                    cooling.set_level(cooling.level + 1)
            elif (
                cooling.level > 0
                and hottest < boundary.boundary_c - 4.0
            ):
                cooling.set_level(cooling.level - 1)
            granted = requested
        elif protected:
            granted = controller.step(hottest, dt_s, requested)
        else:
            granted = requested
        thermal.step(dt_s, {c: (granted, heat) for c in cores})
        max_temp = max(max_temp, max(thermal.core_temp(c) for c in cores))
        for core in cores:
            temp = thermal.core_temp(core)
            for defect in processor.active_defects():
                if defect.is_consistency:
                    ops = app.consistency_ops_per_s * granted
                    if ops > 0.0:
                        sdc_count += trigger.sample_errors(
                            defect, setting_key, temp, ops, core, dt_s, rng
                        )
                    continue
                for mnemonic in defect.instructions:
                    usage = app.instruction_usage.get(mnemonic, 0.0) * granted
                    if usage <= 0.0:
                        continue
                    sdc_count += trigger.sample_errors(
                        defect, setting_key, temp, usage, core, dt_s, rng
                    )
    return sdc_count, max_temp


@dataclass
class OverheadResult:
    """Table 4's row for one processor."""

    processor_id: str
    farron_test_overhead: float
    farron_control_overhead: float
    baseline_test_overhead: float

    @property
    def farron_total_overhead(self) -> float:
        return self.farron_test_overhead + self.farron_control_overhead


def overhead_experiment(
    processor: Processor,
    library: TestcaseLibrary,
    app: ApplicationProfile,
    online_hours: float = 8.0,
    framework: Optional[TestFramework] = None,
    seed: int = 0,
) -> OverheadResult:
    """Measure one Table-4 row: Farron test + control vs baseline test."""
    framework = framework or TestFramework(library, seed=seed)
    farron_coverage = coverage_experiment(
        processor, library, "farron", framework=framework, seed=seed
    )
    farron = Farron(library, framework=framework)
    online = simulate_online(
        processor, app, hours=online_hours, protected=True,
        farron=farron, seed=seed,
    )
    baseline = AlibabaBaseline(library, framework=framework)
    return OverheadResult(
        processor_id=processor.processor_id,
        farron_test_overhead=(
            farron_coverage.round_duration_s
            / FarronConfig().regular_period_s
        ),
        farron_control_overhead=online.control_overhead,
        baseline_test_overhead=baseline.testing_overhead(),
    )
