"""The test framework: selection, ordering, and resource allocation.

"According to a user's specification, the framework selects the
testcases to be performed and controls their execution order, resource
allocation (such as CPU time and concurrency) during testing" (§2.3).

A :class:`TestPlan` is the user specification; :class:`TestFramework`
executes plans against processors.  The equal-allocation plan is what
the study's large-scale tests use ("we execute all the testcases in the
toolchain sequentially, and each testcase is allocated with equal test
duration", §2.4) and what the Alibaba baseline in §7 runs; Farron
builds its own prioritized plans in :mod:`repro.core.scheduler`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..errors import ConfigurationError
from ..cpu.processor import Processor
from ..faults.trigger import TriggerModel
from .library import TestcaseLibrary
from .records import RecordStore
from .runner import TestcaseRun, ToolchainRunner

__all__ = ["PlanEntry", "TestPlan", "ToolchainReport", "TestFramework"]


@dataclass(frozen=True)
class PlanEntry:
    """One scheduled testcase execution."""

    testcase_id: str
    duration_s: float
    #: Physical cores to run on; ``None`` means every available core.
    cores: Optional[Tuple[int, ...]] = None

    def __post_init__(self) -> None:
        if self.duration_s <= 0:
            raise ConfigurationError("plan durations must be positive")


@dataclass
class TestPlan:
    """An ordered test specification."""

    __test__ = False  # not a pytest test class


    entries: List[PlanEntry] = field(default_factory=list)
    #: Optional preheat phase before the first testcase (Farron's
    #: burn-in; the baseline does not preheat).
    preheat_to_c: Optional[float] = None

    @property
    def total_duration_s(self) -> float:
        return sum(entry.duration_s for entry in self.entries)

    def testcase_ids(self) -> List[str]:
        return [entry.testcase_id for entry in self.entries]


@dataclass
class ToolchainReport:
    """Everything one plan execution produced."""

    processor_id: str
    runs: List[TestcaseRun] = field(default_factory=list)
    store: RecordStore = field(default_factory=RecordStore)
    total_duration_s: float = 0.0

    @property
    def detected(self) -> bool:
        return any(run.detected for run in self.runs)

    @property
    def failed_testcase_ids(self) -> Set[str]:
        return {run.testcase_id for run in self.runs if run.detected}

    @property
    def error_count(self) -> int:
        return sum(run.error_count for run in self.runs)

    def failed_settings(self) -> Set[Tuple[str, str]]:
        return {
            (self.processor_id, run.testcase_id)
            for run in self.runs
            if run.detected
        }


class TestFramework:
    """Executes test plans; the toolchain's driver component."""

    __test__ = False  # not a pytest test class

    def __init__(
        self,
        library: TestcaseLibrary,
        trigger_model: Optional[TriggerModel] = None,
        seed: int = 0,
        heat_scale: float = 1.0,
        engine: str = "scalar",
    ):
        if engine not in ("scalar", "batch"):
            raise ConfigurationError(
                f"engine must be 'scalar' or 'batch', got {engine!r}"
            )
        self.library = library
        self.trigger = trigger_model or TriggerModel()
        self.seed = seed
        self.heat_scale = heat_scale
        #: ``"scalar"`` runs plans one processor at a time on
        #: :class:`ToolchainRunner` (the oracle); ``"batch"`` routes
        #: single-processor :meth:`execute` calls and every
        #: :meth:`execute_batch` group through the struct-of-arrays
        #: screening engine — bit-identical results either way.
        self.engine = engine

    # -- plan construction ---------------------------------------------------

    def equal_allocation_plan(
        self,
        per_testcase_s: float,
        testcase_ids: Optional[Sequence[str]] = None,
    ) -> TestPlan:
        """All (or selected) testcases sequentially, equal durations."""
        ids = list(testcase_ids) if testcase_ids is not None else self.library.ids()
        return TestPlan(
            entries=[PlanEntry(tc_id, per_testcase_s) for tc_id in ids]
        )

    # -- execution -----------------------------------------------------------

    def runner_for(self, processor: Processor) -> ToolchainRunner:
        return ToolchainRunner(
            processor,
            trigger_model=self.trigger,
            seed=self.seed,
            heat_scale=self.heat_scale,
        )

    def execute(
        self,
        plan: TestPlan,
        processor: Processor,
        runner: Optional[ToolchainRunner] = None,
    ) -> ToolchainReport:
        """Run a plan start to finish on one processor.

        A fresh runner (fresh thermal state at idle equilibrium) is
        created unless one is passed in, in which case remaining heat
        from previous activity carries over — deliberately, since test
        order and prior heat matter (Observation 10).
        """
        if runner is None:
            if self.engine == "batch":
                return self.execute_batch(plan, [processor])[0]
            runner = self.runner_for(processor)
        report = ToolchainReport(processor_id=processor.processor_id)
        if plan.preheat_to_c is not None:
            from ..thermal.stress import StressTool

            StressTool(runner.thermal).preheat_to(
                plan.preheat_to_c, monitor_core=0
            )
        for entry in plan.entries:
            testcase = self.library[entry.testcase_id]
            run = runner.run_testcase(
                testcase,
                entry.duration_s,
                cores=entry.cores,
                store=report.store,
            )
            report.runs.append(run)
            report.total_duration_s += entry.duration_s
        return report

    def execute_batch(
        self,
        plans,
        processors: Sequence[Processor],
        obs=None,
    ) -> List[ToolchainReport]:
        """Run one plan per processor (or a shared plan) as one group.

        With ``engine="batch"`` the whole group executes on the
        struct-of-arrays screening engine; with ``engine="scalar"`` it
        is a plain loop over :meth:`execute`.  Both orders are
        bit-identical — each processor draws from its own substream,
        so grouping is free.
        """
        if isinstance(plans, TestPlan):
            plans = [plans] * len(processors)
        else:
            plans = list(plans)
            if len(plans) != len(processors):
                raise ConfigurationError(
                    f"got {len(plans)} plans for {len(processors)} processors"
                )
        if self.engine == "scalar":
            return [
                self.execute(plan, processor, runner=self.runner_for(processor))
                for plan, processor in zip(plans, processors)
            ]
        from .batch import screen_plans

        return screen_plans(
            processors,
            plans,
            self.library,
            trigger_model=self.trigger,
            seed=self.seed,
            heat_scale=self.heat_scale,
            obs=obs,
        )

    def known_failing_plan(
        self,
        processor: Processor,
        generous_duration_s: float = 1800.0,
        preheat_to_c: float = 88.0,
    ) -> TestPlan:
        """The generous ground-truth plan behind
        :meth:`known_failing_settings`: every testcase that
        structurally matches one of the processor's defects, run long
        and hot."""
        runner = self.runner_for(processor)
        candidates = [
            tc for tc in self.library if runner.can_ever_fail(tc)
        ]
        return TestPlan(
            entries=[
                PlanEntry(tc.testcase_id, generous_duration_s)
                for tc in candidates
            ],
            preheat_to_c=preheat_to_c,
        )

    def known_failing_settings(
        self,
        processor: Processor,
        generous_duration_s: float = 1800.0,
        preheat_to_c: float = 88.0,
    ) -> Set[Tuple[str, str]]:
        """Ground-truth failing settings for a processor.

        Used to define "total known errors" in the coverage metric of
        §7.2 (Figure 11): every testcase that structurally matches a
        defect is run generously, hot, to see whether it can fail at
        all.
        """
        plan = self.known_failing_plan(
            processor, generous_duration_s, preheat_to_c
        )
        report = self.execute(plan, processor)
        return report.failed_settings()
