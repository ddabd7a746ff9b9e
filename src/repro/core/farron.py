"""Farron: the complete mitigation workflow (§7, Figure 10).

Farron operates per processor in three states:

* **pre-production** — SDC tests with adequate resources; detected
  defective cores never reach the pool;
* **online** — the application runs on reliable cores under the
  triggering-condition controller (adaptive boundary + workload
  backoff); regular prioritized tests run every three months;
* **suspected** — a regular test failed: in-depth targeted tests map
  the defective cores, then the pool masks them or deprecates the
  processor.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from ..errors import ConfigurationError
from ..cpu.features import Feature
from ..cpu.processor import Processor
from ..testing.framework import TestFramework, ToolchainReport
from ..testing.library import TestcaseLibrary
from ..units import THREE_MONTHS_SECONDS
from .backoff import BackoffController
from .boundary import AdaptiveTemperatureBoundary
from .pool import PoolEntry, ProcessorStatus, ReliableResourcePool
from .priority import PriorityDatabase
from .scheduler import FarronScheduleConfig, FarronScheduler

__all__ = ["FarronConfig", "RoundOutcome", "Farron"]


@dataclass(frozen=True)
class FarronConfig:
    """Top-level knobs of a Farron deployment."""

    #: Pre-production per-testcase duration ("adequate test", §7.1).
    pre_production_per_testcase_s: float = 600.0
    #: Pre-production burn-in temperature.
    pre_production_preheat_c: float = 80.0
    regular_period_s: float = THREE_MONTHS_SECONDS
    schedule: FarronScheduleConfig = field(default_factory=FarronScheduleConfig)
    boundary_initial_c: float = 50.0
    boundary_hard_cap_c: float = 85.0


@dataclass
class RoundOutcome:
    """Result of one Farron regular round on one processor."""

    processor_id: str
    report: ToolchainReport
    #: Status after any suspected-state handling.
    status: ProcessorStatus
    newly_masked_cores: Tuple[int, ...] = ()

    @property
    def detected(self) -> bool:
        return self.report.detected

    @property
    def round_duration_s(self) -> float:
        return self.report.total_duration_s


class Farron:
    """The mitigation system: pool + priorities + scheduler + control."""

    def __init__(
        self,
        library: TestcaseLibrary,
        framework: Optional[TestFramework] = None,
        config: Optional[FarronConfig] = None,
        obs=None,
    ):
        self.library = library
        self.framework = framework or TestFramework(library)
        self.config = config or FarronConfig()
        #: Optional :class:`repro.obs.Observability`: counts test rounds
        #: and their simulated durations (pre-production / regular /
        #: targeted) plus the scheduled windows of each regular plan.
        self.obs = obs
        self.priorities = PriorityDatabase()
        self.pool = ReliableResourcePool()
        self.scheduler = FarronScheduler(
            library, self.priorities, self.config.schedule
        )
        self._boundaries: Dict[str, AdaptiveTemperatureBoundary] = {}
        self._controllers: Dict[str, BackoffController] = {}

    def _record_round(self, kind: str, report: ToolchainReport) -> None:
        if self.obs is None:
            return
        self.obs.inc("repro_farron_rounds_total", kind=kind)
        self.obs.observe(
            "repro_farron_round_sim_seconds",
            report.total_duration_s,
            kind=kind,
        )

    # -- per-processor control-plane objects --------------------------------

    def boundary_for(self, processor_id: str) -> AdaptiveTemperatureBoundary:
        if processor_id not in self._boundaries:
            self._boundaries[processor_id] = AdaptiveTemperatureBoundary(
                initial_c=self.config.boundary_initial_c,
                hard_cap_c=self.config.boundary_hard_cap_c,
            )
        return self._boundaries[processor_id]

    def controller_for(self, processor_id: str) -> BackoffController:
        if processor_id not in self._controllers:
            self._controllers[processor_id] = BackoffController(
                self.boundary_for(processor_id)
            )
        return self._controllers[processor_id]

    # -- pre-production -----------------------------------------------------

    def pre_production_test(self, processor: Processor) -> RoundOutcome:
        """Adequate-resource testing before a processor goes online.

        Detections feed the priority database (suspected testcases) and
        immediately trigger the targeted-test/decommission path; clean
        processors enter the reliable pool.
        """
        return self.pre_production_test_many([processor])[0]

    def pre_production_test_many(
        self, processors: List[Processor]
    ) -> List[RoundOutcome]:
        """:meth:`pre_production_test` for a delivery batch.

        The adequate-resource rounds execute as one group through
        :meth:`TestFramework.execute_batch` — on a batch framework a
        batch of two or more processors runs its burn-in and plan in
        lockstep — then the pool/priority bookkeeping and any
        suspected-state handling apply in input order.  The targeted
        follow-up rounds screen one processor each, on the scalar
        runner.  Bit-identical to looping :meth:`pre_production_test`:
        each round draws from its own processor substream and starts a
        fresh runner.
        """
        entries = [self.pool.add(processor) for processor in processors]
        plan = self.framework.equal_allocation_plan(
            self.config.pre_production_per_testcase_s
        )
        plan.preheat_to_c = self.config.pre_production_preheat_c
        reports = self.framework.execute_batch(plan, processors)
        outcomes = []
        for processor, entry, report in zip(processors, entries, reports):
            self._record_round("pre_production", report)
            if not report.detected:
                outcomes.append(
                    RoundOutcome(
                        processor.processor_id, report, ProcessorStatus.ONLINE
                    )
                )
                continue
            self.priorities.record_processor_detections(
                processor.processor_id, report.failed_testcase_ids
            )
            status, masked = self._handle_suspected(entry, report)
            outcomes.append(
                RoundOutcome(processor.processor_id, report, status, masked)
            )
        return outcomes

    # -- online regular testing -------------------------------------------------

    def regular_test(
        self,
        processor_id: str,
        app_features: Optional[Set[Feature]] = None,
    ) -> RoundOutcome:
        """One prioritized regular-test round (every three months)."""
        entry = self.pool.entry(processor_id)
        if entry.status is ProcessorStatus.DEPRECATED:
            raise ConfigurationError(
                f"{processor_id} is deprecated; nothing to test"
            )
        boundary = self.boundary_for(processor_id)
        plan = self.scheduler.regular_plan(
            processor_id, boundary.boundary_c, app_features
        )
        if self.obs is not None:
            self.obs.inc("repro_farron_windows_total", len(plan.entries))
        report = self.framework.execute(plan, entry.masked_processor())
        self._record_round("regular", report)
        if not report.detected:
            return RoundOutcome(processor_id, report, entry.status)
        self.priorities.record_processor_detections(
            processor_id, report.failed_testcase_ids
        )
        self.pool.mark_suspected(processor_id)
        status, masked = self._handle_suspected(entry, report)
        return RoundOutcome(processor_id, report, status, masked)

    # -- suspected-state handling -------------------------------------------------

    def _handle_suspected(
        self, entry: PoolEntry, report: ToolchainReport
    ) -> Tuple[ProcessorStatus, Tuple[int, ...]]:
        """Targeted tests → core verdict → mask or deprecate (§7.1)."""
        processor_id = entry.processor.processor_id
        boundary = self.boundary_for(processor_id)
        plan = self.scheduler.targeted_plan(processor_id, boundary.boundary_c)
        targeted = self.framework.execute(plan, entry.masked_processor())
        self._record_round("targeted", targeted)
        defective_cores: Set[int] = {
            record.pcore_id for record in targeted.store.records
        }
        defective_cores.update(
            record.pcore_id for record in targeted.store.consistency_records
        )
        # Fall back to the triggering round's records if the targeted
        # round got unlucky — a detection with no located core would
        # otherwise leave a known-bad processor online unmasked.
        if not defective_cores:
            defective_cores = {
                record.pcore_id for record in report.store.records
            }
            defective_cores.update(
                record.pcore_id for record in report.store.consistency_records
            )
        status = self.pool.apply_core_verdict(processor_id, defective_cores)
        return status, tuple(sorted(defective_cores))

    # -- overhead accounting --------------------------------------------------------

    def testing_overhead(self, round_duration_s: float) -> float:
        """Round duration amortized over the regular period (Table 4)."""
        return round_duration_s / self.config.regular_period_s
