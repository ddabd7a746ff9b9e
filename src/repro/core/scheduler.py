"""Farron's efficiency-focused test scheduling (§7.1).

    "Farron mainly allocates testing resources to testcases whose
    targeted feature is utilized by the protected application, focusing
    on those marked as 'suspected' (if any) and 'active'.  Remaining
    testcases are tested in a best-effort mode ... Farron initiates the
    testing by running burn-in workloads and tests every core in a
    processor simultaneously to increase core temperature while
    testing."

Test duration additionally adapts to the temperature boundary
(Observation 10's trade-off): a higher boundary means the application
runs hotter, so more tricky settings are reachable in production and
regular tests must spend longer in the hot regime; a lower boundary is
"allocated less test duration".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Set

from ..errors import SchedulingError
from ..cpu.features import Feature
from ..testing.framework import PlanEntry, TestPlan
from ..testing.library import TestcaseLibrary
from .priority import Priority, PriorityDatabase

__all__ = ["FarronScheduleConfig", "FarronScheduler"]


@dataclass(frozen=True)
class FarronScheduleConfig:
    """Time budgets of one Farron regular-test round."""

    #: Seconds per suspected testcase at the reference boundary.
    suspected_duration_s: float = 240.0
    #: Seconds per active, application-relevant testcase.
    active_duration_s: float = 120.0
    #: Total best-effort budget spread over remaining relevant testcases.
    best_effort_budget_s: float = 600.0
    #: Seconds per best-effort testcase (how many fit is budget-bound).
    best_effort_duration_s: float = 20.0
    #: Burn-in target temperature for the test round (tests run hot;
    #: "testcases in the toolchain are stressful and effectively
    #: generate heat", §7.1).
    burn_in_margin_c: float = 12.0
    #: Boundary at which the durations above are calibrated.
    reference_boundary_c: float = 60.0
    #: Relative duration change per °C of boundary deviation.
    duration_slope_per_c: float = 0.03

    def duration_scale(self, boundary_c: float) -> float:
        """Observation-10 adaptation: hotter boundary → longer tests."""
        scale = 1.0 + self.duration_slope_per_c * (
            boundary_c - self.reference_boundary_c
        )
        return max(scale, 0.25)


class FarronScheduler:
    """Builds prioritized test plans for one protected processor."""

    def __init__(
        self,
        library: TestcaseLibrary,
        priorities: PriorityDatabase,
        config: Optional[FarronScheduleConfig] = None,
    ):
        self.library = library
        self.priorities = priorities
        self.config = config or FarronScheduleConfig()

    def _relevant(self, app_features: Optional[Set[Feature]]) -> List:
        """Testcases whose targeted feature the application uses.

        ``None`` means the application profile is unknown; every
        testcase is then relevant (pre-production behaviour).
        """
        if app_features is None:
            return list(self.library)
        return [tc for tc in self.library if tc.feature in app_features]

    def regular_plan(
        self,
        processor_id: str,
        boundary_c: float,
        app_features: Optional[Set[Feature]] = None,
    ) -> TestPlan:
        """One Farron regular-test round for a processor.

        Ordering is suspected → active → best-effort basic, all on every
        core simultaneously, after burn-in preheat.
        """
        scale = self.config.duration_scale(boundary_c)
        suspected_ids = self.priorities.suspected_for(processor_id)
        relevant = self._relevant(app_features)

        entries: List[PlanEntry] = []
        # Suspected testcases are always included, relevant or not: they
        # have detected errors on this very processor.
        for testcase_id in sorted(suspected_ids):
            if testcase_id in self.library:
                entries.append(
                    PlanEntry(
                        testcase_id,
                        self.config.suspected_duration_s * scale,
                    )
                )
        scheduled = set(suspected_ids)

        for testcase in relevant:
            if testcase.testcase_id in scheduled:
                continue
            if (
                self.priorities.priority_of(testcase.testcase_id, processor_id)
                is Priority.ACTIVE
            ):
                entries.append(
                    PlanEntry(
                        testcase.testcase_id,
                        self.config.active_duration_s * scale,
                    )
                )
                scheduled.add(testcase.testcase_id)

        budget = self.config.best_effort_budget_s * scale
        for testcase in relevant:
            if budget < self.config.best_effort_duration_s:
                break
            if testcase.testcase_id in scheduled:
                continue
            entries.append(
                PlanEntry(
                    testcase.testcase_id, self.config.best_effort_duration_s
                )
            )
            scheduled.add(testcase.testcase_id)
            budget -= self.config.best_effort_duration_s

        if not entries:
            raise SchedulingError(
                "Farron plan is empty; application features match no testcase"
            )
        return TestPlan(
            entries=entries,
            preheat_to_c=boundary_c + self.config.burn_in_margin_c,
        )

    def targeted_plan(
        self, processor_id: str, boundary_c: float
    ) -> TestPlan:
        """In-depth plan for a *suspected* processor (§7.1's targeted
        test): generous time on every suspected testcase, used to map
        which cores are defective before decommission decisions."""
        suspected_ids = sorted(self.priorities.suspected_for(processor_id))
        if not suspected_ids:
            raise SchedulingError(
                f"no suspected testcases recorded for {processor_id}"
            )
        duration = 3.0 * self.config.suspected_duration_s
        return TestPlan(
            entries=[PlanEntry(tc_id, duration) for tc_id in suspected_ids],
            preheat_to_c=boundary_c + self.config.burn_in_margin_c,
        )
