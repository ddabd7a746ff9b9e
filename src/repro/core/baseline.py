"""The Alibaba Cloud baseline strategy (§7's comparison point).

    "SDC tests are conducted both in pre-production and every three
    months during production, and in every round of tests, all testcases
    are executed sequentially and allocated with equal testing
    resources.  As for one processor whose core(s) are detected as
    defective, Alibaba Cloud deprecates the entire processor."

One regular round is therefore 633 testcases × 60 s ≈ 10.55 hours,
giving the paper's 0.488% baseline testing overhead; there is no
temperature control and no per-core salvage.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Set

from ..errors import ConfigurationError
from ..cpu.processor import Processor
from ..testing.framework import TestFramework, ToolchainReport
from ..testing.library import TestcaseLibrary
from ..units import THREE_MONTHS_SECONDS

__all__ = ["BaselineConfig", "BaselineOutcome", "AlibabaBaseline"]


@dataclass(frozen=True)
class BaselineConfig:
    #: Equal duration per testcase; 60 s × 633 = 10.55 h per round.
    per_testcase_s: float = 60.0
    #: Pre-production rounds use adequate durations like Farron's.
    pre_production_per_testcase_s: float = 600.0
    regular_period_s: float = THREE_MONTHS_SECONDS


@dataclass
class BaselineOutcome:
    processor_id: str
    report: ToolchainReport
    deprecated: bool

    @property
    def detected(self) -> bool:
        return self.report.detected

    @property
    def round_duration_s(self) -> float:
        return self.report.total_duration_s


class AlibabaBaseline:
    """Equal-allocation testing with whole-processor deprecation."""

    def __init__(
        self,
        library: TestcaseLibrary,
        framework: Optional[TestFramework] = None,
        config: Optional[BaselineConfig] = None,
    ):
        self.library = library
        self.framework = framework or TestFramework(library)
        self.config = config or BaselineConfig()
        self.deprecated: Set[str] = set()

    def pre_production_test(self, processor: Processor) -> BaselineOutcome:
        plan = self.framework.equal_allocation_plan(
            self.config.pre_production_per_testcase_s
        )
        report = self.framework.execute(plan, processor)
        if report.detected:
            self.deprecated.add(processor.processor_id)
        return BaselineOutcome(
            processor.processor_id, report, report.detected
        )

    def regular_test(self, processor: Processor) -> BaselineOutcome:
        """One equal-allocation regular round; deprecate on detection."""
        if processor.processor_id in self.deprecated:
            raise ConfigurationError(
                f"{processor.processor_id} was already deprecated"
            )
        plan = self.framework.equal_allocation_plan(self.config.per_testcase_s)
        report = self.framework.execute(plan, processor)
        if report.detected:
            self.deprecated.add(processor.processor_id)
        return BaselineOutcome(
            processor.processor_id, report, report.detected
        )

    def testing_overhead(self) -> float:
        """Table 4's baseline overhead: round duration / three months."""
        round_s = self.config.per_testcase_s * len(self.library)
        return round_s / self.config.regular_period_s
