"""Fail-in-place capacity accounting (§3.2's Hyrax discussion).

    "Large companies decommission the whole faulty processor ... it
    could be worthwhile to investigate the feasibility of continuing to
    utilize the unaffected cores within a faulty processor [56]."

Given a detected-faulty population, this module compares the two
decommission policies over the fleet:

* **whole-processor** (the industry baseline): every core of every
  detected CPU is lost;
* **fine-grained** (Farron's §7.1 policy): mask the defective cores,
  deprecate the processor only when more than
  :data:`~repro.core.pool.DEPRECATION_CORE_THRESHOLD` cores are bad.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from ..core.pool import DEPRECATION_CORE_THRESHOLD
from ..cpu.processor import Processor

__all__ = ["SalvageReport", "salvage_study"]


@dataclass(frozen=True)
class SalvageReport:
    """Fleet-wide capacity outcome of the two decommission policies."""

    faulty_processors: int
    total_cores_on_faulty: int
    #: Cores lost under whole-processor decommission (== total above).
    cores_lost_whole_processor: int
    #: Cores lost under fine-grained decommission.
    cores_lost_fine_grained: int
    #: Faulty CPUs kept partially in service by fine-grained masking.
    processors_kept: int
    processors_deprecated: int

    @property
    def cores_salvaged(self) -> int:
        return self.cores_lost_whole_processor - self.cores_lost_fine_grained

    @property
    def salvage_fraction(self) -> float:
        """Share of otherwise-discarded capacity that stays in service."""
        if self.cores_lost_whole_processor == 0:
            return 0.0
        return self.cores_salvaged / self.cores_lost_whole_processor


def salvage_study(faulty: Iterable[Processor]) -> SalvageReport:
    """Apply both decommission policies to a faulty population."""
    processors = list(faulty)
    total_cores = 0
    lost_fine = 0
    kept = 0
    deprecated = 0
    for processor in processors:
        cores = processor.arch.physical_cores
        total_cores += cores
        defective = len(processor.defective_cores())
        if defective > DEPRECATION_CORE_THRESHOLD:
            lost_fine += cores
            deprecated += 1
        else:
            lost_fine += defective
            kept += 1
    return SalvageReport(
        faulty_processors=len(processors),
        total_cores_on_faulty=total_cores,
        cores_lost_whole_processor=total_cores,
        cores_lost_fine_grained=lost_fine,
        processors_kept=kept,
        processors_deprecated=deprecated,
    )
