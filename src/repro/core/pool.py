"""Reliable resource pool and fine-grained processor decommission (§7.1).

    "If more than two cores within a processor are found defective,
    Farron deprecates the entire processor ... Conversely, Farron masks
    that particular defective core and continues utilizing the other
    cores as normal."

The pool tracks, per processor, which cores are proven reliable (the
application only runs there), which are masked, and whether the whole
processor is deprecated — the alternative to the industry practice of
decommissioning whole machines (Observation 4's discussion, [56]).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Set

from ..errors import DecommissionError
from ..cpu.processor import Processor

__all__ = ["ProcessorStatus", "PoolEntry", "ReliableResourcePool"]

#: §7.1's deprecation threshold: "more than two cores ... defective".
DEPRECATION_CORE_THRESHOLD = 2


class ProcessorStatus(enum.Enum):
    ONLINE = "online"
    SUSPECTED = "suspected"
    DEPRECATED = "deprecated"


@dataclass
class PoolEntry:
    """One managed processor."""

    processor: Processor
    status: ProcessorStatus = ProcessorStatus.ONLINE
    masked_cores: Set[int] = field(default_factory=set)

    def available_cores(self) -> List[int]:
        if self.status is ProcessorStatus.DEPRECATED:
            return []
        return [
            c.pcore_id
            for c in self.processor.physical_cores
            if c.pcore_id not in self.masked_cores
        ]

    def masked_processor(self) -> Processor:
        """The processor with pool masking applied (for runners)."""
        return self.processor.with_masked_cores(sorted(self.masked_cores))


@dataclass
class ReliableResourcePool:
    """The pool of processors applications may run on."""

    entries: Dict[str, PoolEntry] = field(default_factory=dict)

    def add(self, processor: Processor) -> PoolEntry:
        if processor.processor_id in self.entries:
            raise DecommissionError(
                f"{processor.processor_id} already managed"
            )
        entry = PoolEntry(processor=processor)
        self.entries[processor.processor_id] = entry
        return entry

    def entry(self, processor_id: str) -> PoolEntry:
        try:
            return self.entries[processor_id]
        except KeyError:
            raise DecommissionError(
                f"unknown processor {processor_id}"
            ) from None

    # -- status transitions -----------------------------------------------

    def mark_suspected(self, processor_id: str) -> None:
        entry = self.entry(processor_id)
        if entry.status is ProcessorStatus.DEPRECATED:
            raise DecommissionError(
                f"{processor_id} is already deprecated"
            )
        entry.status = ProcessorStatus.SUSPECTED

    def apply_core_verdict(
        self, processor_id: str, defective_cores: Iterable[int]
    ) -> ProcessorStatus:
        """Apply targeted-test findings: mask or deprecate (§7.1)."""
        entry = self.entry(processor_id)
        entry.masked_cores.update(defective_cores)
        if len(entry.masked_cores) > DEPRECATION_CORE_THRESHOLD:
            entry.status = ProcessorStatus.DEPRECATED
        else:
            entry.status = ProcessorStatus.ONLINE
        return entry.status

    # -- queries -------------------------------------------------------------

    def online_processors(self) -> List[PoolEntry]:
        return [
            e for e in self.entries.values() if e.status is ProcessorStatus.ONLINE
        ]

    def deprecated_ids(self) -> List[str]:
        return [
            pid
            for pid, e in self.entries.items()
            if e.status is ProcessorStatus.DEPRECATED
        ]

    def reliable_core_count(self) -> int:
        return sum(len(e.available_cores()) for e in self.entries.values())

    def salvaged_core_count(self) -> int:
        """Cores kept usable on faulty-but-masked processors — capacity
        whole-processor deprecation (the baseline) would have thrown
        away."""
        return sum(
            len(e.available_cores())
            for e in self.entries.values()
            if e.masked_cores and e.status is ProcessorStatus.ONLINE
        )
