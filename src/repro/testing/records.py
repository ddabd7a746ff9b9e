"""SDC records and the record store.

The study "collected more than ten thousand SDC records" (§2.4); every
analysis in §4-§5 is a query over such records.  A record captures the
full context of one corruption: the setting (processor × testcase), the
core, the defective instruction, expected/actual bit patterns, and the
core temperature at occurrence — everything Figures 4-9 need.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Tuple

from ..cpu import datatypes
from ..cpu.features import DataType

__all__ = ["SDCRecord", "ConsistencyRecord", "RecordStore", "SettingKey"]

#: A setting is the paper's unit of reproducibility analysis:
#: (processor_id, testcase_id).
SettingKey = Tuple[str, str]


@dataclass(frozen=True)
class SDCRecord:
    """One computation SDC."""

    processor_id: str
    testcase_id: str
    pcore_id: int
    defect_id: str
    instruction: str
    dtype: DataType
    expected_bits: int
    actual_bits: int
    temperature_c: float
    time_s: float

    @property
    def setting(self) -> SettingKey:
        return (self.processor_id, self.testcase_id)

    @property
    def mask(self) -> int:
        """XOR of expected and actual bit patterns (§4.2's mask)."""
        return self.expected_bits ^ self.actual_bits

    @property
    def expected(self):
        return datatypes.decode(self.expected_bits, self.dtype)

    @property
    def actual(self):
        return datatypes.decode(self.actual_bits, self.dtype)

    @property
    def flipped_bits(self) -> int:
        return datatypes.popcount(self.mask)

    @property
    def precision_loss(self) -> Optional[float]:
        return datatypes.relative_precision_loss(
            self.expected, self.actual, self.dtype
        )


@dataclass(frozen=True)
class ConsistencyRecord:
    """One consistency SDC (stale read or torn commit).

    Consistency SDCs "don't have a deterministic pattern" (§4.2), so no
    expected/actual bits — just the violation context.
    """

    processor_id: str
    testcase_id: str
    pcore_id: int
    defect_id: str
    kind: str  # "coherence" or "txmem"
    temperature_c: float
    time_s: float

    @property
    def setting(self) -> SettingKey:
        return (self.processor_id, self.testcase_id)


@dataclass
class RecordStore:
    """An appendable corpus of SDC records with the study's queries."""

    records: List[SDCRecord] = field(default_factory=list)
    consistency_records: List[ConsistencyRecord] = field(default_factory=list)

    def add(self, record: SDCRecord) -> None:
        self.records.append(record)

    def add_consistency(self, record: ConsistencyRecord) -> None:
        self.consistency_records.append(record)

    def extend(self, records: Iterable[SDCRecord]) -> None:
        self.records.extend(records)

    def extend_consistency(self, records: Iterable[ConsistencyRecord]) -> None:
        self.consistency_records.extend(records)

    def __len__(self) -> int:
        return len(self.records) + len(self.consistency_records)

    def __iter__(self) -> Iterator[SDCRecord]:
        return iter(self.records)

    # -- queries ---------------------------------------------------------------

    def filter(self, predicate: Callable[[SDCRecord], bool]) -> "RecordStore":
        return RecordStore(
            records=[r for r in self.records if predicate(r)],
            consistency_records=list(self.consistency_records),
        )

    def for_dtype(self, dtype: DataType) -> List[SDCRecord]:
        return [r for r in self.records if r.dtype is dtype]

    def for_processor(self, processor_id: str) -> "RecordStore":
        return RecordStore(
            records=[r for r in self.records if r.processor_id == processor_id],
            consistency_records=[
                r
                for r in self.consistency_records
                if r.processor_id == processor_id
            ],
        )

    def for_setting(self, setting: SettingKey) -> List[SDCRecord]:
        return [r for r in self.records if r.setting == setting]

    def settings(self) -> List[SettingKey]:
        """Distinct settings, computation and consistency combined."""
        seen: Dict[SettingKey, None] = {}
        for record in self.records:
            seen.setdefault(record.setting)
        for record in self.consistency_records:
            seen.setdefault(record.setting)
        return list(seen)

    def by_setting(self) -> Dict[SettingKey, List[SDCRecord]]:
        grouped: Dict[SettingKey, List[SDCRecord]] = {}
        for record in self.records:
            grouped.setdefault(record.setting, []).append(record)
        return grouped

    def masks(self, dtype: Optional[DataType] = None) -> List[int]:
        return [
            r.mask for r in self.records if dtype is None or r.dtype is dtype
        ]

    def datatypes_seen(self) -> List[DataType]:
        seen: Dict[DataType, None] = {}
        for record in self.records:
            seen.setdefault(record.dtype)
        return list(seen)
