"""SDC records and the record store.

The study "collected more than ten thousand SDC records" (§2.4); every
analysis in §4-§5 is a query over such records.  A record captures the
full context of one corruption: the setting (processor × testcase), the
core, the defective instruction, expected/actual bit patterns, and the
core temperature at occurrence — everything Figures 4-9 need.

Computation records are held as columns.  The runner emits each burst
of errors (one setting, one window) as one context row — processor,
testcase, core, defect, instruction, dtype, temperature and time — plus
the burst's expected and actual patterns as uint64 low/high word
columns (only ``float64x`` has a high word).  :class:`SDCRecords` is
both that buffer and a read-only sequence view of it:

* ``len()`` and truth read the row count;
* :meth:`SDCRecords.columns` hands the columnar analytics the words as
  they are;
* frozen :class:`SDCRecord` objects are built only when a caller
  iterates, indexes or compares the view — the scalar
  :mod:`repro.analysis.bitflips` and :mod:`repro.analysis.precision`
  oracles, which stay the specification — once per store state.

Records added as objects (:meth:`RecordStore.add`, ``extend`` with
``SDCRecord`` items) join the same columns and stay materialized.
Consistency records carry no payload: a burst is one shared frozen
record repeated.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, NamedTuple, Optional, Set, Tuple

import numpy as np

from ..cpu import datatypes
from ..cpu.features import DataType

__all__ = [
    "SDCRecord",
    "SDCRecords",
    "RecordColumns",
    "ConsistencyRecord",
    "RecordStore",
    "SettingKey",
]

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


#: The fields a burst's records share, in :class:`SDCRecord` order:
#: (processor_id, testcase_id, pcore_id, defect_id, instruction, dtype,
#: temperature_c, time_s).
Burst = Tuple[str, str, int, str, str, DataType, float, float]


class RecordColumns(NamedTuple):
    """Every row of an :class:`SDCRecords` as columns.

    ``bursts[k]`` is the shared context of ``counts[k]`` consecutive
    rows; the word columns have one entry per row.
    """

    bursts: Tuple[Burst, ...]
    counts: np.ndarray
    expected_lo: np.ndarray
    expected_hi: np.ndarray
    actual_lo: np.ndarray
    actual_hi: np.ndarray


def _patterns(lo: np.ndarray, hi: np.ndarray) -> List[int]:
    if not hi.any():
        return lo.tolist()
    return [(h << 64) | l for l, h in zip(lo.tolist(), hi.tolist())]


class SDCRecords(Sequence):
    """Computation-SDC records as column buffers, viewed as a sequence.

    Compares equal to another view or a list holding equal records in
    the same order.  Its word arrays are never written in place, so a
    copy shares them.
    """

    __slots__ = ("_bursts", "_counts", "_chunks", "_pending", "_rows", "_objects")

    def __init__(self, records: Iterable[SDCRecord] = ()):
        self._bursts: List[Burst] = []
        self._counts: List[int] = []
        #: (expected_lo, expected_hi, actual_lo, actual_hi) chunks in
        #: row order; a ``None`` high word reads as zeros.
        self._chunks: List[tuple] = []
        #: (expected_bits, actual_bits) of object-added rows that follow
        #: every chunk, not yet converted to words.
        self._pending: List[Tuple[int, int]] = []
        self._rows = 0
        #: Materialized records of the first ``len(_objects)`` rows.
        self._objects: List[SDCRecord] = []
        self.extend(records)

    # -- appending ---------------------------------------------------------

    def append_burst(
        self,
        burst: Burst,
        expected: datatypes.Words,
        actual: datatypes.Words,
    ) -> None:
        """Append ``len(expected[0])`` (at least one) records sharing
        ``burst``'s fields."""
        count = len(expected[0])
        self._flush()
        self._chunks.append((*expected, *actual))
        self._bursts.append(burst)
        self._counts.append(count)
        self._rows += count

    def append(self, record: SDCRecord) -> None:
        self._pending.append((record.expected_bits, record.actual_bits))
        self._bursts.append((
            record.processor_id, record.testcase_id, record.pcore_id,
            record.defect_id, record.instruction, record.dtype,
            record.temperature_c, record.time_s,
        ))
        self._counts.append(1)
        if len(self._objects) == self._rows:
            self._objects.append(record)
        self._rows += 1

    def extend(self, records: Iterable[SDCRecord]) -> None:
        if not isinstance(records, SDCRecords):
            for record in records:
                self.append(record)
            return
        if not records._rows:
            return
        materialized = (
            len(self._objects) == self._rows
            and len(records._objects) == records._rows
        )
        records._flush()
        self._flush()
        self._chunks.extend(records._chunks)
        self._bursts.extend(records._bursts)
        self._counts.extend(records._counts)
        self._rows += records._rows
        if materialized:
            self._objects.extend(records._objects)

    def _flush(self) -> None:
        """Convert pending object rows into one word chunk."""
        pending = self._pending
        if not pending:
            return
        width = 128 if any((e | a) >> 64 for e, a in pending) else 64
        expected = datatypes.split_words([e for e, _ in pending], width)
        actual = datatypes.split_words([a for _, a in pending], width)
        self._chunks.append((*expected, *actual))
        self._pending = []

    # -- columns -------------------------------------------------------------

    def columns(self) -> RecordColumns:
        """Every row's context and words, high words zero-filled.

        The words merge into one chunk of read-only arrays, which the
        view keeps and a frame may share.
        """
        self._flush()
        chunks = self._chunks
        if len(chunks) != 1 or chunks[0][0].flags.writeable:
            chunks[:] = [self._merged(chunks)]
        return RecordColumns(
            tuple(self._bursts), np.array(self._counts, dtype=np.intp),
            *chunks[0],
        )

    @staticmethod
    def _merged(chunks: List[tuple]) -> tuple:
        merged = []
        for position in range(4):
            column = np.concatenate([
                np.zeros(len(chunk[0]), dtype=np.uint64)
                if chunk[position] is None else chunk[position]
                for chunk in chunks
            ]) if chunks else np.zeros(0, dtype=np.uint64)
            column.flags.writeable = False
            merged.append(column)
        return tuple(merged)

    def pcore_ids(self) -> Set[int]:
        """Distinct physical cores the records occurred on."""
        return {burst[2] for burst in self._bursts}

    # -- the sequence view ---------------------------------------------------

    def _materialize(self) -> List[SDCRecord]:
        """The records as objects, building only rows not yet built."""
        objects = self._objects
        start = len(objects)
        if start == self._rows:
            return objects
        columns = self.columns()
        expected = _patterns(
            columns.expected_lo[start:], columns.expected_hi[start:]
        )
        actual = _patterns(columns.actual_lo[start:], columns.actual_hi[start:])
        row = 0
        append = objects.append
        for burst, count in zip(self._bursts, self._counts):
            end = row + count
            if end > start:
                p, t, core, defect, instruction, dtype, temp, time_s = burst
                for index in range(max(row, start) - start, end - start):
                    append(SDCRecord(
                        p, t, core, defect, instruction, dtype,
                        expected[index], actual[index], temp, time_s,
                    ))
            row = end
        return objects

    def __len__(self) -> int:
        return self._rows

    def __bool__(self) -> bool:
        return self._rows > 0

    def __iter__(self) -> Iterator[SDCRecord]:
        return iter(self._materialize())

    def __getitem__(self, index):
        return self._materialize()[index]

    def __eq__(self, other) -> bool:
        if isinstance(other, SDCRecords):
            return self is other or (
                self._rows == other._rows
                and self._materialize() == other._materialize()
            )
        if isinstance(other, list):
            return self._materialize() == other
        return NotImplemented

    __hash__ = None  # mutable, like a list

    def __repr__(self) -> str:
        return f"SDCRecords({self._rows} records in {len(self._bursts)} bursts)"

    def __copy__(self) -> "SDCRecords":
        copy = SDCRecords()
        self._flush()
        copy._bursts = list(self._bursts)
        copy._counts = list(self._counts)
        copy._chunks = list(self._chunks)
        copy._rows = self._rows
        copy._objects = list(self._objects)
        return copy

    def __deepcopy__(self, memo) -> "SDCRecords":
        # Frozen records and never-written word arrays are safe to share.
        return self.__copy__()


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
    """An appendable corpus of SDC records with the study's queries.

    ``records`` is an :class:`SDCRecords` column view; a list passed
    in is taken over as its records.
    """

    records: SDCRecords = field(default_factory=SDCRecords)
    consistency_records: List[ConsistencyRecord] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not isinstance(self.records, SDCRecords):
            self.records = SDCRecords(self.records)

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

    def pcore_ids(self) -> Set[int]:
        """Distinct physical cores with a computation or consistency SDC."""
        cores = self.records.pcore_ids()
        cores.update(record.pcore_id for record in self.consistency_records)
        return cores

    def by_setting(self) -> Dict[SettingKey, List[SDCRecord]]:
        grouped: Dict[SettingKey, List[SDCRecord]] = {}
        for record in self.records:
            grouped.setdefault(record.setting, []).append(record)
        return grouped
