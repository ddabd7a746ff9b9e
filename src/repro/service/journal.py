"""Write-ahead journal for the ``repro serve`` daemon.

Every externally visible state change of the service — a job accepted,
started, finished, failed — is appended here and **fsynced before it is
acknowledged**.  The daemon's crash contract follows directly:

* a client that received a 202 for ``/submit`` is guaranteed the job is
  journaled, so a SIGKILLed daemon restarted on the same state
  directory rediscovers and finishes it;
* a client whose connection died before the ack learns nothing, and
  correspondingly the journal may or may not carry the job — either
  outcome is consistent.

Each segment is a durable sealed log (:mod:`repro.sealed`) named
``journal-000001.wal``: a header line, then one CRC-sealed
canonical-JSON entry per line.  Each daemon incarnation opens a fresh
segment, so the segment sequence doubles as a boot history.

Crash tolerance on the read side follows the sealed-log torn-tail
rule: an unterminated **final** line of any segment is dropped and
reported (that was the in-flight append when that incarnation died —
by definition unacknowledged), while any other damaged line raises
:class:`~repro.errors.JournalCorruptError` unless the caller opts into
salvage mode, which truncates replay of that segment at the first bad
line and reports the damage.

Entry schema (the ``data`` payload is per-kind)::

    {"seq": 17, "kind": "submit", "job": "job-000004",
     "data": {...}, "crc32": 269356693}

``seq`` is a global, strictly increasing acknowledgment counter that
survives restarts; replay derives the next one.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional

from .. import sealed
from ..errors import JournalCorruptError, JournalError

__all__ = [
    "JOURNAL_FORMAT",
    "JOURNAL_VERSION",
    "JournalEntry",
    "JournalWriter",
    "ReplayReport",
    "replay_journal",
]

JOURNAL_FORMAT = "repro-service-journal"
JOURNAL_VERSION = 1

_PREFIX = "journal-"
_SUFFIX = ".wal"

_JOURNAL = sealed.SealedFormat(
    JOURNAL_FORMAT, JOURNAL_VERSION, "journal segment",
    JournalError, JournalCorruptError,
)


@dataclass(frozen=True)
class JournalEntry:
    """One verified journal record."""

    seq: int
    kind: str
    job: Optional[str]
    data: Dict[str, object]

    @classmethod
    def from_record(cls, record: Dict[str, object]) -> "JournalEntry":
        return cls(
            seq=int(record["seq"]),
            kind=str(record["kind"]),
            job=record.get("job"),  # type: ignore[arg-type]
            data=dict(record.get("data", {})),  # type: ignore[arg-type]
        )


@dataclass
class ReplayReport:
    """What :func:`replay_journal` saw besides the entries."""

    segments: int = 0
    #: Human-readable descriptions of tolerated damage (torn tails,
    #: salvage-mode truncations) — surfaced into the daemon's health
    #: telemetry so silent repair never goes unrecorded.
    problems: List[str] = field(default_factory=list)


class JournalWriter:
    """Appends acknowledged state changes to this incarnation's segment.

    The segment file is created lazily on the first append; creation
    fsyncs the journal directory so the new entry name itself is
    durable.  Every append is flushed and fsynced before :meth:`append`
    returns — the returned sequence number is the acknowledgment token.

    ``post_append`` is the chaos hook: the service test suite installs
    a callable here to tear the freshly written tail or kill the
    process at the exact pre/post-durability boundaries.
    """

    def __init__(
        self,
        directory: os.PathLike,
        *,
        start_seq: int = 1,
        post_append: Optional[Callable[[Path, int], None]] = None,
    ):
        self.directory = Path(directory)
        try:
            self.directory.mkdir(parents=True, exist_ok=True)
        except OSError as error:
            raise JournalError(
                f"cannot create journal directory {directory}: {error}"
            ) from error
        self.path = sealed.next_numbered(self.directory, _PREFIX, _SUFFIX)
        self._seq = int(start_seq)
        self._log: Optional[sealed.SealedLog] = None
        self.post_append = post_append

    @property
    def next_seq(self) -> int:
        return self._seq

    def append(
        self, kind: str, job: Optional[str] = None, **data: object
    ) -> int:
        """Durably record one entry; returns its sequence number.

        When this returns, the entry is fsynced — it is safe to
        acknowledge the corresponding request to a client.
        """
        if self._log is None:
            self._log = sealed.SealedLog(_JOURNAL, self.path, durable=True)
        seq = self._seq
        record: Dict[str, object] = {"seq": seq, "kind": kind, "data": data}
        if job is not None:
            record["job"] = job
        try:
            self._log.append(record)
        except OSError as error:
            raise JournalError(
                f"cannot append to journal {self.path}: {error}"
            ) from error
        self._seq = seq + 1
        if self.post_append is not None:
            self.post_append(self.path, seq)
        return seq

    def close(self) -> None:
        if self._log is not None:
            log, self._log = self._log, None
            log.close()

    def __enter__(self) -> "JournalWriter":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def _replay_segment(
    path: Path, entries: List[JournalEntry], report: ReplayReport,
    salvage: bool,
) -> None:
    records, damage = sealed.read_log(_JOURNAL, path)
    entries.extend(JournalEntry.from_record(record) for record in records)
    if damage is None:
        return
    if damage.torn:
        # The in-flight append of a crashed incarnation — never
        # acknowledged, safe to drop.
        report.problems.append(f"{path.name}: torn tail dropped")
    elif salvage:
        report.problems.append(
            f"{path.name}: line {damage.line} {damage.reason}; segment "
            f"truncated there"
        )
    else:
        raise JournalCorruptError(
            f"journal segment {path} line {damage.line} {damage.reason}"
        )


def replay_journal(
    directory: os.PathLike,
    *,
    salvage: bool = False,
    report: Optional[ReplayReport] = None,
) -> List[JournalEntry]:
    """Verified entries from every segment, in acknowledgment order.

    Entries are returned sorted by ``seq`` (segments are written
    sequentially, so this is also file order).  ``salvage=True`` keeps
    going past mid-segment corruption by truncating that segment's
    replay; the default raises, because losing an *acknowledged* entry
    is exactly what the journal exists to prevent.
    """
    report = report if report is not None else ReplayReport()
    entries: List[JournalEntry] = []
    for path in sealed.numbered_paths(directory, _PREFIX, _SUFFIX):
        report.segments += 1
        _replay_segment(path, entries, report, salvage)
    entries.sort(key=lambda entry: entry.seq)
    return entries
