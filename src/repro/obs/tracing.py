"""Span-based tracing with a deterministic, RNG-free event model.

A :class:`Tracer` records the campaign lifecycle as begin/end span pairs
plus point events, written to a :class:`JsonlTraceSink`.  Two design
rules keep tracing safe to enable on seeded campaigns:

* **Monotonic-clock injection.**  Timestamps come from an injected
  ``clock`` callable (default :func:`time.monotonic`); the tracer never
  touches ``random``/NumPy state, so an instrumented run consumes
  exactly the same :class:`~repro.rng.CountedStream` draws as an
  uninstrumented one.  Tests inject a fake clock to pin ordering.
* **Self-checking JSONL.**  A trace file is a sealed log
  (:mod:`repro.sealed`): a header line identifying the format, then one
  canonical JSON object per line carrying a CRC-32 over its own
  canonical encoding.  :func:`read_trace` verifies every line and (by
  default) tolerates a torn final line.

Spans stitch across processes and threads.  Every record carries the
emitting ``pid`` and a small per-tracer thread index ``tid``; span ids
are only unique *within* a process, so joins key on ``(pid, span)`` —
one trace (e.g. the rotated segments of several daemon incarnations)
can hold records from many processes.

When telemetry is disabled the campaign code holds no tracer at all
(``obs is None``); :class:`NullTracer` exists for call sites that want
an always-valid tracer object, and its span is a shared no-op.
"""

from __future__ import annotations

import itertools
import os
import threading
import time
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from .. import sealed
from ..errors import ObservabilityError, TraceCorruptError

__all__ = [
    "TRACE_FORMAT",
    "TRACE_VERSION",
    "Tracer",
    "NullTracer",
    "JsonlTraceSink",
    "ListTraceSink",
    "read_trace",
    "read_trace_segments",
    "trace_segment_paths",
    "span_key",
    "iter_spans",
]

TRACE_FORMAT = "repro-obs-trace"
TRACE_VERSION = 1


_TRACE = sealed.SealedFormat(
    TRACE_FORMAT, TRACE_VERSION, "trace file",
    ObservabilityError, TraceCorruptError,
)


def trace_segment_paths(base: os.PathLike) -> List[Path]:
    """All trace files rooted at ``base``, oldest first.

    A non-rotating sink writes ``base`` itself; a rotating sink writes
    numbered siblings (``trace-000001.jsonl``, ...).  Both may coexist
    after a configuration change, so the bare file (if present) sorts
    before the numbered segments.
    """
    base = Path(base)
    bare = [base] if base.exists() else []
    return bare + sealed.numbered_paths(
        base.parent, f"{base.stem}-", base.suffix
    )


class JsonlTraceSink:
    """Append trace records to a sealed log (per-line CRC-32).

    The file is opened lazily on the first record and starts with a
    header line ``{"format": "repro-obs-trace", "version": 1}``.  Each
    subsequent line is a canonical JSON object whose ``crc32`` field is
    the CRC-32 of the canonical encoding of the record *without* that
    field, so any line can be verified in isolation.

    With ``max_bytes`` set the sink rotates: records go to numbered
    segments (``trace-000001.jsonl``, ..., like the journal's), a new
    segment opens whenever the current one reaches
    the size bound, and numbering continues from whatever segments
    already exist on disk.  That makes rotation double duty: long
    daemon runs cannot fill the disk, and a restarted incarnation
    extends history instead of truncating it (the non-rotating mode
    overwrites).
    """

    def __init__(self, path: os.PathLike, max_bytes: Optional[int] = None):
        if max_bytes is not None and max_bytes < 1024:
            raise ObservabilityError(
                f"trace max_bytes must be >= 1024, got {max_bytes}"
            )
        self.path = Path(path)
        self.max_bytes = max_bytes
        self._log: Optional[sealed.SealedLog] = None
        self._lock = threading.Lock()

    def emit(self, record: Dict[str, object]) -> None:
        # Serialized: the daemon's event loop and job threads share
        # one sink, and interleaved writes would tear JSONL lines.
        with self._lock:
            if self._log is None:
                target = self.path
                if self.max_bytes is not None:
                    target = sealed.next_numbered(
                        self.path.parent, f"{self.path.stem}-",
                        self.path.suffix,
                    )
                self._log = sealed.SealedLog(_TRACE, target)
            self._log.append(record)
            if self.max_bytes is not None and self._log.size >= self.max_bytes:
                self._close_log()

    def _close_log(self) -> None:
        if self._log is not None:
            log, self._log = self._log, None
            log.close()

    def close(self) -> None:
        with self._lock:
            self._close_log()


class ListTraceSink:
    """In-memory sink for tests and ``obs-report`` post-processing."""

    def __init__(self) -> None:
        self.records: List[Dict[str, object]] = []

    def emit(self, record: Dict[str, object]) -> None:
        self.records.append(record)

    def close(self) -> None:
        pass


class _Span:
    """Context manager emitted by :meth:`Tracer.span`."""

    __slots__ = ("_tracer", "name", "span_id", "parent_id", "_t0")

    def __init__(
        self, tracer: "Tracer", name: str, span_id: int,
        parent_id: Optional[int],
    ):
        self._tracer = tracer
        self.name = name
        self.span_id = span_id
        self.parent_id = parent_id
        self._t0 = 0.0

    def __enter__(self) -> "_Span":
        self._t0 = self._tracer._clock()
        self._tracer._local_stack().append(self.span_id)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        stack = self._tracer._local_stack()
        if stack and stack[-1] == self.span_id:
            stack.pop()
        now = self._tracer._clock()
        end: Dict[str, object] = {
            "kind": "span_end",
            "name": self.name,
            "span": self.span_id,
            "pid": self._tracer._pid,
            "tid": self._tracer._local_tid(),
            "ts": now,
            "dur_s": now - self._t0,
        }
        if exc_type is not None:
            end["error"] = exc_type.__name__
        self._tracer._sink.emit(end)
        return False


class Tracer:
    """Emits nested spans and point events to a sink.

    Span ids are sequential integers assigned at creation; parentage is
    tracked with a *per-thread* stack (the daemon traces from the
    asyncio loop and job executor threads concurrently), so nesting is
    deterministic for a given per-thread call sequence.  Every record
    carries the process id and a small per-tracer thread index.
    """

    def __init__(
        self,
        sink,
        clock: Callable[[], float] = time.monotonic,
    ):
        self._sink = sink
        self._clock = clock
        self._ids = itertools.count(1)
        self._tids = itertools.count(0)
        self._tls = threading.local()
        self._pid = os.getpid()

    def _local_stack(self) -> List[int]:
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = self._tls.stack = []
        return stack

    def _local_tid(self) -> int:
        tid = getattr(self._tls, "tid", None)
        if tid is None:
            tid = self._tls.tid = next(self._tids)
        return tid

    @property
    def enabled(self) -> bool:
        return True

    def span(self, name: str, **attrs: object) -> _Span:
        stack = self._local_stack()
        parent = stack[-1] if stack else None
        span_id = next(self._ids)
        record: Dict[str, object] = {
            "kind": "span_begin",
            "name": name,
            "span": span_id,
            "pid": self._pid,
            "tid": self._local_tid(),
            "ts": self._clock(),
        }
        if parent is not None:
            record["parent"] = parent
        if attrs:
            record["attrs"] = attrs
        self._sink.emit(record)
        return _Span(self, name, span_id, parent)

    def event(self, name: str, **attrs: object) -> None:
        record: Dict[str, object] = {
            "kind": "event",
            "name": name,
            "pid": self._pid,
            "tid": self._local_tid(),
            "ts": self._clock(),
        }
        stack = self._local_stack()
        if stack:
            record["span"] = stack[-1]
        if attrs:
            record["attrs"] = attrs
        self._sink.emit(record)

    def close(self) -> None:
        self._sink.close()


class _NullSpan:
    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class NullTracer:
    """No-op tracer: every method returns immediately.

    A single shared span object is reused for all ``span()`` calls, so
    the disabled path allocates nothing.
    """

    @property
    def enabled(self) -> bool:
        return False

    def span(self, name: str, **attrs: object) -> _NullSpan:
        return _NULL_SPAN

    def event(self, name: str, **attrs: object) -> None:
        pass

    def close(self) -> None:
        pass


def read_trace(
    path: os.PathLike, strict: bool = False
) -> List[Dict[str, object]]:
    """Read and verify a :class:`JsonlTraceSink` file.

    Every line's CRC-32 is recomputed; a damaged line raises
    :class:`~repro.errors.TraceCorruptError`.  A torn tail (an
    unterminated final line, see :mod:`repro.sealed`) is dropped unless
    ``strict`` is true.
    """
    records, damage = sealed.read_log(_TRACE, path)
    if damage is not None and (strict or not damage.torn):
        raise TraceCorruptError(
            f"trace file {path} line {damage.line} {damage.reason}"
        )
    return records


def read_trace_segments(
    base: os.PathLike, strict: bool = False
) -> List[Dict[str, object]]:
    """Read every segment rooted at ``base`` (see
    :func:`trace_segment_paths`), concatenated oldest-first.

    Under the default lenient mode a torn tail is tolerated on *every*
    segment, not just the newest: any segment may have been the final
    write of a SIGKILLed daemon incarnation whose restart moved on to
    the next segment number.  Any other damaged line still raises —
    that is damage, not a crash artifact.
    """
    paths = trace_segment_paths(base)
    records: List[Dict[str, object]] = []
    for path in paths:
        records.extend(read_trace(path, strict=strict))
    return records


def span_key(record: Dict[str, object]) -> Tuple[int, int]:
    """The globally unique join key of a span record.

    Span ids are per-process counters; a trace written by several
    processes holds colliding ``span`` values, so everything that pairs
    begins with ends keys on ``(pid, span)``.  Records from before
    stitching (no ``pid`` field) key under pid 0.
    """
    return (int(record.get("pid", 0)), int(record["span"]))


def iter_spans(
    records: List[Dict[str, object]]
) -> Iterator[Dict[str, object]]:
    """Yield completed spans joined from begin/end records.

    Each yielded dict has ``name``, ``span``, ``pid``, ``parent``,
    ``dur_s``, ``attrs`` and ``error`` (if any) — used by
    ``repro obs-report``.
    """
    begins: Dict[Tuple[int, int], Dict[str, object]] = {}
    for record in records:
        kind = record.get("kind")
        if kind == "span_begin":
            begins[span_key(record)] = record
        elif kind == "span_end":
            begin = begins.pop(span_key(record), None)
            joined: Dict[str, object] = {
                "name": record["name"],
                "span": record["span"],
                "pid": int(record.get("pid", 0)),
                "parent": (begin or {}).get("parent"),
                "dur_s": record.get("dur_s", 0.0),
                "attrs": (begin or {}).get("attrs", {}),
            }
            if "error" in record:
                joined["error"] = record["error"]
            yield joined
