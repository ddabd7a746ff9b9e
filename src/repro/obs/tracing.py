"""Span-based tracing with a deterministic, RNG-free event model.

A :class:`Tracer` records the campaign lifecycle as begin/end span pairs
plus point events, written to a :class:`JsonlTraceSink`.  Two design
rules keep tracing safe to enable on seeded campaigns:

* **Monotonic-clock injection.**  Timestamps come from an injected
  ``clock`` callable (default :func:`time.monotonic`); the tracer never
  touches ``random``/NumPy state, so an instrumented run consumes
  exactly the same :class:`~repro.rng.CountedStream` draws as an
  uninstrumented one.  Tests inject a fake clock to pin ordering.
* **Self-checking JSONL.**  The sink reuses the checkpoint container
  conventions: a header line identifying the format, then one canonical
  JSON object per line carrying a CRC-32 over its own canonical
  encoding.  :func:`read_trace` verifies every line and (by default)
  tolerates a torn final line — the same crash-consistency posture as
  :mod:`repro.resilience.checkpoint`.

Spans stitch across processes and threads.  Every record carries the
emitting ``pid`` and a small per-tracer thread index ``tid``; span ids
are only unique *within* a process, so joins key on ``(pid, span)`` —
one trace (e.g. the rotated segments of several daemon incarnations)
can hold records from many processes.  Traces written by older
releases also hold pool-worker spans whose ``parent_pid`` names the
coordinating process; :func:`iter_spans` and the Chrome exporter still
honour that link.

When telemetry is disabled the campaign code holds no tracer at all
(``obs is None``); :class:`NullTracer` exists for call sites that want
an always-valid tracer object, and its span is a shared no-op.
"""

from __future__ import annotations

import itertools
import json
import os
import re
import threading
import time
import zlib
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Tuple

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


def _canonical(record: Dict[str, object]) -> bytes:
    return json.dumps(
        record, sort_keys=True, separators=(",", ":"), allow_nan=False
    ).encode("utf-8")


def _segment_path(base: Path, index: int) -> Path:
    return base.with_name(f"{base.stem}-{index:06d}{base.suffix}")


def trace_segment_paths(base: os.PathLike) -> List[Path]:
    """All trace files rooted at ``base``, oldest first.

    A non-rotating sink writes ``base`` itself; a rotating sink writes
    numbered siblings (``trace-000001.jsonl``, ...).  Both may coexist
    after a configuration change, so the bare file (if present) sorts
    before the numbered segments.
    """
    base = Path(base)
    paths: List[Path] = []
    if base.exists():
        paths.append(base)
    pattern = re.compile(
        re.escape(base.stem) + r"-(\d{6})" + re.escape(base.suffix) + r"$"
    )
    numbered = [
        (int(match.group(1)), candidate)
        for candidate in base.parent.glob(f"{base.stem}-*{base.suffix}")
        if (match := pattern.match(candidate.name))
    ]
    paths.extend(path for _, path in sorted(numbered))
    return paths


class JsonlTraceSink:
    """Append trace records to a JSONL file with per-line CRC-32.

    The file is opened lazily on the first record and starts with a
    header line ``{"format": "repro-obs-trace", "version": 1}``.  Each
    subsequent line is a canonical JSON object whose ``crc32`` field is
    the CRC-32 of the canonical encoding of the record *without* that
    field, so any line can be verified in isolation.

    With ``max_bytes`` set the sink rotates: records go to numbered
    segments (``trace-000001.jsonl``, ... — the journal's segment
    convention), a new segment opens whenever the current one reaches
    the size bound, and numbering continues from whatever segments
    already exist on disk.  That makes rotation double duty: long
    daemon runs cannot fill the disk, and a restarted incarnation
    extends history instead of truncating it (the non-rotating mode
    opens ``"w"`` and overwrites).
    """

    def __init__(self, path: os.PathLike, max_bytes: Optional[int] = None):
        if max_bytes is not None and max_bytes < 1024:
            raise ObservabilityError(
                f"trace max_bytes must be >= 1024, got {max_bytes}"
            )
        self.path = Path(path)
        self.max_bytes = max_bytes
        self._handle = None
        self._segment_index: Optional[int] = None
        self._lock = threading.Lock()

    def _open_next(self) -> None:
        if self.max_bytes is None:
            target = self.path
        else:
            if self._segment_index is None:
                existing = trace_segment_paths(self.path)
                last = 0
                for path in existing:
                    if path != self.path:
                        last = max(last, int(path.stem.rsplit("-", 1)[1]))
                self._segment_index = last + 1
            else:
                self._segment_index += 1
            target = _segment_path(self.path, self._segment_index)
        try:
            self._handle = open(target, "w", encoding="utf-8")
        except OSError as error:
            raise ObservabilityError(
                f"cannot open trace file {target}: {error}"
            ) from error
        header = {"format": TRACE_FORMAT, "version": TRACE_VERSION}
        self._handle.write(_canonical(header).decode("utf-8") + "\n")

    def emit(self, record: Dict[str, object]) -> None:
        # Serialized: the daemon's job threads and scrape loop share
        # one sink, and interleaved writes would tear JSONL lines.
        with self._lock:
            if self._handle is None:
                self._open_next()
            body = _canonical(record)
            sealed = dict(record)
            sealed["crc32"] = zlib.crc32(body)
            self._handle.write(_canonical(sealed).decode("utf-8") + "\n")
            if (
                self.max_bytes is not None
                and self._handle.tell() >= self.max_bytes
            ):
                self._close_handle()

    def _close_handle(self) -> None:
        if self._handle is not None:
            self._handle.flush()
            os.fsync(self._handle.fileno())
            self._handle.close()
            self._handle = None

    def close(self) -> None:
        with self._lock:
            self._close_handle()


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

    Every line's CRC-32 is recomputed; a corrupt line raises
    :class:`~repro.errors.TraceCorruptError`.  A torn *final* line
    (interrupted write) is silently dropped unless ``strict`` is true —
    mirroring checkpoint-read semantics.
    """
    path = Path(path)
    try:
        lines = path.read_text(encoding="utf-8").splitlines()
    except OSError as error:
        raise ObservabilityError(
            f"cannot read trace file {path}: {error}"
        ) from error
    if not lines:
        if strict:
            raise TraceCorruptError(f"trace file {path} is empty")
        return []
    try:
        header = json.loads(lines[0])
    except ValueError:
        raise TraceCorruptError(f"trace file {path} has a malformed header")
    if (
        not isinstance(header, dict)
        or header.get("format") != TRACE_FORMAT
    ):
        raise TraceCorruptError(
            f"trace file {path} lacks the {TRACE_FORMAT!r} header"
        )
    if header.get("version") != TRACE_VERSION:
        raise TraceCorruptError(
            f"trace file {path} has unsupported version "
            f"{header.get('version')!r}"
        )
    records: List[Dict[str, object]] = []
    last = len(lines) - 1
    for index, line in enumerate(lines[1:], start=1):
        if not line.strip():
            continue
        torn_ok = index == last and not strict
        try:
            record = json.loads(line)
        except ValueError:
            if torn_ok:
                break
            raise TraceCorruptError(
                f"trace file {path} line {index + 1} is not valid JSON"
            )
        if not isinstance(record, dict) or "crc32" not in record:
            if torn_ok:
                break
            raise TraceCorruptError(
                f"trace file {path} line {index + 1} lacks a crc32 field"
            )
        claimed = record.pop("crc32")
        if zlib.crc32(_canonical(record)) != claimed:
            if torn_ok:
                break
            raise TraceCorruptError(
                f"trace file {path} line {index + 1} failed its "
                f"CRC-32 self-check"
            )
        records.append(record)
    return records


def read_trace_segments(
    base: os.PathLike, strict: bool = False
) -> List[Dict[str, object]]:
    """Read every segment rooted at ``base`` (see
    :func:`trace_segment_paths`), concatenated oldest-first.

    Under the default lenient mode a torn tail is tolerated on *every*
    segment, not just the newest: any segment may have been the final
    write of a SIGKILLed daemon incarnation whose restart moved on to
    the next segment number.  Corruption anywhere before a segment's
    final line still raises — that is damage, not a crash artifact.
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
    ``parent_pid``, ``dur_s``, ``attrs`` and ``error`` (if any) — used
    by ``repro obs-report`` and ``repro trace-export``.
    """
    begins: Dict[Tuple[int, int], Dict[str, object]] = {}
    for record in records:
        kind = record.get("kind")
        if kind == "span_begin":
            begins[span_key(record)] = record
        elif kind == "span_end":
            begin = begins.pop(span_key(record), None)
            pid = int(record.get("pid", 0))
            parent = (begin or {}).get("parent")
            joined: Dict[str, object] = {
                "name": record["name"],
                "span": record["span"],
                "pid": pid,
                "parent": parent,
                "parent_pid": (
                    (begin or {}).get("parent_pid", pid)
                    if parent is not None
                    else None
                ),
                "dur_s": record.get("dur_s", 0.0),
                "attrs": (begin or {}).get("attrs", {}),
            }
            if "error" in record:
                joined["error"] = record["error"]
            yield joined
