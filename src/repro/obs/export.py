"""Export stitched traces as Chrome trace-event JSON (Perfetto-loadable).

The sealed JSONL trace format is built for crash-safety and CRC
verification, not for looking at.  :func:`to_chrome_trace` converts a
merged record list into the Trace Event Format that ``chrome://tracing``
and https://ui.perfetto.dev both open:

* one **process track per pid**, named by metadata events so the
  coordinator (the first pid in the trace) reads "repro coordinator"
  and every other process "repro worker" (later daemon incarnations,
  or the pool workers of traces written by older releases);
* spans as complete ``"X"`` events (begin spans that never ended — a
  SIGKILL mid-shard — degrade to ``"B"`` events so the tear stays
  visible);
* tracer events as ``"i"`` instants;
* cross-process parent links (``parent_pid`` on the worker root spans
  of traces written by older releases, whose campaigns could run on a
  process pool) as flow event pairs (``"s"`` at the parent, ``"f"`` at
  the child), which Perfetto renders as arrows from the scheduler's
  shard span down into the worker that ran it.

Monotonic clocks do not share an epoch across processes, so absolute
cross-pid alignment is impossible from the records alone; each pid's
track is normalized to start at zero.  Parentage (the arrows) is exact
— only horizontal alignment between tracks is approximate.  All
timestamps are microseconds per the trace-event spec.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from .tracing import span_key

__all__ = ["to_chrome_trace", "write_chrome_trace"]

_US = 1_000_000.0


def _pid_of(record: Dict[str, object]) -> int:
    return int(record.get("pid", 0))


def _tid_of(record: Dict[str, object]) -> int:
    return int(record.get("tid", 0))


def to_chrome_trace(
    records: List[Dict[str, object]],
    coordinator_pid: Optional[int] = None,
) -> Dict[str, object]:
    """Build a ``{"traceEvents": [...]}`` document from trace records.

    ``coordinator_pid`` labels that process track as the coordinator;
    by default the pid that emitted the first record is assumed to be
    it (the scheduler always begins tracing before any worker).
    """
    # Per-pid zero point so monotonic clocks from different processes
    # land on comparable axes.
    zero: Dict[int, float] = {}
    for record in records:
        pid = _pid_of(record)
        ts = float(record.get("ts", 0.0))
        if pid not in zero or ts < zero[pid]:
            zero[pid] = ts
    if coordinator_pid is None and records:
        coordinator_pid = _pid_of(records[0])

    def rel_us(record: Dict[str, object]) -> float:
        pid = _pid_of(record)
        return (float(record.get("ts", 0.0)) - zero.get(pid, 0.0)) * _US

    events: List[Dict[str, object]] = []
    for pid in sorted(zero):
        name = (
            "repro coordinator" if pid == coordinator_pid else "repro worker"
        )
        events.append(
            {
                "ph": "M",
                "name": "process_name",
                "pid": pid,
                "tid": 0,
                "args": {"name": f"{name} (pid {pid})"},
            }
        )

    # Pair spans; key on (pid, span) because ids collide across pids.
    open_begins: Dict[Tuple[int, int], Dict[str, object]] = {}
    #: Flow ids must be globally unique; derive from the record index.
    flow_id = 0
    for record in records:
        kind = record.get("kind")
        if kind == "span_begin":
            open_begins[span_key(record)] = record
            parent_pid = record.get("parent_pid")
            if parent_pid is not None and record.get("parent") is not None:
                # Cross-process edge: draw a flow arrow from the parent
                # span's process into this worker span.
                flow_id += 1
                common = {
                    "cat": "stitch",
                    "name": f"shard→{record['name']}",
                    "id": flow_id,
                }
                events.append(
                    {
                        **common,
                        "ph": "s",
                        "pid": int(parent_pid),
                        "tid": 0,
                        "ts": rel_us(record),
                    }
                )
                events.append(
                    {
                        **common,
                        "ph": "f",
                        "bp": "e",
                        "pid": _pid_of(record),
                        "tid": _tid_of(record),
                        "ts": rel_us(record),
                    }
                )
        elif kind == "span_end":
            begin = open_begins.pop(span_key(record), None)
            if begin is None:
                continue
            args = dict(begin.get("attrs", {}))
            if "error" in record:
                args["error"] = record["error"]
            events.append(
                {
                    "ph": "X",
                    "cat": "span",
                    "name": str(record["name"]),
                    "pid": _pid_of(begin),
                    "tid": _tid_of(begin),
                    "ts": rel_us(begin),
                    "dur": max(float(record.get("dur_s", 0.0)), 0.0) * _US,
                    "args": args,
                }
            )
        elif kind == "event":
            events.append(
                {
                    "ph": "i",
                    "cat": "event",
                    "s": "t",
                    "name": str(record["name"]),
                    "pid": _pid_of(record),
                    "tid": _tid_of(record),
                    "ts": rel_us(record),
                    "args": dict(record.get("attrs", {})),
                }
            )

    # Never-ended spans (torn by SIGKILL): emit as bare "B" so the
    # open edge is visible in the viewer instead of silently dropped.
    for key in open_begins:
        begin = open_begins[key]
        events.append(
            {
                "ph": "B",
                "cat": "span",
                "name": str(begin["name"]),
                "pid": _pid_of(begin),
                "tid": _tid_of(begin),
                "ts": rel_us(begin),
                "args": dict(begin.get("attrs", {})),
            }
        )
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_chrome_trace(
    records: List[Dict[str, object]],
    path: os.PathLike,
    coordinator_pid: Optional[int] = None,
) -> int:
    """Serialize :func:`to_chrome_trace` to ``path``; returns the
    number of trace events written."""
    document = to_chrome_trace(records, coordinator_pid)
    Path(path).write_text(
        json.dumps(document, sort_keys=True), encoding="utf-8"
    )
    return len(document["traceEvents"])
