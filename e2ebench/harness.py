"""Shared pieces of the end-to-end benchmark.

Everything here is independent of the workloads: the metric-name rule,
the percentile and tail rules, the benchmark's own span recorder, and
the per-layer self-time attribution that turns a span list into the
``layer.<name>.*`` metrics.  The span recorder is the repo's own
:class:`repro.obs.Tracer` over an in-memory sink, so a written-out
benchmark trace reads with ``repro obs-report`` / ``repro trace-export``
like any daemon trace.
"""

from __future__ import annotations

import contextlib
import json
import math
import re
import statistics
import time
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

#: The repo's modules, used as the layers of the attribution table.
#: ``thermal`` lives inside ``testing`` for this purpose.
LAYERS = (
    "fleet", "resilience", "testing", "analysis", "colstore",
    "detectors", "core", "service", "perf", "obs",
)

#: Span-name prefixes the library and daemon emit, mapped to the module
#: that emits them.  Benchmark spans are named ``<layer>.<call>``.
SPAN_PREFIX_LAYER = {
    "campaign": "resilience",
    "checkpoint": "resilience",
    "parallel": "perf",
    "toolchain": "testing",
    "online": "core",
    "coverage": "core",
}

_NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}")
_UNIT_RE = re.compile(r"[A-Za-z0-9_/%.\-]{1,16}")

#: Candidate tail percentiles, lowest first.
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
#: A reported percentile needs at least this many samples beyond it.
TAIL_MIN_BEYOND = 10


def validate_metric_name(name: str) -> str:
    """Return ``name`` if it is a legal metric name, else raise.

    Legal: starts with a letter or digit, then at most 63 letters,
    digits, ``_``, ``.`` or ``-``.
    """
    if not isinstance(name, str) or not _NAME_RE.fullmatch(name):
        raise ValueError(f"illegal metric name {name!r}")
    return name


def validate_unit(unit: str) -> str:
    if not isinstance(unit, str) or not _UNIT_RE.fullmatch(unit):
        raise ValueError(f"illegal metric unit {unit!r}")
    return unit


def _rank(p: float, count: int) -> int:
    """1-based nearest rank of percentile ``p`` among ``count`` samples
    (rounded first, so 99.9% of 10000 is rank 9990, not 9991)."""
    return max(1, math.ceil(round(p * count / 100.0, 9)))


def percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least
    ``p`` percent of the samples at or below it."""
    if not values:
        raise ValueError("percentile of no samples")
    return sorted(values)[_rank(p, len(values)) - 1]


def tail_percentile(count: int) -> Optional[float]:
    """The highest ladder percentile with at least ten samples beyond
    its nearest-rank position, or None when even the median lacks them.
    """
    best = None
    for p in TAIL_LADDER:
        if count - _rank(p, count) >= TAIL_MIN_BEYOND:
            best = p
    return best


def tail(values: Sequence[float]) -> Tuple[Optional[float], float]:
    """``(percentile, value)`` of the tail rule; a sample set too small
    for any percentile falls back to its median, reported as p=None."""
    p = tail_percentile(len(values))
    if p is None:
        return None, statistics.median(values)
    return p, percentile(values, p)


def spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median, the way the
    acceptance check measures run-to-run spread."""
    if len(values) < 2:
        return 0.0
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median if median else math.inf


def layer_of(span_name: str) -> Optional[str]:
    prefix = span_name.split(".", 1)[0]
    if prefix in LAYERS:
        return prefix
    return SPAN_PREFIX_LAYER.get(prefix)


class SpanRecorder:
    """The benchmark's own spans around each public call, in memory.

    ``SpanRecorder(None)`` is the untraced recorder: every ``span`` is a
    shared no-op, so untraced passes run the same benchmark code.
    """

    def __init__(self, sink=None):
        self._sink = sink
        self.tracer = None
        if sink is not None:
            from repro.obs.tracing import Tracer

            self.tracer = Tracer(sink)

    @classmethod
    def in_memory(cls) -> "SpanRecorder":
        from repro.obs.tracing import ListTraceSink

        return cls(ListTraceSink())

    def span(self, name: str, **attrs):
        if self.tracer is None:
            return contextlib.nullcontext()
        return self.tracer.span(validate_metric_name(name), **attrs)

    @property
    def records(self) -> List[Dict[str, object]]:
        if self._sink is None:
            return []
        return self._sink.records

    def write(self, path: Path) -> int:
        """Write the recorded spans as a sealed JSONL trace; returns the
        record count."""
        from repro.obs.tracing import JsonlTraceSink

        sink = JsonlTraceSink(path)
        try:
            for record in self.records:
                sink.emit(record)
        finally:
            sink.close()
        return len(self.records)


def join_spans(records: Iterable[Dict[str, object]]) -> List[Dict[str, object]]:
    """Completed spans with begin/end times, keyed by ``(pid, span)``."""
    begins: Dict[Tuple[int, int], Dict[str, object]] = {}
    spans = []
    for record in records:
        kind = record.get("kind")
        if kind not in ("span_begin", "span_end"):
            continue
        key = (int(record.get("pid", 0)), int(record["span"]))
        if kind == "span_begin":
            begins[key] = record
            continue
        begin = begins.pop(key, None)
        if begin is None:
            continue
        parent = begin.get("parent")
        spans.append({
            "name": str(record["name"]),
            "key": key,
            "parent": (
                (int(begin.get("parent_pid", key[0])), int(parent))
                if parent is not None
                else None
            ),
            "t0": float(begin["ts"]),
            "t1": float(record["ts"]),
            "attrs": begin.get("attrs", {}),
        })
    return spans


def _covered(intervals: List[Tuple[float, float]], lo: float, hi: float) -> float:
    """Length of ``[lo, hi]`` covered by the union of ``intervals``."""
    total = 0.0
    cursor = lo
    for start, stop in sorted(intervals):
        start, stop = max(start, cursor), min(stop, hi)
        if stop > start:
            total += stop - start
            cursor = stop
    return total


def self_times(spans: List[Dict[str, object]]) -> List[Tuple[str, float]]:
    """``(name, self seconds)`` per span: its duration minus the part
    of its interval that its child spans cover."""
    children: Dict[Tuple[int, int], List[Tuple[float, float]]] = {}
    for item in spans:
        if item["parent"] is not None:
            children.setdefault(item["parent"], []).append(
                (item["t0"], item["t1"])
            )
    out = []
    for item in spans:
        duration = item["t1"] - item["t0"]
        covered = _covered(children.get(item["key"], []), item["t0"], item["t1"])
        out.append((item["name"], max(0.0, duration - covered)))
    return out


def layer_table(
    spans: List[Dict[str, object]], wall_s: float
) -> Dict[str, Dict[str, float]]:
    """Per-layer self seconds, share of ``wall_s`` and call count."""
    table = {layer: {"self_s": 0.0, "calls": 0} for layer in LAYERS}
    for name, seconds in self_times(spans):
        layer = layer_of(name)
        if layer is None:
            continue
        table[layer]["self_s"] += seconds
        table[layer]["calls"] += 1
    for row in table.values():
        row["share"] = row["self_s"] / wall_s if wall_s > 0 else 0.0
    return table


def top_layers(table: Dict[str, Dict[str, float]], count: int = 3) -> List[str]:
    ranked = sorted(table, key=lambda layer: -table[layer]["self_s"])
    return [layer for layer in ranked[:count] if table[layer]["self_s"] > 0]


def layer_metrics(table: Dict[str, Dict[str, float]]) -> Dict[str, float]:
    metrics = {}
    for layer in LAYERS:
        for field in ("self_s", "share", "calls"):
            metrics[f"layer.{layer}.{field}"] = table[layer][field]
    return metrics


def span_totals(spans: List[Dict[str, object]]) -> Dict[str, float]:
    """Summed duration of the spans of each name."""
    totals: Dict[str, float] = {}
    for item in spans:
        totals[item["name"]] = totals.get(item["name"], 0.0) + item["t1"] - item["t0"]
    return totals


def timed_passes(
    seconds: float,
    run_pass: Callable[[int], None],
    *,
    min_passes: int = 1,
    clock: Callable[[], float] = time.perf_counter,
) -> int:
    """Run passes back to back for about ``seconds``; returns the count.

    A pass starts only while its expected end (the median pass so far)
    lands within half a pass of the window, so a run measures close to
    ``seconds`` of work however long one pass takes.
    """
    start = clock()
    durations: List[float] = []
    index = 0
    while True:
        began = clock()
        run_pass(index)
        durations.append(clock() - began)
        index += 1
        if index < min_passes:
            continue
        typical = statistics.median(durations)
        if clock() - start + typical > seconds + typical / 2:
            return index


def _canonical(obj):
    """A JSON-able, order-stable view of results: dict keys become
    strings in sorted order, dataclasses and arrays become plain data."""
    import dataclasses

    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return _canonical(dataclasses.asdict(obj))
    if isinstance(obj, dict):
        return [[str(key), _canonical(obj[key])]
                for key in sorted(obj, key=str)]
    if isinstance(obj, (list, tuple, set, frozenset)):
        items = [_canonical(item) for item in obj]
        return sorted(items, key=repr) if isinstance(obj, (set, frozenset)) else items
    if hasattr(obj, "tolist"):
        return obj.tolist()
    if isinstance(obj, float):
        return repr(obj)
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    return str(obj)


def run_check(name: str, compare: Callable[[], Tuple[bool, str]]) -> Dict[str, object]:
    """One output check.  An oracle that raises fails the check with
    the error as its detail instead of ending the run."""
    try:
        ok, detail = compare()
    except Exception as error:  # the failure is reported, not swallowed
        return {"name": name, "ok": False,
                "detail": f"{type(error).__name__}: {error}"}
    return {"name": name, "ok": bool(ok), "detail": detail}


def digest(obj) -> str:
    """sha256 of a result's canonical JSON: the output digest that must
    repeat exactly for a seed."""
    import hashlib

    blob = json.dumps(_canonical(obj), separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()
