"""Render campaign telemetry into human-readable summary tables.

Backs the ``repro obs-report`` command: load a metrics file (canonical
JSON or Prometheus exposition text) and/or a JSONL trace (a bare file,
its rotated segments, or both), validate their self-checks, and
summarize counters, histograms, and the slowest spans.
``check_artifacts`` is the strict schema-validation entry the CI
observability smoke job uses.
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import Dict, List, Tuple

from ..errors import ObservabilityError
from .metrics import MetricsRegistry, parse_prometheus_text
from .tracing import (
    iter_spans,
    read_trace,
    read_trace_segments,
    span_key,
    trace_segment_paths,
)

__all__ = ["load_metrics", "render_report", "check_artifacts"]


def load_metrics(path) -> MetricsRegistry:
    """Load a metrics artifact, sniffing JSON container vs exposition
    text, and verify whichever self-checks the format carries."""
    path = Path(path)
    try:
        raw = path.read_bytes()
    except OSError as error:
        raise ObservabilityError(
            f"cannot read metrics file {path}: {error}"
        ) from error
    if raw.lstrip().startswith(b"{"):
        return MetricsRegistry.from_json(raw)
    try:
        parsed = parse_prometheus_text(raw.decode("utf-8"))
    except UnicodeDecodeError as error:
        raise ObservabilityError(
            f"metrics file {path} is not UTF-8 text: {error}"
        ) from error
    if not parsed:
        raise ObservabilityError(f"metrics file {path} contains no samples")
    registry = MetricsRegistry()
    registry._parsed_exposition = parsed  # noqa: SLF001 (report-only view)
    return registry


def _load_trace(path, strict: bool) -> List[Dict[str, object]]:
    """Every record of the trace ``--trace-out path`` wrote, rotated
    or not; a path with no trace file fails as an unreadable file."""
    if trace_segment_paths(path):
        return read_trace_segments(path, strict=strict)
    return read_trace(path, strict=strict)


def _metric_rows(registry: MetricsRegistry) -> List[Tuple[str, str, str]]:
    rows: List[Tuple[str, str, str]] = []
    parsed = getattr(registry, "_parsed_exposition", None)
    if parsed is not None:
        for name in sorted(parsed):
            entry = parsed[name]
            for sample in sorted(entry["samples"]):
                value = entry["samples"][sample]
                rows.append((
                    sample, entry["kind"] or "untyped",
                    f"{value:g}",
                ))
        return rows
    snapshot = registry.snapshot()
    for family in snapshot["families"]:
        for series in family["series"]:
            labels = ",".join(
                f"{k}={v}"
                for k, v in zip(family["labelnames"], series["labels"])
            )
            rendered = f"{family['name']}{{{labels}}}" if labels \
                else family["name"]
            if family["kind"] == "histogram":
                count = series["count"]
                mean = series["sum"] / count if count else math.nan
                rows.append((
                    rendered, "histogram",
                    f"count={count} mean={mean:.6g}s",
                ))
            else:
                rows.append((
                    rendered, family["kind"], f"{series['value']:g}",
                ))
    return rows


def _span_rows(records) -> List[Tuple[str, str, str, str]]:
    totals: Dict[str, List[float]] = {}
    errors: Dict[str, int] = {}
    for joined in iter_spans(records):
        totals.setdefault(joined["name"], []).append(
            float(joined["dur_s"])
        )
        if "error" in joined:
            errors[joined["name"]] = errors.get(joined["name"], 0) + 1
    rows = []
    for name in sorted(
        totals, key=lambda n: -sum(totals[n])
    ):
        durations = totals[name]
        rows.append((
            name,
            str(len(durations)),
            f"{sum(durations):.4f}",
            str(errors.get(name, 0)),
        ))
    return rows


def render_report(
    metrics_path=None, trace_path=None
) -> str:
    """The ``repro obs-report`` body: tables for metrics and spans."""
    # Imported here: repro.analysis is a heavy aggregate package, and
    # pulling it in at repro.obs import time would cycle back through
    # the very modules obs instruments.
    from ..analysis.report import render_table

    if metrics_path is None and trace_path is None:
        raise ObservabilityError(
            "obs-report needs --metrics and/or --trace"
        )
    sections: List[str] = []
    if metrics_path is not None:
        registry = load_metrics(metrics_path)
        rows = _metric_rows(registry)
        sections.append(render_table(
            ("metric", "kind", "value"),
            rows if rows else [("(no samples)", "-", "-")],
            title=f"Metrics — {metrics_path}",
        ))
    if trace_path is not None:
        records = _load_trace(trace_path, strict=False)
        rows = _span_rows(records)
        events = sum(1 for r in records if r.get("kind") == "event")
        sections.append(render_table(
            ("span", "n", "total_s", "errors"),
            rows if rows else [("(no spans)", "-", "-", "-")],
            title=f"Spans — {trace_path} ({len(records)} records, "
                  f"{events} point events)",
        ))
    return "\n\n".join(sections)


def check_artifacts(
    metrics_path=None, trace_path=None
) -> List[str]:
    """Strict schema validation for CI; returns a list of violations.

    Metrics: the file must parse under its format's self-checks,
    contain at least one ``repro_``-prefixed family, and carry the
    standard identity gauges — ``repro_build_info`` (value 1, with a
    ``version`` label) and ``repro_uptime_seconds``.  Trace: every line
    of every segment must pass its CRC (strict mode — no torn-tail
    tolerance), span begin/end records must pair up per process, and
    nesting must be well-formed.
    """
    problems: List[str] = []
    if metrics_path is not None:
        try:
            registry = load_metrics(metrics_path)
        except ObservabilityError as error:
            problems.append(f"metrics: {error}")
        else:
            parsed = getattr(registry, "_parsed_exposition", None)
            names = (
                list(parsed) if parsed is not None else registry.families()
            )
            if not any(name.startswith("repro_") for name in names):
                problems.append(
                    "metrics: no repro_* metric families present"
                )
            if parsed is not None:
                untyped = [
                    name for name in names if parsed[name]["kind"] is None
                ]
                if untyped:
                    problems.append(
                        f"metrics: families without TYPE: {sorted(untyped)}"
                    )
            problems.extend(_check_identity_gauges(registry, parsed))
    if trace_path is not None:
        try:
            records = _load_trace(trace_path, strict=True)
        except ObservabilityError as error:
            problems.append(f"trace: {error}")
        else:
            # Keyed by (pid, span): stitched traces interleave records
            # from several processes whose span counters collide.
            open_spans: Dict[Tuple[int, int], str] = {}
            for index, record in enumerate(records):
                kind = record.get("kind")
                if kind not in ("span_begin", "span_end", "event"):
                    problems.append(
                        f"trace: record {index} has unknown kind {kind!r}"
                    )
                    continue
                if "name" not in record or "ts" not in record:
                    problems.append(
                        f"trace: record {index} lacks name/ts"
                    )
                if kind == "span_begin":
                    open_spans[span_key(record)] = record["name"]
                elif kind == "span_end":
                    key = span_key(record)
                    begun = open_spans.pop(key, None)
                    if begun is None:
                        problems.append(
                            f"trace: span_end {key} without begin"
                        )
                    elif begun != record["name"]:
                        problems.append(
                            f"trace: span {key} began as "
                            f"{begun!r}, ended as {record['name']!r}"
                        )
            for key, name in open_spans.items():
                problems.append(
                    f"trace: span {key} ({name!r}) never ended"
                )
    return problems


def _check_identity_gauges(registry, parsed) -> List[str]:
    """Validate the ``repro_build_info`` / ``repro_uptime_seconds``
    pair in either metrics format."""
    problems: List[str] = []
    if parsed is not None:
        build = parsed.get("repro_build_info")
        if build is None:
            problems.append("metrics: repro_build_info family missing")
        else:
            samples = build["samples"]
            if not any(
                'version="' in key and value == 1.0
                for key, value in samples.items()
            ):
                problems.append(
                    "metrics: repro_build_info lacks a version label "
                    "with value 1"
                )
        if "repro_uptime_seconds" not in parsed:
            problems.append("metrics: repro_uptime_seconds family missing")
        return problems
    snapshot = registry.snapshot()
    families = {f["name"]: f for f in snapshot["families"]}
    build = families.get("repro_build_info")
    if build is None:
        problems.append("metrics: repro_build_info family missing")
    elif (
        "version" not in build["labelnames"]
        or not any(row["value"] == 1.0 for row in build["series"])
    ):
        problems.append(
            "metrics: repro_build_info lacks a version label with value 1"
        )
    if "repro_uptime_seconds" not in families:
        problems.append("metrics: repro_uptime_seconds family missing")
    return problems
