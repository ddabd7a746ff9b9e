"""Fleet-scale observability: metrics, tracing, profiling, logging.

The paper's measurement methodology only works because the test fleet
is itself instrumented; :mod:`repro.obs` gives this reproduction the
same property.  It is dependency-free (stdlib only) and threaded
through the campaign engines, the resilience layer, and the online
simulators via a keyword-only ``obs=None`` parameter:

* :class:`MetricsRegistry` — counters/gauges/histograms with labeled
  series, Prometheus-text and canonical-JSON (CRC-32 self-checking)
  exporters.
* :class:`Tracer` / :class:`JsonlTraceSink` — context-manager spans
  and point events on an injected monotonic clock (telemetry never
  consumes RNG draws), persisted as self-checking JSONL.
* :class:`Observability` — the context object call sites receive;
  ``None`` means disabled and costs one pointer compare per
  shard/range.  Enabled, a campaign records a bounded number of
  instrument updates and trace records per shard, whatever its
  detection count (``tests/unit/test_obs.py::TestTelemetryBudget``).
* :func:`logging_setup` — stderr logging for entry points so stdout
  stays machine-readable.
"""

from .context import Observability, observed_sleep, span
from .logconf import logging_setup
from .metrics import DEFAULT_BUCKETS, MetricsRegistry, parse_prometheus_text
from .procmem import (
    current_rss_bytes,
    peak_rss_bytes,
    record_memory,
)
from .report import check_artifacts, load_metrics, render_report
from .tracing import (
    JsonlTraceSink,
    ListTraceSink,
    NullTracer,
    Tracer,
    iter_spans,
    read_trace,
    read_trace_segments,
    span_key,
    trace_segment_paths,
)

__all__ = [
    "DEFAULT_BUCKETS",
    "JsonlTraceSink",
    "ListTraceSink",
    "MetricsRegistry",
    "NullTracer",
    "Observability",
    "Tracer",
    "check_artifacts",
    "current_rss_bytes",
    "iter_spans",
    "peak_rss_bytes",
    "record_memory",
    "load_metrics",
    "logging_setup",
    "observed_sleep",
    "parse_prometheus_text",
    "read_trace",
    "read_trace_segments",
    "render_report",
    "span",
    "span_key",
    "trace_segment_paths",
]
