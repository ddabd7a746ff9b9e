"""The :class:`Observability` context threaded through the stack.

Components take a keyword-only ``obs=None`` parameter and guard every
instrumentation site with ``if obs is not None`` (or the :func:`span`
helper) — disabled telemetry is a single pointer comparison per
shard/range, never per record or per draw.  Enabled telemetry keeps
the same granularity: a campaign makes a bounded number of instrument
updates and trace records per shard, and a batch screening a bounded
number per run, whatever the detection and lane counts
(``tests/unit/test_obs.py::TestTelemetryBudget`` pins both).

One context owns one :class:`~repro.obs.metrics.MetricsRegistry` and
one :class:`~repro.obs.tracing.Tracer`; :meth:`Observability.create`
builds it from CLI-style output paths and :meth:`close` flushes the
trace and atomically writes the metrics file.
"""

from __future__ import annotations

import contextlib
import os
import time
from pathlib import Path
from typing import Optional

from .metrics import DEFAULT_BUCKETS, MetricsRegistry
from .tracing import JsonlTraceSink, ListTraceSink, NullTracer, Tracer

__all__ = ["Observability", "span"]

_NULL_CONTEXT = contextlib.nullcontext()


def span(obs: Optional["Observability"], name: str, **attrs: object):
    """A tracer span when ``obs`` is enabled, a shared no-op otherwise.

    ``with span(obs, "campaign.shard", shard=3):`` reads the same at
    every call site whether telemetry is on or off; the disabled path
    returns one preallocated ``nullcontext``.
    """
    if obs is None:
        return _NULL_CONTEXT
    return obs.tracer.span(name, **attrs)


class Observability:
    """Bundle of metrics registry + tracer + output destinations."""

    def __init__(
        self,
        metrics: Optional[MetricsRegistry] = None,
        tracer: Optional[Tracer] = None,
        metrics_path: Optional[os.PathLike] = None,
    ):
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.tracer = tracer if tracer is not None else NullTracer()
        self.metrics_path = (
            Path(metrics_path) if metrics_path is not None else None
        )
        self._started = time.monotonic()

    @classmethod
    def create(
        cls,
        metrics_path: Optional[os.PathLike] = None,
        trace_path: Optional[os.PathLike] = None,
        trace_rotate_bytes: Optional[int] = None,
    ) -> "Observability":
        """Build a context from ``--metrics-out`` / ``--trace-out``.

        ``trace_rotate_bytes`` enables size-based sink rotation (see
        :class:`~repro.obs.tracing.JsonlTraceSink`).
        """
        tracer = (
            Tracer(JsonlTraceSink(trace_path, max_bytes=trace_rotate_bytes))
            if trace_path is not None
            else NullTracer()
        )
        obs = cls(MetricsRegistry(), tracer, metrics_path)
        obs.record_build_info()
        return obs

    @classmethod
    def in_memory(cls) -> "Observability":
        """Context capturing everything in process memory (tests).

        Deliberately does *not* stamp build info: tests compare
        snapshots for exact equality, so ambient gauges stay out of
        the in-memory flavor.
        """
        return cls(MetricsRegistry(), Tracer(ListTraceSink()))

    def record_build_info(self) -> None:
        """Publish the ``repro_build_info{version=...} = 1`` identity
        gauge (the Prometheus build-info convention)."""
        # Local import: repro/__init__ is the aggregate package and
        # importing it at module scope would cycle back through obs.
        from .. import __version__

        self.set_gauge("repro_build_info", 1.0, version=__version__)

    def record_uptime(self) -> None:
        """Refresh ``repro_uptime_seconds`` from the context's birth."""
        self.set_gauge(
            "repro_uptime_seconds", time.monotonic() - self._started
        )

    def close(self) -> None:
        """Flush the trace sink and write the metrics file, if any."""
        self.tracer.close()
        if self.metrics_path is not None:
            self.record_uptime()
            self.metrics.save(self.metrics_path)

    # -- string-keyed instrument shorthand ----------------------------------
    #
    # Call sites name the metric inline; registration is idempotent so
    # the first caller wins and later callers reuse the family.  Help
    # text lives in _HELP below to keep call sites one-liners.

    def inc(self, name: str, amount: float = 1.0, **labels: str) -> None:
        family = self.metrics.counter(
            name, _HELP.get(name, ""), tuple(sorted(labels))
        )
        family.labels(**{k: str(v) for k, v in labels.items()}).inc(amount)

    def set_gauge(self, name: str, value: float, **labels: str) -> None:
        family = self.metrics.gauge(
            name, _HELP.get(name, ""), tuple(sorted(labels))
        )
        family.labels(**{k: str(v) for k, v in labels.items()}).set(value)

    def observe(self, name: str, value: float, **labels: str) -> None:
        family = self.metrics.histogram(
            name, _HELP.get(name, ""), tuple(sorted(labels)),
            buckets=_BUCKETS.get(name, DEFAULT_BUCKETS),
        )
        family.labels(**{k: str(v) for k, v in labels.items()}).observe(value)

    # -- health bridge ------------------------------------------------------

    def on_health_event(self, event) -> None:
        """Mirror a :class:`~repro.resilience.health.HealthEvent` into
        telemetry: a labeled counter plus a structured trace event, so
        checkpointed health and emitted telemetry cannot disagree."""
        self.inc("repro_health_events_total", kind=event.kind)
        attrs = {"detail": event.detail}
        if event.shard is not None:
            attrs["shard"] = event.shard
        self.tracer.event(f"health.{event.kind}", **attrs)


#: Help text for the metric families the instrumentation emits, keyed
#: by name so the string-keyed shorthand stays a one-liner at call
#: sites.  Its keys are exactly the ``repro_*`` names that ``src/``
#: passes to ``inc``, ``set_gauge`` and ``observe``
#: (``tests/unit/test_metric_help.py`` checks both directions).
_HELP = {
    "repro_campaign_cpus_total":
        "Faulty processors tested, by engine.",
    "repro_campaign_detections_total":
        "SDC detections recorded, by engine and test stage.",
    "repro_campaign_undetected_total":
        "Faulty processors that escaped the campaign, by engine.",
    "repro_campaign_draws_total":
        "CountedStream uniforms consumed by campaign ranges, by engine.",
    "repro_campaign_range_seconds":
        "Wall-clock seconds per campaign range/shard, by engine.",
    "repro_checkpoint_total":
        "Checkpoint container operations, by op (save/load/fallback).",
    "repro_health_events_total":
        "Campaign health events mirrored from CampaignHealthReport.",
    "repro_online_steps_total":
        "Online-simulation control steps, by mode (scalar/batch).",
    "repro_online_sdc_total":
        "SDC events sampled during online simulation, by mode.",
    "repro_online_backoff_engagements_total":
        "Workload-backoff engagements during online simulation, by mode.",
    "repro_farron_rounds_total":
        "Farron test rounds executed, by kind "
        "(pre_production/regular/targeted).",
    "repro_farron_round_sim_seconds":
        "Simulated duration of Farron test rounds, by kind.",
    "repro_farron_windows_total":
        "Scheduled test windows in Farron regular plans.",
    "repro_thermal_substeps_total":
        "Batch thermal-model integration substeps, by mode.",
    "repro_toolchain_screen_lanes_total":
        "Processors screened by the batch toolchain engine, by mode.",
    "repro_toolchain_screen_windows_total":
        "Lockstep runner windows stepped by batch screenings, by mode.",
    "repro_toolchain_screen_substeps_total":
        "Thermal-model integration substeps of batch screenings, by mode.",
    "repro_toolchain_screen_errors_total":
        "SDC and consistency records emitted by batch screenings, by mode.",
    "repro_rss_bytes":
        "Resident set size of this process at last sample, in bytes.",
    "repro_peak_rss_bytes":
        "Peak resident set size of this process, in bytes.",
    "repro_spill_bytes_total":
        "Bytes spilled to on-disk column stores.",
    "repro_service_http_requests_total":
        "HTTP requests served by the repro daemon, by route and code.",
    "repro_service_http_request_seconds":
        "Wall-clock seconds per HTTP request, by route.",
    "repro_service_jobs_total":
        "Service job lifecycle events, by event "
        "(submitted/rejected/started/resumed/completed/failed).",
    "repro_service_queue_depth":
        "Jobs admitted but not yet running in the service scheduler.",
    "repro_service_active_jobs":
        "Jobs currently executing campaign shards.",
    "repro_service_journal_appends_total":
        "Write-ahead journal entries fsynced, by kind.",
    "repro_service_drain_seconds":
        "Duration of the last graceful drain, in seconds.",
    "repro_service_shard_seconds":
        "Wall-clock seconds per completed service campaign shard.",
    "repro_service_journal_append_seconds":
        "Wall-clock seconds per journal append, fsync included.",
    "repro_build_info":
        "Constant 1 gauge carrying the library version label.",
    "repro_uptime_seconds":
        "Seconds since this process's telemetry context was created.",
}

#: Non-default bucket layouts.  Farron round durations are *simulated*
#: seconds (minutes-scale test windows), not wall clock.
_BUCKETS = {
    "repro_farron_round_sim_seconds": (
        1.0, 5.0, 15.0, 60.0, 300.0, 900.0, 3600.0, 14400.0, float("inf"),
    ),
    # Journal appends are fsync-bound: sub-millisecond on NVMe, tens of
    # milliseconds on contended spinning disks — default buckets start
    # far too coarse to resolve them.
    "repro_service_journal_append_seconds": (
        0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5,
        1.0, float("inf"),
    ),
}
