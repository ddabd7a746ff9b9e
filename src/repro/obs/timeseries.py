"""Ring-buffer time-series history for daemon telemetry.

The live ``/metrics`` endpoint answers "what are the counters *now*";
the paper's fleet methodology needs "what were they an hour ago" —
detection rates drift with workload mix and scheduling, and drift is
only visible against history.  :class:`TimeSeriesStore` keeps that
history in memory with zero dependencies:

* **Tiered downsampling.**  Every sample lands in a ``raw`` ring
  buffer; coarser tiers (``1s``, ``1m`` by default) aggregate samples
  into one point per resolution bucket carrying ``(ts, last, min,
  max)``.  Memory is strictly bounded: each tier is a
  ``deque(maxlen=capacity)``, so a week-long daemon holds minutes of
  raw detail and days of minute-level trend.
* **CRC-sealed persistence.**  ``save()`` writes a sealed document
  (:mod:`repro.sealed`), and :meth:`TimeSeriesStore.restore` loads it
  tolerantly — a torn or corrupt history file yields a fresh store,
  never a dead daemon — so scrape history survives SIGKILL restarts
  with at most one flush interval of loss.
* **Wall-clock timestamps.**  Unlike the tracer (monotonic, process
  local), history must compose across daemon incarnations, so sample
  timestamps are ``time.time()`` seconds.  The store itself never
  reads a clock — callers stamp samples — and it never touches RNG
  state.

:class:`MetricsScraper` is the bridge from a live
:class:`~repro.obs.metrics.MetricsRegistry`: each ``scrape()`` walks a
snapshot and records counters/gauges verbatim, histograms as
``_count``/``_sum`` plus an interval p99 derived from the bucket-count
delta since the previous scrape, and the fleet-level
``repro_sdc_detection_ratio`` (detections over CPUs tested) that the
drift alert watches.
"""

from __future__ import annotations

import math
import os
from collections import deque
from dataclasses import dataclass
from pathlib import Path
from typing import Deque, Dict, List, Optional, Sequence, Tuple

from .. import sealed
from ..errors import ObservabilityError, TimeSeriesCorruptError

__all__ = [
    "TIMESERIES_FORMAT",
    "TIMESERIES_VERSION",
    "Tier",
    "DEFAULT_TIERS",
    "TimeSeriesStore",
    "MetricsScraper",
    "series_key",
]

TIMESERIES_FORMAT = "repro-obs-timeseries"
TIMESERIES_VERSION = 1

_HISTORY = sealed.SealedFormat(
    TIMESERIES_FORMAT, TIMESERIES_VERSION, "time-series history",
    ObservabilityError, TimeSeriesCorruptError,
)

#: Derived ratio series the scraper maintains for the SDC-drift alert.
DETECTION_RATIO_SERIES = "repro_sdc_detection_ratio"


@dataclass(frozen=True)
class Tier:
    """One downsampling tier: a resolution and a ring capacity.

    ``resolution_s == 0`` means raw (every sample is its own point);
    otherwise samples are aggregated into ``floor(ts / resolution)``
    buckets.
    """

    name: str
    resolution_s: float
    capacity: int

    def bucket(self, ts: float) -> float:
        if self.resolution_s <= 0:
            return ts
        return math.floor(ts / self.resolution_s) * self.resolution_s


#: Raw detail for the last ~10 minutes at 1 Hz scrape, second-level
#: detail for ~30 minutes, minute-level trend for a full day.
DEFAULT_TIERS: Tuple[Tier, ...] = (
    Tier("raw", 0.0, 600),
    Tier("1s", 1.0, 1800),
    Tier("1m", 60.0, 1440),
)

#: A stored point is ``[ts, last, min, max]`` — JSON-friendly, and
#: enough for threshold, rate-of-change, and envelope queries.
Point = List[float]


def series_key(
    name: str, labelnames: Sequence[str], labelvalues: Sequence[str]
) -> str:
    """Render the store key for one labeled series.

    Matches the Prometheus sample rendering (``name{a="x",b="y"}``)
    so operators can eyeball ``/timeseries`` keys against ``/metrics``
    output directly.
    """
    if not labelnames:
        return name
    labels = ",".join(
        f'{label}="{value}"'
        for label, value in zip(labelnames, labelvalues)
    )
    return f"{name}{{{labels}}}"


class TimeSeriesStore:
    """Bounded multi-tier history of named series."""

    def __init__(self, tiers: Sequence[Tier] = DEFAULT_TIERS):
        if not tiers:
            raise ObservabilityError("TimeSeriesStore needs at least one tier")
        names = [tier.name for tier in tiers]
        if len(set(names)) != len(names):
            raise ObservabilityError(f"duplicate tier names: {names}")
        for tier in tiers:
            if tier.capacity < 1:
                raise ObservabilityError(
                    f"tier {tier.name!r} capacity must be >= 1"
                )
        self.tiers: Tuple[Tier, ...] = tuple(tiers)
        self._series: Dict[str, Dict[str, Deque[Point]]] = {}
        #: Samples accepted since this store object was created (not
        #: persisted: it measures scrape liveness, not history size).
        self.ingested = 0

    # -- recording -----------------------------------------------------------

    def _buffers(self, key: str) -> Dict[str, Deque[Point]]:
        buffers = self._series.get(key)
        if buffers is None:
            buffers = {
                tier.name: deque(maxlen=tier.capacity)
                for tier in self.tiers
            }
            self._series[key] = buffers
        return buffers

    def record(self, key: str, value: float, ts: float) -> None:
        """Ingest one sample into every tier."""
        value = float(value)
        ts = float(ts)
        buffers = self._buffers(key)
        for tier in self.tiers:
            ring = buffers[tier.name]
            bucket = tier.bucket(ts)
            if (
                tier.resolution_s > 0
                and ring
                and ring[-1][0] == bucket
            ):
                point = ring[-1]
                point[1] = value
                point[2] = min(point[2], value)
                point[3] = max(point[3], value)
            else:
                ring.append([bucket, value, value, value])
        self.ingested += 1

    # -- queries -------------------------------------------------------------

    def keys(self) -> List[str]:
        return sorted(self._series)

    def points(
        self,
        key: str,
        tier: Optional[str] = None,
        since: Optional[float] = None,
    ) -> List[Point]:
        """Points of one series in one tier (default: finest), oldest
        first, optionally clipped to ``ts >= since``."""
        buffers = self._series.get(key)
        if buffers is None:
            return []
        tier_name = tier if tier is not None else self.tiers[0].name
        ring = buffers.get(tier_name)
        if ring is None:
            raise ObservabilityError(
                f"unknown tier {tier_name!r} "
                f"(have {[t.name for t in self.tiers]})"
            )
        points = [list(point) for point in ring]
        if since is not None:
            points = [point for point in points if point[0] >= since]
        return points

    def latest(self, key: str) -> Optional[Tuple[float, float]]:
        """``(ts, last_value)`` of the newest sample in the finest tier
        holding any data, or None for an unknown/empty series."""
        buffers = self._series.get(key)
        if buffers is None:
            return None
        for tier in self.tiers:
            ring = buffers[tier.name]
            if ring:
                point = ring[-1]
                return point[0], point[1]
        return None

    def value_at(self, key: str, ts: float) -> Optional[Tuple[float, float]]:
        """Newest ``(point_ts, last_value)`` at or before ``ts``.

        Searches fine-to-coarse so rate-of-change rules can look back
        past the raw ring's horizon into the downsampled tiers.
        """
        buffers = self._series.get(key)
        if buffers is None:
            return None
        for tier in self.tiers:
            best: Optional[Tuple[float, float]] = None
            for point in reversed(buffers[tier.name]):
                if point[0] <= ts:
                    best = (point[0], point[1])
                    break
            if best is not None:
                return best
        return None

    def to_doc(
        self,
        *,
        prefix: Optional[str] = None,
        tier: Optional[str] = None,
        since: Optional[float] = None,
    ) -> Dict[str, object]:
        """The ``/timeseries`` endpoint body: tiers + selected points."""
        tier_name = tier if tier is not None else self.tiers[0].name
        series = {
            key: self.points(key, tier_name, since)
            for key in self.keys()
            if prefix is None or key.startswith(prefix)
        }
        return {
            "tiers": [
                {
                    "name": t.name,
                    "resolution_s": t.resolution_s,
                    "capacity": t.capacity,
                }
                for t in self.tiers
            ],
            "tier": tier_name,
            "series": series,
        }

    # -- persistence ---------------------------------------------------------

    def _payload(self) -> Dict[str, object]:
        return {
            "tiers": [
                {
                    "name": tier.name,
                    "resolution_s": tier.resolution_s,
                    "capacity": tier.capacity,
                }
                for tier in self.tiers
            ],
            "series": {
                key: {
                    tier_name: [list(point) for point in ring]
                    for tier_name, ring in buffers.items()
                }
                for key, buffers in self._series.items()
            },
        }

    def save(self, path: os.PathLike) -> None:
        """Atomically persist the full history as a sealed document."""
        sealed.write_document(_HISTORY, path, self._payload())

    @classmethod
    def load(cls, path: os.PathLike) -> "TimeSeriesStore":
        """Strict load: raises :class:`TimeSeriesCorruptError` on any
        structural or CRC failure."""
        payload = sealed.read_document(_HISTORY, path)
        tiers = tuple(
            Tier(
                str(entry["name"]),
                float(entry["resolution_s"]),
                int(entry["capacity"]),
            )
            for entry in payload.get("tiers", ())
        )
        store = cls(tiers if tiers else DEFAULT_TIERS)
        for key, tier_map in payload.get("series", {}).items():
            buffers = store._buffers(str(key))
            for tier in store.tiers:
                for point in tier_map.get(tier.name, ()):
                    buffers[tier.name].append([float(v) for v in point])
        return store

    @classmethod
    def restore(
        cls, path: os.PathLike, tiers: Sequence[Tier] = DEFAULT_TIERS
    ) -> "TimeSeriesStore":
        """Crash-tolerant load: a missing, torn, or corrupt history file
        yields a fresh empty store — the daemon's boot posture mirrors
        checkpoint fallback (lose an interval, never refuse to start)."""
        path = Path(path)
        if not path.exists():
            return cls(tiers)
        try:
            return cls.load(path)
        except ObservabilityError:
            return cls(tiers)


def _interval_quantile(
    buckets: Sequence[float], deltas: Sequence[int], q: float
) -> Optional[float]:
    """Approximate quantile from per-bucket observation deltas.

    Returns the upper bound of the bucket containing the q-quantile
    (the standard Prometheus histogram_quantile coarsening); None when
    the interval saw no observations.  An infinite top bucket reports
    the largest finite bound so the result stays plottable.
    """
    total = sum(deltas)
    if total <= 0:
        return None
    rank = q * total
    cumulative = 0
    for bound, delta in zip(buckets, deltas):
        cumulative += delta
        if cumulative >= rank:
            if math.isinf(bound):
                finite = [b for b in buckets if not math.isinf(b)]
                return finite[-1] if finite else None
            return float(bound)
    return None


class MetricsScraper:
    """Snapshot a live registry into a :class:`TimeSeriesStore`.

    Stateful across scrapes only for histogram bucket deltas (interval
    quantiles need the previous cumulative counts); everything else is
    a pure walk of ``registry.snapshot()``.
    """

    def __init__(self, registry, store: TimeSeriesStore):
        self.registry = registry
        self.store = store
        self._prev_buckets: Dict[str, List[int]] = {}
        self.scrapes = 0

    def scrape(self, now: float) -> int:
        """Record one sample per live series; returns samples recorded.

        Best-effort under concurrency: the registry has no lock and the
        daemon's job threads register families while this runs on the
        event loop, so a mid-walk mutation (rare) skips this tick
        rather than crashing the scrape loop.
        """
        try:
            snapshot = self.registry.snapshot()
        except RuntimeError:
            return 0
        recorded = 0
        detections = 0.0
        cpus = 0.0
        for family in snapshot["families"]:
            name = family["name"]
            labelnames = family["labelnames"]
            kind = family["kind"]
            for row in family["series"]:
                if kind == "histogram":
                    # Prometheus suffix convention: name_count{labels},
                    # so health rules can match the family by prefix.
                    labels = row["labels"]
                    self.store.record(
                        series_key(f"{name}_count", labelnames, labels),
                        row["count"], now,
                    )
                    self.store.record(
                        series_key(f"{name}_sum", labelnames, labels),
                        row["sum"], now,
                    )
                    recorded += 2
                    key = series_key(name, labelnames, labels)
                    bounds = list(family.get("buckets", ())) + [math.inf]
                    counts = list(row["bucket_counts"])
                    prev = self._prev_buckets.get(key, [0] * len(counts))
                    if len(prev) == len(counts):
                        deltas = [c - p for c, p in zip(counts, prev)]
                        p99 = _interval_quantile(bounds, deltas, 0.99)
                        if p99 is not None:
                            self.store.record(
                                series_key(f"{name}_p99", labelnames, labels),
                                p99, now,
                            )
                            recorded += 1
                    self._prev_buckets[key] = counts
                else:
                    key = series_key(name, labelnames, row["labels"])
                    self.store.record(key, row["value"], now)
                    recorded += 1
                    if name == "repro_campaign_detections_total":
                        detections += row["value"]
                    elif name == "repro_campaign_cpus_total":
                        cpus += row["value"]
        if cpus > 0:
            self.store.record(DETECTION_RATIO_SERIES, detections / cpus, now)
            recorded += 1
        self.scrapes += 1
        return recorded
