"""Dependency-free metrics: counters, gauges, histograms with labels.

The paper's fleet study exists because production hosts continuously
emitted telemetry about the tests *themselves* — scan rates, detection
latencies, overhead accounting.  :class:`MetricsRegistry` is that layer
for this reproduction: a small, stdlib-only instrument registry in the
Prometheus data model (metric families carrying labeled series), built
around three properties the campaign engines need:

* **Exact snapshots.**  ``snapshot()`` produces a canonical, JSON-able
  document, and a saved document loads back into an equal registry.
* **Fixed histogram bucket layouts.**  Buckets are part of a family's
  identity; a document whose rows disagree with its layout is an
  error, never a silent re-binning.
* **Boring, auditable exports.**  Prometheus exposition text for
  scrape-style consumers and a sealed JSON document
  (:mod:`repro.sealed`: CRC-32 self-check, atomic replace) for the
  ``repro obs-report`` command and for tests.

No instrument ever touches an RNG or the wall clock; recording a metric
cannot perturb a seeded campaign.
"""

from __future__ import annotations

import math
import os
import re
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .. import sealed
from ..errors import ObservabilityError

__all__ = [
    "DEFAULT_BUCKETS",
    "METRICS_FORMAT",
    "METRICS_VERSION",
    "MetricsRegistry",
    "parse_prometheus_text",
]

METRICS_FORMAT = "repro-obs-metrics"
METRICS_VERSION = 1

_DOCUMENT = sealed.SealedFormat(
    METRICS_FORMAT, METRICS_VERSION, "metrics document",
    ObservabilityError, ObservabilityError,
)

#: Default histogram layout: latency-shaped, seconds, spanning the
#: ~100 µs shard replays up to minute-scale campaign phases.
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0, math.inf,
)

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

_COUNTER = "counter"
_GAUGE = "gauge"
_HISTOGRAM = "histogram"


def _format_value(value: float) -> str:
    """Prometheus exposition float formatting (shortest exact form)."""
    if value == math.inf:
        return "+Inf"
    if value == -math.inf:
        return "-Inf"
    if value != value:  # NaN
        return "NaN"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def _escape_label(value: str) -> str:
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


class _Series:
    """One labeled time-series of a family (current value only)."""

    __slots__ = ("_family", "value", "sum", "count", "bucket_counts")

    def __init__(self, family: "_Family"):
        self._family = family
        self.value = 0.0
        if family.kind == _HISTOGRAM:
            self.sum = 0.0
            self.count = 0
            self.bucket_counts = [0] * len(family.buckets)

    # -- instrument surface -------------------------------------------------

    def inc(self, amount: float = 1.0) -> None:
        if self._family.kind != _COUNTER:
            raise ObservabilityError(
                f"{self._family.name} is a {self._family.kind}, not a counter"
            )
        if amount < 0:
            raise ObservabilityError(
                f"counter {self._family.name} cannot decrease (inc {amount!r})"
            )
        self.value += amount
        self._family.registry._samples += 1

    def set(self, value: float) -> None:
        if self._family.kind != _GAUGE:
            raise ObservabilityError(
                f"{self._family.name} is a {self._family.kind}, not a gauge"
            )
        self.value = float(value)
        self._family.registry._samples += 1

    def observe(self, value: float) -> None:
        if self._family.kind != _HISTOGRAM:
            raise ObservabilityError(
                f"{self._family.name} is a {self._family.kind}, "
                f"not a histogram"
            )
        value = float(value)
        self.sum += value
        self.count += 1
        buckets = self._family.buckets
        # Linear probe: layouts are short and observations skew low.
        for index, bound in enumerate(buckets):
            if value <= bound:
                self.bucket_counts[index] += 1
                break
        self._family.registry._samples += 1


class _Family:
    """A named metric family holding one series per label-value tuple."""

    __slots__ = ("registry", "name", "kind", "help", "labelnames",
                 "buckets", "series")

    def __init__(
        self,
        registry: "MetricsRegistry",
        name: str,
        kind: str,
        help_text: str,
        labelnames: Tuple[str, ...],
        buckets: Optional[Tuple[float, ...]] = None,
    ):
        self.registry = registry
        self.name = name
        self.kind = kind
        self.help = help_text
        self.labelnames = labelnames
        self.buckets = buckets
        self.series: Dict[Tuple[str, ...], _Series] = {}

    def labels(self, *values: str, **kv: str) -> _Series:
        """The series for one label-value assignment (created on first use)."""
        if kv:
            if values:
                raise ObservabilityError(
                    f"{self.name}: pass label values positionally or by "
                    f"keyword, not both"
                )
            try:
                values = tuple(str(kv[name]) for name in self.labelnames)
            except KeyError as error:
                raise ObservabilityError(
                    f"{self.name}: missing label {error.args[0]!r} "
                    f"(labelnames {self.labelnames})"
                ) from error
            if len(kv) != len(self.labelnames):
                extras = set(kv) - set(self.labelnames)
                raise ObservabilityError(
                    f"{self.name}: unknown labels {sorted(extras)} "
                    f"(labelnames {self.labelnames})"
                )
        else:
            values = tuple(str(v) for v in values)
        if len(values) != len(self.labelnames):
            raise ObservabilityError(
                f"{self.name} takes {len(self.labelnames)} label value(s) "
                f"{self.labelnames}, got {len(values)}"
            )
        series = self.series.get(values)
        if series is None:
            series = _Series(self)
            self.series[values] = series
        return series

    # Unlabeled convenience: family acts as its own single series.

    def inc(self, amount: float = 1.0) -> None:
        self.labels().inc(amount)

    def set(self, value: float) -> None:
        self.labels().set(value)

    def observe(self, value: float) -> None:
        self.labels().observe(value)


def _normalize_buckets(buckets: Iterable[float]) -> Tuple[float, ...]:
    out = tuple(float(b) for b in buckets)
    if not out:
        raise ObservabilityError("histogram needs at least one bucket bound")
    if any(b != b for b in out):
        raise ObservabilityError("histogram bucket bounds cannot be NaN")
    if list(out) != sorted(out) or len(set(out)) != len(out):
        raise ObservabilityError(
            f"histogram buckets must be strictly increasing, got {out}"
        )
    if out[-1] != math.inf:
        out = out + (math.inf,)
    return out


class MetricsRegistry:
    """A process-local collection of metric families.

    One registry per observability context.
    """

    def __init__(self) -> None:
        self._families: Dict[str, _Family] = {}
        self._samples = 0

    @property
    def sample_count(self) -> int:
        """Total instrument updates recorded: every ``inc``, ``set``
        and ``observe`` on any series.  The telemetry-budget tests bound
        it per campaign shard and per screening run."""
        return self._samples

    # -- registration -------------------------------------------------------

    def _family(
        self,
        name: str,
        kind: str,
        help_text: str,
        labelnames: Sequence[str],
        buckets: Optional[Tuple[float, ...]] = None,
    ) -> _Family:
        if not _NAME_RE.match(name):
            raise ObservabilityError(f"invalid metric name {name!r}")
        labelnames = tuple(labelnames)
        for label in labelnames:
            if not _LABEL_RE.match(label) or label.startswith("__"):
                raise ObservabilityError(
                    f"invalid label name {label!r} on metric {name!r}"
                )
        existing = self._families.get(name)
        if existing is not None:
            if (
                existing.kind != kind
                or existing.labelnames != labelnames
                or existing.buckets != buckets
            ):
                raise ObservabilityError(
                    f"metric {name!r} re-registered with a different "
                    f"kind/labelnames/buckets"
                )
            return existing
        family = _Family(self, name, kind, help_text, labelnames, buckets)
        self._families[name] = family
        return family

    def counter(
        self, name: str, help: str = "", labelnames: Sequence[str] = ()
    ) -> _Family:
        return self._family(name, _COUNTER, help, labelnames)

    def gauge(
        self, name: str, help: str = "", labelnames: Sequence[str] = ()
    ) -> _Family:
        return self._family(name, _GAUGE, help, labelnames)

    def histogram(
        self,
        name: str,
        help: str = "",
        labelnames: Sequence[str] = (),
        buckets: Iterable[float] = DEFAULT_BUCKETS,
    ) -> _Family:
        return self._family(
            name, _HISTOGRAM, help, labelnames, _normalize_buckets(buckets)
        )

    # -- snapshot / load ----------------------------------------------------

    def snapshot(self) -> Dict[str, object]:
        """Canonical JSON-able document of every family and series."""
        families = []
        for name in sorted(self._families):
            family = self._families[name]
            series_rows = []
            for values in sorted(family.series):
                series = family.series[values]
                row: Dict[str, object] = {"labels": list(values)}
                if family.kind == _HISTOGRAM:
                    row["sum"] = series.sum
                    row["count"] = series.count
                    row["bucket_counts"] = list(series.bucket_counts)
                else:
                    row["value"] = series.value
                series_rows.append(row)
            entry: Dict[str, object] = {
                "name": family.name,
                "kind": family.kind,
                "help": family.help,
                "labelnames": list(family.labelnames),
                "series": series_rows,
            }
            if family.buckets is not None:
                # inf is not valid JSON; the layout always ends with it,
                # so serialize the finite prefix.
                entry["buckets"] = [b for b in family.buckets if b != math.inf]
            families.append(entry)
        return {
            "format": METRICS_FORMAT,
            "version": METRICS_VERSION,
            "families": families,
        }

    @classmethod
    def _from_snapshot(cls, snapshot: Dict[str, object]) -> "MetricsRegistry":
        """A registry holding the series of a :meth:`snapshot` document.

        The document comes from disk, so it is checked: format and
        version must match, a name may not return with another kind,
        labelnames or bucket layout, and a histogram row must have one
        count per bucket.  Repeated rows of one series fold together:
        counters and histograms add, gauges keep the last value.
        """
        if snapshot.get("format") != METRICS_FORMAT:
            raise ObservabilityError(
                f"not a {METRICS_FORMAT!r} document: "
                f"{snapshot.get('format')!r}"
            )
        if snapshot.get("version") != METRICS_VERSION:
            raise ObservabilityError(
                f"metrics snapshot version {snapshot.get('version')!r} is "
                f"not {METRICS_VERSION}"
            )
        registry = cls()
        for entry in snapshot.get("families", ()):  # type: ignore[union-attr]
            kind = entry["kind"]
            buckets = (
                _normalize_buckets(entry["buckets"])
                if kind == _HISTOGRAM
                else None
            )
            family = registry._family(
                entry["name"], kind, entry.get("help", ""),
                tuple(entry.get("labelnames", ())), buckets,
            )
            for row in entry.get("series", ()):
                series = family.labels(*row.get("labels", ()))
                if kind == _HISTOGRAM:
                    series.sum += row["sum"]
                    series.count += row["count"]
                    incoming = row["bucket_counts"]
                    if len(incoming) != len(series.bucket_counts):
                        raise ObservabilityError(
                            f"histogram {family.name!r} bucket layout mismatch"
                        )
                    for index, count in enumerate(incoming):
                        series.bucket_counts[index] += count
                elif kind == _COUNTER:
                    series.value += row["value"]
                else:
                    series.value = row["value"]
        return registry

    # -- value access (tests, reports) --------------------------------------

    def value(self, name: str, **labels: str) -> float:
        """Current value of one counter/gauge series (0.0 if unwritten)."""
        family = self._families.get(name)
        if family is None:
            return 0.0
        values = tuple(str(labels[n]) for n in family.labelnames)
        series = family.series.get(values)
        return series.value if series is not None else 0.0

    def total(self, name: str) -> float:
        """Sum of a counter family over all its labeled series."""
        family = self._families.get(name)
        if family is None:
            return 0.0
        if family.kind == _HISTOGRAM:
            return float(sum(s.count for s in family.series.values()))
        return sum(s.value for s in family.series.values())

    def families(self) -> List[str]:
        return sorted(self._families)

    # -- exporters ----------------------------------------------------------

    def to_prometheus_text(self) -> str:
        """Prometheus exposition format 0.0.4 (text)."""
        lines: List[str] = []
        for name in sorted(self._families):
            family = self._families[name]
            if family.help:
                lines.append(f"# HELP {name} {family.help}")
            lines.append(f"# TYPE {name} {family.kind}")
            for values in sorted(family.series):
                series = family.series[values]
                base_labels = [
                    f'{label}="{_escape_label(value)}"'
                    for label, value in zip(family.labelnames, values)
                ]
                if family.kind == _HISTOGRAM:
                    cumulative = 0
                    for bound, count in zip(
                        family.buckets, series.bucket_counts
                    ):
                        cumulative += count
                        le = f'le="{_format_value(bound)}"'
                        labels = ",".join(base_labels + [le])
                        lines.append(
                            f"{name}_bucket{{{labels}}} {cumulative}"
                        )
                    suffix = (
                        "{" + ",".join(base_labels) + "}" if base_labels
                        else ""
                    )
                    lines.append(
                        f"{name}_sum{suffix} {_format_value(series.sum)}"
                    )
                    lines.append(f"{name}_count{suffix} {series.count}")
                else:
                    suffix = (
                        "{" + ",".join(base_labels) + "}" if base_labels
                        else ""
                    )
                    lines.append(
                        f"{name}{suffix} {_format_value(series.value)}"
                    )
        return "\n".join(lines) + ("\n" if lines else "")

    def to_json(self) -> str:
        """The snapshot as a sealed JSON document (CRC-32 self-check)."""
        return sealed.seal_document(_DOCUMENT, self.snapshot()).decode("utf-8")

    @classmethod
    def from_json(cls, text) -> "MetricsRegistry":
        """Parse :meth:`to_json` output (text or bytes), verifying the
        CRC self-check."""
        return cls._from_snapshot(
            sealed.unseal_document(_DOCUMENT, text, "metrics document")
        )

    def save(self, path: os.PathLike) -> None:
        """Atomically write this registry to ``path``.

        ``.json`` suffixes get the sealed JSON document; everything
        else (``.prom``, ``.txt``) gets Prometheus exposition text.
        """
        path = Path(path)
        if path.suffix == ".json":
            sealed.write_document(_DOCUMENT, path, self.snapshot())
            return
        try:
            sealed.atomic_write(
                path, self.to_prometheus_text().encode("utf-8")
            )
        except OSError as error:
            raise ObservabilityError(
                f"cannot write metrics to {path}: {error}"
            ) from error


def parse_prometheus_text(text: str) -> Dict[str, Dict[str, object]]:
    """Parse exposition text back into ``{name: {kind, samples}}``.

    Small, strict parser for ``repro obs-report`` and the CI schema
    check — it validates metric/label naming and numeric values and
    raises :class:`~repro.errors.ObservabilityError` on any malformed
    line.  ``samples`` maps a rendered label string to a float.
    """
    metrics: Dict[str, Dict[str, object]] = {}
    sample_re = re.compile(
        r"^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{([^}]*)\})?\s+(\S+)$"
    )
    for line_no, line in enumerate(text.splitlines(), 1):
        if not line.strip():
            continue
        if line.startswith("# HELP ") or line.startswith("# TYPE "):
            parts = line.split(None, 3)
            if len(parts) < 3:
                raise ObservabilityError(
                    f"line {line_no}: malformed comment {line!r}"
                )
            name = parts[2]
            entry = metrics.setdefault(name, {"kind": None, "samples": {}})
            if parts[1] == "TYPE":
                if len(parts) < 4 or parts[3] not in (
                    _COUNTER, _GAUGE, _HISTOGRAM,
                ):
                    raise ObservabilityError(
                        f"line {line_no}: bad TYPE {line!r}"
                    )
                entry["kind"] = parts[3]
            continue
        if line.startswith("#"):
            continue
        match = sample_re.match(line)
        if match is None:
            raise ObservabilityError(
                f"line {line_no}: malformed sample {line!r}"
            )
        name, _, labels, value = match.groups()
        base = re.sub(r"_(bucket|sum|count)$", "", name)
        family = base if base in metrics else name
        entry = metrics.setdefault(family, {"kind": None, "samples": {}})
        try:
            parsed = float(value.replace("+Inf", "inf"))
        except ValueError as error:
            raise ObservabilityError(
                f"line {line_no}: bad value {value!r}"
            ) from error
        key = f"{name}{{{labels}}}" if labels else name
        entry["samples"][key] = parsed
    return metrics
