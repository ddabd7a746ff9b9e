"""Declarative fleet-health rules evaluated against scrape history.

The paper's screening methodology assumes someone is *watching* the
fleet: a silent detection-rate drop is itself a silent corruption of
the study.  :class:`HealthEngine` closes that loop without external
dependencies — rules are plain data, evaluation is a pure function of
the :class:`~repro.obs.timeseries.TimeSeriesStore`, and firing state
is surfaced three ways at once:

* a Prometheus-convention ``ALERTS{alertname,severity}`` gauge (1 while
  firing, 0 after resolution) on the existing ``/metrics`` endpoint,
* ``alert.fire`` / ``alert.resolve`` tracer events in the stitched
  trace, and
* a JSON document for ``/alerts`` and the ``/healthz`` detail block.

Three rule kinds cover the failure modes ISSUE 10 names:

``threshold``
    Compare the latest sample of every matching series against a bound
    (`repro_service_shard_seconds_p99 > 30`, journal latency, RSS
    ceilings).
``rate``
    Compare the change per second over a trailing window
    (SDC-detection-ratio drift: a sustained negative slope means the
    fleet stopped finding defects it used to find).
``absence``
    Fire when a series has produced **no** sample newer than
    ``window_s`` (a stalled campaign stops observing shard latencies
    long before any threshold trips).

A rule may carry a *guard*: it only evaluates while the guard metric's
latest value is at or above ``guard_min`` — "no cores leased" is
starvation only while jobs are actually active.  ``for_s`` debounces:
the condition must hold continuously that long before the alert fires.
No data never fires threshold/rate rules (a freshly booted daemon is
healthy until proven otherwise); absence rules need at least one
historical sample before silence becomes suspicious.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..errors import ObservabilityError
from .timeseries import DETECTION_RATIO_SERIES, TimeSeriesStore

__all__ = [
    "HealthRule",
    "HealthEngine",
    "default_service_rules",
]

#: Comparison operators a rule may use against its threshold.
_OPS: Dict[str, Callable[[float, float], bool]] = {
    ">": lambda value, bound: value > bound,
    ">=": lambda value, bound: value >= bound,
    "<": lambda value, bound: value < bound,
    "<=": lambda value, bound: value <= bound,
}

_KINDS = ("threshold", "rate", "absence")


@dataclass(frozen=True)
class HealthRule:
    """One declarative health condition.

    ``metric`` matches the *family* part of store keys: the bare name
    itself plus any labeled variants (``name{...}``).  For threshold
    and rate rules the worst offender across matching series is the
    value judged — max for ``>``/``>=`` bounds, min for ``<``/``<=`` —
    so one rule covers every mode/shard label without enumeration.
    """

    name: str
    metric: str
    kind: str = "threshold"
    op: str = ">"
    threshold: float = 0.0
    #: Trailing window for rate rules; staleness horizon for absence.
    window_s: float = 60.0
    #: Debounce: condition must hold this long before firing.
    for_s: float = 0.0
    severity: str = "warning"
    description: str = ""
    #: Optional gate: evaluate only while guard_metric >= guard_min.
    guard_metric: Optional[str] = None
    guard_min: float = 1.0

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ObservabilityError(
                f"rule {self.name!r}: unknown kind {self.kind!r} "
                f"(expected one of {_KINDS})"
            )
        if self.op not in _OPS:
            raise ObservabilityError(
                f"rule {self.name!r}: unknown op {self.op!r} "
                f"(expected one of {sorted(_OPS)})"
            )
        if self.kind in ("rate", "absence") and self.window_s <= 0:
            raise ObservabilityError(
                f"rule {self.name!r}: {self.kind} rules need window_s > 0"
            )


@dataclass
class _RuleState:
    """Mutable evaluation state for one rule."""

    firing: bool = False
    #: When the raw condition first became true (debounce anchor).
    pending_since: Optional[float] = None
    #: When the alert transitioned to firing.
    since: Optional[float] = None
    fired_count: int = 0
    last_value: Optional[float] = None
    last_series: Optional[str] = None


class HealthEngine:
    """Evaluate a rule set against the store; track fire/resolve state."""

    def __init__(
        self,
        store: TimeSeriesStore,
        rules: Sequence[HealthRule],
        obs=None,
    ):
        names = [rule.name for rule in rules]
        if len(set(names)) != len(names):
            raise ObservabilityError(f"duplicate rule names: {names}")
        self.store = store
        self.rules: Tuple[HealthRule, ...] = tuple(rules)
        self.obs = obs
        self._state: Dict[str, _RuleState] = {
            rule.name: _RuleState() for rule in self.rules
        }
        self.evaluations = 0

    # -- store plumbing ------------------------------------------------------

    def _matching_keys(self, metric: str) -> List[str]:
        prefix = metric + "{"
        return [
            key
            for key in self.store.keys()
            if key == metric or key.startswith(prefix)
        ]

    def _guard_open(self, rule: HealthRule) -> bool:
        if rule.guard_metric is None:
            return True
        worst = None
        for key in self._matching_keys(rule.guard_metric):
            latest = self.store.latest(key)
            if latest is not None:
                value = latest[1]
                worst = value if worst is None else max(worst, value)
        return worst is not None and worst >= rule.guard_min

    def _worst(
        self, rule: HealthRule, values: List[Tuple[str, float]]
    ) -> Optional[Tuple[str, float]]:
        if not values:
            return None
        if rule.op in (">", ">="):
            return max(values, key=lambda pair: pair[1])
        return min(values, key=lambda pair: pair[1])

    # -- rule kinds ----------------------------------------------------------

    def _condition(
        self, rule: HealthRule, now: float
    ) -> Tuple[bool, Optional[float], Optional[str]]:
        """(condition_true, offending_value, offending_series)."""
        keys = self._matching_keys(rule.metric)
        if rule.kind == "absence":
            # Silence is only meaningful once the series has existed.
            freshest: Optional[Tuple[str, float]] = None
            for key in keys:
                latest = self.store.latest(key)
                if latest is None:
                    continue
                if freshest is None or latest[0] > freshest[1]:
                    freshest = (key, latest[0])
            if freshest is None:
                return False, None, None
            age = now - freshest[1]
            return age > rule.window_s, age, freshest[0]

        compare = _OPS[rule.op]
        values: List[Tuple[str, float]] = []
        for key in keys:
            latest = self.store.latest(key)
            if latest is None:
                continue
            if rule.kind == "threshold":
                values.append((key, latest[1]))
            else:  # rate
                then = self.store.value_at(key, now - rule.window_s)
                if then is None or latest[0] <= then[0]:
                    continue
                slope = (latest[1] - then[1]) / (latest[0] - then[0])
                values.append((key, slope))
        worst = self._worst(rule, values)
        if worst is None:
            return False, None, None
        key, value = worst
        return compare(value, rule.threshold), value, key

    # -- evaluation ----------------------------------------------------------

    def evaluate(self, now: float) -> List[str]:
        """Run every rule once; returns names that transitioned
        (fired or resolved) this pass."""
        transitions: List[str] = []
        for rule in self.rules:
            state = self._state[rule.name]
            if not self._guard_open(rule):
                # Closed guard clears debounce but does not resolve a
                # firing alert by itself — the condition must clear
                # while the guard is open (no active jobs says nothing
                # about whether starvation ended).
                state.pending_since = None
                continue
            condition, value, series = self._condition(rule, now)
            if value is not None:
                state.last_value = value
                state.last_series = series
            if condition:
                if state.pending_since is None:
                    state.pending_since = now
                held = now - state.pending_since
                if not state.firing and held >= rule.for_s:
                    state.firing = True
                    state.since = now
                    state.fired_count += 1
                    self._announce(rule, state, "alert.fire", now)
                    transitions.append(rule.name)
            else:
                state.pending_since = None
                if state.firing:
                    state.firing = False
                    state.since = None
                    self._announce(rule, state, "alert.resolve", now)
                    transitions.append(rule.name)
        self.evaluations += 1
        return transitions

    def _announce(
        self, rule: HealthRule, state: _RuleState, kind: str, now: float
    ) -> None:
        if self.obs is None:
            return
        self.obs.set_gauge(
            "ALERTS",
            1.0 if state.firing else 0.0,
            alertname=rule.name,
            severity=rule.severity,
        )
        self.obs.tracer.event(
            kind,
            alertname=rule.name,
            severity=rule.severity,
            metric=rule.metric,
            value=state.last_value,
            series=state.last_series,
        )

    # -- reporting -----------------------------------------------------------

    def active(self) -> List[str]:
        """Names of currently firing rules, rule order preserved."""
        return [
            rule.name for rule in self.rules if self._state[rule.name].firing
        ]

    def to_doc(self, now: float) -> Dict[str, object]:
        """The ``/alerts`` endpoint body."""
        alerts = []
        for rule in self.rules:
            state = self._state[rule.name]
            alerts.append(
                {
                    "name": rule.name,
                    "severity": rule.severity,
                    "metric": rule.metric,
                    "kind": rule.kind,
                    "description": rule.description,
                    "firing": state.firing,
                    "since": state.since,
                    "for_s": (
                        now - state.since
                        if state.firing and state.since is not None
                        else None
                    ),
                    "fired_count": state.fired_count,
                    "last_value": state.last_value,
                    "last_series": state.last_series,
                }
            )
        return {
            "evaluations": self.evaluations,
            "firing": self.active(),
            "alerts": alerts,
        }


def default_service_rules(
    *,
    rss_limit_bytes: Optional[float] = None,
    shard_p99_limit_s: float = 30.0,
    journal_append_limit_s: float = 0.5,
    detection_drift_per_s: float = 1e-4,
) -> Tuple[HealthRule, ...]:
    """The stock rule set ``repro serve`` evaluates: SDC drift, shard
    p99, journal latency, backlog, stalled progress and (optionally)
    RSS."""
    rules = [
        HealthRule(
            name="sdc_detection_rate_drift",
            metric=DETECTION_RATIO_SERIES,
            kind="rate",
            op="<",
            threshold=-abs(detection_drift_per_s),
            window_s=300.0,
            for_s=5.0,
            severity="warning",
            description=(
                "Fleet SDC detection ratio is falling — the screen is "
                "finding fewer defects per CPU than it was 5 minutes ago."
            ),
        ),
        HealthRule(
            name="shard_latency_p99",
            metric="repro_service_shard_seconds_p99",
            kind="threshold",
            op=">",
            threshold=shard_p99_limit_s,
            for_s=2.0,
            severity="warning",
            description="Shard p99 latency regressed past the SLO bound.",
        ),
        HealthRule(
            name="journal_append_latency",
            metric="repro_service_journal_append_seconds_p99",
            kind="threshold",
            op=">",
            threshold=journal_append_limit_s,
            for_s=2.0,
            severity="warning",
            description=(
                "Write-ahead journal appends (fsync included) are slow; "
                "admission latency and crash-recovery lag follow."
            ),
        ),
        HealthRule(
            name="service_backlog",
            metric="repro_service_queue_depth",
            kind="threshold",
            op=">=",
            threshold=1.0,
            severity="info",
            description="Jobs are queued behind the running set.",
        ),
        HealthRule(
            name="campaign_progress_stalled",
            metric="repro_service_shard_seconds_count",
            kind="absence",
            window_s=120.0,
            severity="critical",
            description=(
                "Active jobs have completed no shard in two minutes — "
                "a worker or the scheduler pump is wedged."
            ),
            guard_metric="repro_service_active_jobs",
            guard_min=1.0,
        ),
    ]
    if rss_limit_bytes is not None:
        rules.append(
            HealthRule(
                name="rss_ceiling",
                metric="repro_rss_bytes",
                kind="threshold",
                op=">",
                threshold=float(rss_limit_bytes),
                severity="critical",
                description="Daemon RSS exceeded the configured ceiling.",
            )
        )
    return tuple(rules)
