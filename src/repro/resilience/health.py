"""Structured campaign health accounting.

Production fleet scanners (Meta's at-scale SDC screens, Google's
SiliFuzz) treat the test infrastructure itself as unreliable: hosts
stall, scanners crash, snapshots rot, runs resume.  What keeps partial
results trustworthy is a structured audit trail — every snapshot
written or skipped, every resume — attached to the campaign result
instead of scattered through logs.

:class:`CampaignHealthReport` is that trail.  The resilient campaign
layer appends :class:`HealthEvent` records to one report; it
serializes into the checkpoint payload so a resumed run keeps the full
history.  Checkpoints written before shard retries, engine degradation
and in-process fault injection were retired may carry ``retry``,
``degradation`` and ``fault`` events; they load like any other kind.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

__all__ = ["HealthEvent", "CampaignHealthReport"]


#: Event kinds recorded by the resilience layer.  Kept as plain strings
#: (not an enum) so new layers can record domain-specific kinds without
#: touching this module; these are the ones the core layer emits.
KIND_CHECKPOINT = "checkpoint"  #: a snapshot was written
KIND_CHECKPOINT_FALLBACK = "checkpoint_fallback"  #: a corrupt snapshot was skipped
KIND_RESUME = "resume"  #: a campaign continued from a snapshot


@dataclass(frozen=True)
class HealthEvent:
    """One resilience-relevant occurrence during a campaign."""

    kind: str
    detail: str
    #: Shard index for campaign events.
    shard: Optional[int] = None
    #: Item index; no current layer sets it, but checkpoints serialize
    #: the field, so it stays for the checkpoint format.
    item: Optional[int] = None

    def to_dict(self) -> Dict[str, object]:
        return {
            "kind": self.kind,
            "detail": self.detail,
            "shard": self.shard,
            "item": self.item,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "HealthEvent":
        return cls(
            kind=str(data["kind"]),
            detail=str(data["detail"]),
            shard=data.get("shard"),  # type: ignore[arg-type]
            item=data.get("item"),  # type: ignore[arg-type]
        )


@dataclass
class CampaignHealthReport:
    """Everything that went wrong — and what was done about it."""

    events: List[HealthEvent] = field(default_factory=list)

    #: Optional telemetry bridge (class attribute, not a dataclass
    #: field: it never serializes into checkpoints).  Anything with an
    #: ``on_health_event(event)`` method — in practice
    #: :class:`repro.obs.Observability` — sees every event the moment
    #: it is recorded, so checkpointed health and emitted telemetry
    #: cannot disagree.
    observer = None

    def record(
        self, kind: str, detail: str, *, shard: Optional[int] = None
    ) -> HealthEvent:
        event = HealthEvent(kind=kind, detail=detail, shard=shard)
        self.events.append(event)
        if self.observer is not None:
            self.observer.on_health_event(event)
        return event

    # -- queries -----------------------------------------------------------

    def count(self, kind: str) -> int:
        return sum(1 for event in self.events if event.kind == kind)

    def of_kind(self, kind: str) -> List[HealthEvent]:
        return [event for event in self.events if event.kind == kind]

    @property
    def checkpoints_written(self) -> int:
        return self.count(KIND_CHECKPOINT)

    @property
    def resumes(self) -> int:
        return self.count(KIND_RESUME)

    def summary(self) -> str:
        """One human line per counter, for CLI output."""
        return (
            f"checkpoints={self.checkpoints_written} resumes={self.resumes}"
        )

    # -- serialization -----------------------------------------------------

    def to_dict(self) -> Dict[str, object]:
        return {"events": [event.to_dict() for event in self.events]}

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "CampaignHealthReport":
        events = [
            HealthEvent.from_dict(item)  # type: ignore[arg-type]
            for item in data.get("events", [])  # type: ignore[union-attr]
        ]
        return cls(events=events)
