"""Resilient campaign execution: checkpoint/resume, supervision, chaos.

The fleet engines in :mod:`repro.fleet` compute; this package keeps
them alive for month-scale campaigns on unreliable infrastructure —
periodic self-checking snapshots, deterministic resume, retry with
backoff, vectorized→scalar degradation, and a seeded chaos injector
that proves all of it preserves bit-identical results.
"""

from .campaign import (
    CampaignSpec,
    CampaignSupervisor,
    ResilientCampaign,
    run_resilient_campaign,
)
from .chaos import FAULT_KINDS, ChaosInjector, InjectedKillError
from .checkpoint import (
    CHECKPOINT_FORMAT,
    CHECKPOINT_VERSION,
    CheckpointStore,
    read_checkpoint,
    write_checkpoint,
)
from .health import CampaignHealthReport, HealthEvent

__all__ = [
    "CampaignSpec",
    "CampaignSupervisor",
    "ResilientCampaign",
    "run_resilient_campaign",
    "FAULT_KINDS",
    "ChaosInjector",
    "InjectedKillError",
    "CHECKPOINT_FORMAT",
    "CHECKPOINT_VERSION",
    "CheckpointStore",
    "read_checkpoint",
    "write_checkpoint",
    "CampaignHealthReport",
    "HealthEvent",
]
