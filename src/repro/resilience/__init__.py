"""Resilient campaign execution: checkpoint/resume and chaos.

The fleet engines in :mod:`repro.fleet` compute; this package keeps
them alive for month-scale campaigns on unreliable infrastructure —
sharded execution, periodic self-checking snapshots, deterministic
resume past torn or bit-rotted snapshots, and a seeded chaos injector
that proves all of it preserves bit-identical results.
"""

from .campaign import CampaignSpec, ResilientCampaign
from .chaos import FAULT_KINDS, ChaosInjector
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
    "ResilientCampaign",
    "FAULT_KINDS",
    "ChaosInjector",
    "CHECKPOINT_FORMAT",
    "CHECKPOINT_VERSION",
    "CheckpointStore",
    "read_checkpoint",
    "write_checkpoint",
    "CampaignHealthReport",
    "HealthEvent",
]
