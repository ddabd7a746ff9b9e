"""Resilient campaign execution: checkpoint and resume.

The fleet engines in :mod:`repro.fleet` compute; this package keeps
them alive for month-scale campaigns on unreliable infrastructure —
sharded execution, periodic self-checking snapshots, and deterministic
resume past torn or bit-rotted snapshots.  The chaos suite
(``tests/chaos/``) kills campaign processes and damages their
snapshots from outside, and proves every verdict stays bit-identical.
"""

from .campaign import CampaignSpec, ResilientCampaign
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
    "CHECKPOINT_FORMAT",
    "CHECKPOINT_VERSION",
    "CheckpointStore",
    "read_checkpoint",
    "write_checkpoint",
    "CampaignHealthReport",
    "HealthEvent",
]
