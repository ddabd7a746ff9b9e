"""Versioned, self-checking campaign checkpoints.

A month-scale campaign must survive the process that runs it.  A
snapshot is a sealed document (:mod:`repro.sealed`):

* **JSON payload** — every value the campaign needs to continue
  (cursor, draw-stream position, partial detections) round-trips
  exactly: CPython's ``repr`` serialization of floats is shortest
  round-trip, so ``Detection.day`` survives bit-for-bit.
* **CRC self-check** — a torn write, truncation, or flipped byte
  surfaces as :class:`~repro.errors.CheckpointCorruptError` instead of
  silently corrupting the aggregate result.
* **Atomic write** — a crash mid-write leaves the previous snapshot
  intact, and a crash right after the write cannot un-happen it.
* **Rotation** — :class:`CheckpointStore` keeps the last few snapshots;
  the loader falls back to the newest one that passes its self-check.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Dict, List, Optional

from .. import sealed
from ..errors import (
    CheckpointCorruptError,
    CheckpointError,
    CheckpointVersionError,
)
from .health import KIND_CHECKPOINT_FALLBACK, CampaignHealthReport

__all__ = [
    "CHECKPOINT_FORMAT",
    "CHECKPOINT_VERSION",
    "write_checkpoint",
    "read_checkpoint",
    "CheckpointStore",
]

CHECKPOINT_FORMAT = "repro-campaign-checkpoint"
CHECKPOINT_VERSION = 1

_CHECKPOINT = sealed.SealedFormat(
    CHECKPOINT_FORMAT, CHECKPOINT_VERSION, "checkpoint",
    CheckpointError, CheckpointCorruptError, CheckpointVersionError,
)


def write_checkpoint(path: os.PathLike, payload: Dict[str, object]) -> None:
    """Atomically write ``payload`` as a self-checking snapshot."""
    sealed.write_document(_CHECKPOINT, path, payload)


def read_checkpoint(path: os.PathLike) -> Dict[str, object]:
    """Read and verify one snapshot, returning its payload.

    Raises :class:`CheckpointCorruptError` for anything that fails the
    structure or CRC self-check and :class:`CheckpointVersionError` for
    snapshots from an incompatible format version.
    """
    return sealed.read_document(_CHECKPOINT, path)


class CheckpointStore:
    """A rotating directory of numbered snapshots.

    ``campaign-000001.ckpt``, ``campaign-000002.ckpt``, … — newest wins,
    the loader falls back across corrupt snapshots, and old snapshots
    beyond ``keep`` are pruned after each successful save.
    """

    _PREFIX = "campaign-"
    _SUFFIX = ".ckpt"

    def __init__(self, directory: os.PathLike, keep: int = 2):
        if keep < 1:
            raise CheckpointError("CheckpointStore must keep at least 1 snapshot")
        self.directory = Path(directory)
        self.keep = keep
        self.directory.mkdir(parents=True, exist_ok=True)

    def paths(self) -> List[Path]:
        """Existing snapshot paths, oldest first."""
        return sealed.numbered_paths(
            self.directory, self._PREFIX, self._SUFFIX
        )

    def save(self, payload: Dict[str, object]) -> Path:
        path = sealed.next_numbered(
            self.directory, self._PREFIX, self._SUFFIX
        )
        write_checkpoint(path, payload)
        for stale in self.paths()[:-self.keep]:
            try:
                stale.unlink()
            except OSError:
                pass
        return path

    def load_latest(
        self, health: Optional[CampaignHealthReport] = None
    ) -> Optional[Dict[str, object]]:
        """Payload of the newest snapshot that passes its self-check.

        Corrupt snapshots are skipped (recorded into ``health``), which
        is what makes a torn final write survivable: the previous
        rotation still restores the campaign, at the cost of redoing
        one checkpoint interval of work.  Returns None when no usable
        snapshot exists.
        """
        for path in reversed(self.paths()):
            try:
                return read_checkpoint(path)
            except (CheckpointCorruptError, CheckpointVersionError) as error:
                if health is not None:
                    health.record(
                        KIND_CHECKPOINT_FALLBACK,
                        f"skipped {path.name}: {error}",
                    )
        return None
