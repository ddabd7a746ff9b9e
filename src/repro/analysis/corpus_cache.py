"""On-disk cache of materialized SDC-record corpora.

A record corpus is deterministic — the same inputs always produce the
same :class:`~repro.testing.records.RecordStore` — but can be slow to
materialize, so this module memoizes stores on disk:

* the cache **key** is chosen by the caller, who must make it name
  everything the store depends on: the cache cannot tell when a key
  goes stale;
* the cache **file** is a campaign checkpoint
  (:func:`repro.resilience.checkpoint.write_checkpoint`), a sealed
  document (:mod:`repro.sealed`): CRC-32 self-check, atomic write.
  A torn or bit-rotted cache file fails its self-check and the corpus
  is recomputed — damage costs time, never serves wrong records;
* records round-trip exactly: Python ints carry the 80-bit FLOAT64X
  patterns without truncation, and JSON floats use shortest-repr
  encoding, so the reloaded store compares equal field for field.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Callable, Optional

from ..cpu.features import DataType
from ..errors import CheckpointError
from ..resilience.checkpoint import read_checkpoint, write_checkpoint
from ..testing.records import ConsistencyRecord, RecordStore, SDCRecord
from .columnar import RecordFrame, load_record_frame, save_record_frame

__all__ = [
    "save_corpus",
    "load_corpus",
    "CorpusCache",
]

_RECORD_FIELDS = (
    "processor_id",
    "testcase_id",
    "pcore_id",
    "defect_id",
    "instruction",
    "dtype",
    "expected_bits",
    "actual_bits",
    "temperature_c",
    "time_s",
)

_CONSISTENCY_FIELDS = (
    "processor_id",
    "testcase_id",
    "pcore_id",
    "defect_id",
    "kind",
    "temperature_c",
    "time_s",
)


def save_corpus(path: os.PathLike, store: RecordStore) -> None:
    """Atomically persist a record store as a self-checking snapshot."""
    payload = {
        "records": [
            [
                record.processor_id,
                record.testcase_id,
                record.pcore_id,
                record.defect_id,
                record.instruction,
                record.dtype.name,
                record.expected_bits,
                record.actual_bits,
                record.temperature_c,
                record.time_s,
            ]
            for record in store.records
        ],
        "consistency": [
            [
                record.processor_id,
                record.testcase_id,
                record.pcore_id,
                record.defect_id,
                record.kind,
                record.temperature_c,
                record.time_s,
            ]
            for record in store.consistency_records
        ],
    }
    write_checkpoint(path, payload)


def load_corpus(path: os.PathLike) -> RecordStore:
    """Load a store saved by :func:`save_corpus`.

    Raises the checkpoint layer's errors (missing file, torn write,
    CRC mismatch, version skew) — callers fall back to recomputing.
    """
    payload = read_checkpoint(path)
    store = RecordStore()
    for row in payload.get("records", []):
        fields = dict(zip(_RECORD_FIELDS, row))
        fields["dtype"] = DataType[fields["dtype"]]
        store.add(SDCRecord(**fields))
    for row in payload.get("consistency", []):
        store.add_consistency(
            ConsistencyRecord(**dict(zip(_CONSISTENCY_FIELDS, row)))
        )
    return store


class CorpusCache:
    """A directory of corpus snapshots, one per caller-chosen key."""

    _PREFIX = "corpus-"
    _SUFFIX = ".ckpt"

    def __init__(self, directory: os.PathLike):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        #: Whether the last :meth:`get_or_build` call was served from
        #: disk — observable for tests and benchmark reporting.
        self.last_hit: Optional[bool] = None

    def path_for(self, key: str) -> Path:
        return self.directory / f"{self._PREFIX}{key}{self._SUFFIX}"

    def frame_path_for(self, key: str) -> Path:
        return self.directory / f"frame-{key}"

    def get_or_build(
        self, key: str, builder: Callable[[], RecordStore]
    ) -> RecordStore:
        """The cached store for ``key``, building (and saving) on miss.

        Any unreadable cache file — absent, torn mid-write, failing its
        CRC self-check, or from an incompatible format version — is
        treated as a miss and overwritten with a fresh materialization,
        so a damaged cache changes timing, never results.
        """
        path = self.path_for(key)
        try:
            store = load_corpus(path)
        except CheckpointError:
            pass
        else:
            self.last_hit = True
            return store
        self.last_hit = False
        store = builder()
        try:
            save_corpus(path, store)
        except CheckpointError:  # pragma: no cover - read-only cache dir
            pass
        return store

    def frame_for(
        self,
        key: str,
        builder: Callable[[], RecordStore],
        mmap: bool = True,
        obs=None,
    ) -> RecordFrame:
        """The columnar frame for ``key``, memory-mapped on hit.

        The out-of-core analytics path: a hit maps the spilled column
        files read-only (O(columns) validation, no record decoding at
        all); a miss materializes the store via ``builder`` (through the
        corpus cache, so the raw records are also reusable), lowers it
        once, and spills the frame beside the corpus snapshot.
        """
        directory = self.frame_path_for(key)
        try:
            frame = load_record_frame(directory, mmap=mmap)
        except CheckpointError:
            pass
        else:
            self.last_hit = True
            return frame
        store = self.get_or_build(key, builder)
        self.last_hit = False
        frame = RecordFrame.from_store(store)
        try:
            save_record_frame(frame, directory, obs=obs)
        except CheckpointError:  # pragma: no cover - read-only cache dir
            pass
        return frame
