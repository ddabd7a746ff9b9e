"""On-disk cache of materialized SDC-record corpora.

The §2.4 catalog corpus ("more than ten thousand SDC records") is
deterministic — the same catalog, library, and run parameters always
produce the same :class:`~repro.testing.records.RecordStore` — yet
materializing it walks 27 processors × 633 testcases through the
toolchain.  Figure benchmarks and the columnar speedup harness each
re-derive it, so this module memoizes the store on disk:

* the cache **key** is a SHA-256 fingerprint of everything the corpus
  depends on — run parameters plus descriptors of every processor
  (arch, defects, instructions, affected cores) and every testcase id —
  so any change to the catalog or library changes the file name rather
  than serving stale records;
* the cache **file** is a campaign checkpoint
  (:func:`repro.resilience.checkpoint.write_checkpoint`), a sealed
  document (:mod:`repro.sealed`): CRC-32 self-check, atomic write.
  A torn or bit-rotted cache file fails its self-check and the corpus
  is recomputed — the cache can be slow, never wrong;
* records round-trip exactly: Python ints carry the 80-bit FLOAT64X
  patterns without truncation, and JSON floats use shortest-repr
  encoding, so the reloaded store compares equal field for field.
"""

from __future__ import annotations

import hashlib
import os
from pathlib import Path
from typing import Callable, Dict, Optional

from ..cpu.features import DataType
from ..cpu.processor import Processor
from ..errors import CheckpointError
from ..resilience.checkpoint import read_checkpoint, write_checkpoint
from ..sealed import canonical
from ..testing.library import TestcaseLibrary
from ..testing.records import ConsistencyRecord, RecordStore, SDCRecord
from .columnar import RecordFrame, load_record_frame, save_record_frame
from .observations import build_catalog_corpus

__all__ = [
    "corpus_fingerprint",
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


def corpus_fingerprint(
    catalog: Dict[str, Processor],
    library: TestcaseLibrary,
    **parameters: object,
) -> str:
    """Content key for a corpus materialization.

    Covers the catalog's observable generator inputs (processor ids,
    architectures, defect ids, defective instructions, affected cores),
    the library's testcase ids, and any keyword run parameters (seed,
    temperature, duration).  Two materializations with the same
    fingerprint produce the same records.
    """
    descriptor = {
        "parameters": {k: repr(v) for k, v in sorted(parameters.items())},
        "processors": [
            {
                "id": processor.processor_id,
                "arch": processor.arch.name,
                "defects": [
                    {
                        "id": defect.defect_id,
                        "instructions": list(defect.instructions),
                        "cores": list(defect.core_ids),
                        "datatypes": [d.name for d in defect.datatypes],
                    }
                    for defect in processor.defects
                ],
            }
            for processor in catalog.values()
        ],
        "testcases": [testcase.testcase_id for testcase in library],
    }
    return hashlib.sha256(canonical(descriptor)).hexdigest()[:20]


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
    """A directory of fingerprint-keyed corpus snapshots."""

    _PREFIX = "corpus-"
    _SUFFIX = ".ckpt"

    def __init__(self, directory: os.PathLike):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        #: Whether the last :meth:`get_or_build` call was served from
        #: disk — observable for tests and benchmark reporting.
        self.last_hit: Optional[bool] = None
        # Fingerprint memo: hashing walks every processor descriptor and
        # testcase id (O(catalog)); repeat lookups of the same live
        # objects are the overwhelmingly common case (every figure
        # benchmark re-keys the same corpus), so memoize on object
        # identity + parameters.  The pin list keeps the keyed objects
        # alive so a recycled ``id()`` can never alias a stale entry.
        self._fingerprints: Dict[tuple, str] = {}
        self._pins: list = []

    def fingerprint(
        self,
        catalog: Dict[str, Processor],
        library: TestcaseLibrary,
        **parameters: object,
    ) -> str:
        """Memoized :func:`corpus_fingerprint` — O(1) on repeat lookups."""
        key = (
            id(catalog),
            id(library),
            tuple((k, repr(v)) for k, v in sorted(parameters.items())),
        )
        cached = self._fingerprints.get(key)
        if cached is None:
            cached = corpus_fingerprint(catalog, library, **parameters)
            self._fingerprints[key] = cached
            self._pins.append((catalog, library))
        return cached

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

    def catalog_corpus(
        self,
        catalog: Dict[str, Processor],
        library: TestcaseLibrary,
        temperature_c: float = 78.0,
        duration_s: float = 900.0,
        builder: Optional[Callable[[], RecordStore]] = None,
    ) -> RecordStore:
        """Cached :func:`repro.analysis.observations.build_catalog_corpus`.

        ``builder`` overrides *how* a miss is materialized (e.g. the
        benchmark suite's process-parallel builder); the result is
        identical either way, which is exactly what the fingerprint key
        asserts.
        """
        key = self.fingerprint(
            catalog,
            library,
            temperature_c=temperature_c,
            duration_s=duration_s,
        )
        if builder is None:
            builder = lambda: build_catalog_corpus(  # noqa: E731
                catalog, library, temperature_c, duration_s
            )
        return self.get_or_build(key, builder)
