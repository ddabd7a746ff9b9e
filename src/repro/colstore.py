"""Self-checking on-disk column store for out-of-core analytics.

Fleet-scale campaigns produce record populations that no longer fit
comfortably in RAM next to the population that generated them; the
out-of-core path spills struct-of-arrays frames to disk and reads them
back as memory-mapped columns, so analytics stream pages on demand
instead of holding every record resident.

The container is built on :mod:`repro.sealed`:

* **one ``.npy`` file per column** — plain NumPy format, no pickling,
  so a reader maps the column zero-copy (``np.load(mmap_mode="r")``);
* **atomic writes** — every column and the manifest are written
  atomically, so a crash mid-spill leaves either the previous store or
  an incomplete one that fails its check, never a silently torn column
  (and a crash just after a spill cannot make a finished store vanish);
* **CRC-32 self-check** — the manifest records each column file's
  CRC-32, dtype, shape, and byte size, and is itself a sealed document.
  A default read verifies *metadata only* (O(columns), not O(bytes));
  ``verify=True`` re-hashes every column file for the paranoid path.

The manifest is written **last**: a store is valid iff its manifest
parses and self-checks, which is what makes the write atomic at the
store level despite spanning multiple files.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Dict, Optional, Tuple

import numpy as np

from . import sealed
from .errors import (
    CheckpointCorruptError,
    CheckpointError,
    CheckpointVersionError,
)

__all__ = [
    "COLSTORE_FORMAT",
    "COLSTORE_VERSION",
    "MANIFEST_NAME",
    "write_columns",
    "read_columns",
]

COLSTORE_FORMAT = "repro-column-store"
COLSTORE_VERSION = 1
MANIFEST_NAME = "manifest.json"

_MANIFEST = sealed.SealedFormat(
    COLSTORE_FORMAT, COLSTORE_VERSION, "column-store manifest",
    CheckpointError, CheckpointCorruptError, CheckpointVersionError,
)


def write_columns(
    directory: os.PathLike,
    columns: Dict[str, np.ndarray],
    meta: Optional[Dict[str, object]] = None,
    obs=None,
) -> int:
    """Spill named columns into ``directory``; returns bytes written.

    Column names become file names, so they must be simple identifiers.
    An existing store at the same path is replaced column-by-column;
    the new manifest only lands (atomically) after every column did.
    When ``obs`` is given, the spilled bytes are counted into
    ``repro_spill_bytes_total``.
    """
    directory = Path(directory)
    try:
        directory.mkdir(parents=True, exist_ok=True)
    except OSError as error:
        raise CheckpointError(
            f"cannot create column store {directory}: {error}"
        ) from error
    manifest_columns: Dict[str, object] = {}
    total_bytes = 0
    for name, array in columns.items():
        if not name.isidentifier():
            raise CheckpointError(
                f"column name {name!r} is not a valid identifier"
            )
        arr = np.ascontiguousarray(array)
        path = directory / f"{name}.npy"
        try:
            sealed.atomic_write(
                path,
                lambda handle: np.lib.format.write_array(
                    handle, arr, allow_pickle=False
                ),
            )
        except OSError as error:
            raise CheckpointError(
                f"cannot write column {name!r} to {directory}: {error}"
            ) from error
        size = path.stat().st_size
        total_bytes += size
        manifest_columns[name] = {
            "file": path.name,
            "crc32": sealed.file_crc32(path),
            "dtype": arr.dtype.str,
            "shape": list(arr.shape),
            "bytes": size,
        }
    manifest = directory / MANIFEST_NAME
    sealed.write_document(
        _MANIFEST, manifest,
        {"columns": manifest_columns, "meta": dict(meta or {})},
    )
    total_bytes += manifest.stat().st_size
    if obs is not None:
        obs.inc("repro_spill_bytes_total", total_bytes)
    return total_bytes


def read_columns(
    directory: os.PathLike,
    mmap: bool = True,
    verify: bool = False,
) -> Tuple[Dict[str, np.ndarray], Dict[str, object]]:
    """Load a spilled store: ``(columns, meta)``.

    The default is the out-of-core fast path: columns come back as
    read-only memory maps and only *metadata* is checked (manifest CRC,
    per-column file size / dtype / shape), which is O(columns) no
    matter how many gigabytes the store holds.  ``verify=True`` also
    re-hashes every column file against its recorded CRC-32 before
    mapping — O(bytes), for integrity audits.  ``mmap=False`` reads
    columns fully into memory.
    """
    directory = Path(directory)
    payload = sealed.read_document(_MANIFEST, directory / MANIFEST_NAME)
    described = payload.get("columns")
    if not isinstance(described, dict):
        raise CheckpointCorruptError(
            f"column store {directory} manifest describes no columns"
        )
    columns: Dict[str, np.ndarray] = {}
    for name, entry in described.items():
        path = directory / str(entry["file"])
        try:
            size = path.stat().st_size
        except OSError as error:
            raise CheckpointCorruptError(
                f"column store {directory} is missing column file "
                f"{entry['file']!r}: {error}"
            ) from error
        if size != entry["bytes"]:
            raise CheckpointCorruptError(
                f"column {name!r} in {directory} is {size} bytes; manifest "
                f"recorded {entry['bytes']} (torn write?)"
            )
        if verify:
            crc = sealed.file_crc32(path)
            if crc != entry["crc32"]:
                raise CheckpointCorruptError(
                    f"column {name!r} in {directory} failed its CRC "
                    f"self-check (stored {entry['crc32']}, computed {crc})"
                )
        try:
            array = np.load(
                path, mmap_mode="r" if mmap else None, allow_pickle=False
            )
        except (OSError, ValueError) as error:
            raise CheckpointCorruptError(
                f"column {name!r} in {directory} is unreadable: {error}"
            ) from error
        if array.dtype.str != entry["dtype"] or list(array.shape) != list(
            entry["shape"]
        ):
            raise CheckpointCorruptError(
                f"column {name!r} in {directory} is {array.dtype.str}"
                f"{array.shape}; manifest recorded {entry['dtype']}"
                f"{tuple(entry['shape'])}"
            )
        columns[name] = array
    meta = payload.get("meta")
    return columns, dict(meta) if isinstance(meta, dict) else {}
