r"""Sealed storage: the one on-disk container every durable artifact uses.

Checkpoints and verdicts, column-store manifests, metrics snapshots,
the service journal and trace files all reach disk through this
module, so the rules that keep them honest are written, and tested,
once:

* :func:`canonical` JSON (sorted keys, tight separators, no NaN) is the
  CRC-32 domain, so a seal does not depend on dict order or spelling.
* :func:`atomic_write` writes a temp file, fsyncs it, renames it into
  place and fsyncs the directory; a reader sees the old file or the new.
* A **sealed document** is ``{"format", "version", "crc32", "payload"}``
  with the CRC-32 of the canonical payload.
* A **sealed log** is a ``{"format", "version"}`` header line, then one
  canonical record per line whose ``crc32`` field seals the rest.

**The torn-tail rule.**  Every line a log writer finishes ends in
``\n``, so a crashed append can only leave a final line without one.
That case alone is a torn tail, the never-acknowledged in-flight write;
it includes an empty file and an unterminated lone header.  Any other
damaged line is corruption, and the caller's policy decides what
follows.  Readers split bytes on ``b"\n"`` and decode per line, so a
flipped byte, valid UTF-8 or not, is line damage and never a crash.
"""

from __future__ import annotations

import contextlib
import json
import os
import re
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import BinaryIO, Callable, Dict, List, Optional, Tuple, Type, Union

from .errors import ReproError
from .fsutil import fsync_directory, replace_and_sync_directory

__all__ = [
    "Damage",
    "SealedFormat",
    "SealedLog",
    "atomic_write",
    "canonical",
    "file_crc32",
    "next_numbered",
    "numbered_paths",
    "read_document",
    "read_log",
    "seal_document",
    "unseal_document",
    "write_document",
]

_CRC_CHUNK = 1 << 20


@dataclass(frozen=True)
class SealedFormat:
    """One on-disk format: its identity and the errors it raises.

    ``error`` covers I/O failures, ``corrupt`` a failed structure or CRC
    check, and ``version_error`` (default ``corrupt``) a format version
    this build does not read.  ``noun`` names the file in messages.
    """

    name: str
    version: int
    noun: str
    error: Type[ReproError]
    corrupt: Type[ReproError]
    version_error: Optional[Type[ReproError]] = None


def canonical(value: object) -> bytes:
    """Canonical JSON bytes: the CRC domain of every seal."""
    return json.dumps(
        value, sort_keys=True, separators=(",", ":"), allow_nan=False
    ).encode("utf-8")


def _parse(raw: Union[bytes, str]) -> object:
    """Parsed JSON; ValueError names any damage, bad UTF-8 included."""
    try:
        text = raw.decode("utf-8") if isinstance(raw, bytes) else raw
        return json.loads(text)
    except ValueError as error:
        raise ValueError(f"is not valid JSON ({error})") from None


def _check_identity(fmt: SealedFormat, value: object, source: str) -> None:
    """ValueError unless ``value`` is an object naming ``fmt``; the
    format's version error if it names another version of it."""
    if not isinstance(value, dict) or value.get("format") != fmt.name:
        raise ValueError(f"lacks the {fmt.name!r} header")
    if value.get("version") != fmt.version:
        raise (fmt.version_error or fmt.corrupt)(
            f"{source} has format version {value.get('version')!r}; this "
            f"build reads version {fmt.version}"
        )


def _crc_matches(value: object, claimed: object) -> bool:
    """Whether ``claimed`` is the CRC-32 of ``value``'s canonical bytes."""
    try:
        return zlib.crc32(canonical(value)) == claimed
    except ValueError:  # damage parsed as NaN or infinity: no seal
        return False


def file_crc32(path: os.PathLike) -> int:
    """CRC-32 of a file, streamed in chunks (never loads it whole)."""
    crc = 0
    with open(path, "rb") as handle:
        while block := handle.read(_CRC_CHUNK):
            crc = zlib.crc32(block, crc)
    return crc


def atomic_write(
    path: os.PathLike, data: Union[bytes, Callable[[BinaryIO], None]]
) -> None:
    """Replace ``path`` with ``data`` (bytes, or a callable that writes
    to a binary handle) durably; raises what the I/O raises, after
    removing the temp file."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "wb") as handle:
            if callable(data):
                data(handle)
            else:
                handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        replace_and_sync_directory(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            tmp.unlink(missing_ok=True)
        raise


def _numbered(directory, prefix: str, suffix: str) -> List[Tuple[int, Path]]:
    pattern = re.compile(re.escape(prefix) + r"(\d{6,})" + re.escape(suffix))
    return sorted(
        (int(match.group(1)), path)
        for path in Path(directory).glob(f"{prefix}*{suffix}")
        if (match := pattern.fullmatch(path.name)) and path.is_file()
    )


def numbered_paths(
    directory: os.PathLike, prefix: str, suffix: str
) -> List[Path]:
    """Existing ``{prefix}NNNNNN{suffix}`` files, lowest number first."""
    return [path for _, path in _numbered(directory, prefix, suffix)]


def next_numbered(directory: os.PathLike, prefix: str, suffix: str) -> Path:
    """The numbered path after the highest existing one (``000001`` first)."""
    existing = _numbered(directory, prefix, suffix)
    index = existing[-1][0] + 1 if existing else 1
    return Path(directory) / f"{prefix}{index:06d}{suffix}"


# -- sealed documents --------------------------------------------------------


def seal_document(fmt: SealedFormat, payload: Dict[str, object]) -> bytes:
    """The sealed-document bytes for ``payload``."""
    document = {
        "format": fmt.name,
        "version": fmt.version,
        "crc32": zlib.crc32(canonical(payload)),
        "payload": payload,
    }
    return json.dumps(document, allow_nan=False).encode("utf-8")


def unseal_document(
    fmt: SealedFormat, raw: Union[bytes, str], source: str
) -> Dict[str, object]:
    """Verify sealed-document bytes and return the payload; ``source``
    names the document in error messages."""
    try:
        document = _parse(raw)
    except ValueError as error:
        raise fmt.corrupt(f"{source} {error}; torn write?") from error
    try:
        _check_identity(fmt, document, source)
        payload = document.get("payload")
        if not isinstance(payload, dict):
            raise ValueError("has no payload object")
        if not _crc_matches(payload, document.get("crc32")):
            raise ValueError("failed its CRC-32 self-check")
    except ValueError as error:
        raise fmt.corrupt(f"{source} {error}") from error
    return payload


def write_document(
    fmt: SealedFormat, path: os.PathLike, payload: Dict[str, object]
) -> None:
    """Atomically write ``payload`` as a sealed document."""
    try:
        atomic_write(path, seal_document(fmt, payload))
    except OSError as error:
        raise fmt.error(f"cannot write {fmt.noun} {path}: {error}") from error


def _read_bytes(fmt: SealedFormat, path: os.PathLike) -> bytes:
    try:
        return Path(path).read_bytes()
    except OSError as error:
        raise fmt.error(f"cannot read {fmt.noun} {path}: {error}") from error


def read_document(fmt: SealedFormat, path: os.PathLike) -> Dict[str, object]:
    """The verified payload of one sealed document."""
    return unseal_document(fmt, _read_bytes(fmt, path), f"{fmt.noun} {path}")


# -- sealed logs -------------------------------------------------------------


@dataclass(frozen=True)
class Damage:
    """The first damaged line a log reader met.

    ``torn`` marks an unterminated final line: a crashed writer's
    in-flight append, which was never acknowledged.
    """

    line: int
    reason: str
    torn: bool


class SealedLog:
    """Appends sealed records to one new log file.

    A ``durable`` log is a write-ahead log: its file must not exist yet,
    and the header, its directory entry and every append are fsynced
    before the call returns.  Otherwise the file is overwritten on open
    and synced on :meth:`close`.  ``size`` tracks the bytes written.
    """

    def __init__(
        self, fmt: SealedFormat, path: os.PathLike, *, durable: bool = False
    ):
        self.path = Path(path)
        self._durable = durable
        header = canonical({"format": fmt.name, "version": fmt.version})
        header += b"\n"
        try:
            self._handle = open(self.path, "xb" if durable else "wb")
            self._handle.write(header)
            if durable:
                self._sync()
                fsync_directory(self.path.parent)
        except OSError as error:
            raise fmt.error(
                f"cannot create {fmt.noun} {self.path}: {error}"
            ) from error
        self.size = len(header)

    def append(self, record: Dict[str, object]) -> None:
        """Write one sealed record; raises OSError on I/O failure."""
        sealed = dict(record)
        sealed["crc32"] = zlib.crc32(canonical(record))
        line = canonical(sealed) + b"\n"
        self._handle.write(line)
        if self._durable:
            self._sync()
        self.size += len(line)

    def _sync(self) -> None:
        self._handle.flush()
        os.fsync(self._handle.fileno())

    def close(self) -> None:
        try:
            self._sync()
        finally:
            self._handle.close()


def _unseal_line(line: bytes) -> Dict[str, object]:
    """The verified record on one log line; ValueError names the damage."""
    record = _parse(line)
    if not isinstance(record, dict) or "crc32" not in record:
        raise ValueError("lacks a crc32 seal")
    if not _crc_matches(record, record.pop("crc32")):
        raise ValueError("failed its CRC-32 self-check")
    return record


def read_log(
    fmt: SealedFormat, path: os.PathLike
) -> Tuple[List[Dict[str, object]], Optional[Damage]]:
    """The verified records of one sealed log, up to the first damaged
    line, and that :class:`Damage` (None for an intact log).  An intact
    header of another format version raises the format's version error.
    """
    *lines, tail = _read_bytes(fmt, path).split(b"\n")
    records: List[Dict[str, object]] = []
    for number, line in enumerate(lines, start=1):
        try:
            if number == 1:
                _check_identity(fmt, _parse(line), f"{fmt.noun} {path}")
            else:
                records.append(_unseal_line(line))
        except ValueError as error:
            return records, Damage(number, str(error), torn=False)
    if tail or not lines:
        return records, Damage(len(lines) + 1, "is torn", torn=True)
    return records, None
