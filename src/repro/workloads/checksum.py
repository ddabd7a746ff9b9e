"""Checksum-calculation workload (the paper's first §2.2 case study).

A storage client computes CRC-32 checksums over request payloads using
the hardware CRC instruction.  On a healthy core, recomputing the
checksum always matches; on a core with a defective checksum
instruction (MIX1/MIX2-style), the computed digest is occasionally
wrong, so the *server side* sees a mismatch against correct data —
"frequently reported checksum mismatch of the user data" even though
the data itself is fine.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence

from ..cpu.executor import Executor
from ..faults.injector import CorruptionEvent

__all__ = ["ChecksumResult", "crc32", "crc32_golden"]

_INIT = 0xFFFFFFFF


@dataclass
class ChecksumResult:
    """A computed digest plus corruption observed during computation."""

    digest: int
    golden: int
    events: List[CorruptionEvent] = field(default_factory=list)

    @property
    def corrupted(self) -> bool:
        return self.digest != self.golden


def crc32_golden(payload: Sequence[int]) -> int:
    """Architecturally correct CRC-32 of a byte sequence."""
    from ..cpu.isa import DEFAULT_ISA

    step = DEFAULT_ISA["CRC32_B32"]
    crc = _INIT
    for byte in payload:
        crc = step.execute(crc, byte & 0xFF)
    return crc ^ _INIT


def crc32(
    executor: Executor,
    payload: Sequence[int],
    pcore_id: int = 0,
    temperature_c: float = 45.0,
) -> ChecksumResult:
    """CRC-32 of a byte payload on the simulated core.

    A corrupted intermediate CRC propagates through the remaining
    bytes, exactly as a faulty CRC32 instruction corrupts the final
    digest in hardware.
    """
    instruction = executor.isa["CRC32_B32"]
    rng = executor.rng_for("checksum-crc32", pcore_id)
    usage = 1.0e6  # checksum loops saturate the CRC unit
    crc = _INIT
    golden = _INIT
    events: List[CorruptionEvent] = []
    for byte in payload:
        byte &= 0xFF
        golden = instruction.execute(golden, byte)
        correct = instruction.execute(crc, byte)
        value, event = executor.injector.maybe_corrupt(
            instruction,
            correct,
            pcore_id=pcore_id,
            temperature_c=temperature_c,
            usage_per_s=usage,
            setting_key="checksum-crc32",
            rng=rng,
            scale=executor.time_compression,
        )
        crc = value
        if event is not None:
            events.append(event)
    return ChecksumResult(
        digest=crc ^ _INIT, golden=golden ^ _INIT, events=events
    )
