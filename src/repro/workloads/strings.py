"""String-manipulation workload (Table 3: impacted on MIX1).

Vectorized string transforms — byte shuffles for case/byte-order
manipulation and 16-bit packing for encoding — run on the vector and
ALU units.  A defective shuffle or pack silently mangles characters,
which is how "string manipulation" appears among MIX1's impacted
workloads with ``byte``/``bin16``/``bin32`` datatypes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from ..cpu.executor import Executor
from ..faults.injector import CorruptionEvent

__all__ = ["StringTransformResult", "reverse_words", "pack_utf16"]

#: PSHUFB-style selector reversing the 4 bytes of a 32-bit lane.
_REVERSE_SELECTOR = 0b00_01_10_11


@dataclass
class StringTransformResult:
    output: bytes
    golden: bytes
    events: List[CorruptionEvent] = field(default_factory=list)

    @property
    def corrupted(self) -> bool:
        return self.output != self.golden


def _chunks32(data: bytes) -> List[int]:
    padded = data + b"\x00" * (-len(data) % 4)
    return [
        int.from_bytes(padded[i : i + 4], "little")
        for i in range(0, len(padded), 4)
    ]


def reverse_words(
    executor: Executor,
    data: bytes,
    pcore_id: int = 0,
    temperature_c: float = 45.0,
) -> StringTransformResult:
    """Reverse bytes within each 32-bit word using the vector shuffle."""
    instruction = executor.isa["VSHUF_B32"]
    rng = executor.rng_for("strings-shuffle", pcore_id)
    out = bytearray()
    gold = bytearray()
    events: List[CorruptionEvent] = []
    for lane in _chunks32(data):
        correct = instruction.execute(lane, _REVERSE_SELECTOR)
        gold += int(correct).to_bytes(4, "little")
        value, event = executor.injector.maybe_corrupt(
            instruction,
            correct,
            pcore_id=pcore_id,
            temperature_c=temperature_c,
            usage_per_s=7.0e5,
            setting_key="strings-shuffle",
            rng=rng,
            scale=executor.time_compression,
        )
        out += int(value).to_bytes(4, "little")
        if event is not None:
            events.append(event)
    return StringTransformResult(bytes(out), bytes(gold), events)


def pack_utf16(
    executor: Executor,
    text: str,
    pcore_id: int = 0,
    temperature_c: float = 45.0,
) -> StringTransformResult:
    """Encode ASCII text into 16-bit units via the pack instruction."""
    instruction = executor.isa["PACK_B16"]
    rng = executor.rng_for("strings-pack", pcore_id)
    out = bytearray()
    gold = bytearray()
    events: List[CorruptionEvent] = []
    for char in text:
        code = ord(char) & 0xFF
        correct = instruction.execute(0, code)
        gold += int(correct).to_bytes(2, "big")
        value, event = executor.injector.maybe_corrupt(
            instruction,
            correct,
            pcore_id=pcore_id,
            temperature_c=temperature_c,
            usage_per_s=7.0e5,
            setting_key="strings-pack",
            rng=rng,
            scale=executor.time_compression,
        )
        out += int(value).to_bytes(2, "big")
        if event is not None:
            events.append(event)
    return StringTransformResult(bytes(out), bytes(gold), events)
