"""Large-integer arithmetic workload (Table 3: impacted on MIX1).

Multi-precision addition over 64-bit limbs using the add-with-carry
instruction.  One corrupted limb addition silently changes the whole
number — and, unlike float fraction flips, the precision loss depends
on which limb was hit, which is the integer half of Observation 7's
contrast.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from ..errors import ConfigurationError
from ..cpu.executor import Executor
from ..faults.injector import CorruptionEvent

__all__ = ["BigIntResult", "bigint_add"]

_LIMB_BITS = 64
_LIMB_MASK = (1 << _LIMB_BITS) - 1


def _to_limbs(value: int, n_limbs: int) -> List[int]:
    if value < 0:
        raise ConfigurationError("bigint workload handles non-negative values")
    limbs = []
    for _ in range(n_limbs):
        limbs.append(value & _LIMB_MASK)
        value >>= _LIMB_BITS
    if value:
        raise ConfigurationError("value does not fit in the limb count")
    return limbs


def _from_limbs(limbs: List[int]) -> int:
    value = 0
    for limb in reversed(limbs):
        value = (value << _LIMB_BITS) | limb
    return value


@dataclass
class BigIntResult:
    value: int
    golden: int
    events: List[CorruptionEvent] = field(default_factory=list)

    @property
    def corrupted(self) -> bool:
        return self.value != self.golden


def bigint_add(
    executor: Executor,
    a: int,
    b: int,
    n_limbs: int = 8,
    pcore_id: int = 0,
    temperature_c: float = 45.0,
) -> BigIntResult:
    """a + b over ``n_limbs`` 64-bit limbs with hardware add-with-carry.

    The carry chain means a corrupted limb can also poison carries into
    higher limbs, exactly as on real hardware.
    """
    instruction = executor.isa["ADC_B64"]
    rng = executor.rng_for("bigint-adc", pcore_id)
    limbs_a = _to_limbs(a, n_limbs)
    limbs_b = _to_limbs(b, n_limbs)

    events: List[CorruptionEvent] = []

    def run_chain(corrupting: bool) -> List[int]:
        carry = 0
        out = []
        for la, lb in zip(limbs_a, limbs_b):
            correct = instruction.execute(la, lb, carry)
            if corrupting:
                value, event = executor.injector.maybe_corrupt(
                    instruction,
                    correct,
                    pcore_id=pcore_id,
                    temperature_c=temperature_c,
                    usage_per_s=8.0e5,
                    setting_key="bigint-adc",
                    rng=rng,
                    scale=executor.time_compression,
                )
                if event is not None:
                    events.append(event)
            else:
                value = correct
            # Carry derives from the (possibly corrupted) limb value the
            # way hardware flags would.
            full = la + lb + carry
            carry = 1 if full >> _LIMB_BITS else 0
            out.append(int(value))
        return out

    golden_limbs = run_chain(corrupting=False)
    actual_limbs = run_chain(corrupting=True)
    return BigIntResult(
        value=_from_limbs(actual_limbs),
        golden=_from_limbs(golden_limbs),
        events=events,
    )
