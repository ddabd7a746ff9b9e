"""Fault injection: turning defects into corrupted values.

The injector combines a processor's defects, the trigger model, and the
defects' bitflip models.  Two consumers use it:

* the concrete :mod:`repro.cpu.executor`, which asks per instruction
  execution whether to corrupt a result (used by workloads, examples,
  and the §2.2 case studies);
* the statistical :mod:`repro.testing.runner`, which samples error
  *counts* for long test intervals and then materializes each error's
  corrupted value here (used by fleet-scale and catalog-scale studies,
  where executing every loop iteration in Python would be absurd).

Both paths share the same trigger law and bitflip models, so analyses
of either corpus agree.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Tuple

import numpy as np

from ..errors import ConfigurationError
from ..cpu import datatypes
from .trigger import TriggerModel

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..cpu.defects import Defect
    from ..cpu.features import DataType
    from ..cpu.isa import Instruction
    from ..cpu.processor import Processor
    from .bitflip import BitflipModel

__all__ = ["CorruptionEvent", "FaultInjector"]


@dataclass(frozen=True)
class CorruptionEvent:
    """One materialized SDC: a correct value replaced by a corrupt one."""

    defect_id: str
    instruction: str
    dtype: "DataType"
    expected_bits: int
    actual_bits: int

    @property
    def mask(self) -> int:
        return self.expected_bits ^ self.actual_bits

    @property
    def expected(self):
        return datatypes.decode(self.expected_bits, self.dtype)

    @property
    def actual(self):
        return datatypes.decode(self.actual_bits, self.dtype)


class FaultInjector:
    """Injects a processor's defects into executed or sampled work."""

    def __init__(
        self,
        processor: "Processor",
        trigger_model: Optional[TriggerModel] = None,
    ):
        self.processor = processor
        self.trigger = trigger_model or TriggerModel()

    # -- defect lookup -----------------------------------------------------

    def defects_for(
        self, instruction: "Instruction", pcore_id: int, age_days: Optional[float] = None
    ) -> List["Defect"]:
        """Active computation defects hitting this instruction on this core."""
        if pcore_id in self.processor.masked_cores:
            return []
        return [
            defect
            for defect in self.processor.active_defects(age_days)
            if not defect.is_consistency
            and defect.affects_core(pcore_id)
            and defect.affects_instruction(instruction.mnemonic)
        ]

    # -- concrete per-execution path ----------------------------------------

    def maybe_corrupt(
        self,
        instruction: "Instruction",
        correct_value,
        pcore_id: int,
        temperature_c: float,
        usage_per_s: float,
        setting_key: str,
        rng: np.random.Generator,
        scale: float = 1.0,
    ) -> Tuple[object, Optional[CorruptionEvent]]:
        """Possibly corrupt one instruction result.

        Returns ``(value, event)`` where ``event`` is ``None`` when the
        result is architecturally correct.  ``scale`` is a time-
        compression factor: each executed instruction stands for that
        many hardware executions, letting second-long Python runs
        represent the minutes-to-hours of real execution over which
        SDC occurrence frequencies are defined.
        """
        for defect in self.defects_for(instruction, pcore_id):
            probability = scale * self.trigger.per_execution_probability(
                defect, setting_key, temperature_c, usage_per_s, pcore_id
            )
            if probability > 0.0 and rng.random() < probability:
                event = self.materialize(defect, instruction, correct_value, rng)
                return event.actual, event
        return correct_value, None

    # -- value materialization ----------------------------------------------

    @staticmethod
    def bitflip_for(defect: "Defect", dtype: "DataType") -> "BitflipModel":
        """The bitflip model that corrupts ``dtype`` results of a defect.

        Raises :class:`ConfigurationError` when the defect cannot
        corrupt that datatype at all.  The checks depend only on
        (defect, dtype), so a burst of SDCs runs them once.
        """
        if defect.bitflip is None:
            raise ConfigurationError(
                f"defect {defect.defect_id} has no bitflip model"
            )
        if dtype not in defect.datatypes:
            # A defect can only corrupt datatypes its feature touches;
            # the runner filters settings, so reaching here is a bug.
            raise ConfigurationError(
                f"defect {defect.defect_id} does not corrupt {dtype}"
            )
        return defect.bitflip

    def materialize(
        self,
        defect: "Defect",
        instruction: "Instruction",
        correct_value,
        rng: np.random.Generator,
    ) -> CorruptionEvent:
        """Produce the corrupted value for one SDC of a defect."""
        dtype = instruction.dtype
        bitflip = self.bitflip_for(defect, dtype)
        expected_bits = datatypes.encode(correct_value, dtype)
        mask = bitflip.sample_mask(dtype, rng)
        actual_bits = expected_bits ^ mask
        return CorruptionEvent(
            defect_id=defect.defect_id,
            instruction=instruction.mnemonic,
            dtype=dtype,
            expected_bits=expected_bits,
            actual_bits=actual_bits,
        )
