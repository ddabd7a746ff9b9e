"""Mathematical-function library workload (FPU1/FPU2's victim).

§4.1: FPU1 "produces incorrect results on a specific floating-point
calculation operation, which is used by a library widely used in HPC
applications" — the suspect instruction computes the arctangent in
extended precision.  This module is that library: vectorized elementwise
``atan`` (plus ``sin``/``log``) evaluated on the simulated core, with a
golden pass for verification.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence

from ..errors import ConfigurationError
from ..cpu.executor import Executor
from ..faults.injector import CorruptionEvent

__all__ = ["MathLibResult", "MathLibrary"]

_FUNCTION_INSTRUCTIONS = {
    "atan": "FATAN_F64X",
    "sin": "FSIN_F64",
    "log": "FLOG_F64X",
    "exp": "FEXP_F64",
}


@dataclass
class MathLibResult:
    """Elementwise results plus any corruption that occurred."""

    values: List[float]
    golden: List[float]
    events: List[CorruptionEvent] = field(default_factory=list)

    @property
    def wrong_indices(self) -> List[int]:
        return [
            i for i, (v, g) in enumerate(zip(self.values, self.golden)) if v != g
        ]

    @property
    def corrupted(self) -> bool:
        return bool(self.wrong_indices)

    def max_relative_error(self) -> float:
        worst = 0.0
        for i in self.wrong_indices:
            if self.golden[i] != 0.0:
                worst = max(
                    worst,
                    abs(self.values[i] - self.golden[i]) / abs(self.golden[i]),
                )
        return worst


@dataclass
class MathLibrary:
    """An HPC math library bound to one core of a simulated CPU."""

    executor: Executor
    pcore_id: int = 0
    temperature_c: float = 45.0

    def apply(self, function: str, inputs: Sequence[float]) -> MathLibResult:
        """Evaluate an elementwise function over an input vector."""
        mnemonic = _FUNCTION_INSTRUCTIONS.get(function)
        if mnemonic is None:
            raise ConfigurationError(
                f"unknown function {function!r}; "
                f"known: {sorted(_FUNCTION_INSTRUCTIONS)}"
            )
        instruction = self.executor.isa[mnemonic]
        rng = self.executor.rng_for(f"mathlib-{function}", self.pcore_id)
        values: List[float] = []
        golden: List[float] = []
        events: List[CorruptionEvent] = []
        for x in inputs:
            correct = instruction.execute(x)
            golden.append(correct)
            value, event = self.executor.injector.maybe_corrupt(
                instruction,
                correct,
                pcore_id=self.pcore_id,
                temperature_c=self.temperature_c,
                usage_per_s=8.0e5,  # HPC kernels hammer the function unit
                setting_key=f"mathlib-{function}",
                rng=rng,
                scale=self.executor.time_compression,
            )
            values.append(float(value))
            if event is not None:
                events.append(event)
        return MathLibResult(values=values, golden=golden, events=events)

    def atan(self, inputs: Sequence[float]) -> MathLibResult:
        return self.apply("atan", inputs)

    def sin(self, inputs: Sequence[float]) -> MathLibResult:
        return self.apply("sin", inputs)

    def log(self, inputs: Sequence[float]) -> MathLibResult:
        return self.apply("log", inputs)
