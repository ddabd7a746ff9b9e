"""Concrete instruction execution against a (possibly faulty) processor.

Workloads, examples, and the §2.2 case studies run real programs — a
sequence of ISA instructions — on a simulated core.  The executor
computes architecturally correct results and consults the fault
injector per execution, so a defective core corrupts exactly the
instructions its defect names, at a rate governed by the trigger law
(temperature and instruction-usage stress).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..errors import ConfigurationError
from ..faults.injector import CorruptionEvent, FaultInjector
from ..faults.trigger import TriggerModel
from ..rng import substream
from .isa import DEFAULT_ISA
from .processor import Processor

__all__ = ["ProgramStep", "ExecutionResult", "Executor"]

#: One program step: ``(mnemonic, operands)``.
ProgramStep = Tuple[str, Tuple]


@dataclass
class ExecutionResult:
    """Outcome of running a program on one core."""

    values: List[object] = field(default_factory=list)
    events: List[CorruptionEvent] = field(default_factory=list)
    instruction_counts: dict = field(default_factory=dict)
    heat_units: float = 0.0

    @property
    def corrupted(self) -> bool:
        return bool(self.events)

    @property
    def final(self):
        """The last produced value (programs usually reduce to one)."""
        if not self.values:
            raise ConfigurationError("program produced no values")
        return self.values[-1]


class Executor:
    """Executes programs on a processor's cores with fault injection."""

    def __init__(
        self,
        processor: Processor,
        trigger_model: Optional[TriggerModel] = None,
        seed: int = 0,
        time_compression: float = 1.0,
    ):
        if time_compression <= 0:
            raise ConfigurationError("time_compression must be positive")
        self.processor = processor
        self.isa = DEFAULT_ISA
        self.injector = FaultInjector(processor, trigger_model)
        #: Each executed instruction stands for this many hardware
        #: executions (see FaultInjector.maybe_corrupt's ``scale``).
        self.time_compression = time_compression
        self._seed = seed
        self._rng_cache: dict = {}

    def _rng(self, setting_key: str, pcore_id: int) -> np.random.Generator:
        return substream(
            self._seed, "executor", self.processor.processor_id,
            setting_key, str(pcore_id),
        )

    def rng_for(self, setting_key: str, pcore_id: int) -> np.random.Generator:
        """A persistent per-(setting, core) stream.

        Unlike :meth:`_rng`, repeated calls return the *same* generator,
        so successive workload invocations continue the stream instead
        of deterministically replaying identical draws.
        """
        key = (setting_key, pcore_id)
        generator = self._rng_cache.get(key)
        if generator is None:
            generator = self._rng(setting_key, pcore_id)
            self._rng_cache[key] = generator
        return generator

    def run(
        self,
        program: Union[Sequence[ProgramStep], Iterable[ProgramStep]],
        pcore_id: int = 0,
        temperature_c: Union[float, Callable[[int], float]] = 45.0,
        setting_key: str = "adhoc",
        nominal_ips: float = 1.0e6,
        rng: Optional[np.random.Generator] = None,
    ) -> ExecutionResult:
        """Run a program on one physical core.

        ``temperature_c`` may be a constant or a callable of the step
        index (so a thermal simulation can drive it).  ``nominal_ips``
        is the simulated execution rate, from which per-instruction
        usage stress is derived: a program dominated by one instruction
        stresses it at nearly ``nominal_ips`` executions/second, while
        an instruction appearing rarely gets proportionally lower usage
        — reproducing §5's instruction-usage-stress effect.
        """
        if not 0 <= pcore_id < self.processor.arch.physical_cores:
            raise ConfigurationError(
                f"core {pcore_id} out of range for {self.processor.arch.name}"
            )
        steps: Sequence[ProgramStep] = (
            program if isinstance(program, Sequence) else list(program)
        )
        counts: dict = {}
        for mnemonic, _ in steps:
            counts[mnemonic] = counts.get(mnemonic, 0) + 1
        total = max(len(steps), 1)
        usage = {
            mnemonic: nominal_ips * count / total
            for mnemonic, count in counts.items()
        }
        if rng is None:
            rng = self.rng_for(setting_key, pcore_id)

        result = ExecutionResult(instruction_counts=counts)
        for index, (mnemonic, operands) in enumerate(steps):
            instruction = self.isa[mnemonic]
            correct = instruction.execute(*operands)
            temp = (
                temperature_c(index)
                if callable(temperature_c)
                else temperature_c
            )
            value, event = self.injector.maybe_corrupt(
                instruction,
                correct,
                pcore_id=pcore_id,
                temperature_c=temp,
                usage_per_s=usage[mnemonic],
                setting_key=setting_key,
                rng=rng,
                scale=self.time_compression,
            )
            result.values.append(value)
            result.heat_units += instruction.heat
            if event is not None:
                result.events.append(event)
        return result

    def run_reduction(
        self,
        mnemonic: str,
        operand_pairs: Iterable[Tuple],
        **kwargs,
    ) -> ExecutionResult:
        """Convenience: run one instruction over many operand tuples."""
        program = [(mnemonic, operands) for operands in operand_pairs]
        return self.run(program, **kwargs)

    def golden(self, program: Sequence[ProgramStep]) -> List[object]:
        """Architecturally correct results (no injection) for a program."""
        return [self.isa[m].execute(*ops) for m, ops in program]
