"""Testcases: the unit of SDC testing.

The manufacturer toolchain's testcases "are programs that simulate
cloud workloads ... Most testcases focus on individual processor
features" with three complexity classes: tight instruction loops,
library calls, and application logic (§2.3).  Complexity matters
because it dilutes instruction usage: §5 finds "failed testcases use
this defective instruction several orders of magnitude more frequently
than other testcases" — a tight loop stresses its hot instruction near
the full nominal rate, while application-logic testcases spread
executions over many instructions and rarely trigger anything.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional, Tuple

from ..errors import ConfigurationError
from ..cpu.features import DataType, Feature
from ..cpu.isa import DEFAULT_ISA, ISA

__all__ = ["Complexity", "ConsistencyKind", "Testcase"]


class Complexity(enum.Enum):
    """The three testcase complexity classes of §2.3."""

    INSTRUCTION_LOOP = "instruction_loop"
    LIBRARY = "library"
    APPLICATION = "application"


class ConsistencyKind(enum.Enum):
    """What a multi-threaded consistency testcase exercises."""

    COHERENCE = "coherence"
    TXMEM = "txmem"


@dataclass(frozen=True)
class Testcase:
    """One toolchain testcase.

    ``instruction_mix`` maps mnemonics to their fraction of the dynamic
    instruction stream (fractions sum to 1).  ``nominal_ips`` is the
    simulated execution rate; the *usage stress* a testcase puts on an
    instruction is ``fraction * nominal_ips`` executions per second.
    """

    #: Not a pytest test class despite the name.
    __test__ = False

    testcase_id: str
    name: str
    feature: Feature
    complexity: Complexity
    instruction_mix: Mapping[str, float] = field(default_factory=dict)
    threads: int = 1
    consistency_kind: Optional[ConsistencyKind] = None
    nominal_ips: float = 1.0e6
    #: Consistency testcases stress the protocol at this rate
    #: (operations or commits per second) instead of an instruction mix.
    consistency_ops_per_s: float = 2.0e5

    def __post_init__(self) -> None:
        if self.threads < 1:
            raise ConfigurationError("threads must be >= 1")
        if self.consistency_kind is not None:
            if self.threads < 2:
                raise ConfigurationError(
                    "consistency testcases must be multi-threaded (§4.1)"
                )
            return
        if not self.instruction_mix:
            raise ConfigurationError(
                "computation testcases need an instruction mix"
            )
        total = sum(self.instruction_mix.values())
        if abs(total - 1.0) > 1e-6:
            raise ConfigurationError(
                f"instruction mix of {self.testcase_id} sums to {total}, not 1"
            )
        for mnemonic, fraction in self.instruction_mix.items():
            if mnemonic not in DEFAULT_ISA:
                raise ConfigurationError(f"unknown instruction {mnemonic}")
            if fraction <= 0:
                raise ConfigurationError("mix fractions must be positive")

    def _heat_cache(self) -> Dict[int, Tuple[ISA, float]]:
        # Lazily attached memo for heat_factor; the dataclass is frozen,
        # so the cache is installed via object.__setattr__.
        cache = getattr(self, "_heat_memo", None)
        if cache is None:
            cache = {}
            object.__setattr__(self, "_heat_memo", cache)
        return cache

    # -- usage --------------------------------------------------------------

    def usage_per_s(self, mnemonic: str) -> float:
        """Executions per second of one instruction under this testcase."""
        return self.instruction_mix.get(mnemonic, 0.0) * self.nominal_ips

    def uses_instruction(self, mnemonic: str) -> bool:
        return mnemonic in self.instruction_mix

    @property
    def is_consistency(self) -> bool:
        return self.consistency_kind is not None

    # -- derived properties ---------------------------------------------------

    def datatypes(self, isa: ISA = DEFAULT_ISA) -> Tuple[DataType, ...]:
        """Result data types this testcase's instructions produce."""
        return tuple(
            dict.fromkeys(
                isa[m].dtype for m in self.instruction_mix
            )
        )

    def heat_factor(self, isa: ISA = DEFAULT_ISA) -> float:
        """Relative heat of running this testcase flat-out.

        The mix-weighted instruction heat; consistency testcases use a
        fixed moderate factor (they are memory-bound).
        """
        if self.is_consistency:
            return 1.1
        cache = self._heat_cache()
        entry = cache.get(id(isa))
        if entry is not None and entry[0] is isa:
            return entry[1]
        value = sum(
            fraction * isa[m].heat
            for m, fraction in self.instruction_mix.items()
        )
        cache[id(isa)] = (isa, value)
        return value

    def hot_instructions(self, threshold: float = 0.5) -> Tuple[str, ...]:
        """Instructions taking at least ``threshold`` of the mix."""
        return tuple(
            m for m, f in self.instruction_mix.items() if f >= threshold
        )

    def describe(self) -> str:
        """One-line human-readable description."""
        if self.is_consistency:
            return (
                f"{self.testcase_id} [{self.feature}] {self.threads}-thread "
                f"{self.consistency_kind.value} stressor"
            )
        hot = max(self.instruction_mix, key=self.instruction_mix.get)
        return (
            f"{self.testcase_id} [{self.feature}] {self.complexity.value}, "
            f"hot={hot} ({self.instruction_mix[hot]:.0%})"
        )
