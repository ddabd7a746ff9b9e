"""The 633-testcase toolchain library.

"The toolchain includes 633 testcases and a framework" (§2.3).  Ours is
generated deterministically: every run of the study uses the identical
library, which is what lets "suspected"-priority bookkeeping (Farron,
§7.1) refer to stable testcase ids.

Composition principles, all grounded in the paper:

* testcases cover many features beyond the five vulnerable ones — this
  is why "560 out of the 633 testcases have not detected any errors" in
  production (Observation 11);
* each instruction gets a small number of tight-loop testcases (high
  usage stress), plus appearances inside library- and application-class
  testcases at diluted usage — reproducing §4.1's "a defective
  instruction is used in seven testcases, but only two of them generate
  errors";
* consistency features (cache coherency, transactional memory) are only
  exercised by multi-threaded testcases (§4.1).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Sequence

from ..errors import ConfigurationError
from ..rng import substream
from ..cpu.features import Feature
from ..cpu.isa import DEFAULT_ISA
from .testcase import Complexity, ConsistencyKind, Testcase

__all__ = ["TOOLCHAIN_SIZE", "FEATURE_QUOTAS", "TestcaseLibrary", "build_library"]

#: §2.3: the toolchain ships 633 testcases.
TOOLCHAIN_SIZE = 633

#: How many testcases target each feature.  Sums to TOOLCHAIN_SIZE.
FEATURE_QUOTAS: Dict[Feature, int] = {
    Feature.ALU: 95,
    Feature.VECTOR: 85,
    Feature.FPU: 105,
    Feature.CACHE: 45,
    Feature.TRX_MEM: 35,
    Feature.CRYPTO: 55,
    Feature.MEMORY: 65,
    Feature.BRANCH: 55,
    Feature.INTERCONNECT: 48,
    Feature.PREFETCH: 45,
}

#: Background instructions blended into every mix (address arithmetic,
#: moves) — they dilute usage without targeting any vulnerable feature.
_FILLER = ("MOV_B64", "BRTAKEN_I32")

#: How many tight-loop testcases each instruction gets.
_LOOPS_PER_INSTRUCTION = 2


@dataclass
class TestcaseLibrary:
    """An ordered, queryable collection of testcases."""

    testcases: List[Testcase] = field(default_factory=list)

    def __post_init__(self) -> None:
        self._by_id = {tc.testcase_id: tc for tc in self.testcases}
        if len(self._by_id) != len(self.testcases):
            raise ConfigurationError("duplicate testcase ids in library")
        # Inverted mnemonic → testcases index and consistency cache.
        # Both preserve library order, so queries return exactly what
        # the previous full scans did without the O(633) walk per call.
        self._by_instruction: Dict[str, List[Testcase]] = {}
        self._consistency: List[Testcase] = []
        for tc in self.testcases:
            if tc.is_consistency:
                self._consistency.append(tc)
            for mnemonic in tc.instruction_mix:
                self._by_instruction.setdefault(mnemonic, []).append(tc)

    def __len__(self) -> int:
        return len(self.testcases)

    def __iter__(self) -> Iterator[Testcase]:
        return iter(self.testcases)

    def __getitem__(self, testcase_id: str) -> Testcase:
        try:
            return self._by_id[testcase_id]
        except KeyError:
            raise ConfigurationError(
                f"unknown testcase {testcase_id!r}"
            ) from None

    def __contains__(self, testcase_id: str) -> bool:
        return testcase_id in self._by_id

    def ids(self) -> List[str]:
        return [tc.testcase_id for tc in self.testcases]

    def by_feature(self, feature: Feature) -> List[Testcase]:
        return [tc for tc in self.testcases if tc.feature is feature]

    def loops(self) -> List[Testcase]:
        return [
            tc
            for tc in self.testcases
            if tc.complexity is Complexity.INSTRUCTION_LOOP
        ]

    def consistency_testcases(self) -> List[Testcase]:
        return list(self._consistency)

    def using_instruction(self, mnemonic: str) -> List[Testcase]:
        return list(self._by_instruction.get(mnemonic, ()))

    def subset(self, ids: Sequence[str]) -> "TestcaseLibrary":
        return TestcaseLibrary([self[i] for i in ids])


def _normalized(mix: Dict[str, float]) -> Dict[str, float]:
    total = sum(mix.values())
    return {m: f / total for m, f in mix.items()}


def build_library(seed: int = 633) -> TestcaseLibrary:
    """Build the deterministic 633-testcase toolchain."""
    rng = substream(seed, "testcase-library")
    testcases: List[Testcase] = []
    counters: Dict[Feature, int] = {f: 0 for f in FEATURE_QUOTAS}

    def next_id(feature: Feature) -> str:
        counters[feature] += 1
        return f"TC-{feature.value.upper().replace('_', '')}-{counters[feature]:03d}"

    def add(testcase: Testcase) -> None:
        testcases.append(testcase)

    # Group instructions by the primary (first-listed) feature.
    by_primary: Dict[Feature, List[str]] = {f: [] for f in FEATURE_QUOTAS}
    for mnemonic, instruction in DEFAULT_ISA.instructions.items():
        primary = instruction.features[0]
        if primary in by_primary:
            by_primary[primary].append(mnemonic)

    remaining: Dict[Feature, int] = dict(FEATURE_QUOTAS)

    # 1) Tight instruction loops: high usage stress on one instruction.
    for feature, mnemonics in by_primary.items():
        if feature in (Feature.CACHE, Feature.TRX_MEM):
            continue
        for mnemonic in mnemonics:
            for variant in range(_LOOPS_PER_INSTRUCTION):
                if remaining[feature] <= 0:
                    break
                hot = 0.92 - 0.04 * variant
                mix = {mnemonic: hot}
                filler_share = (1.0 - hot) / len(_FILLER)
                for filler in _FILLER:
                    mix[filler] = mix.get(filler, 0.0) + filler_share
                add(
                    Testcase(
                        testcase_id=next_id(feature),
                        name=f"{mnemonic.lower()} loop v{variant}",
                        feature=feature,
                        complexity=Complexity.INSTRUCTION_LOOP,
                        instruction_mix=_normalized(mix),
                    )
                )
                remaining[feature] -= 1

    # 2) Consistency testcases: multi-threaded protocol stressors.
    for feature, kind in (
        (Feature.CACHE, ConsistencyKind.COHERENCE),
        (Feature.TRX_MEM, ConsistencyKind.TXMEM),
    ):
        while remaining[feature] > 0:
            threads = int(rng.choice([2, 4, 8]))
            ops = float(rng.uniform(0.8, 6.0)) * 1.0e5
            add(
                Testcase(
                    testcase_id=next_id(feature),
                    name=f"{kind.value} stressor x{threads}",
                    feature=feature,
                    complexity=Complexity.APPLICATION,
                    threads=threads,
                    consistency_kind=kind,
                    consistency_ops_per_s=ops,
                )
            )
            remaining[feature] -= 1

    # 3) Library-class testcases: a few same-feature instructions each.
    for feature, mnemonics in by_primary.items():
        if not mnemonics or feature in (Feature.CACHE, Feature.TRX_MEM):
            continue
        library_quota = remaining[feature] * 55 // 100
        for _ in range(library_quota):
            count = min(len(mnemonics), int(rng.integers(2, 4)))
            chosen = list(
                rng.choice(mnemonics, size=count, replace=False)
            )
            mix: Dict[str, float] = {}
            share = 0.75 / count
            for mnemonic in chosen:
                mix[mnemonic] = mix.get(mnemonic, 0.0) + share
            for filler in _FILLER:
                mix[filler] = mix.get(filler, 0.0) + 0.25 / len(_FILLER)
            add(
                Testcase(
                    testcase_id=next_id(feature),
                    name=f"{feature.value} library routine",
                    feature=feature,
                    complexity=Complexity.LIBRARY,
                    instruction_mix=_normalized(mix),
                )
            )
            remaining[feature] -= 1

    # 4) Application-class testcases: diffuse cross-feature mixes with
    #    low per-instruction usage (rarely able to trigger defects).
    all_mnemonics = [
        m
        for f, ms in by_primary.items()
        for m in ms
        if f not in (Feature.CACHE, Feature.TRX_MEM)
    ]
    for feature in by_primary:
        if feature in (Feature.CACHE, Feature.TRX_MEM):
            continue
        while remaining[feature] > 0:
            own = by_primary[feature]
            count = min(len(all_mnemonics), int(rng.integers(6, 10)))
            # An insertion-ordered dict, not a set: the mix order (and
            # so every sum over it) must not follow string hashing.
            chosen = dict.fromkeys(
                rng.choice(all_mnemonics, size=count, replace=False)
            )
            if own:
                chosen.setdefault(own[int(rng.integers(len(own)))])
            mix = {}
            share = 0.6 / len(chosen)
            for mnemonic in chosen:
                mix[mnemonic] = mix.get(mnemonic, 0.0) + share
            for filler in _FILLER:
                mix[filler] = mix.get(filler, 0.0) + 0.4 / len(_FILLER)
            add(
                Testcase(
                    testcase_id=next_id(feature),
                    name=f"{feature.value} application scenario",
                    feature=feature,
                    complexity=Complexity.APPLICATION,
                    instruction_mix=_normalized(mix),
                )
            )
            remaining[feature] -= 1

    if len(testcases) != TOOLCHAIN_SIZE:
        raise ConfigurationError(
            f"library built {len(testcases)} testcases, expected {TOOLCHAIN_SIZE}"
        )
    return TestcaseLibrary(testcases)
