"""An OpenDCDiag-style alternative toolchain.

§2.3/§6.1: "we also try other toolchains designed for SDC detection
like OpenDCDiag as supplementary and reach the same observations in our
study ... we recommend OpenDCDiag since we have validated that it can
reach the same observations as our toolchain."

This module builds a second, independently-composed testcase library —
different size, different naming, different mix construction, a
different random seed lineage — so the reproduction can make the same
robustness claim: the study's observations are properties of the
*defect population*, not artifacts of one toolchain's composition.

Compositional differences from the vendor library:

* smaller (~230 testcases vs 633) — an open project curates fewer,
  broader tests;
* heavier on tight loops (fuzz-style single-instruction stressing) and
  lighter on application-class scenarios;
* consistency tests use higher default concurrency.
"""

from __future__ import annotations

from typing import Dict, List

from ..errors import ConfigurationError
from ..rng import substream
from ..cpu.features import Feature
from ..cpu.isa import DEFAULT_ISA
from .library import TestcaseLibrary, _normalized
from .testcase import Complexity, ConsistencyKind, Testcase

__all__ = ["ALT_TOOLCHAIN_SIZE", "build_open_library"]

#: Size of the open toolchain (OpenDCDiag ships on the order of a
#: couple hundred test contents).
ALT_TOOLCHAIN_SIZE = 230

_FILLER = ("MOV_B64", "BRTAKEN_I32")

#: Loop variants per instruction: the open toolchain leans on
#: fuzz-style stressing, so more variants than the vendor library.
_LOOPS_PER_INSTRUCTION = 3

_CONSISTENCY_QUOTA = {Feature.CACHE: 18, Feature.TRX_MEM: 14}


def build_open_library(seed: int = 77) -> TestcaseLibrary:
    """Build the alternative open-source-style toolchain."""
    rng = substream(seed, "open-toolchain")
    testcases: List[Testcase] = []
    counter = 0

    def next_id() -> str:
        nonlocal counter
        counter += 1
        return f"ODC-{counter:03d}"

    # 1) Fuzz loops: every instruction, several hotness variants.
    mnemonics = [
        m
        for m, inst in DEFAULT_ISA.instructions.items()
        if inst.features[0] not in (Feature.CACHE, Feature.TRX_MEM)
    ]
    for mnemonic in mnemonics:
        instruction = DEFAULT_ISA[mnemonic]
        for variant in range(_LOOPS_PER_INSTRUCTION):
            hot = 0.95 - 0.05 * variant
            mix: Dict[str, float] = {mnemonic: hot}
            for filler in _FILLER:
                mix[filler] = mix.get(filler, 0.0) + (1.0 - hot) / len(_FILLER)
            testcases.append(
                Testcase(
                    testcase_id=next_id(),
                    name=f"fuzz {mnemonic.lower()} v{variant}",
                    feature=instruction.features[0],
                    complexity=Complexity.INSTRUCTION_LOOP,
                    instruction_mix=_normalized(mix),
                )
            )

    # 2) Consistency stressors: higher concurrency than the vendor's.
    for feature, quota in _CONSISTENCY_QUOTA.items():
        kind = (
            ConsistencyKind.COHERENCE
            if feature is Feature.CACHE
            else ConsistencyKind.TXMEM
        )
        for _ in range(quota):
            testcases.append(
                Testcase(
                    testcase_id=next_id(),
                    name=f"open {kind.value} stressor",
                    feature=feature,
                    complexity=Complexity.APPLICATION,
                    threads=int(rng.choice([4, 8, 16])),
                    consistency_kind=kind,
                    consistency_ops_per_s=float(rng.uniform(1.5, 7.0)) * 1.0e5,
                )
            )

    # 3) A modest set of mixed-pressure content (library-class).
    while len(testcases) < ALT_TOOLCHAIN_SIZE:
        count = int(rng.integers(2, 4))
        chosen = list(rng.choice(mnemonics, size=count, replace=False))
        mix = {}
        share = 0.8 / count
        for mnemonic in chosen:
            mix[mnemonic] = mix.get(mnemonic, 0.0) + share
        for filler in _FILLER:
            mix[filler] = mix.get(filler, 0.0) + 0.2 / len(_FILLER)
        primary = DEFAULT_ISA[chosen[0]].features[0]
        testcases.append(
            Testcase(
                testcase_id=next_id(),
                name="open mixed-pressure content",
                feature=primary,
                complexity=Complexity.LIBRARY,
                instruction_mix=_normalized(mix),
            )
        )

    if len(testcases) != ALT_TOOLCHAIN_SIZE:
        raise ConfigurationError(
            f"open toolchain built {len(testcases)}, expected {ALT_TOOLCHAIN_SIZE}"
        )
    return TestcaseLibrary(testcases)
