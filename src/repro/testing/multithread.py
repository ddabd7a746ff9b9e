"""Concrete multi-threaded consistency testcases.

The statistical runner samples consistency-SDC *counts*; this module
provides the concrete counterpart: scripted multi-threaded programs
against the MESI and transactional-memory simulators, demonstrating the
actual anomalies (stale reads, torn commits) that those counts stand
for.  §4.1: consistency SDCs "can only be detected with multi-threaded
tests" — the single-threaded variants here exist precisely to show they
detect nothing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from ..errors import ConfigurationError
from ..rng import substream
from ..cpu.coherence import CoherentSystem, StaleRead, drop_hook_from_defect
from ..cpu.defects import Defect
from ..cpu.features import Feature
from ..cpu.processor import Processor
from ..cpu.txmem import TornCommit, TransactionalMemory, tear_hook_from_defect
from ..faults.trigger import TriggerModel

__all__ = [
    "CoherenceTestResult",
    "TxMemTestResult",
    "run_coherence_test",
    "run_txmem_test",
]


@dataclass
class CoherenceTestResult:
    """Outcome of the producer/consumer shared-buffer test."""

    operations: int
    checksum_mismatches: int
    stale_reads: List[StaleRead]

    @property
    def detected(self) -> bool:
        return self.checksum_mismatches > 0


@dataclass
class TxMemTestResult:
    """Outcome of the paired-counter transactional test."""

    transactions: int
    invariant_violations: int
    torn_commits: List[TornCommit]

    @property
    def detected(self) -> bool:
        return self.invariant_violations > 0


def _consistency_defect(
    processor: Processor, feature: Feature
) -> Optional[Defect]:
    for defect in processor.active_defects():
        if defect.is_consistency and feature in defect.features:
            return defect
    return None


def _thread_to_pcore(processor: Processor, threads: int, defect) -> List[int]:
    """Map simulator thread slots onto physical cores.

    Defective cores are scheduled first (a test that avoids them cannot
    detect anything), then healthy cores fill the remaining slots.
    """
    preferred = list(defect.core_ids) if defect is not None else []
    rest = [
        c.pcore_id
        for c in processor.physical_cores
        if c.pcore_id not in set(preferred)
    ]
    ordering = preferred + rest
    return [ordering[i % len(ordering)] for i in range(threads)]


def run_coherence_test(
    processor: Processor,
    iterations: int = 2_000,
    threads: int = 2,
    temperature_c: float = 60.0,
    ops_per_s: float = 5.0e5,
    trigger: Optional[TriggerModel] = None,
    seed: int = 0,
    time_compression: float = 1.0,
) -> CoherenceTestResult:
    """The §2.2 shared-buffer scenario as a coherence testcase.

    A client thread packs ``(data, checksum)`` into shared locations;
    daemon threads read both and verify ``checksum == data & 0xFFFF``.
    On a healthy processor every verification passes; with a defective-
    coherence processor, dropped invalidations leave daemons reading a
    stale half of the pair — the checksum-mismatch storms of the paper's
    second case study.
    """
    if threads < 2:
        raise ConfigurationError("coherence tests need at least two threads")
    trigger = trigger or TriggerModel()
    rng = substream(seed, "coherence-test", processor.processor_id)
    defect = _consistency_defect(processor, Feature.CACHE)
    hook = None
    if defect is not None:
        # Thread 0 is the writer; coherence violations manifest on the
        # *reader* side (stale lines), so defective cores take the
        # reader slots.
        ordering = _thread_to_pcore(processor, threads, defect)
        pcores = [ordering[-1]] + ordering[:-1]
        raw_hook = drop_hook_from_defect(
            defect, trigger, "MT-COHERENCE", temperature_c, ops_per_s, rng,
            time_compression=time_compression,
        )

        def hook(event, core_id, _raw=raw_hook, _map=pcores):
            return _raw(event, _map[core_id])

    system = CoherentSystem(n_cores=threads, drop_hook=hook)

    data_addr, checksum_addr = 0, 1
    mismatches = 0
    for i in range(iterations):
        value = int(rng.integers(0, 1 << 30))
        system.write(0, data_addr, value)
        system.write(0, checksum_addr, value & 0xFFFF)
        for reader in range(1, threads):
            data = system.read(reader, data_addr)
            checksum = system.read(reader, checksum_addr)
            if checksum != (data & 0xFFFF):
                mismatches += 1
    return CoherenceTestResult(
        operations=iterations,
        checksum_mismatches=mismatches,
        stale_reads=list(system.violations),
    )


def run_txmem_test(
    processor: Processor,
    transactions: int = 2_000,
    threads: int = 2,
    temperature_c: float = 60.0,
    commits_per_s: float = 5.0e5,
    trigger: Optional[TriggerModel] = None,
    seed: int = 0,
    time_compression: float = 1.0,
) -> TxMemTestResult:
    """Paired-counter atomicity test for transactional memory.

    Each transaction increments two counters that must stay equal.  A
    torn commit (CNST-style defect) applies only one increment, breaking
    the invariant — the kind of silent inconsistency behind CNST2's
    failed testcases.
    """
    if threads < 2:
        raise ConfigurationError("txmem tests need at least two threads")
    trigger = trigger or TriggerModel()
    rng = substream(seed, "txmem-test", processor.processor_id)
    defect = _consistency_defect(processor, Feature.TRX_MEM)
    hook = None
    if defect is not None:
        pcores = _thread_to_pcore(processor, threads, defect)
        raw_hook = tear_hook_from_defect(
            defect, trigger, "MT-TXMEM", temperature_c, commits_per_s, rng,
            time_compression=time_compression,
        )

        def hook(core_id, _raw=raw_hook, _map=pcores):
            return _raw(_map[core_id])

    memory = TransactionalMemory(tear_hook=hook)
    counter_a, counter_b = 0, 1

    violations = 0
    committed = 0
    for i in range(transactions):
        core = i % threads
        memory.begin(core)
        a = memory.read(core, counter_a)
        b = memory.read(core, counter_b)
        memory.write(core, counter_a, a + 1)
        memory.write(core, counter_b, b + 1)
        if memory.commit(core):
            committed += 1
            if memory.peek(counter_a) != memory.peek(counter_b):
                violations += 1
                # Repair the invariant so each torn commit is counted
                # once rather than tainting every later check.
                repaired = max(memory.peek(counter_a), memory.peek(counter_b))
                memory.store[counter_a] = repaired
                memory.store[counter_b] = repaired
    return TxMemTestResult(
        transactions=committed,
        invariant_violations=violations,
        torn_commits=list(memory.violations),
    )
