"""Transactional-memory application workload (CNST1/CNST2's victims).

A bank-transfer style service: every operation moves units between two
accounts inside a transaction, so the global balance is invariant.  A
torn commit (the CNST defect) applies the debit without the credit —
money silently disappears, the transactional analogue of Meta's
"misjudged the file size to be zero ... caused a database to lose
files" class of silent corruption.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..rng import substream
from ..cpu.features import Feature
from ..cpu.processor import Processor
from ..cpu.txmem import TransactionalMemory, tear_hook_from_defect
from ..faults.trigger import TriggerModel

__all__ = ["LedgerReport", "run_transfer_service"]


@dataclass
class LedgerReport:
    """Outcome of a transfer-service run."""

    transfers_committed: int
    conflicts: int
    initial_total: int
    final_total: int
    torn_commits: int

    @property
    def balance_lost(self) -> int:
        return self.initial_total - self.final_total

    @property
    def consistent(self) -> bool:
        return self.balance_lost == 0


def run_transfer_service(
    processor: Processor,
    n_accounts: int = 16,
    n_transfers: int = 4_000,
    threads: int = 4,
    initial_balance: int = 1_000,
    temperature_c: float = 60.0,
    commits_per_s: float = 5.0e5,
    trigger: Optional[TriggerModel] = None,
    seed: int = 0,
    time_compression: float = 1.0,
) -> LedgerReport:
    """Run transfers on the TM simulator with the CPU's defect injected."""
    trigger = trigger or TriggerModel()
    rng = substream(seed, "transfer-service", processor.processor_id)
    tm_defect = next(
        (
            d
            for d in processor.active_defects()
            if d.is_consistency and Feature.TRX_MEM in d.features
        ),
        None,
    )
    hook = None
    if tm_defect is not None:
        affected = list(tm_defect.core_ids)
        raw_hook = tear_hook_from_defect(
            tm_defect, trigger, "transfer-service",
            temperature_c, commits_per_s, rng,
            time_compression=time_compression,
        )

        def hook(core_id, _raw=raw_hook, _map=affected):
            return _raw(_map[core_id % len(_map)])

    memory = TransactionalMemory(tear_hook=hook)
    for account in range(n_accounts):
        memory.store[account] = initial_balance
    initial_total = n_accounts * initial_balance

    committed = 0
    conflicts = 0
    for i in range(n_transfers):
        core = i % threads
        src = int(rng.integers(n_accounts))
        dst = int(rng.integers(n_accounts))
        if src == dst:
            continue
        amount = int(rng.integers(1, 50))
        memory.begin(core)
        src_balance = memory.read(core, src)
        dst_balance = memory.read(core, dst)
        if src_balance < amount:
            memory.abort(core)
            continue
        memory.write(core, src, src_balance - amount)
        memory.write(core, dst, dst_balance + amount)
        if memory.commit(core):
            committed += 1
        else:
            conflicts += 1
    final_total = sum(memory.store[a] for a in range(n_accounts))
    return LedgerReport(
        transfers_committed=committed,
        conflicts=conflicts,
        initial_total=initial_total,
        final_total=final_total,
        torn_commits=len(memory.violations),
    )
