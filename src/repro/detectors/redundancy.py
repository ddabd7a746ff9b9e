"""Redundant execution: DMR and TMR (§6.2's "Redundancy").

Dual/triple modular redundancy executes the same computation on
multiple cores and compares.  DMR detects a single-replica corruption
(divergence) but cannot arbitrate; TMR majority-votes.  §6.2's verdict
— "too costly to be applied to every application" — is quantified by
the harness via the replication factor itself.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import List, Optional, Sequence

from ..errors import ConfigurationError
from ..cpu.executor import Executor

__all__ = ["VoteStatus", "RedundantResult", "redundant_execute"]


class VoteStatus(enum.Enum):
    AGREEMENT = "agreement"
    DETECTED_DIVERGENCE = "detected"   # DMR: mismatch, cannot arbitrate
    CORRECTED_BY_VOTE = "corrected"    # TMR: majority overruled one replica
    VOTE_FAILED = "vote_failed"        # no majority (≥2 replicas corrupt)


@dataclass
class RedundantResult:
    status: VoteStatus
    value: Optional[object]
    replica_values: List[object]

    @property
    def overhead_factor(self) -> int:
        """Extra executions relative to unprotected execution."""
        return len(self.replica_values)


def redundant_execute(
    executor: Executor,
    mnemonic: str,
    operands: Sequence,
    cores: Sequence[int],
    temperature_c: float = 45.0,
    usage_per_s: float = 8.0e5,
    setting_key: str = "redundant",
) -> RedundantResult:
    """Execute one operation on every listed core and vote.

    Two cores give DMR semantics; three or more give TMR majority
    voting.  Replicas run on *different physical cores*, so a
    single-core defect corrupts at most one replica — the paper's
    single-defective-core pattern (Obs. 4) is what makes this work, and
    its all-core pattern is what defeats it.
    """
    if len(cores) < 2:
        raise ConfigurationError("redundant execution needs >= 2 cores")
    instruction = executor.isa[mnemonic]
    correct = instruction.execute(*operands)
    values: List[object] = []
    for core in cores:
        rng = executor.rng_for(f"{setting_key}-replica", core)
        value, _ = executor.injector.maybe_corrupt(
            instruction,
            correct,
            pcore_id=core,
            temperature_c=temperature_c,
            usage_per_s=usage_per_s,
            setting_key=setting_key,
            rng=rng,
            scale=executor.time_compression,
        )
        values.append(value)

    distinct = set(values)
    if len(distinct) == 1:
        return RedundantResult(VoteStatus.AGREEMENT, values[0], values)
    if len(cores) == 2:
        return RedundantResult(VoteStatus.DETECTED_DIVERGENCE, None, values)
    counts = {value: values.count(value) for value in distinct}
    winner, count = max(counts.items(), key=lambda pair: pair[1])
    if count > len(values) // 2:
        return RedundantResult(VoteStatus.CORRECTED_BY_VOTE, winner, values)
    return RedundantResult(VoteStatus.VOTE_FAILED, None, values)
