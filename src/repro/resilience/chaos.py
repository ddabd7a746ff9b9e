"""Chaos self-injection: faults for the *harness itself*.

The paper's campaigns model unreliable silicon; production experience
(Meta's *Silent Data Corruptions at Scale*, Google's SiliFuzz) says the
test infrastructure is unreliable too.  This module injects that second
kind of fault — scanner crashes, flaky workers, torn snapshot writes —
on a **seeded, deterministic schedule**, so the chaos suite can prove
that a campaign survives every injected fault with a bit-identical
final result.

Fault kinds, keyed by shard index:

* ``"exception"`` — the shard raises a transient error on its first
  attempt (a flaking worker); the campaign retries it with backoff.
* ``"delay"`` — the shard stalls briefly (a slow host); nothing should
  change but wall-clock time.
* ``"kill"`` — the campaign process "dies" right after the shard (an
  OOM-killed scanner); the supervisor driver must resume from the last
  good checkpoint.
* ``"parity_trip"`` — the vectorized engine's parity self-check reports
  a mismatch; the campaign must degrade that shard to the scalar engine.
* ``"torn_checkpoint"`` — the snapshot written after the shard is
  truncated mid-file (power loss during write).
* ``"corrupt_byte"`` — one byte of that snapshot is flipped (bit rot).

Each scheduled fault fires **once**: a resumed campaign re-executing the
same shard must not re-die, exactly like a real crash that does not
reproduce.  Keep one injector instance per supervised run.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

from ..errors import ResilienceError, TransientWorkerError
from ..obs.context import observed_sleep
from ..rng import substream
from .health import KIND_FAULT, CampaignHealthReport

__all__ = [
    "FAULT_KINDS",
    "InjectedKillError",
    "ChaosInjector",
]

FAULT_KINDS = (
    "exception",
    "delay",
    "kill",
    "parity_trip",
    "torn_checkpoint",
    "corrupt_byte",
)


class InjectedKillError(ResilienceError):
    """The chaos schedule killed the campaign process (simulated)."""


class ChaosInjector:
    """Fires scheduled harness faults at campaign hook points."""

    def __init__(
        self,
        schedule: Mapping[int, Sequence[str]],
        seed: int = 0,
        delay_s: float = 0.01,
    ):
        for shard, kinds in schedule.items():
            for kind in kinds:
                if kind not in FAULT_KINDS:
                    raise ValueError(
                        f"unknown chaos fault {kind!r} for shard {shard}; "
                        f"known kinds: {FAULT_KINDS}"
                    )
        self.schedule: Dict[int, Tuple[str, ...]] = {
            int(shard): tuple(kinds) for shard, kinds in schedule.items()
        }
        self.delay_s = delay_s
        self._rng = substream(seed, "chaos")
        self._fired: Set[Tuple[int, str]] = set()
        self.health: Optional[CampaignHealthReport] = None
        #: Optional :class:`repro.obs.Observability`: every injected
        #: fault is counted and traced the instant it fires, and delay
        #: faults sleep through :func:`repro.obs.observed_sleep` instead
        #: of a silent ``time.sleep``.
        self.obs = None

    @classmethod
    def seeded(
        cls,
        seed: int,
        shard_count: int,
        rate: float = 0.15,
        kinds: Iterable[str] = FAULT_KINDS,
    ) -> "ChaosInjector":
        """A random schedule: each (shard, kind) fires with ``rate``.

        Deterministic in ``seed`` — the same seed always builds the same
        schedule, which is what lets CI run a fixed seed matrix.
        """
        rng = substream(seed, "chaos", "schedule")
        schedule: Dict[int, List[str]] = {}
        for shard in range(shard_count):
            for kind in kinds:
                if rng.random() < rate:
                    schedule.setdefault(shard, []).append(kind)
        return cls(schedule, seed=seed)

    # -- hook points --------------------------------------------------------

    def _take(self, shard: int, kind: str) -> bool:
        """True if ``kind`` is scheduled for ``shard`` and unfired."""
        if kind not in self.schedule.get(shard, ()) or (shard, kind) in self._fired:
            return False
        self._fired.add((shard, kind))
        if self.obs is not None:
            self.obs.inc("repro_chaos_faults_total", kind=kind)
            self.obs.tracer.event(f"chaos.{kind}", shard=shard)
        if self.health is not None:
            self.health.record(KIND_FAULT, f"injected {kind}", shard=shard)
        return True

    def on_shard_start(self, shard: int) -> None:
        """Worker-side faults: flaky exception, slow host."""
        if self._take(shard, "delay"):
            observed_sleep(self.obs, self.delay_s, "chaos_delay")
        if self._take(shard, "exception"):
            raise TransientWorkerError(
                f"chaos: injected worker exception on shard {shard}"
            )

    def parity_trip(self, shard: int) -> bool:
        """Whether the parity self-check must report a mismatch."""
        return self._take(shard, "parity_trip")

    def kill_after_shard(self, shard: int) -> None:
        """Simulated process death; the driver resumes from checkpoint."""
        if self._take(shard, "kill"):
            raise InjectedKillError(
                f"chaos: campaign killed after shard {shard}"
            )

    def damage_checkpoint(self, path: os.PathLike, shard: int) -> List[str]:
        """Tear and/or bit-rot the snapshot just written.

        Both kinds can be scheduled for one shard and then apply to the
        same write (a torn, bit-rotted file is still just a corrupt
        file); returns the kinds applied.
        """
        path = Path(path)
        applied: List[str] = []
        if self._take(shard, "torn_checkpoint"):
            data = path.read_bytes()
            cut = max(1, int(len(data) * float(self._rng.uniform(0.2, 0.8))))
            path.write_bytes(data[:cut])
            applied.append("torn_checkpoint")
        if self._take(shard, "corrupt_byte"):
            data = bytearray(path.read_bytes())
            index = int(self._rng.integers(len(data)))
            data[index] ^= 1 << int(self._rng.integers(8))
            path.write_bytes(bytes(data))
            applied.append("corrupt_byte")
        return applied

    # -- bookkeeping --------------------------------------------------------

    @property
    def fired(self) -> Set[Tuple[int, str]]:
        return set(self._fired)

    def pending(self) -> Dict[int, Tuple[str, ...]]:
        """Scheduled faults that have not fired yet."""
        out: Dict[int, Tuple[str, ...]] = {}
        for shard, kinds in self.schedule.items():
            left = tuple(k for k in kinds if (shard, k) not in self._fired)
            if left:
                out[shard] = left
        return out
