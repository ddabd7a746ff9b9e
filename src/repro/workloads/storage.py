"""The storage application of the §2.2 case studies, end to end.

Two production incidents are reproduced:

* **Checksum-mismatch storm** (first case): clients compute a CRC per
  request on a (possibly faulty) core; the server verifies against the
  correct CRC of the received data.  A defective checksum instruction
  makes verification fail *spuriously* — the data is fine — and the
  client retries, so "such incorrect information misled the cloud
  application to conclude that request data was corrupted and thus
  triggered repeated requests frequently" (§1).
* **Shared-buffer inconsistency** (second case): a client thread packs
  data and checksum into a buffer shared with a daemon thread; with
  defective cache coherence the daemon reads a stale half and reports a
  mismatch that no amount of client retrying explains.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..rng import substream
from ..cpu.coherence import CoherentSystem, drop_hook_from_defect
from ..cpu.executor import Executor
from ..cpu.features import Feature
from ..cpu.processor import Processor
from ..faults.trigger import TriggerModel
from .checksum import crc32, crc32_golden

__all__ = ["StorageRunReport", "run_request_storm", "run_shared_buffer_daemon"]


@dataclass
class StorageRunReport:
    """Service-level outcome of a storage workload run."""

    requests: int
    mismatches: int
    retries: int
    #: Requests whose payload was genuinely corrupted (always 0 here:
    #: the paper's point is that the *data* was fine).
    true_corruptions: int = 0

    @property
    def mismatch_rate(self) -> float:
        return self.mismatches / self.requests if self.requests else 0.0


def run_request_storm(
    executor: Executor,
    n_requests: int = 200,
    payload_len: int = 64,
    pcore_id: int = 0,
    temperature_c: float = 45.0,
    max_retries: int = 3,
    seed: int = 0,
) -> StorageRunReport:
    """Client computes CRC on the simulated core; server verifies.

    Each mismatch triggers a retry (recomputing the checksum on the
    same faulty core), so one reproducible defect inflates request
    traffic — the performance impairment of the paper's first case.
    """
    rng = substream(seed, "storage-storm")
    mismatches = 0
    retries = 0
    for _ in range(n_requests):
        payload = [int(b) for b in rng.integers(0, 256, size=payload_len)]
        server_crc = crc32_golden(payload)
        for attempt in range(max_retries + 1):
            client = crc32(
                executor, payload, pcore_id=pcore_id, temperature_c=temperature_c
            )
            if client.digest == server_crc:
                break
            mismatches += 1
            if attempt < max_retries:
                retries += 1
    return StorageRunReport(
        requests=n_requests, mismatches=mismatches, retries=retries
    )


def run_shared_buffer_daemon(
    processor: Processor,
    n_messages: int = 2_000,
    temperature_c: float = 60.0,
    ops_per_s: float = 5.0e5,
    trigger: Optional[TriggerModel] = None,
    seed: int = 0,
    time_compression: float = 1.0,
) -> StorageRunReport:
    """Client thread publishes (data, checksum); daemon thread verifies.

    Runs on the coherence simulator with the processor's cache defect
    (if any) injected; a healthy processor yields zero mismatches.
    """
    trigger = trigger or TriggerModel()
    rng = substream(seed, "storage-daemon", processor.processor_id)
    cache_defect = next(
        (
            d
            for d in processor.active_defects()
            if d.is_consistency and Feature.CACHE in d.features
        ),
        None,
    )
    hook = None
    if cache_defect is not None:
        # The daemon thread (simulator core 1) runs on a defective
        # physical core, like the unlucky production placement of §2.2.
        pcores = [0, cache_defect.core_ids[0]]
        raw_hook = drop_hook_from_defect(
            cache_defect, trigger, "storage-daemon",
            temperature_c, ops_per_s, rng,
            time_compression=time_compression,
        )

        def hook(event, core_id, _raw=raw_hook, _map=pcores):
            return _raw(event, _map[core_id])

    system = CoherentSystem(n_cores=2, drop_hook=hook)
    data_addr, checksum_addr = 100, 101

    mismatches = 0
    for _ in range(n_messages):
        data = int(rng.integers(0, 1 << 32))
        system.write(0, data_addr, data)
        system.write(0, checksum_addr, data & 0xFFFF)
        seen_data = system.read(1, data_addr)
        seen_checksum = system.read(1, checksum_addr)
        if seen_checksum != (seen_data & 0xFFFF):
            mismatches += 1
    return StorageRunReport(
        requests=n_messages, mismatches=mismatches, retries=0
    )
