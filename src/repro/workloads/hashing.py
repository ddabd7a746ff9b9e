"""Hash-map metadata service (the paper's third §2.2 case study).

    "The application used a hash map to manage its metadata, and
    defective hashing calculation in a faulty processor affected its
    metadata service" — the symptom was assertion failures.

The service hashes keys with the crypto round instruction to pick a
bucket and to fingerprint entries.  A corrupted hash at *insert* time
places the entry in the wrong bucket (or stores a wrong fingerprint);
the later *lookup*, computing the correct hash, misses the entry or
trips the fingerprint assertion.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from ..errors import ConfigurationError
from ..cpu.executor import Executor
from ..faults.injector import CorruptionEvent

__all__ = ["MetadataService", "LookupOutcome"]

_HASH_SEED = 0x5DEECE66D


@dataclass
class LookupOutcome:
    """Result of one metadata lookup."""

    key: int
    found: bool
    assertion_failed: bool


@dataclass
class MetadataService:
    """A bucketized metadata store keyed by hardware-hashed keys."""

    executor: Executor
    n_buckets: int = 64
    pcore_id: int = 0
    temperature_c: float = 45.0

    def __post_init__(self) -> None:
        if self.n_buckets <= 0:
            raise ConfigurationError("n_buckets must be positive")
        self._buckets: List[Dict[int, Tuple[int, int]]] = [
            {} for _ in range(self.n_buckets)
        ]
        self.events: List[CorruptionEvent] = []
        self.assertion_failures = 0
        self._rng = self.executor.rng_for("hashing-service", self.pcore_id)

    # -- the hardware hash -------------------------------------------------

    def _hash(self, key: int) -> int:
        """64-bit hash on the simulated core (may be corrupted)."""
        instruction = self.executor.isa["SHAROUND_B64"]
        correct = instruction.execute(key & ((1 << 64) - 1), _HASH_SEED)
        value, event = self.executor.injector.maybe_corrupt(
            instruction,
            correct,
            pcore_id=self.pcore_id,
            temperature_c=self.temperature_c,
            usage_per_s=9.0e5,  # the service hashes on every operation
            setting_key="hashing-service",
            rng=self._rng,
            scale=self.executor.time_compression,
        )
        if event is not None:
            self.events.append(event)
        return value

    def _golden_hash(self, key: int) -> int:
        return self.executor.isa["SHAROUND_B64"].execute(
            key & ((1 << 64) - 1), _HASH_SEED
        )

    # -- service operations -----------------------------------------------------

    def put(self, key: int, value: int) -> None:
        digest = self._hash(key)
        bucket = digest % self.n_buckets
        self._buckets[bucket][key] = (value, digest)

    def get(self, key: int) -> LookupOutcome:
        """Lookup with the paper's failure modes.

        A wrong hash at lookup time sends us to the wrong bucket (miss)
        or, if the entry is found by key, a stored-vs-recomputed
        fingerprint mismatch fires the assertion.
        """
        digest = self._hash(key)
        bucket = digest % self.n_buckets
        entry = self._buckets[bucket].get(key)
        if entry is None:
            return LookupOutcome(key=key, found=False, assertion_failed=False)
        _, stored_digest = entry
        if stored_digest != digest:
            self.assertion_failures += 1
            return LookupOutcome(key=key, found=True, assertion_failed=True)
        return LookupOutcome(key=key, found=True, assertion_failed=False)

    def golden_get(self, key: int) -> bool:
        """Whether the key is stored under its *correct* bucket."""
        digest = self._golden_hash(key)
        return key in self._buckets[digest % self.n_buckets]
