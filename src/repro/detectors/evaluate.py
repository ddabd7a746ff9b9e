"""Observation 12's experiment: fault-tolerance techniques vs CPU SDCs.

Each function realizes one of §6.2's arguments as a measurable
experiment against the study's fault models:

* checksums computed *after* a CPU SDC protect the corrupted value
  ("these techniques may generate a parity that matches with the
  already corrupted data");
* SECDED ECC mis-handles the multi-bit patterns of Observation 8;
* erasure coding reconstructs lost shards *from* corrupted ones,
  propagating the corruption;
* range predictors miss the minor precision losses of Observation 7;
* redundancy works — at replication-factor cost, and only while
  replicas land on non-defective cores.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from ..rng import substream
from ..cpu import datatypes
from ..cpu.features import DataType
from ..faults.bitflip import BitflipModel, PositionBiasedBitflip
from .crc import crc32, verify_crc32
from .ecc import _DATA_POSITIONS, DecodeStatus, Secded64
from .erasure import ReedSolomon
from .prediction import RangePredictor

__all__ = [
    "ChecksumTimingReport",
    "FaultyEncoderReport",
    "erasure_faulty_encoder_experiment",
    "EccReport",
    "ErasurePropagationReport",
    "PredictionReport",
    "checksum_timing_experiment",
    "ecc_multibit_experiment",
    "erasure_propagation_experiment",
    "prediction_experiment",
]


@dataclass
class ChecksumTimingReport:
    """Detection rates for corruption before vs after parity."""

    trials: int
    detected_post_parity: int
    detected_pre_parity: int

    @property
    def post_parity_rate(self) -> float:
        return self.detected_post_parity / self.trials if self.trials else 0.0

    @property
    def pre_parity_rate(self) -> float:
        return self.detected_pre_parity / self.trials if self.trials else 0.0


def _checksum_trial_draws(trials: int, payload_len: int, seed: int):
    """Per-trial draws of the checksum experiment, in stream order.

    Shared by the scalar loop below and the batched kernel in
    :mod:`repro.detectors.batch` so both consume the identical
    substream sequence (payload bytes, corrupt offset, corrupt bit per
    trial) and therefore reach identical verdicts.
    """
    rng = substream(seed, "checksum-timing")
    integers = rng.integers
    payloads = np.empty((trials, payload_len), dtype=np.uint8)
    offsets = np.empty(trials, dtype=np.int64)
    flip_masks = np.empty(trials, dtype=np.uint8)
    for trial in range(trials):
        payloads[trial] = integers(0, 256, size=payload_len)
        offsets[trial] = int(integers(payload_len))
        flip_masks[trial] = 1 << int(integers(8))
    return payloads, offsets, flip_masks


def checksum_timing_experiment(
    trials: int = 500, payload_len: int = 32, seed: int = 0
) -> ChecksumTimingReport:
    """CRC vs corruption order.

    *Post-parity*: the payload is corrupted after the digest exists —
    the classical storage-corruption case CRC was built for.
    *Pre-parity*: the CPU produces a wrong value first and the digest
    is computed over it — §6.2's CPU-SDC case.
    """
    payloads, offsets, flip_masks = _checksum_trial_draws(
        trials, payload_len, seed
    )
    detected_post = 0
    detected_pre = 0
    for trial in range(trials):
        payload = bytearray(payloads[trial].tolist())
        digest = crc32(bytes(payload))
        corrupted = bytearray(payload)
        corrupted[int(offsets[trial])] ^= int(flip_masks[trial])
        if not verify_crc32(bytes(corrupted), digest):
            detected_post += 1

        # Pre-parity: the value is wrong before the digest is computed.
        digest_over_corrupt = crc32(bytes(corrupted))
        if not verify_crc32(bytes(corrupted), digest_over_corrupt):
            detected_pre += 1
    return ChecksumTimingReport(trials, detected_post, detected_pre)


@dataclass
class EccReport:
    """SECDED outcomes against a bitflip model's masks."""

    trials: int
    outcomes: Dict[DecodeStatus, int]

    def rate(self, status: DecodeStatus) -> float:
        return self.outcomes.get(status, 0) / self.trials if self.trials else 0.0

    @property
    def silent_failure_rate(self) -> float:
        """Miscorrections: wrong data delivered as 'corrected'."""
        return self.rate(DecodeStatus.MISCORRECTED)


def _ecc_trial_draws(bitflip_model: Optional[BitflipModel], trials: int, seed: int):
    """Per-trial (data word, flip mask) draws of the ECC experiment.

    Shared by the scalar loop below and the batched decoder in
    :mod:`repro.detectors.batch`: the per-trial draw order
    (low 63 bits, top bit, model mask) is preserved exactly, so both
    paths see the same words and masks under the same seed.
    """
    model = bitflip_model or PositionBiasedBitflip()
    rng = substream(seed, "ecc-multibit")
    integers = rng.integers
    sample_mask = model.sample_mask
    data_words = np.empty(trials, dtype=np.uint64)
    flip_masks = np.empty(trials, dtype=np.uint64)
    for trial in range(trials):
        data_words[trial] = int(integers(0, 1 << 63)) | (
            int(integers(0, 2)) << 63
        )
        flip_masks[trial] = sample_mask(DataType.BIN64, rng)
    return data_words, flip_masks


def ecc_multibit_experiment(
    bitflip_model: Optional[BitflipModel] = None,
    trials: int = 500,
    seed: int = 0,
) -> EccReport:
    """Feed SECDED the study's (possibly multi-bit) flip masks.

    Flips are applied to the codeword's data region, emulating an SDC
    that lands in protected storage after encoding.
    """
    data_words, flip_masks = _ecc_trial_draws(bitflip_model, trials, seed)
    outcomes: Dict[DecodeStatus, int] = {}
    flipped_positions = datatypes.flipped_positions
    for trial in range(trials):
        data = int(data_words[trial])
        codeword = Secded64.encode(data)
        corrupted = codeword
        for position in flipped_positions(int(flip_masks[trial])):
            # Map data-bit positions into their codeword positions.
            corrupted ^= 1 << (_DATA_POSITIONS[position] - 1)
        result = Secded64.decode(corrupted, true_data=data)
        outcomes[result.status] = outcomes.get(result.status, 0) + 1
    return EccReport(trials, outcomes)


@dataclass
class ErasurePropagationReport:
    """Does a corrupted shard poison reconstruction?"""

    trials: int
    reconstructions_corrupted: int
    verify_caught_pre_parity: int

    @property
    def propagation_rate(self) -> float:
        return (
            self.reconstructions_corrupted / self.trials if self.trials else 0.0
        )


def erasure_propagation_experiment(
    k: int = 4,
    m: int = 2,
    shard_len: int = 64,
    trials: int = 50,
    seed: int = 0,
) -> ErasurePropagationReport:
    """§6.2's EC scenario: corrupt one shard, lose another, rebuild.

    The corrupted surviving shard participates in reconstruction, so
    the rebuilt "lost" shard is wrong too — corruption propagates.  And
    when the corruption predates parity computation, parity verification
    passes, so nothing flags it.
    """
    rs = ReedSolomon(k=k, m=m)
    rng = substream(seed, "erasure-propagation")
    propagated = 0
    caught = 0
    for _ in range(trials):
        data = [
            bytes(rng.integers(0, 256, size=shard_len).tolist())
            for _ in range(k)
        ]
        corrupt_shard = int(rng.integers(k))
        corrupted = list(data)
        shard = bytearray(corrupted[corrupt_shard])
        shard[int(rng.integers(shard_len))] ^= 1 << int(rng.integers(8))
        corrupted[corrupt_shard] = bytes(shard)

        # Pre-parity corruption: parity is computed over corrupt data.
        parity = rs.encode(corrupted)
        if not rs.verify(corrupted, parity):
            caught += 1

        lost_shard = (corrupt_shard + 1) % k
        survivors = {
            i: corrupted[i] for i in range(k) if i != lost_shard
        }
        survivors.update({k + i: parity[i] for i in range(m)})
        del survivors[corrupt_shard]  # keep exactly k shards, incl. parity
        rebuilt = rs.reconstruct(survivors, shard_len)
        if rebuilt[corrupt_shard] != data[corrupt_shard]:
            propagated += 1
    return ErasurePropagationReport(trials, propagated, caught)


@dataclass
class FaultyEncoderReport:
    """RS parity computed on a defective vector unit (§6.2's warning
    that EC 'heavily involve[s] vector operations ... one of the
    vulnerable features')."""

    trials: int
    parity_corrupted: int
    rebuilds_corrupted: int

    @property
    def silent_rebuild_rate(self) -> float:
        """Of the trials whose parity was corrupted at encode time, how
        many later rebuilt a lost shard into silently wrong data."""
        if not self.parity_corrupted:
            return 0.0
        return self.rebuilds_corrupted / self.parity_corrupted


def erasure_faulty_encoder_experiment(
    k: int = 4,
    m: int = 2,
    shard_len: int = 64,
    trials: int = 60,
    corruption_probability: float = 0.02,
    seed: int = 0,
) -> FaultyEncoderReport:
    """EC encoding itself executed on a defective vector unit.

    Each parity byte is corrupted with ``corruption_probability``
    (standing for the defective carry-less-multiply/XOR path, time-
    compressed).  The data is *correct*; nothing flags the bad parity.
    When a data shard is later lost, reconstruction mixes in the corrupt
    parity and the rebuilt shard is silently wrong — "a corrupted data
    block may be used to construct a lost data block, causing the
    corruption to propagate".
    """
    rs = ReedSolomon(k=k, m=m)
    rng = substream(seed, "faulty-encoder")
    parity_corrupted = 0
    rebuilds_corrupted = 0
    for _ in range(trials):
        data = [
            bytes(rng.integers(0, 256, size=shard_len).tolist())
            for _ in range(k)
        ]
        parity = [bytearray(p) for p in rs.encode(data)]
        corrupted = False
        for shard in parity:
            for offset in range(shard_len):
                if rng.random() < corruption_probability:
                    shard[offset] ^= 1 << int(rng.integers(8))
                    corrupted = True
        if not corrupted:
            continue
        parity_corrupted += 1
        lost = int(rng.integers(k))
        survivors = {i: data[i] for i in range(k) if i != lost}
        survivors[k] = bytes(parity[0])
        rebuilt = rs.reconstruct(survivors, shard_len)
        if rebuilt[lost] != data[lost]:
            rebuilds_corrupted += 1
    return FaultyEncoderReport(
        trials=trials,
        parity_corrupted=parity_corrupted,
        rebuilds_corrupted=rebuilds_corrupted,
    )


@dataclass
class PredictionReport:
    """Range-predictor miss/false-alarm rates against fraction flips."""

    injected: int
    missed: int
    false_alarms: int
    clean_observations: int

    @property
    def miss_rate(self) -> float:
        return self.missed / self.injected if self.injected else 0.0

    @property
    def false_alarm_rate(self) -> float:
        return (
            self.false_alarms / self.clean_observations
            if self.clean_observations
            else 0.0
        )


def prediction_experiment(
    tolerance: float = 0.05,
    stream_len: int = 2_000,
    corruption_rate: float = 0.02,
    bitflip_model: Optional[BitflipModel] = None,
    seed: int = 0,
) -> PredictionReport:
    """Observation 7 vs range prediction.

    A smooth float64 signal is streamed through the predictor; a small
    fraction of samples get fraction-biased flips.  Minor precision
    losses stay inside the tolerance envelope → misses.
    """
    import math

    model = bitflip_model or PositionBiasedBitflip()
    rng = substream(seed, "prediction")
    predictor = RangePredictor(tolerance=tolerance)
    injected = 0
    missed = 0
    false_alarms = 0
    clean = 0
    random = rng.random
    observe = predictor.observe
    for index in range(stream_len):
        value = 100.0 + 10.0 * math.sin(index / 50.0)
        corrupt = random() < corruption_rate
        if corrupt:
            bits = datatypes.encode(value, DataType.FLOAT64)
            bits ^= model.sample_mask(DataType.FLOAT64, rng)
            observed = datatypes.decode(bits, DataType.FLOAT64)
            injected += 1
        else:
            observed = value
            clean += 1
        outcome = observe(float(observed))
        if corrupt and not outcome.flagged:
            missed += 1
        if not corrupt and outcome.flagged:
            false_alarms += 1
    return PredictionReport(injected, missed, false_alarms, clean)
