"""AN-codes: arithmetic error detection that survives pre-parity SDCs.

§6.2 closes with "new opportunities": checksums fail against CPU SDCs
because the corruption happens *before* the parity is computed.  AN
codes are the classical answer for arithmetic units: every integer
``n`` is carried as ``A * n`` for a fixed odd constant ``A``; addition
and subtraction preserve the form (``A*n + A*m = A*(n+m)``), so a valid
value is always divisible by ``A``.  A bitflip in an encoded operand or
result turns ``A*n`` into ``A*n ^ mask``, which is divisible by ``A``
with probability only ~``1/A`` — the corruption is caught at *decode*
time, after the defective computation, with no golden copy needed.

This realizes the paper's "can we design techniques targeting those
vulnerable features?" for the ALU: unlike CRC (blind to pre-parity
corruption, Observation 12), the AN invariant is maintained *through*
the computation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..errors import ConfigurationError
from ..rng import substream
from ..cpu.features import DataType
from ..faults.bitflip import BitflipModel, PositionBiasedBitflip

__all__ = ["ANCode", "ANCodeReport", "an_code_experiment"]

#: A = 58659 is a classic choice: odd, not a power-of-two neighbour,
#: detects all burst errors shorter than its bit length.
DEFAULT_A = 58_659


@dataclass(frozen=True)
class ANCode:
    """Encode/check/decode integers under the AN invariant."""

    a: int = DEFAULT_A

    def __post_init__(self) -> None:
        if self.a < 3 or self.a % 2 == 0:
            raise ConfigurationError("A must be an odd constant >= 3")

    def encode(self, value: int) -> int:
        return value * self.a

    def is_valid(self, encoded: int) -> bool:
        return encoded % self.a == 0

    def decode(self, encoded: int) -> int:
        """Decode a codeword; raises on a detected corruption."""
        if not self.is_valid(encoded):
            raise ConfigurationError(
                f"AN-code violation: {encoded} not divisible by {self.a}"
            )
        return encoded // self.a

    def add(self, left: int, right: int) -> int:
        """Addition in the encoded domain (form-preserving)."""
        return left + right

    def sub(self, left: int, right: int) -> int:
        return left - right


@dataclass
class ANCodeReport:
    """Outcome of the AN-code vs CRC detection comparison."""

    trials: int
    an_detected: int
    an_missed: int
    crc_detected: int

    @property
    def an_detection_rate(self) -> float:
        corrupted = self.an_detected + self.an_missed
        return self.an_detected / corrupted if corrupted else 0.0

    @property
    def crc_detection_rate(self) -> float:
        corrupted = self.an_detected + self.an_missed
        return self.crc_detected / corrupted if corrupted else 0.0


def an_code_experiment(
    trials: int = 500,
    bitflip_model: Optional[BitflipModel] = None,
    a: int = DEFAULT_A,
    seed: int = 0,
) -> ANCodeReport:
    """Compare AN-code vs after-the-fact CRC against ALU SDCs.

    Each trial: two operands are AN-encoded, the (defective) ALU adds
    the encoded values and the study's bitflip model corrupts the
    encoded result.  The AN check runs at decode; the CRC is computed
    over the already-corrupted plain value — §6.2's pre-parity
    scenario — so it can never flag anything.
    """
    from .crc import crc32, verify_crc32

    code = ANCode(a=a)
    model = bitflip_model or PositionBiasedBitflip()
    rng = substream(seed, "an-code")
    an_detected = 0
    an_missed = 0
    crc_detected = 0
    for _ in range(trials):
        left = int(rng.integers(0, 1 << 20))
        right = int(rng.integers(0, 1 << 20))
        encoded = code.add(code.encode(left), code.encode(right))
        mask = model.sample_mask(DataType.BIN64, rng)
        corrupted = encoded ^ mask

        if code.is_valid(corrupted):
            an_missed += 1
            plain = corrupted // code.a
        else:
            an_detected += 1
            plain = corrupted // code.a  # what an unchecked path would use

        # CRC computed AFTER the corruption: matches the corrupt value.
        digest = crc32(plain.to_bytes(16, "little", signed=True))
        if not verify_crc32(plain.to_bytes(16, "little", signed=True), digest):
            crc_detected += 1
    return ANCodeReport(
        trials=trials,
        an_detected=an_detected,
        an_missed=an_missed,
        crc_detected=crc_detected,
    )
