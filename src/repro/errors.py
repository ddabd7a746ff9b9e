"""Exception hierarchy for the SDC-study reproduction library.

Every error raised by :mod:`repro` derives from :class:`ReproError` so
callers can catch library failures with a single ``except`` clause while
still distinguishing configuration mistakes from simulation faults.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class ConfigurationError(ReproError):
    """A component was constructed or configured with invalid parameters."""


class DataTypeError(ReproError):
    """A value cannot be encoded/decoded under the requested data type."""


class SimulationError(ReproError):
    """The simulation reached an inconsistent or impossible state."""


class SchedulingError(ReproError):
    """A test schedule could not be constructed or executed."""


class DecommissionError(ReproError):
    """An invalid core/processor decommission operation was requested."""


class ResilienceError(ReproError):
    """Base class for campaign-resilience failures: unusable
    checkpoints and campaigns stopped before they finished."""


class CheckpointError(ResilienceError):
    """A campaign checkpoint could not be written or read."""


class CheckpointCorruptError(CheckpointError):
    """A checkpoint file failed its CRC/structure self-check (torn
    write, bit rot, truncation)."""


class CheckpointVersionError(CheckpointError):
    """A checkpoint was written by an incompatible format version."""


class CampaignAbortedError(ResilienceError):
    """A campaign was stopped before it finished (a ``repro serve``
    job that ran past its ``--job-timeout`` budget)."""


class ObservabilityError(ReproError):
    """A metrics/tracing operation was misused (bad metric name, kind
    mismatch, incompatible snapshot merge) or a telemetry artifact could
    not be written or parsed."""


class TraceCorruptError(ObservabilityError):
    """A JSONL trace record failed its per-line CRC-32 self-check or
    the file header is missing/incompatible."""


class ServiceError(ReproError):
    """Base class for ``repro serve`` daemon failures (journal,
    admission, scheduling, protocol)."""


class JournalError(ServiceError):
    """The service write-ahead journal could not be written or read."""


class JournalCorruptError(JournalError):
    """A journal line failed its CRC-32/structure self-check somewhere
    other than a (crash-tolerated) segment tail."""


class AdmissionError(ServiceError):
    """A job submission was rejected by admission control (queue full,
    oversized request, duplicate id, draining).

    ``status`` carries the HTTP status the API maps this to and
    ``retry_after_s`` the backpressure hint for 429 responses.
    """

    def __init__(
        self, message: str, *, status: int = 429,
        retry_after_s: float | None = None,
    ):
        super().__init__(message)
        self.status = status
        self.retry_after_s = retry_after_s


class CoherenceError(SimulationError):
    """The cache-coherence simulator detected a protocol violation that is
    not attributable to an injected defect (i.e. a simulator bug)."""


class TransactionError(SimulationError):
    """A transactional-memory operation was used outside a transaction or
    violated the simulator's usage contract."""
