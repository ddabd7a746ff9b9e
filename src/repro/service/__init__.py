"""Always-on fleet service: the ``repro serve`` daemon and its parts.

Layering, bottom-up:

* :mod:`~repro.service.journal` — fsync-before-ack write-ahead journal
  (a durable :mod:`repro.sealed` log, per-incarnation segments).
* :mod:`~repro.service.scheduler` — crash-tolerant campaign scheduler:
  journaled admission, bounded queues, rolling
  :class:`~repro.resilience.campaign.ResilientCampaign` shards on
  ``max_active`` job threads, journal replay + checkpoint resume on
  restart, verdict retention policies, and the adaptive Retry-After
  latency window.
* :mod:`~repro.service.api` — the hand-rolled HTTP/1.1 surface
  (``/submit``, ``/verdicts/<job>``, ``/healthz``, ``/readyz``,
  ``/metrics``).
* :mod:`~repro.service.server` — :class:`ReproService` lifecycle
  (recover → announce → serve → drain) and the in-thread test harness.
* :mod:`~repro.service.client` — stdlib blocking client.

``repro serve --chaos`` process deaths come from the one
:class:`~repro.resilience.chaos.ChaosInjector`, which also fires each
job's scheduled campaign faults.
"""

from .client import Rejected, ServiceClient, read_endpoint
from .journal import (
    JournalEntry,
    JournalWriter,
    ReplayReport,
    replay_journal,
)
from .scheduler import (
    CampaignScheduler,
    JobRecord,
    RetentionPolicy,
    ShardLatencyWindow,
    parse_retention,
)
from .server import ENDPOINT_FILE, ReproService, ServiceThread

__all__ = [
    "CampaignScheduler",
    "ENDPOINT_FILE",
    "JobRecord",
    "JournalEntry",
    "JournalWriter",
    "Rejected",
    "ReplayReport",
    "ReproService",
    "RetentionPolicy",
    "ServiceClient",
    "ServiceThread",
    "ShardLatencyWindow",
    "parse_retention",
    "read_endpoint",
    "replay_journal",
]
