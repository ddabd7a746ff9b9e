"""Crash-tolerant campaign scheduler behind the ``repro serve`` API.

One :class:`CampaignScheduler` owns a state directory and keeps three
invariants no matter how the process dies:

* **No lost acknowledged job.**  A job is journaled (fsynced) before
  its submission is acknowledged; recovery replays the journal and
  re-queues everything not yet finished.
* **Bit-identical verdicts.**  Jobs execute as
  :class:`~repro.resilience.campaign.ResilientCampaign` shards with a
  per-job :class:`~repro.resilience.checkpoint.CheckpointStore`; a
  daemon SIGKILLed mid-campaign and restarted on the same state
  directory resumes each in-flight campaign at its exact cursor and
  draw position, so the final verdict equals an uninterrupted run's.
* **Bounded admission.**  The queue never exceeds ``max_queue``;
  beyond it submissions fail fast with a Retry-After hint instead of
  growing without bound (the HTTP layer maps this to 429).

State directory layout::

    <state-dir>/journal/journal-00000N.wal   write-ahead journal
    <state-dir>/jobs/<job-id>/ckpt/          campaign snapshots
    <state-dir>/jobs/<job-id>/verdict.json   CRC-checked verdict
    <state-dir>/endpoint.json                host/port/pid discovery

Up to ``max_active`` job threads each drive one campaign in process,
one shard per step.  The asyncio side never blocks on campaign work,
and the drain path stops every job **between** shards, checkpoints,
and leaves the rest, queued jobs untouched, to the next incarnation.
A job that raises fails on its own; its worker goes on to the next
job.

:func:`parse_retention` parses the ``--retain-verdicts`` grammar shared
by the CLI and :class:`~repro.service.server.ReproService`, and
:class:`ShardLatencyWindow` turns observed shard latencies into the
adaptive ``Retry-After`` hint served on 429/503.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import logging
import re
import shutil
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from ..errors import (
    AdmissionError,
    CampaignAbortedError,
    CheckpointError,
    ConfigurationError,
    ReproError,
)
from ..obs.context import span
from ..resilience.campaign import CampaignSpec, ResilientCampaign
from ..resilience.chaos import ChaosInjector, parse_job_chaos
from ..resilience.checkpoint import (
    CheckpointStore,
    read_checkpoint,
    write_checkpoint,
)
from ..resilience.health import CampaignHealthReport
from ..testing.library import TestcaseLibrary
from .journal import JournalWriter, ReplayReport, replay_journal

__all__ = [
    "JOB_STATES",
    "JobRecord",
    "CampaignScheduler",
    "RetentionPolicy",
    "ShardLatencyWindow",
    "VERDICT_FILE",
    "parse_retention",
]

logger = logging.getLogger(__name__)

JOB_QUEUED = "queued"
JOB_RUNNING = "running"
JOB_DONE = "done"
JOB_FAILED = "failed"
JOB_EXPIRED = "expired"
JOB_STATES = (JOB_QUEUED, JOB_RUNNING, JOB_DONE, JOB_FAILED, JOB_EXPIRED)

VERDICT_FILE = "verdict.json"

_JOB_ID_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]{0,63}$")
_AUTO_ID_RE = re.compile(r"^job-(\d{6,})$")

#: Spec keys a submission may carry besides the CampaignSpec fields.
_SUBMIT_EXTRAS = ("job_id", "chaos")


# -- verdict retention -------------------------------------------------------

_AGE_RE = re.compile(r"^(\d+)([smhd])$")
_AGE_UNIT_S = {"s": 1.0, "m": 60.0, "h": 3600.0, "d": 86400.0}


@dataclass(frozen=True)
class RetentionPolicy:
    """Parsed ``--retain-verdicts`` value.

    ``kind`` is ``"count"`` (keep the newest N verdicts) or ``"age"``
    (keep verdicts younger than ``value`` seconds).
    """

    kind: str
    value: float

    def __post_init__(self) -> None:
        if self.kind not in ("count", "age"):
            raise ConfigurationError(
                f"retention kind must be count|age, got {self.kind!r}"
            )
        if self.value <= 0:
            raise ConfigurationError("retention value must be positive")


def parse_retention(text) -> Optional[RetentionPolicy]:
    """Parse ``--retain-verdicts``: ``N`` verdicts or ``30m``/``24h``/``7d``.

    ``None``/empty means retain forever (the default).  Already-parsed
    policies pass through, so callers can hand either form around.
    """
    if text is None or isinstance(text, RetentionPolicy):
        return text
    if isinstance(text, int):
        return RetentionPolicy("count", text)
    text = str(text).strip()
    if not text:
        return None
    if text.isdigit():
        return RetentionPolicy("count", int(text))
    match = _AGE_RE.match(text)
    if match:
        return RetentionPolicy(
            "age", int(match.group(1)) * _AGE_UNIT_S[match.group(2)]
        )
    raise ConfigurationError(
        f"--retain-verdicts must be a count or <N>[smhd] age, got {text!r}"
    )


# -- adaptive Retry-After ----------------------------------------------------


class ShardLatencyWindow:
    """Rolling window of observed shard latencies -> back-off hint.

    The 429 ``Retry-After`` answer should reflect how fast the daemon
    is actually clearing work: a saturated queue of heavy jobs deserves
    a longer hint than one of ten-millisecond smoke jobs.  The hint is
    the window's median shard latency scaled by the number of in-flight
    jobs, clamped to ``[floor_s, cap_s]`` so an idle or brand-new
    daemon still answers something sane.
    """

    def __init__(
        self, *, floor_s: float = 1.0, cap_s: float = 60.0, size: int = 64
    ):
        if floor_s <= 0 or cap_s < floor_s:
            raise ConfigurationError(
                "retry-after window needs 0 < floor_s <= cap_s"
            )
        self.floor_s = floor_s
        self.cap_s = cap_s
        self.size = size
        self._lock = threading.Lock()
        self._samples: list = []
        self._next = 0

    def record(self, latency_s: float) -> None:
        with self._lock:
            if len(self._samples) < self.size:
                self._samples.append(latency_s)
            else:
                self._samples[self._next] = latency_s
                self._next = (self._next + 1) % self.size

    def hint(self, in_flight: int) -> float:
        """Suggested client back-off given ``in_flight`` queued+active jobs."""
        with self._lock:
            if not self._samples:
                return self.floor_s
            ordered = sorted(self._samples)
            median = ordered[len(ordered) // 2]
        return min(self.cap_s, max(self.floor_s, median * max(1, in_flight)))


# -- jobs --------------------------------------------------------------------


@dataclass
class JobRecord:
    """Scheduler-side view of one submitted campaign job."""

    job_id: str
    #: None for a recovered job whose journaled spec no longer parses;
    #: such a job never runs.
    spec: Optional[CampaignSpec]
    state: str = JOB_QUEUED
    submitted_seq: int = 0
    #: Campaign-level chaos schedule ({shard: [kinds]}), test-only.
    chaos_schedule: Optional[Dict[int, Tuple[str, ...]]] = None
    chaos_seed: int = 0
    error: Optional[str] = None
    recovered: bool = False
    #: Journal seq of the verdict entry (retention orders by this).
    verdict_seq: int = 0
    #: Wall-clock completion time journaled with the verdict, so age
    #: retention survives restarts (monotonic clocks do not).
    finished_unix: Optional[float] = None
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    def status_dict(self) -> Dict[str, object]:
        doc: Dict[str, object] = {
            "job_id": self.job_id,
            "state": self.state,
            "spec": self.spec.to_dict() if self.spec is not None else None,
            "recovered": self.recovered,
        }
        if self.error is not None:
            doc["error"] = self.error
        return doc


class CampaignScheduler:
    """Journal-backed job queue + executor over resilient campaigns."""

    def __init__(
        self,
        state_dir,
        library: TestcaseLibrary,
        *,
        max_queue: int = 64,
        max_active: int = 1,
        checkpoint_every: int = 2,
        job_timeout_s: Optional[float] = None,
        retry_after_s: float = 1.0,
        retain_verdicts=None,
        obs=None,
        chaos: Optional[ChaosInjector] = None,
    ):
        if max_queue < 1:
            raise ConfigurationError("max_queue must be >= 1")
        if max_active < 1:
            raise ConfigurationError("max_active must be >= 1")
        self.state_dir = Path(state_dir)
        self.library = library
        self.max_queue = max_queue
        self.max_active = max_active
        self.checkpoint_every = checkpoint_every
        self.job_timeout_s = job_timeout_s
        self.retry_after_s = retry_after_s
        self.retention = parse_retention(retain_verdicts)
        self._latency = ShardLatencyWindow(
            floor_s=retry_after_s, cap_s=max(60.0, retry_after_s)
        )
        self.obs = obs
        self.chaos = chaos
        self._gc_lock = threading.Lock()
        self.jobs: Dict[str, JobRecord] = {}
        self.replay_report = ReplayReport()
        self._order: List[str] = []  # submission order, for recovery
        self._journal: Optional[JournalWriter] = None
        self._journal_lock = threading.Lock()
        self._id_lock = threading.Lock()
        self._next_job_number = 1
        self._queue: Optional[asyncio.Queue] = None
        self._workers: List[asyncio.Task] = []
        self._executor: Optional[concurrent.futures.ThreadPoolExecutor] = None
        self._stop_event = threading.Event()
        self._draining = False
        self._active = 0
        self._recover()

    # -- recovery ------------------------------------------------------------

    def _job_dir(self, job_id: str) -> Path:
        return self.state_dir / "jobs" / job_id

    def _verdict_path(self, job_id: str) -> Path:
        return self._job_dir(job_id) / VERDICT_FILE

    def _recover(self) -> None:
        """Rebuild the job table from the journal, then open a fresh
        segment for this incarnation.  Runs before the API binds."""
        journal_dir = self.state_dir / "journal"
        entries = replay_journal(
            journal_dir, salvage=True, report=self.replay_report
        )
        max_seq = 0
        # Jobs whose journaled spec or chaos schedule no longer parses,
        # with why.  Each keeps its id and fails unless it finished.
        unrunnable: Dict[str, str] = {}
        for entry in entries:
            max_seq = max(max_seq, entry.seq)
            job_id = entry.job
            if entry.kind == "submit" and job_id is not None:
                # An acknowledged id is never issued again, even if its
                # entry turns out unusable below.
                match = _AUTO_ID_RE.match(job_id)
                if match:
                    self._next_job_number = max(
                        self._next_job_number, int(match.group(1)) + 1
                    )
                record = JobRecord(
                    job_id=job_id,
                    spec=None,
                    submitted_seq=entry.seq,
                    recovered=True,
                )
                try:
                    record.spec = CampaignSpec.from_dict(entry.data["spec"])
                except (KeyError, TypeError, ConfigurationError) as error:
                    unrunnable[job_id] = f"unusable journaled spec ({error})"
                else:
                    if "chaos" in entry.data:
                        try:
                            record.chaos_schedule, record.chaos_seed = (
                                parse_job_chaos(entry.data["chaos"])
                            )
                        except ConfigurationError as error:
                            # E.g. a fault kind an older release knew.
                            unrunnable[job_id] = (
                                f"unusable journaled chaos schedule ({error})"
                            )
                if job_id in unrunnable:
                    self.replay_report.problems.append(
                        f"job {job_id}: {unrunnable[job_id]}"
                    )
                # Entries from older releases may also carry ``exec``
                # hints (pool worker count, engine pin) and specs with
                # retired keys; replay ignores both.
                self.jobs[job_id] = record
                self._order.append(job_id)
            elif entry.kind == "start" and job_id in self.jobs:
                self.jobs[job_id].state = JOB_RUNNING
            elif entry.kind == "verdict" and job_id in self.jobs:
                record = self.jobs[job_id]
                record.state = JOB_DONE
                record.verdict_seq = entry.seq
                finished = entry.data.get("finished_unix")
                if isinstance(finished, (int, float)):
                    record.finished_unix = float(finished)
            elif entry.kind == "failed" and job_id in self.jobs:
                record = self.jobs[job_id]
                record.state = JOB_FAILED
                record.error = str(entry.data.get("error", "unknown"))
            elif entry.kind == "gc" and job_id in self.jobs:
                # A journaled GC is final: replay never resurrects the
                # verdict, even though the submit/verdict entries that
                # precede it are still in the log.
                self.jobs[job_id].state = JOB_EXPIRED
        # A journaled verdict is only as good as the verdict file it
        # points at; a crash between journal append and file landing is
        # impossible (the file is written first), but bit rot is not.
        for job_id in self._order:
            record = self.jobs[job_id]
            if record.state == JOB_DONE:
                try:
                    read_checkpoint(self._verdict_path(job_id))
                except CheckpointError as error:
                    self.replay_report.problems.append(
                        f"job {job_id}: verdict file unusable ({error}); "
                        f"re-running"
                    )
                    record.state = JOB_QUEUED
            elif record.state == JOB_EXPIRED:
                # Finish a deletion the previous incarnation journaled
                # but did not complete before dying (idempotent).
                shutil.rmtree(self._job_dir(job_id), ignore_errors=True)
            if record.state in (JOB_QUEUED, JOB_RUNNING):
                if job_id in unrunnable:
                    record.state = JOB_FAILED
                    record.error = unrunnable[job_id]
                else:
                    # Interrupted mid-campaign or never started:
                    # (re-)queue; its checkpoint store carries any
                    # resume point.
                    record.state = JOB_QUEUED
        self._journal = JournalWriter(
            journal_dir,
            start_seq=max_seq + 1,
            post_append=(
                (lambda path, _seq: self.chaos.visit("journal_append", path))
                if self.chaos is not None
                else None
            ),
        )
        if self.obs is not None:
            for _ in self.replay_report.problems:
                self.obs.inc(
                    "repro_service_journal_appends_total", kind="salvaged"
                )
        # Age-based retention is time-triggered, so apply it on boot
        # too: verdicts that crossed the line while the daemon was down
        # expire before the API binds.
        self._gc_verdicts()

    # -- lifecycle -----------------------------------------------------------

    @property
    def draining(self) -> bool:
        return self._draining

    def pending_jobs(self) -> List[str]:
        """Unfinished jobs in submission order (recovery work list)."""
        return [
            job_id
            for job_id in self._order
            if self.jobs[job_id].state == JOB_QUEUED
        ]

    async def start(self) -> None:
        """Spawn workers and enqueue every unfinished journaled job."""
        self._queue = asyncio.Queue()
        self._executor = concurrent.futures.ThreadPoolExecutor(
            max_workers=self.max_active,
            thread_name_prefix="repro-job",
        )
        for job_id in self.pending_jobs():
            self._queue.put_nowait(job_id)
            if self.obs is not None:
                self.obs.inc("repro_service_jobs_total", event="resumed")
        self._update_gauges()
        loop = asyncio.get_running_loop()
        for _ in range(self.max_active):
            self._workers.append(loop.create_task(self._worker()))

    async def drain(self) -> None:
        """Graceful stop: no new work, checkpoint in-flight campaigns.

        Safe to call more than once.  Returns when every worker has
        parked; queued jobs stay journaled for the next incarnation.
        """
        if self._draining:
            return
        self._draining = True
        started = time.monotonic()
        self._stop_event.set()
        if self.chaos is not None:
            self.chaos.visit("drain")
        if self._queue is not None:
            for _ in self._workers:
                self._queue.put_nowait(None)
        if self._workers:
            await asyncio.gather(*self._workers, return_exceptions=True)
        if self._executor is not None:
            self._executor.shutdown(wait=True)
        with self._journal_lock:
            if self._journal is not None:
                self._journal.close()
        if self.obs is not None:
            self.obs.set_gauge(
                "repro_service_drain_seconds", time.monotonic() - started
            )
            self._update_gauges()

    # -- admission -----------------------------------------------------------

    def _update_gauges(self) -> None:
        if self.obs is None:
            return
        depth = self._queue.qsize() if self._queue is not None else len(
            self.pending_jobs()
        )
        self.obs.set_gauge("repro_service_queue_depth", depth)
        self.obs.set_gauge("repro_service_active_jobs", self._active)

    def _retry_after_hint(self) -> float:
        """Adaptive back-off: median shard latency x in-flight depth.

        Before any shard has landed this is the configured floor, so a
        fresh daemon answers the same fixed hint it always did.
        """
        depth = (
            self._queue.qsize() if self._queue is not None else 0
        ) + self._active
        return self._latency.hint(depth)

    def _journal_append(self, kind: str, job_id: str, **data) -> int:
        started = time.perf_counter()
        with self._journal_lock:
            if self._journal is None:
                raise AdmissionError(
                    "journal is closed (daemon draining)", status=503
                )
            seq = self._journal.append(kind, job=job_id, **data)
        if self.obs is not None:
            self.obs.inc("repro_service_journal_appends_total", kind=kind)
            # Unlabeled on purpose: one histogram times the whole fsync
            # path, so its quantiles cover every append kind at once.
            self.obs.observe(
                "repro_service_journal_append_seconds",
                time.perf_counter() - started,
            )
        return seq

    def parse_submission(self, body: Dict[str, object]) -> Dict[str, object]:
        """Validate a ``/submit`` body; returns normalized fields.

        Raises :class:`ConfigurationError` (HTTP 400) on anything the
        spec layer rejects, :class:`AdmissionError` on service-level
        violations.
        """
        if not isinstance(body, dict):
            raise ConfigurationError("submission body must be a JSON object")
        unknown = set(body) - set(_SUBMIT_EXTRAS) - {
            spec_field.name
            for spec_field in CampaignSpec.__dataclass_fields__.values()
        }
        if unknown:
            raise ConfigurationError(
                f"unknown submission fields: {sorted(unknown)}"
            )
        spec_fields = {
            key: value
            for key, value in body.items()
            if key not in _SUBMIT_EXTRAS
        }
        spec = CampaignSpec.from_dict(spec_fields)
        job_id = body.get("job_id")
        if job_id is not None:
            if not isinstance(job_id, str) or not _JOB_ID_RE.match(job_id):
                raise ConfigurationError(
                    "job_id must match [A-Za-z0-9][A-Za-z0-9._-]{0,63}"
                )
        chaos = body.get("chaos")
        if chaos is not None:
            chaos = parse_job_chaos(chaos)
        return {"spec": spec, "job_id": job_id, "chaos": chaos}

    async def submit(self, body: Dict[str, object]) -> JobRecord:
        """Admit one job: validate, journal (fsync), queue, return.

        The returned record is the acknowledgment; it must not be sent
        to the client before this coroutine finishes (the journal write
        is the point of no return).
        """
        if self._draining or self._queue is None:
            raise AdmissionError(
                "daemon is draining; resubmit to the next incarnation",
                status=503,
                retry_after_s=self._retry_after_hint(),
            )
        normalized = self.parse_submission(body)
        depth = self._queue.qsize() + self._active
        if depth >= self.max_queue:
            if self.obs is not None:
                self.obs.inc("repro_service_jobs_total", event="rejected")
            raise AdmissionError(
                f"admission queue is full ({depth} in flight, "
                f"max {self.max_queue})",
                status=429,
                retry_after_s=self._retry_after_hint(),
            )
        with self._id_lock:
            job_id = normalized["job_id"]
            if job_id is None:
                job_id = f"job-{self._next_job_number:06d}"
                self._next_job_number += 1
            elif job_id in self.jobs:
                raise AdmissionError(
                    f"job id {job_id!r} already exists", status=409
                )
            record = JobRecord(job_id=job_id, spec=normalized["spec"])
            if normalized["chaos"] is not None:
                record.chaos_schedule, record.chaos_seed = normalized["chaos"]
            # Reserve the id before the (await-ing) journal write so a
            # concurrent duplicate submission cannot race past the check.
            self.jobs[job_id] = record
            self._order.append(job_id)
        if self.chaos is not None:
            self.chaos.visit("submit_pre_ack")
        journal_data: Dict[str, object] = {
            "spec": record.spec.to_dict(),
        }
        if record.chaos_schedule is not None:
            journal_data["chaos"] = {
                "schedule": {
                    str(shard): kinds
                    for shard, kinds in record.chaos_schedule.items()
                },
                "seed": record.chaos_seed,
            }
        try:
            record.submitted_seq = await asyncio.get_running_loop(
            ).run_in_executor(
                None,
                lambda: self._journal_append(
                    "submit", job_id, **journal_data
                ),
            )
        except Exception:
            with self._id_lock:
                self.jobs.pop(job_id, None)
                if job_id in self._order:
                    self._order.remove(job_id)
            raise
        if self.chaos is not None:
            self.chaos.visit("submit_post_ack")
        self._queue.put_nowait(job_id)
        if self.obs is not None:
            self.obs.inc("repro_service_jobs_total", event="submitted")
        self._update_gauges()
        return record

    # -- queries -------------------------------------------------------------

    def job(self, job_id: str) -> Optional[JobRecord]:
        return self.jobs.get(job_id)

    def jobs_overview(self) -> Dict[str, object]:
        counts: Dict[str, int] = {state: 0 for state in JOB_STATES}
        for record in self.jobs.values():
            counts[record.state] = counts.get(record.state, 0) + 1
        return {
            "jobs": [
                self.jobs[job_id].status_dict() for job_id in self._order
            ],
            "counts": counts,
            "draining": self._draining,
        }

    def verdict(self, job_id: str) -> Optional[Dict[str, object]]:
        """The verified verdict payload for a finished job, else None."""
        record = self.jobs.get(job_id)
        if record is None or record.state != JOB_DONE:
            return None
        return read_checkpoint(self._verdict_path(job_id))

    # -- retention -----------------------------------------------------------

    def _gc_verdicts(self) -> None:
        """Apply the retention policy to finished verdicts.

        Journal-first discipline: the ``gc`` entry is fsynced before
        the job directory is deleted, so a crash at any point leaves
        either a still-served verdict or a journaled expiry that replay
        honours — never a resurrected ghost.  Runs after every finish
        and once at boot (age policies are time-triggered).
        """
        if self.retention is None or self._journal is None:
            return
        with self._gc_lock:
            done = [
                self.jobs[job_id]
                for job_id in self._order
                if self.jobs[job_id].state == JOB_DONE
            ]
            # Completion order, stable across restarts: the journal seq
            # of each verdict entry.
            done.sort(key=lambda record: record.verdict_seq)
            if self.retention.kind == "count":
                keep = int(self.retention.value)
                victims = done[: max(0, len(done) - keep)]
            else:
                now = time.time()
                victims = [
                    record
                    for record in done
                    if record.finished_unix is not None
                    and now - record.finished_unix > self.retention.value
                ]
            for record in victims:
                self._expire(record)

    def _expire(self, record: JobRecord) -> None:
        self._journal_append(
            "gc",
            record.job_id,
            verdict_seq=record.verdict_seq,
            policy=self.retention.kind,
        )
        shutil.rmtree(self._job_dir(record.job_id), ignore_errors=True)
        record.state = JOB_EXPIRED
        if self.obs is not None:
            self.obs.inc("repro_service_jobs_total", event="expired")

    # -- execution -----------------------------------------------------------

    async def _worker(self) -> None:
        loop = asyncio.get_running_loop()
        while True:
            job_id = await self._queue.get()
            if job_id is None or self._stop_event.is_set():
                # Draining: a job not yet started stays queued and
                # unjournaled for the next incarnation.  Returning on a
                # job leaves this worker's sentinel behind in its place,
                # so the queue still holds one item per queued job.
                return
            record = self.jobs[job_id]
            self._active += 1
            self._update_gauges()
            try:
                await loop.run_in_executor(
                    self._executor, self._run_job, record
                )
            finally:
                self._active -= 1
                self._update_gauges()

    def _job_chaos(self, record: JobRecord) -> Optional[ChaosInjector]:
        """The job's schedule plus the daemon's ``--chaos`` deaths."""
        if self.chaos is not None:
            return self.chaos.for_job(
                record.chaos_schedule or {}, record.chaos_seed
            )
        if record.chaos_schedule:
            return ChaosInjector(record.chaos_schedule, seed=record.chaos_seed)
        return None

    def _run_job(self, record: JobRecord) -> None:
        """Drive one job to verdict/failure/suspension (worker thread).

        Any exception fails the job, not the worker: a job whose state
        directory cannot be written must not leave the jobs queued
        behind it waiting for a restart.
        """
        try:
            self._drive_job(record)
        except ReproError as error:
            self._fail(record, str(error))
        except Exception as error:
            logger.exception("job %s failed", record.job_id)
            self._fail(record, f"{type(error).__name__}: {error}")

    def _drive_job(self, record: JobRecord) -> None:
        store = CheckpointStore(self._job_dir(record.job_id) / "ckpt")
        # One load decides resume-or-fresh; the campaign opens from it.
        fallbacks = CampaignHealthReport()
        payload = store.load_latest(fallbacks)
        record.state = JOB_RUNNING
        self._journal_append(
            "start", record.job_id, resume=payload is not None
        )
        if self.obs is not None:
            self.obs.inc("repro_service_jobs_total", event="started")
        deadline = (
            time.monotonic() + self.job_timeout_s
            if self.job_timeout_s is not None
            else None
        )
        with span(self.obs, "service.job", job=record.job_id):
            campaign = ResilientCampaign.open(
                self.library, payload, fallbacks,
                spec=record.spec,
                checkpoint_store=store,
                chaos=self._job_chaos(record),
                checkpoint_every=self.checkpoint_every,
                obs=self.obs,
            )
            if self._pump(campaign, deadline):
                # Drain: state stays journaled as running; the next
                # incarnation re-queues and resumes.
                return
            self._finish(record, campaign)

    def _pump(
        self, campaign: ResilientCampaign, deadline: Optional[float]
    ) -> bool:
        """Step the job until done; True means drain-suspended."""
        while True:
            if self._stop_event.is_set():
                campaign.checkpoint_now()
                return True
            if deadline is not None and time.monotonic() > deadline:
                raise CampaignAbortedError(
                    f"job exceeded its {self.job_timeout_s:.0f}s budget "
                    f"at cursor {campaign.cursor}"
                )
            started = time.monotonic()
            more = campaign.step()
            elapsed = time.monotonic() - started
            self._latency.record(elapsed)
            if self.obs is not None:
                self.obs.observe("repro_service_shard_seconds", elapsed)
            if not more:
                return False

    def _finish(
        self, record: JobRecord, campaign: ResilientCampaign
    ) -> None:
        payload = {
            "job_id": record.job_id,
            "spec": record.spec.to_dict(),
            "result": campaign.result.to_dict(),
            "health": campaign.health.to_dict(),
        }
        # Verdict file first, then the journal entry that blesses it:
        # a crash between the two re-runs the (deterministic) job, it
        # never serves a verdict that does not exist.
        write_checkpoint(self._verdict_path(record.job_id), payload)
        finished_unix = time.time()
        record.verdict_seq = self._journal_append(
            "verdict",
            record.job_id,
            detections=len(campaign.result.detections),
            undetected=len(campaign.result.undetected_ids),
            finished_unix=finished_unix,
        )
        record.state = JOB_DONE
        record.finished_unix = finished_unix
        if self.obs is not None:
            self.obs.inc("repro_service_jobs_total", event="completed")
        self._gc_verdicts()

    def _fail(self, record: JobRecord, error: str) -> None:
        record.error = error
        self._journal_append("failed", record.job_id, error=error)
        record.state = JOB_FAILED
        if self.obs is not None:
            self.obs.inc("repro_service_jobs_total", event="failed")
