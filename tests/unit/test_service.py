"""Unit tests for the ``repro serve`` daemon stack.

Covers the journal's crash contract (torn tails vs corruption), the
kill-spec grammar of the chaos suite's launcher, the scheduler's
recovery state machine (journals written while ``/submit`` still took
a ``chaos`` field included), and the
in-process HTTP API end to end — including the acceptance-criteria
behaviors: verdict parity with a direct campaign run, a saturated
admission queue answering 429 with Retry-After while losing nothing,
concurrent jobs, state directories written before the process-pool
engine, the spec's engine/residency selectors or the time-series
history were retired, the telemetry surface (``/metrics`` and the
trace), a job whose failure must not stall the queue, and verdict
retention that survives restarts.
"""

import json
import threading
import time
import typing
import zlib
from pathlib import Path

import pytest

from repro.errors import (
    ConfigurationError,
    JournalCorruptError,
    ServiceError,
)
from repro.cli import main
from repro.obs import (
    ListTraceSink,
    MetricsRegistry,
    Observability,
    Tracer,
    parse_prometheus_text,
)
from repro.resilience import (
    CampaignSpec,
    CheckpointStore,
    ResilientCampaign,
    write_checkpoint,
)
from repro.sealed import canonical
from repro.service import (
    JournalWriter,
    Rejected,
    ReplayReport,
    ServiceClient,
    ServiceThread,
    replay_journal,
)
from repro.service.scheduler import (
    JOB_DONE,
    JOB_EXPIRED,
    JOB_FAILED,
    JOB_QUEUED,
    CampaignScheduler,
)
from repro.testing import build_library
from tests.chaos.killpoints import parse_kill_spec

#: Small but non-trivial: ~35 faulty CPUs, several shards.
SPEC = dict(
    total_processors=1500,
    fleet_seed=3,
    pipeline_seed=5,
    failure_rate_scale=80.0,
    shard_size=8,
)

#: The fault kinds retired with shard retries, the scalar fallback and
#: the in-process restart loop.  The second is spelled in two pieces so
#: that a search for its name finds no live use.
RETIRED_KINDS = ("exception", "parity" + "_trip", "kill")

#: The kinds a ``/submit`` ``chaos`` schedule could name until the
#: field itself went.
LAST_FAULT_KINDS = ("delay", "torn_checkpoint", "corrupt_byte")

#: What admission says about a ``chaos`` key: the 400 of any unknown key.
UNKNOWN_CHAOS = r"unknown submission fields: \['chaos'\]"

#: ~173 faulty CPUs: each job runs long enough (a few shards of real
#: work) that jobs admitted together overlap in time.
HEAVY_SPEC = dict(
    total_processors=6000,
    fleet_seed=3,
    pipeline_seed=5,
    failure_rate_scale=80.0,
    shard_size=32,
)


@pytest.fixture(scope="module")
def library():
    return build_library()


# -- journal ----------------------------------------------------------------


class TestJournal:
    def test_round_trip_and_seq_continuity(self, tmp_path):
        with JournalWriter(tmp_path) as journal:
            assert journal.append("submit", job="a", spec={"n": 1}) == 1
            assert journal.append("start", job="a") == 2
        # A second incarnation opens a new segment and continues seq.
        entries = replay_journal(tmp_path)
        with JournalWriter(
            tmp_path, start_seq=entries[-1].seq + 1
        ) as journal:
            assert journal.append("verdict", job="a", detections=3) == 3
        entries = replay_journal(tmp_path)
        assert [e.seq for e in entries] == [1, 2, 3]
        assert [e.kind for e in entries] == ["submit", "start", "verdict"]
        assert entries[0].data == {"spec": {"n": 1}}
        assert len(list(tmp_path.glob("journal-*.wal"))) == 2

    def test_torn_tail_is_dropped_silently(self, tmp_path):
        with JournalWriter(tmp_path) as journal:
            journal.append("submit", job="a")
            journal.append("submit", job="b")
        path = next(tmp_path.glob("journal-*.wal"))
        data = path.read_bytes()
        path.write_bytes(data[:-7])  # crash mid-append of the last line
        report = ReplayReport()
        entries = replay_journal(tmp_path, report=report)
        assert [e.job for e in entries] == ["a"]
        assert any("torn tail" in p for p in report.problems)

    def test_mid_segment_corruption_raises_without_salvage(self, tmp_path):
        with JournalWriter(tmp_path) as journal:
            journal.append("submit", job="a")
            journal.append("submit", job="b")
            journal.append("submit", job="c")
        path = next(tmp_path.glob("journal-*.wal"))
        lines = path.read_text().splitlines()
        lines[2] = lines[2].replace('"job":"b"', '"job":"x"')  # CRC breaks
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(JournalCorruptError):
            replay_journal(tmp_path)
        report = ReplayReport()
        entries = replay_journal(tmp_path, salvage=True, report=report)
        # Salvage truncates the damaged segment at the bad line.
        assert [e.job for e in entries] == ["a"]
        assert any("truncated" in p for p in report.problems)

    def test_empty_and_headerless_segments_are_tolerated(self, tmp_path):
        (tmp_path / "journal-000001.wal").write_text("")
        (tmp_path / "journal-000002.wal").write_text('{"garb')
        report = ReplayReport()
        assert replay_journal(tmp_path, report=report) == []
        assert report.segments == 2
        assert len(report.problems) == 2

    def _three_entry_segment(self, tmp_path):
        with JournalWriter(tmp_path) as journal:
            for job in ("a", "b", "c"):
                journal.append("submit", job=job)
        return next(tmp_path.glob("journal-*.wal"))

    def test_flipped_header_bit_raises_by_default(self, tmp_path):
        path = self._three_entry_segment(tmp_path)
        data = bytearray(path.read_bytes())
        data[data.index(b"journal")] ^= 0x01  # "journal" -> "kournal"
        path.write_bytes(bytes(data))
        with pytest.raises(JournalCorruptError, match="line 1"):
            replay_journal(tmp_path)
        report = ReplayReport()
        assert replay_journal(tmp_path, salvage=True, report=report) == []
        assert any("truncated" in p for p in report.problems)

    def test_merged_final_lines_are_corruption_not_a_torn_tail(
        self, tmp_path
    ):
        # A flipped newline before the last entry merges two fsynced,
        # acknowledged entries into one terminated line.
        path = self._three_entry_segment(tmp_path)
        data = bytearray(path.read_bytes())
        data[data.rindex(b"\n", 0, len(data) - 1)] ^= 0x20
        path.write_bytes(bytes(data))
        with pytest.raises(JournalCorruptError, match="line 3"):
            replay_journal(tmp_path)
        report = ReplayReport()
        entries = replay_journal(tmp_path, salvage=True, report=report)
        assert [e.job for e in entries] == ["a"]
        assert not any("torn" in p for p in report.problems)
        assert any("truncated" in p for p in report.problems)

    def test_non_utf8_byte_is_line_damage(self, tmp_path):
        path = self._three_entry_segment(tmp_path)
        data = bytearray(path.read_bytes())
        data[data.index(b'"job":"b"') + 7] ^= 0x80
        path.write_bytes(bytes(data))
        with pytest.raises(JournalCorruptError, match="line 3"):
            replay_journal(tmp_path)

    def test_unsupported_version_raises(self, tmp_path):
        header = {"format": "repro-service-journal", "version": 99}
        (tmp_path / "journal-000001.wal").write_text(
            canonical(header).decode() + "\n"
        )
        with pytest.raises(JournalCorruptError):
            replay_journal(tmp_path)

    def test_crc_seal_matches_canonical_encoding(self, tmp_path):
        with JournalWriter(tmp_path) as journal:
            journal.append("submit", job="a", spec={"k": [1, 2]})
        line = next(
            tmp_path.glob("journal-*.wal")
        ).read_text().splitlines()[1]
        record = json.loads(line)
        claimed = record.pop("crc32")
        assert zlib.crc32(canonical(record)) == claimed


# -- kill spec grammar -------------------------------------------------------


class TestChaosSpec:
    """The launcher in ``tests/chaos/killpoints.py`` checks every name,
    so a mistyped kill point fails the launch instead of never firing."""

    def test_parse_valid(self):
        actions = parse_kill_spec(
            "kill:shard_done:5, tear_journal:journal_append:3"
        )
        assert actions == [
            ("kill", "shard_done", 5),
            ("tear_journal", "journal_append", 3),
        ]

    @pytest.mark.parametrize("bad", [
        "explode:shard_done:1",      # unknown action
        "kill:reboot:1",             # unknown hook point
        "kill:shard_done:zero",      # non-integer nth
        "kill:shard_done:0",         # nth must be >= 1
        "kill:shard_done",           # wrong arity
    ])
    def test_parse_rejects(self, bad):
        with pytest.raises(ValueError):
            parse_kill_spec(bad)

    def test_from_spec_empty_is_none(self):
        assert parse_kill_spec("") == []
        assert parse_kill_spec("  ") == []


# -- scheduler recovery state machine ---------------------------------------


class TestRecovery:
    def _journal(self, state_dir):
        return JournalWriter(state_dir / "journal")

    def test_replay_rebuilds_job_table(self, tmp_path, library):
        spec = CampaignSpec(**{
            k: v for k, v in SPEC.items()
        }).to_dict()
        with self._journal(tmp_path) as journal:
            journal.append("submit", job="job-000001", spec=spec)
            journal.append("start", job="job-000001", resume=False)
            journal.append("submit", job="job-000002", spec=spec)
            journal.append("failed", job="job-000002", error="boom")
            journal.append("submit", job="custom.id", spec=spec)
        scheduler = CampaignScheduler(tmp_path, library)
        # running → re-queued; failed stays failed; untouched → queued
        assert scheduler.jobs["job-000001"].state == JOB_QUEUED
        assert scheduler.jobs["job-000002"].state == JOB_FAILED
        assert scheduler.jobs["job-000002"].error == "boom"
        assert scheduler.jobs["custom.id"].state == JOB_QUEUED
        assert scheduler.pending_jobs() == ["job-000001", "custom.id"]
        # auto-id numbering continues past the replayed maximum
        assert scheduler._next_job_number == 3
        assert all(r.recovered for r in scheduler.jobs.values())

    def test_boots_over_a_non_utf8_byte_mid_segment(
        self, tmp_path, library
    ):
        spec = CampaignSpec(**SPEC).to_dict()
        with self._journal(tmp_path) as journal:
            for job in ("job-000001", "job-000002", "job-000003"):
                journal.append("submit", job=job, spec=spec)
        path = next((tmp_path / "journal").glob("journal-*.wal"))
        data = bytearray(path.read_bytes())
        data[data.index(b"job-000002") + 2] ^= 0x80  # one bit of rot
        path.write_bytes(bytes(data))
        scheduler = CampaignScheduler(tmp_path, library)
        assert scheduler.pending_jobs() == ["job-000001"]
        assert any(
            "truncated" in p for p in scheduler.replay_report.problems
        )

    def test_journaled_verdict_without_file_is_rerun(self, tmp_path, library):
        spec = CampaignSpec(**SPEC).to_dict()
        with self._journal(tmp_path) as journal:
            journal.append("submit", job="job-000001", spec=spec)
            journal.append("start", job="job-000001", resume=False)
            journal.append("verdict", job="job-000001", detections=7)
        # No verdict.json on disk: the journal's claim is unusable.
        scheduler = CampaignScheduler(tmp_path, library)
        assert scheduler.jobs["job-000001"].state == JOB_QUEUED
        assert any(
            "verdict file unusable" in p
            for p in scheduler.replay_report.problems
        )

    def test_unusable_journaled_spec_is_reported_not_fatal(
        self, tmp_path, library
    ):
        with self._journal(tmp_path) as journal:
            journal.append(
                "submit", job="job-000001", spec={"total_processors": -4}
            )
        scheduler = CampaignScheduler(tmp_path, library)
        assert scheduler.jobs["job-000001"].state == JOB_FAILED
        assert scheduler.pending_jobs() == []
        assert any(
            "unusable journaled spec" in p
            for p in scheduler.replay_report.problems
        )

    def test_unusable_journaled_spec_keeps_its_id_as_failed(
        self, tmp_path, library
    ):
        """An acknowledged job whose journaled spec no longer parses
        stays ``failed`` under its own id: its client learns so, and
        the id is never given to another job."""
        with self._journal(tmp_path) as journal:
            journal.append(
                "submit", job="nightly", spec={"total_processors": -4}
            )
        with ServiceThread(tmp_path, library=library) as handle:
            client = ServiceClient("127.0.0.1", handle.port)
            record = client.job("nightly")
            assert record["state"] == JOB_FAILED
            assert record["error"].startswith("unusable journaled spec (")
            assert record["spec"] is None
            reply = client._request("GET", "/verdicts/nightly")
            assert reply.status == 200
            assert reply.json() == {
                "status": JOB_FAILED, "error": record["error"],
            }
            overview = client._request("GET", "/jobs")
            assert overview.status == 200
            assert overview.json()["jobs"] == [record]
            again = client._request(
                "POST", "/submit", body=dict(SPEC, job_id="nightly")
            )
            assert again.status == 409

    @pytest.mark.parametrize("schedule", [
        {"0": ["delay"]},    # a kind /submit took until it lost the field
        {"0": ["meteor"]},   # never a kind
        {"1": ["kill"]},     # a kind retired before the field
    ], ids=["valid", "meteor", "kill"])
    def test_journaled_chaos_is_ignored(self, tmp_path, library, schedule):
        """A journal written while ``/submit`` took a ``chaos`` field
        boots with the job queued and nothing to report, and the job
        lands the verdict of its spec alone: a schedule never changed
        a verdict."""
        with self._journal(tmp_path) as journal:
            journal.append(
                "submit", job="job-000001",
                spec=CampaignSpec(**SPEC).to_dict(),
                chaos={"schedule": schedule, "seed": 0},
            )
        scheduler = CampaignScheduler(tmp_path, library)
        assert scheduler.pending_jobs() == ["job-000001"]
        assert scheduler.replay_report.problems == []
        with ServiceThread(tmp_path, library=library) as handle:
            client = ServiceClient("127.0.0.1", handle.port)
            verdict = client.wait_verdict("job-000001", timeout_s=120)
        assert verdict["result"] == _direct_result(SPEC, library)

    def test_finished_job_with_retired_chaos_keeps_its_verdict(
        self, tmp_path, library
    ):
        """A job journaled with a ``chaos`` schedule that finished
        before the field was retired still serves its verdict."""
        spec = CampaignSpec(**SPEC).to_dict()
        verdict = tmp_path / "jobs" / "job-000001" / "verdict.json"
        verdict.parent.mkdir(parents=True)
        write_checkpoint(verdict, {"job_id": "job-000001", "spec": spec})
        with self._journal(tmp_path) as journal:
            journal.append(
                "submit", job="job-000001", spec=spec,
                chaos={"schedule": {"1": ["kill"]}, "seed": 0},
            )
            journal.append("start", job="job-000001", resume=False)
            journal.append("verdict", job="job-000001", detections=3)
        scheduler = CampaignScheduler(tmp_path, library)
        assert scheduler.jobs["job-000001"].state == JOB_DONE
        assert scheduler.verdict("job-000001")["job_id"] == "job-000001"


# -- submission validation ---------------------------------------------------


class TestSubmission:
    @pytest.fixture()
    def scheduler(self, tmp_path, library):
        return CampaignScheduler(tmp_path, library)

    def test_unknown_fields_rejected(self, scheduler):
        with pytest.raises(ConfigurationError, match="unknown submission"):
            scheduler.parse_submission(dict(SPEC, frobnicate=1))

    def test_bad_job_id_rejected(self, scheduler):
        with pytest.raises(ConfigurationError, match="job_id"):
            scheduler.parse_submission(dict(SPEC, job_id="-leading-dash"))
        with pytest.raises(ConfigurationError, match="job_id"):
            scheduler.parse_submission(dict(SPEC, job_id="x" * 80))

    def test_bad_chaos_rejected(self, scheduler):
        with pytest.raises(ConfigurationError, match=UNKNOWN_CHAOS):
            scheduler.parse_submission(dict(SPEC, chaos=[1, 2]))

    def test_spec_validation_propagates(self, scheduler):
        with pytest.raises(ConfigurationError, match="shard_size"):
            scheduler.parse_submission(dict(SPEC, shard_size=0))

    @pytest.mark.parametrize("chaos", [
        {"schedule": {"0": ["meteor"]}},     # unknown fault kind
        {"schedule": {"x": ["delay"]}},      # non-integer shard
        {"schedule": {"-1": ["delay"]}},     # negative shard
        {"schedule": {"0": "delay"}},        # kinds not a list
        {"schedule": {"0": ["delay"]}, "seed": "7"},  # non-integer seed
    ] + [{"schedule": {"0": [kind]}} for kind in RETIRED_KINDS])
    def test_bad_chaos_schedule_rejected(self, scheduler, chaos):
        """Any ``chaos`` field, whatever it schedules, is an unknown key."""
        with pytest.raises(ConfigurationError, match=UNKNOWN_CHAOS):
            scheduler.parse_submission(dict(SPEC, chaos=chaos))


# -- in-process HTTP API -----------------------------------------------------


@pytest.fixture(scope="module")
def service(tmp_path_factory, library):
    state = tmp_path_factory.mktemp("service-state")
    with ServiceThread(
        state, library=library, max_queue=64, checkpoint_every=1
    ) as handle:
        yield ServiceClient("127.0.0.1", handle.port)


class TestApi:
    def test_health_and_ready(self, service):
        assert service.healthz()
        assert service.readyz()

    def test_submit_verdict_matches_direct_campaign(self, service, library):
        ack = service.submit(dict(SPEC, job_id="parity-check"))
        assert ack["job_id"] == "parity-check"
        verdict = service.wait_verdict("parity-check", timeout_s=120)
        direct = ResilientCampaign.from_spec(CampaignSpec(**SPEC), library)
        direct.run()
        assert verdict["result"] == direct.result.to_dict()
        assert verdict["spec"] == CampaignSpec(**SPEC).to_dict()

    def test_duplicate_job_id_is_409(self, service):
        service.submit(dict(SPEC, job_id="dup"))
        reply = service._request("POST", "/submit", body=dict(SPEC, job_id="dup"))
        assert reply.status == 409
        assert "already exists" in reply.json()["error"]

    def test_bad_submission_is_400(self, service):
        reply = service._request(
            "POST", "/submit", body=dict(SPEC, frobnicate=1)
        )
        assert reply.status == 400
        assert "unknown submission" in reply.json()["error"]

    @pytest.mark.parametrize("retired", [
        {"engine": "vectorized"},
        {"max_resident_cpus": 128},
    ])
    def test_retired_spec_field_is_400(self, service, retired):
        """Old journals may carry these keys; new submissions may not."""
        reply = service._request(
            "POST", "/submit", body=dict(SPEC, **retired)
        )
        assert reply.status == 400
        assert "unknown submission" in reply.json()["error"]

    def test_malformed_json_is_400(self, service):
        import http.client

        connection = http.client.HTTPConnection(
            service.host, service.port, timeout=10
        )
        try:
            connection.request("POST", "/submit", body=b"{not json")
            assert connection.getresponse().status == 400
        finally:
            connection.close()

    def test_unknown_job_is_404(self, service):
        assert service.job("never-submitted") is None
        reply = service._request("GET", "/verdicts/never-submitted")
        assert reply.status == 404

    def test_wrong_method_is_405_with_allow(self, service):
        reply = service._request("GET", "/submit")
        assert reply.status == 405
        assert reply.headers.get("allow") == "POST"
        reply = service._request("POST", "/healthz")
        assert reply.status == 405

    def test_unknown_route_is_404(self, service):
        assert service._request("GET", "/nope").status == 404

    def test_metrics_exposition(self, service):
        text = service.metrics_text()
        assert "repro_service_http_requests_total" in text
        assert "repro_service_jobs_total" in text

    def test_jobs_overview(self, service):
        overview = service.jobs()
        assert set(overview["counts"]) == {
            "queued", "running", "done", "failed", "expired",
        }
        assert overview["draining"] is False


class TestChaosAdmission:
    """``/submit`` takes no ``chaos`` field: a body that carries one,
    whatever it schedules, gets the 400 of any unknown key, and
    nothing reaches the journal or a job thread."""

    def test_unknown_fault_kind_is_400_and_never_journaled(
        self, tmp_path, library
    ):
        with ServiceThread(
            tmp_path, library=library, checkpoint_every=1
        ) as handle:
            client = ServiceClient("127.0.0.1", handle.port)
            reply = client._request("POST", "/submit", body=dict(
                SPEC, job_id="meteor",
                chaos={"schedule": {"0": ["meteor"]}},
            ))
            assert reply.status == 400
            assert reply.json()["error"] == (
                "unknown submission fields: ['chaos']"
            )
            # The job thread is still alive for the next job.
            client.submit(dict(SPEC, job_id="after"))
            assert client.wait_verdict("after", timeout_s=120)
        jobs = {entry.job for entry in replay_journal(tmp_path / "journal")}
        assert "meteor" not in jobs and "after" in jobs

    def test_non_integer_shard_is_400(self, service):
        reply = service._request("POST", "/submit", body=dict(
            SPEC, job_id="shardless",
            chaos={"schedule": {"x": ["delay"]}},
        ))
        assert reply.status == 400
        assert "unknown submission fields" in reply.json()["error"]
        assert service.job("shardless") is None

    def test_retired_fault_kinds_are_400(self, service):
        """The kinds retired with shard retries, the scalar fallback and
        the in-process restart loop are refused, and so are the ones a
        schedule could name until the field went."""
        for kind in RETIRED_KINDS + LAST_FAULT_KINDS:
            job_id = f"retired-{kind}".replace("_", "-")
            reply = service._request("POST", "/submit", body=dict(
                SPEC, job_id=job_id, chaos={"schedule": {"0": [kind]}},
            ))
            assert reply.status == 400
            assert "unknown submission fields" in reply.json()["error"]
            assert service.job(job_id) is None


def hold_steps(monkeypatch, until: threading.Event) -> None:
    """Hold every campaign shard until ``until`` is set, so a job stays
    in flight, deterministically, while the test acts."""
    step = ResilientCampaign.step

    def held_step(campaign):
        assert until.wait(timeout=60), "held shard never released"
        return step(campaign)

    monkeypatch.setattr(ResilientCampaign, "step", held_step)


class TestAdmissionControl:
    def test_saturated_queue_answers_429_and_loses_nothing(
        self, tmp_path, library, monkeypatch
    ):
        # The first job's shards are held, so it stays in flight while
        # the queue saturates.
        release = threading.Event()
        hold_steps(monkeypatch, release)
        with ServiceThread(
            tmp_path, library=library, max_queue=1, checkpoint_every=1000
        ) as handle:
            client = ServiceClient("127.0.0.1", handle.port)
            try:
                ack = client.submit(dict(SPEC, job_id="hog"))
                assert ack["state"] == "queued"
                with pytest.raises(Rejected) as rejection:
                    client.submit(dict(SPEC, job_id="extra"))
                assert rejection.value.status == 429
                assert rejection.value.retry_after_s >= 1.0
            finally:
                release.set()
            # The daemon is alive and the acknowledged job completes.
            assert client.healthz()
            verdict = client.wait_verdict("hog", timeout_s=120)
            assert verdict["status"] == "done"
            assert client.job("extra") is None

    def test_draining_daemon_answers_503(self, tmp_path, library):
        handle = ServiceThread(
            tmp_path, library=library, checkpoint_every=1
        ).start()
        client = ServiceClient("127.0.0.1", handle.port)
        assert client.readyz()
        handle.service.scheduler._draining = True
        try:
            assert not client.readyz()
            with pytest.raises(Rejected) as info:
                client.submit(dict(SPEC))
            assert info.value.status == 503
        finally:
            handle.service.scheduler._draining = False
            handle.stop()


class TestGracefulDrain:
    def test_drain_suspends_and_restart_resumes(
        self, tmp_path, library, monkeypatch
    ):
        handle = ServiceThread(
            tmp_path, library=library, checkpoint_every=1
        ).start()
        # The job's first shard waits for the drain, so the drain lands
        # mid-campaign, right after it.
        hold_steps(monkeypatch, handle.service.scheduler._stop_event)
        client = ServiceClient("127.0.0.1", handle.port)
        client.submit(dict(SPEC, shard_size=1, job_id="suspended"))
        _wait_state(client, "suspended", "running")
        handle.stop()  # graceful drain mid-campaign
        monkeypatch.undo()
        # Metrics snapshot lands on drain.
        assert (tmp_path / "metrics.prom").exists()
        # Next incarnation on the same state dir finishes the job.
        with ServiceThread(
            tmp_path, library=library, checkpoint_every=1
        ) as handle2:
            client = ServiceClient("127.0.0.1", handle2.port)
            record = client.job("suspended")
            assert record is not None
            assert record["recovered"] is True
            verdict = client.wait_verdict("suspended", timeout_s=120)
        starts = [
            entry.data["resume"]
            for entry in replay_journal(tmp_path / "journal")
            if entry.kind == "start"
        ]
        assert starts == [False, True]
        direct = ResilientCampaign.from_spec(
            CampaignSpec(**dict(SPEC, shard_size=1)), library
        )
        direct.run()
        assert verdict["result"] == direct.result.to_dict()

    def test_drain_leaves_queued_jobs_unstarted(
        self, tmp_path, library, monkeypatch
    ):
        """Draining behind a running job neither journals nor builds
        the jobs queued after it; the next incarnation runs them to the
        in-process campaign's result."""
        queued = [f"queued-{index}" for index in range(3)]
        handle = ServiceThread(
            tmp_path, library=library, checkpoint_every=1
        ).start()
        hold_steps(monkeypatch, handle.service.scheduler._stop_event)
        client = ServiceClient("127.0.0.1", handle.port)
        client.submit(dict(SPEC, shard_size=1, job_id="running"))
        for job_id in queued:
            client.submit(dict(SPEC, job_id=job_id))
        _wait_state(client, "running", "running")
        handle.stop()
        monkeypatch.undo()
        started = {
            entry.job
            for entry in replay_journal(tmp_path / "journal")
            if entry.kind == "start"
        }
        assert started == {"running"}
        for job_id in queued:
            assert not (tmp_path / "jobs" / job_id).exists()
        families = parse_prometheus_text(
            (tmp_path / "metrics.prom").read_text()
        )
        depth = families["repro_service_queue_depth"]["samples"]
        assert depth["repro_service_queue_depth"] == len(queued)
        with ServiceThread(
            tmp_path, library=library, checkpoint_every=1
        ) as handle2:
            client = ServiceClient("127.0.0.1", handle2.port)
            assert client.job("queued-0")["recovered"] is True
            verdict = client.wait_verdict("queued-0", timeout_s=120)
        assert verdict["result"] == _direct_result(SPEC, library)


# -- concurrent jobs ----------------------------------------------------------


def _direct_result(spec_dict, library):
    campaign = ResilientCampaign.from_spec(CampaignSpec(**spec_dict), library)
    campaign.run()
    return campaign.result.to_dict()


def _peak_overlap(records, name):
    """Most ``name`` spans open at once in a trace record list."""
    edges = []
    for record in records:
        if record.get("name") != name:
            continue
        if record["kind"] == "span_begin":
            edges.append((record["ts"], 1))
        elif record["kind"] == "span_end":
            edges.append((record["ts"], -1))
    peak = active = 0
    for _, step in sorted(edges):
        active += step
        peak = max(peak, active)
    return peak


class TestConcurrentJobs:
    def test_max_active_two_runs_jobs_side_by_side(self, tmp_path, library):
        """Two job threads run four campaigns, two at a time, and every
        verdict equals the in-process campaign's."""
        specs = [
            dict(HEAVY_SPEC, fleet_seed=3 + index, job_id=f"side-{index}")
            for index in range(4)
        ]
        sink = ListTraceSink()
        with ServiceThread(
            tmp_path, library=library, max_active=2,
            obs=Observability(MetricsRegistry(), Tracer(sink)),
        ) as handle:
            client = ServiceClient("127.0.0.1", handle.port)
            for spec in specs:
                client.submit(spec)
            verdicts = {
                spec["job_id"]: client.wait_verdict(
                    spec["job_id"], timeout_s=300
                )
                for spec in specs
            }
        for spec in specs:
            fields = {k: v for k, v in spec.items() if k != "job_id"}
            assert verdicts[spec["job_id"]]["result"] == _direct_result(
                fields, library
            )
        assert _peak_overlap(sink.records, "service.job") == 2


# -- state written before the process-pool engine was retired -----------------


def _legacy_checkpoint(ckpt_dir, spec_fields, library, shards, **retired):
    """A mid-campaign snapshot whose embedded spec also carries the
    ``retired`` keys, as an older daemon or CLI run wrote it."""
    spec = CampaignSpec(**spec_fields)
    campaign = ResilientCampaign.from_spec(
        spec, library, checkpoint_every=10**6
    )
    for _ in range(shards):
        assert campaign.step(), "the snapshot must be mid-campaign"
    payload = campaign._payload()
    payload["spec"].update(retired)
    CheckpointStore(ckpt_dir).save(payload)


class TestPoolEraState:
    def test_legacy_parallel_engine_reads_as_vectorized(self):
        spec = CampaignSpec.from_dict(dict(SPEC, engine="parallel"))
        assert spec == CampaignSpec(**SPEC)
        assert "engine" not in spec.to_dict()
        with pytest.raises(TypeError, match="engine"):
            CampaignSpec(**dict(SPEC, engine="parallel"))

    def test_restart_on_pool_era_state_dir(self, tmp_path, library):
        """A journaled ``parallel`` submission with ``exec`` hints plus
        a mid-campaign pool-era checkpoint: the new daemon resumes it
        and lands the in-process campaign's verdict."""
        legacy_spec = dict(CampaignSpec(**SPEC).to_dict(), engine="parallel")
        with JournalWriter(tmp_path / "journal") as journal:
            journal.append(
                "submit", job="legacy", spec=legacy_spec,
                exec={"workers": 2, "engine_pinned": False},
            )
            journal.append("start", job="legacy", resume=False)
        _legacy_checkpoint(
            tmp_path / "jobs" / "legacy" / "ckpt", SPEC, library, shards=2,
            engine="parallel",
        )
        with ServiceThread(tmp_path, library=library) as handle:
            client = ServiceClient("127.0.0.1", handle.port)
            assert client.job("legacy")["recovered"] is True
            verdict = client.wait_verdict("legacy", timeout_s=120)
        assert verdict["result"] == _direct_result(SPEC, library)
        kinds = [event["kind"] for event in verdict["health"]["events"]]
        assert "resume" in kinds

    def test_cli_resume_of_pool_era_checkpoint(self, tmp_path, library):
        _legacy_checkpoint(
            tmp_path, SPEC, library, shards=2, engine="parallel"
        )
        assert main(["resume", str(tmp_path)]) == 0
        final = CheckpointStore(tmp_path).load_latest()
        expected = _direct_result(SPEC, library)
        assert "engine" not in final["spec"]
        assert final["detections"] == expected["detections"]
        assert final["undetected"] == expected["undetected"]

    def test_submit_rejects_workers_field(self, tmp_path, library):
        scheduler = CampaignScheduler(tmp_path, library)
        with pytest.raises(ConfigurationError, match="workers"):
            scheduler.parse_submission(dict(SPEC, workers=2))


#: The engine and residency selectors specs carried before every
#: campaign ran vectorized over a frame-backed population.
RETIRED_SELECTORS = {"engine": "scalar", "max_resident_cpus": 128}


class TestRetiredSelectorState:
    def test_restart_on_state_dir_with_retired_selectors(
        self, tmp_path, library
    ):
        """A journaled submit and a mid-campaign checkpoint whose specs
        name the scalar engine and a residency bound: the new daemon
        resumes the job and lands the fresh campaign's verdict."""
        legacy_spec = dict(CampaignSpec(**SPEC).to_dict(), **RETIRED_SELECTORS)
        with JournalWriter(tmp_path / "journal") as journal:
            journal.append("submit", job="legacy", spec=legacy_spec)
            journal.append("start", job="legacy", resume=False)
        _legacy_checkpoint(
            tmp_path / "jobs" / "legacy" / "ckpt", SPEC, library, shards=2,
            **RETIRED_SELECTORS,
        )
        with ServiceThread(tmp_path, library=library) as handle:
            client = ServiceClient("127.0.0.1", handle.port)
            assert client.job("legacy")["recovered"] is True
            verdict = client.wait_verdict("legacy", timeout_s=120)
        assert verdict["result"] == _direct_result(SPEC, library)
        assert verdict["spec"] == CampaignSpec(**SPEC).to_dict()
        kinds = [event["kind"] for event in verdict["health"]["events"]]
        assert "resume" in kinds

    def test_cli_resume_of_checkpoint_with_retired_selectors(
        self, tmp_path, library
    ):
        _legacy_checkpoint(
            tmp_path, SPEC, library, shards=2, **RETIRED_SELECTORS
        )
        assert main(["resume", str(tmp_path)]) == 0
        final = CheckpointStore(tmp_path).load_latest()
        expected = _direct_result(SPEC, library)
        assert final["spec"] == CampaignSpec(**SPEC).to_dict()
        assert final["detections"] == expected["detections"]
        assert final["undetected"] == expected["undetected"]


# -- telemetry surface ---------------------------------------------------------


#: A time-series history as the daemon kept it beside its journal
#: before the history, the health rules and their routes were retired.
HISTORY_FIXTURE = (
    Path(__file__).resolve().parent.parent / "fixtures" / "sealed"
    / "timeseries.json"
)


def _uptime(client) -> float:
    families = parse_prometheus_text(client.metrics_text())
    return families["repro_uptime_seconds"]["samples"]["repro_uptime_seconds"]


class TestTelemetrySurface:
    def test_identity_gauges_present(self, service):
        text = service.metrics_text()
        assert "repro_build_info{version=" in text
        assert "repro_uptime_seconds" in text
        assert "repro_rss_bytes" in text  # sampled on each /metrics read

    def test_process_gauges_refresh_on_each_read(self, service):
        first = _uptime(service)
        time.sleep(0.05)
        assert _uptime(service) >= first + 0.05

    def test_healthz_detail_stays_200(self, service):
        reply = service._request("GET", "/healthz")
        assert reply.status == 200
        assert reply.json() == {"status": "ok"}

    def test_unknown_paths_share_one_route_label(self, tmp_path, library):
        """Paths with no route collapse into one ``route="other"``
        label, so clients cannot grow /metrics by inventing paths."""
        with ServiceThread(tmp_path, library=library) as handle:
            client = ServiceClient("127.0.0.1", handle.port)
            for index in range(5):
                assert client._request("GET", f"/probe-{index}").status == 404
            families = parse_prometheus_text(client.metrics_text())
        samples = families["repro_service_http_requests_total"]["samples"]
        not_found = {
            labels: value for labels, value in samples.items()
            if 'code="404"' in labels
        }
        assert len(not_found) == 1
        (labels, count), = not_found.items()
        assert 'route="other"' in labels and count == 5

    @pytest.mark.parametrize("route", ["/timeseries", "/alerts"])
    def test_retired_routes_are_404(self, service, route):
        reply = service._request("GET", route + "?tier=raw")
        assert reply.status == 404
        assert reply.json()["error"] == f"no route for {route}"

    @pytest.mark.parametrize("torn", [False, True], ids=["sealed", "torn"])
    def test_torn_history_file_does_not_kill_boot(
        self, tmp_path, library, torn
    ):
        """An older daemon's ``timeseries.json``, sealed or torn, is
        left alone: the daemon boots beside it, replays the journal and
        serves."""
        history = HISTORY_FIXTURE.read_bytes()
        if torn:
            history = history[: len(history) // 2]
        (tmp_path / "timeseries.json").write_bytes(history)
        with JournalWriter(tmp_path / "journal") as journal:
            journal.append(
                "submit", job="old", spec=CampaignSpec(**SPEC).to_dict()
            )
        with ServiceThread(tmp_path, library=library) as handle:
            client = ServiceClient("127.0.0.1", handle.port)
            assert client.healthz()
            assert client.job("old")["recovered"] is True
            verdict = client.wait_verdict("old", timeout_s=120)
        assert verdict["result"] == _direct_result(SPEC, library)
        assert (tmp_path / "timeseries.json").read_bytes() == history

    def test_telemetry_never_changes_verdicts(self, tmp_path, library):
        """Metrics plus a rotating trace sink must not perturb seeded
        verdicts."""
        plain_dir = tmp_path / "plain"
        instrumented_dir = tmp_path / "instrumented"
        with ServiceThread(plain_dir, library=library) as handle:
            client = ServiceClient("127.0.0.1", handle.port)
            client.wait_ready()
            client.submit(dict(SPEC, job_id="parity"))
            plain = client.wait_verdict("parity", timeout_s=120)
        obs = Observability.create(
            str(instrumented_dir / "metrics.json"),
            str(instrumented_dir / "trace.jsonl"),
            trace_rotate_bytes=65536,
        )
        try:
            with ServiceThread(
                instrumented_dir / "state", library=library, obs=obs,
            ) as handle:
                client = ServiceClient("127.0.0.1", handle.port)
                client.wait_ready()
                client.submit(dict(SPEC, job_id="parity"))
                instrumented = client.wait_verdict("parity", timeout_s=120)
        finally:
            obs.close()
        assert instrumented["result"] == plain["result"]
        assert instrumented["spec"] == plain["spec"]


# -- a job that raises ----------------------------------------------------------


class TestJobFailure:
    def test_job_that_raises_fails_without_stalling_the_worker(
        self, tmp_path, library
    ):
        """Job ``a``'s checkpoint directory cannot be created (its job
        directory is a regular file): ``a`` fails with the error, and
        the same worker goes on to land ``b``'s verdict."""
        (tmp_path / "jobs").mkdir()
        (tmp_path / "jobs" / "a").write_text("not a directory")
        with ServiceThread(tmp_path, library=library) as handle:
            client = ServiceClient("127.0.0.1", handle.port)
            client.submit(dict(SPEC, job_id="a"))
            client.submit(dict(SPEC, job_id="b"))
            verdict = client.wait_verdict("b", timeout_s=60)
            failed = client.job("a")
            metrics = client.metrics_text()
        assert failed["state"] == JOB_FAILED
        assert failed["error"].startswith("NotADirectoryError: ")
        assert verdict["result"] == _direct_result(SPEC, library)
        assert 'repro_service_jobs_total{event="failed"} 1' in metrics
        # The failure is journaled: a restart keeps it failed.
        assert CampaignScheduler(tmp_path, library).jobs["a"].state == (
            JOB_FAILED
        )

    def test_finish_type_hints_resolve(self):
        hints = typing.get_type_hints(CampaignScheduler._finish)
        assert hints["campaign"] is ResilientCampaign


# -- verdict retention -------------------------------------------------------


def _wait_state(client, job_id, state, timeout_s=30.0):
    """Poll until the job reaches ``state`` (GC runs just after the
    sibling verdict becomes visible, so expiry trails by a beat)."""
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        record = client.job(job_id)
        if record is not None and record["state"] == state:
            return record
        time.sleep(0.02)
    raise AssertionError(
        f"{job_id} never reached {state!r}: {client.job(job_id)}"
    )


class TestRetention:
    def test_count_policy_expires_oldest_and_survives_restart(
        self, tmp_path, library
    ):
        with ServiceThread(
            tmp_path, library=library,
            retain_verdicts="1", checkpoint_every=1,
        ) as handle:
            client = ServiceClient("127.0.0.1", handle.port)
            client.submit(dict(SPEC, job_id="old"))
            client.wait_verdict("old", timeout_s=120)
            client.submit(dict(SPEC, job_id="new"))
            client.wait_verdict("new", timeout_s=120)
            # Finishing "new" pushed "old" over the retention line.
            _wait_state(client, "old", JOB_EXPIRED)
            reply = client._request("GET", "/verdicts/old")
            assert reply.status == 410
            with pytest.raises(ServiceError, match="expired"):
                client.verdict("old")
            assert client.verdict("new") is not None
            assert not (tmp_path / "jobs" / "old").exists()
        # Replay honours the journaled gc: the job is expired, not
        # resurrected, and is never re-run.
        with ServiceThread(
            tmp_path, library=library,
            retain_verdicts="1", checkpoint_every=1,
        ) as handle2:
            client = ServiceClient("127.0.0.1", handle2.port)
            assert client.job("old")["state"] == JOB_EXPIRED
            assert client._request("GET", "/verdicts/old").status == 410
            assert client.verdict("new") is not None

    def test_age_policy_expires_on_later_activity(self, tmp_path, library):
        with ServiceThread(
            tmp_path, library=library,
            retain_verdicts="1s", checkpoint_every=1,
        ) as handle:
            client = ServiceClient("127.0.0.1", handle.port)
            client.submit(dict(SPEC, job_id="aging"))
            client.wait_verdict("aging", timeout_s=120)
            time.sleep(1.2)
            # Age policies are applied when a verdict lands (and at
            # boot), so a younger sibling triggers the sweep.
            client.submit(dict(SPEC, job_id="young"))
            client.wait_verdict("young", timeout_s=120)
            _wait_state(client, "aging", JOB_EXPIRED)
            assert client.verdict("young") is not None

    def test_age_policy_applies_at_boot(self, tmp_path, library):
        with ServiceThread(
            tmp_path, library=library, checkpoint_every=1,
        ) as handle:
            client = ServiceClient("127.0.0.1", handle.port)
            client.submit(dict(SPEC, job_id="stale"))
            client.wait_verdict("stale", timeout_s=120)
        time.sleep(1.2)
        with ServiceThread(
            tmp_path, library=library,
            retain_verdicts="1s", checkpoint_every=1,
        ) as handle2:
            client = ServiceClient("127.0.0.1", handle2.port)
            assert client.job("stale")["state"] == JOB_EXPIRED

    def test_no_policy_keeps_everything(self, tmp_path, library):
        with ServiceThread(
            tmp_path, library=library, checkpoint_every=1,
        ) as handle:
            client = ServiceClient("127.0.0.1", handle.port)
            for index in range(3):
                client.submit(dict(SPEC, job_id=f"keep-{index}"))
            for index in range(3):
                client.wait_verdict(f"keep-{index}", timeout_s=120)
                assert client.verdict(f"keep-{index}") is not None


# -- adaptive Retry-After ----------------------------------------------------


class TestAdaptiveRetryAfter:
    def test_hint_scales_with_observed_latency_and_depth(
        self, tmp_path, library
    ):
        scheduler = CampaignScheduler(tmp_path, library, retry_after_s=1.0)
        # Fresh daemon: the configured floor.
        assert scheduler._retry_after_hint() == 1.0
        for _ in range(5):
            scheduler._latency.record(2.0)
        scheduler._active = 3
        # Median shard latency (2s) x in-flight depth (3).
        assert scheduler._retry_after_hint() == 6.0
        scheduler._active = 0

    def test_shard_latency_histogram_recorded(self, tmp_path, library):
        with ServiceThread(
            tmp_path, library=library, checkpoint_every=1,
        ) as handle:
            client = ServiceClient("127.0.0.1", handle.port)
            client.submit(dict(SPEC, job_id="timed"))
            client.wait_verdict("timed", timeout_s=120)
            metrics = client.metrics_text()
        assert "repro_service_shard_seconds" in metrics
