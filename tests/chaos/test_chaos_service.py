"""Chaos acceptance for the ``repro serve`` daemon.

The tentpole guarantee under test: a daemon SIGKILLed at *any* point —
before a submission's ack, mid-shard, right after a checkpoint, while
tearing its own journal tail, or mid-drain — and restarted on the same
``--state-dir`` finishes every acknowledged job with a verdict
**bit-identical** to an uninterrupted run's.  Kills are driven two
ways: deterministically through the :mod:`tests.chaos.killpoints`
launcher (``os._exit(137)`` at exact lifecycle points external
``kill -9`` could only hit by luck), and non-deterministically with
real SIGKILLs.
A concurrent-client stress run checks the admission path never loses
or duplicates a job id under ≥32 in-flight submissions.
"""

import os
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.resilience import CampaignSpec, ResilientCampaign
from repro.service import (
    ReplayReport,
    ServiceClient,
    ServiceThread,
    replay_journal,
)
from repro.testing import build_library

from .killpoints import KILL_EXIT_CODE

#: ~35 faulty CPUs across several shards; small enough that one
#: uninterrupted pass is sub-second, structured enough that every kill
#: point lands mid-campaign.
SPEC = dict(
    total_processors=1500,
    fleet_seed=3,
    pipeline_seed=5,
    failure_rate_scale=80.0,
    shard_size=8,
)

REPO = Path(__file__).resolve().parents[2]
KILLPOINTS = Path(__file__).resolve().with_name("killpoints.py")

#: One shard per CPU, each held back by the launcher: the campaign
#: stays in flight while the test signals the daemon.
SLOW = dict(SPEC, shard_size=1)
STEP_SLEEP = "0.05"

@pytest.fixture(scope="module")
def library():
    return build_library()


@pytest.fixture(scope="module")
def expected_result(library):
    """The uninterrupted campaign's verdict payload (wire format)."""
    campaign = ResilientCampaign.from_spec(CampaignSpec(**SPEC), library)
    campaign.run()
    return campaign.result.to_dict()


def start_daemon(state_dir, kill="", step_sleep="0"):
    """``repro serve`` on ``state_dir``, through the kill-point launcher
    when a death or a per-step sleep is asked for."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src")
    launcher = ["-m", "repro"]
    if kill or float(step_sleep):
        launcher = [
            str(KILLPOINTS), "--kill", kill, "--step-sleep", step_sleep,
        ]
    cmd = [
        sys.executable, *launcher, "serve",
        "--state-dir", str(state_dir), "--checkpoint-every", "1",
    ]
    return subprocess.Popen(
        cmd, env=env, cwd=REPO,
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )

def wait_ready(state_dir, timeout_s=60):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        try:
            client = ServiceClient.from_state_dir(state_dir, timeout_s=5)
            if client.readyz():
                return client
        except Exception:
            pass
        time.sleep(0.05)
    raise AssertionError("daemon never became ready")


def submit_expecting_death(client, body):
    """Submit to a daemon scheduled to die mid-request; a connection
    error counts as 'no ack received'."""
    try:
        return client.submit(body)
    except (ConnectionError, socket.timeout, OSError):
        return None


class TestKillMatrix:
    """Deterministic SIGKILL points via the kill-point launcher."""

    @pytest.mark.parametrize("chaos_point", [
        "kill:shard_done:2",            # mid-campaign, between shards
        "kill:checkpoint_done:1",       # right after a snapshot landed
        "kill:journal_append:2",        # right after the 'start' entry
        "tear_journal:journal_append:2",  # torn tail + death
    ])
    def test_restart_parity_after_kill(
        self, tmp_path, chaos_point, expected_result
    ):
        daemon = start_daemon(tmp_path, kill=chaos_point)
        try:
            client = wait_ready(tmp_path)
            submit_expecting_death(client, dict(SPEC, job_id="victim"))
            assert daemon.wait(timeout=120) == KILL_EXIT_CODE
        finally:
            if daemon.poll() is None:
                daemon.kill()
                daemon.wait(30)
        if chaos_point.startswith("tear_journal:"):
            report = ReplayReport()
            replay_journal(tmp_path / "journal", report=report)
            assert any("torn tail" in p for p in report.problems)
        # Same state dir, no kill: the job must finish bit-identically.
        daemon = start_daemon(tmp_path)
        try:
            client = wait_ready(tmp_path)
            record = client.job("victim")
            assert record is not None, "acknowledged job lost by the crash"
            verdict = client.wait_verdict("victim", timeout_s=120)
            assert verdict["result"] == expected_result
        finally:
            daemon.send_signal(signal.SIGTERM)
            assert daemon.wait(timeout=60) == 0

    def test_pre_ack_kill_loses_nothing_acknowledged(self, tmp_path):
        """Death before the journal append: the client got no ack, and
        correspondingly the restarted daemon knows nothing of the job —
        the other consistent outcome of the crash contract."""
        daemon = start_daemon(tmp_path, kill="kill:submit_pre_ack:1")
        try:
            client = wait_ready(tmp_path)
            ack = submit_expecting_death(client, dict(SPEC, job_id="ghost"))
            assert ack is None, "daemon acked past its own death point"
            assert daemon.wait(timeout=60) == KILL_EXIT_CODE
        finally:
            if daemon.poll() is None:
                daemon.kill()
                daemon.wait(30)
        daemon = start_daemon(tmp_path)
        try:
            client = wait_ready(tmp_path)
            assert client.job("ghost") is None
        finally:
            daemon.send_signal(signal.SIGTERM)
            assert daemon.wait(timeout=60) == 0

    def test_post_ack_kill_preserves_the_job(self, tmp_path, expected_result):
        """Death after the journal fsync but before the HTTP response:
        the client sees a dead connection, yet the job is journaled and
        must survive — 'acknowledged' is defined by the fsync, and the
        ack the client never read was already durable."""
        daemon = start_daemon(tmp_path, kill="kill:submit_post_ack:1")
        try:
            client = wait_ready(tmp_path)
            ack = submit_expecting_death(client, dict(SPEC, job_id="durable"))
            assert ack is None
            assert daemon.wait(timeout=60) == KILL_EXIT_CODE
        finally:
            if daemon.poll() is None:
                daemon.kill()
                daemon.wait(30)
        daemon = start_daemon(tmp_path)
        try:
            client = wait_ready(tmp_path)
            assert client.job("durable") is not None
            verdict = client.wait_verdict("durable", timeout_s=120)
            assert verdict["result"] == expected_result
        finally:
            daemon.send_signal(signal.SIGTERM)
            assert daemon.wait(timeout=60) == 0

    def test_kill_mid_drain(self, tmp_path, expected_result):
        """SIGTERM starts a graceful drain; the launcher kills on its
        entry.  The next incarnation still owes (and pays) the verdict."""
        daemon = start_daemon(
            tmp_path, kill="kill:drain:1", step_sleep=STEP_SLEEP
        )
        try:
            client = wait_ready(tmp_path)
            client.submit(dict(SLOW, job_id="draining"))
            # Drain once the campaign has a snapshot to resume from.
            snapshots = tmp_path / "jobs" / "draining" / "ckpt"
            deadline = time.monotonic() + 60
            while not list(snapshots.glob("*.ckpt")):
                assert time.monotonic() < deadline, "no snapshot landed"
                time.sleep(0.01)
            daemon.send_signal(signal.SIGTERM)
            assert daemon.wait(timeout=60) == KILL_EXIT_CODE
        finally:
            if daemon.poll() is None:
                daemon.kill()
                daemon.wait(30)
        daemon = start_daemon(tmp_path)
        try:
            client = wait_ready(tmp_path)
            verdict = client.wait_verdict("draining", timeout_s=120)
            assert verdict["result"] == expected_result
        finally:
            daemon.send_signal(signal.SIGTERM)
            assert daemon.wait(timeout=60) == 0


class TestRealSigkill:
    def test_two_external_sigkills_then_parity(
        self, tmp_path, expected_result
    ):
        """The acceptance-criteria run: real ``SIGKILL`` (twice) while a
        campaign is in flight, restart on the same state dir each time,
        and the final verdict equals the uninterrupted run's."""
        daemon = start_daemon(tmp_path, step_sleep=STEP_SLEEP)
        client = wait_ready(tmp_path)
        client.submit(dict(SLOW, job_id="survivor"))
        for round_index in range(2):
            # Let the campaign make some progress, then murder it.
            time.sleep(0.15 * (round_index + 1))
            daemon.send_signal(signal.SIGKILL)
            assert daemon.wait(timeout=60) == -signal.SIGKILL
            daemon = start_daemon(tmp_path, step_sleep=STEP_SLEEP)
            client = wait_ready(tmp_path)
            record = client.job("survivor")
            assert record is not None, "SIGKILL lost an acknowledged job"
            assert record["state"] != "done", "the kill came too late"
        try:
            verdict = client.wait_verdict("survivor", timeout_s=120)
            assert verdict["result"] == expected_result
        finally:
            daemon.send_signal(signal.SIGTERM)
            assert daemon.wait(timeout=60) == 0
        # Clean exit leaves no temp litter in the state dir.
        leftovers = list(tmp_path.rglob("*.tmp"))
        assert leftovers == []


class TestConcurrentClients:
    def test_32_inflight_submissions_unique_and_complete(
        self, tmp_path, library
    ):
        """≥32 concurrent submissions: every ack carries a unique job
        id, every acked job exists, nothing is lost or duplicated."""
        quick = dict(SPEC, total_processors=400, shard_size=16)
        with ServiceThread(
            tmp_path, library=library, max_queue=256, checkpoint_every=4
        ) as handle:
            client = ServiceClient("127.0.0.1", handle.port)
            acks, errors = [], []
            lock = threading.Lock()

            def one(index):
                try:
                    ack = client.submit(dict(quick))
                    with lock:
                        acks.append(ack)
                except Exception as error:  # pragma: no cover
                    with lock:
                        errors.append(error)

            threads = [
                threading.Thread(target=one, args=(i,)) for i in range(32)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not errors, f"submissions failed: {errors[:3]}"
            ids = [ack["job_id"] for ack in acks]
            assert len(ids) == 32
            assert len(set(ids)) == 32, "duplicate job ids issued"
            seqs = [ack["seq"] for ack in acks]
            assert len(set(seqs)) == 32, "duplicate journal seq issued"
            # Every acknowledged job is known and eventually done.
            for job_id in ids:
                assert client.job(job_id) is not None
            reference = None
            for job_id in ids:
                verdict = client.wait_verdict(job_id, timeout_s=300)
                if reference is None:
                    reference = verdict["result"]
                assert verdict["result"] == reference, (
                    "identical specs produced diverging verdicts"
                )
