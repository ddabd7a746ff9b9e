#!/usr/bin/env python
"""CI chaos drill for the ``repro serve`` daemon.

Launches a real daemon subprocess, drives concurrent traffic at it,
SIGKILLs and restarts it twice mid-campaign, and then asserts the full
robustness contract in one pass:

* each kill lands while acknowledged jobs are still unfinished, and at
  least one campaign resumes from a snapshot (a ``start`` entry with
  ``resume: true`` in the journal);
* every acknowledged job survives the kills and reaches ``done``;
* the reference job's verdict is bit-identical to a direct in-process
  :class:`~repro.resilience.campaign.ResilientCampaign` run;
* a deliberately saturated admission queue answers 429 + Retry-After
  without crashing the daemon or losing any acknowledged job;
* the final graceful drain leaves a metrics snapshot that passes
  ``repro obs-report --check``;
* the rotated trace segments from all three daemon incarnations — torn
  tails included — read back as one stitched trace with spans from at
  least two pids;
* the state directory holds no leaked ``*.tmp`` files and the drained
  daemon leaves no stale endpoint file.

Exit status 0 means the drill passed.  Run from the repo root::

    PYTHONPATH=src python scripts/service_chaos.py
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO / "src"))

from repro.errors import ObservabilityError  # noqa: E402
from repro.obs import read_trace_segments  # noqa: E402
from repro.resilience import CampaignSpec, ResilientCampaign  # noqa: E402
from repro.service import (  # noqa: E402
    Rejected,
    ServiceClient,
    replay_journal,
)
from repro.testing import build_library  # noqa: E402

#: 570 faulty CPUs in 143 shards, each snapshotted: every job runs long
#: enough that the queued jobs are still in flight at both SIGKILLs.
SPEC = dict(
    total_processors=20_000,
    fleet_seed=9,
    pipeline_seed=13,
    failure_rate_scale=80.0,
    shard_size=4,
)


def log(message: str) -> None:
    print(f"[service-chaos] {message}", flush=True)


def start_daemon(state_dir: Path, max_queue: int) -> subprocess.Popen:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src")
    cmd = [
        sys.executable, "-m", "repro", "serve",
        "--state-dir", str(state_dir),
        "--checkpoint-every", "1",
        "--max-queue", str(max_queue),
        # Rotating trace, so every SIGKILLed incarnation extends it
        # with new segments instead of truncating it.
        "--trace-out", str(state_dir / "trace.jsonl"),
        "--trace-rotate-bytes", "262144",
    ]
    return subprocess.Popen(cmd, env=env, cwd=REPO)


def wait_ready(state_dir: Path, timeout_s: float = 60.0) -> ServiceClient:
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        try:
            client = ServiceClient.from_state_dir(state_dir, timeout_s=5)
            if client.readyz():
                return client
        except Exception:
            pass
        time.sleep(0.05)
    raise SystemExit("FAIL: daemon never became ready")


def expected_result(spec: dict) -> dict:
    campaign = ResilientCampaign.from_spec(
        CampaignSpec(**spec), build_library()
    )
    campaign.run()
    return campaign.result.to_dict()


def drive(state_dir: Path) -> int:
    reference = expected_result(SPEC)
    log(f"reference verdict: {len(reference['detections'])} detections")

    max_queue = 4
    daemon = start_daemon(state_dir, max_queue)
    try:
        client = wait_ready(state_dir)

        # Concurrent-ish admission: the slow reference job plus filler
        # jobs up to the queue bound, then saturation must answer 429.
        acked = []
        ack = client.submit(dict(SPEC, job_id="reference"))
        acked.append(ack["job_id"])
        log(f"acked reference (seq {ack['seq']})")
        rejections = 0
        for index in range(max_queue + 8):
            try:
                ack = client.submit(dict(SPEC, job_id=f"filler-{index}"))
                acked.append(ack["job_id"])
            except Rejected as rejection:
                assert rejection.status == 429, rejection.status
                assert rejection.retry_after_s >= 1.0
                rejections += 1
        if rejections == 0:
            raise SystemExit("FAIL: saturated queue never answered 429")
        log(
            f"admission: {len(acked)} acked, {rejections} x 429 "
            f"(Retry-After honored)"
        )
        if not client.healthz():
            raise SystemExit("FAIL: daemon unhealthy after saturation")

        # Two SIGKILL + restart rounds mid-campaign.
        for round_index in (1, 2):
            time.sleep(0.3)
            daemon.send_signal(signal.SIGKILL)
            daemon.wait(timeout=60)
            if daemon.returncode != -signal.SIGKILL:
                raise SystemExit(
                    f"FAIL: expected SIGKILL death, got {daemon.returncode}"
                )
            log(f"SIGKILL round {round_index}: daemon dead, restarting")
            daemon = start_daemon(state_dir, max_queue)
            client = wait_ready(state_dir)
            states = {}
            for job_id in acked:
                record = client.job(job_id)
                if record is None:
                    raise SystemExit(
                        f"FAIL: acknowledged job {job_id} lost by SIGKILL"
                    )
                states[job_id] = record["state"]
            unfinished = [
                job_id for job_id, state in states.items() if state != "done"
            ]
            if not unfinished:
                raise SystemExit(
                    f"FAIL: SIGKILL round {round_index} came after every "
                    f"job had finished"
                )
            log(
                f"SIGKILL round {round_index}: all {len(acked)} acked "
                f"jobs survived, {len(unfinished)} without a verdict yet "
                f"(reference {states['reference']})"
            )

        # Every acknowledged job completes; the reference bit-matches.
        for job_id in acked:
            verdict = client.wait_verdict(job_id, timeout_s=300)
            if verdict["result"] != reference:
                raise SystemExit(
                    f"FAIL: job {job_id} verdict diverged from the "
                    f"uninterrupted run"
                )
        log(f"verdict parity: {len(acked)}/{len(acked)} bit-identical")

        metrics = client.metrics_text()
        for needle in (
            "repro_service_jobs_total",
            "repro_service_http_requests_total",
        ):
            if needle not in metrics:
                raise SystemExit(f"FAIL: /metrics lacks {needle}")

        # Graceful drain.
        daemon.send_signal(signal.SIGTERM)
        daemon.wait(timeout=120)
        if daemon.returncode != 0:
            raise SystemExit(
                f"FAIL: graceful drain exited {daemon.returncode}"
            )
    finally:
        if daemon.poll() is None:
            daemon.kill()
            daemon.wait(timeout=30)

    # Post-mortem checks on the state directory.
    resumed = sorted({
        entry.job
        for entry in replay_journal(state_dir / "journal")
        if entry.kind == "start" and entry.data.get("resume") is True
    })
    if not resumed:
        raise SystemExit(
            "FAIL: no campaign resumed from a snapshot; the kills never "
            "landed mid-campaign"
        )
    log(f"resumed from a snapshot after a kill: {', '.join(resumed)}")
    snapshot = state_dir / "metrics.prom"
    if not snapshot.exists():
        raise SystemExit("FAIL: drain left no metrics snapshot")
    check = subprocess.run(
        [
            sys.executable, "-m", "repro", "obs-report",
            "--metrics", str(snapshot), "--check",
        ],
        env=dict(os.environ, PYTHONPATH=str(REPO / "src")), cwd=REPO,
    )
    if check.returncode != 0:
        raise SystemExit("FAIL: obs-report --check rejected the snapshot")

    # The rotated trace must read back as ONE stitched timeline
    # covering every incarnation: three daemon processes wrote
    # segments, two of them died by SIGKILL mid-span, and the lenient
    # reader has to survive the torn tails and keep all pids visible.
    try:
        records = read_trace_segments(state_dir / "trace.jsonl")
    except ObservabilityError as error:
        raise SystemExit(f"FAIL: the chaos trace does not read: {error}")
    spans = [r for r in records if r.get("kind") == "span_begin"]
    span_pids = {span["pid"] for span in spans}
    if len(span_pids) < 2:
        raise SystemExit(
            f"FAIL: stitched trace covers only {len(span_pids)} daemon "
            f"incarnation(s); expected spans from the killed ones too"
        )
    if "service.job" not in {span["name"] for span in spans}:
        raise SystemExit("FAIL: stitched trace lacks service.job spans")
    log(
        f"trace: {len(records)} records across "
        f"{len(span_pids)} daemon incarnations"
    )

    leaked = sorted(
        str(path.relative_to(state_dir))
        for path in state_dir.rglob("*.tmp")
    )
    if leaked:
        raise SystemExit(f"FAIL: leaked temp files: {leaked}")
    if (state_dir / "endpoint.json").exists():
        raise SystemExit("FAIL: drained daemon left a stale endpoint file")
    log("PASS: kills survived, verdicts bit-identical, 429 under "
        "saturation, telemetry checks out, no leaks")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--state-dir", default=None,
        help="state directory to use (default: a fresh temp dir)",
    )
    args = parser.parse_args(argv)
    if args.state_dir is not None:
        return drive(Path(args.state_dir))
    tmp = Path(tempfile.mkdtemp(prefix="repro-service-chaos-"))
    try:
        return drive(tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
