#!/usr/bin/env python
"""CI chaos drill for the ``repro serve`` daemon.

Launches a real daemon subprocess, drives concurrent traffic at it,
SIGKILLs and restarts it twice mid-campaign, and then asserts the full
robustness contract in one pass:

* every acknowledged job survives the kills and reaches ``done``;
* the reference job's verdict is bit-identical to a direct in-process
  :class:`~repro.resilience.campaign.ResilientCampaign` run;
* a deliberately saturated admission queue answers 429 + Retry-After
  without crashing the daemon or losing any acknowledged job;
* the final graceful drain leaves a metrics snapshot that passes
  ``repro obs-report --check``;
* the ``service_backlog`` health alert fires off the scrape history
  while admission is saturated and resolves once the queue drains;
* ``/timeseries`` history survives both SIGKILLs (the restarted
  incarnation restores the flushed store instead of starting empty);
* ``repro trace-export`` stitches the rotated trace segments from all
  three daemon incarnations — torn tails included — into one Chrome
  trace with spans from at least two pids;
* the state directory holds no leaked ``*.tmp`` files and the drained
  daemon leaves no stale endpoint file.

Exit status 0 means the drill passed.  Run from the repo root::

    PYTHONPATH=src python scripts/service_chaos.py
"""

import argparse
import json
import os
import shutil
import signal
import socket
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO / "src"))

from repro.resilience import CampaignSpec, ResilientCampaign  # noqa: E402
from repro.service import Rejected, ServiceClient  # noqa: E402
from repro.testing import build_library  # noqa: E402

SPEC = dict(
    total_processors=2500,
    fleet_seed=9,
    pipeline_seed=13,
    failure_rate_scale=80.0,
    shard_size=4,
)

#: Per-shard chaos delay keeps the reference campaign in flight long
#: enough for both SIGKILLs to land mid-campaign deterministically.
SLOW_CHAOS = {"schedule": {str(shard): ["delay"] for shard in range(64)}}


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
        # Mission-control surface under drill: fast scrapes so alerts
        # react within the chaos window, rotating stitched trace so the
        # export below spans every SIGKILLed incarnation.
        "--scrape-interval", "0.2",
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


def _alert(client: ServiceClient, name: str) -> dict | None:
    try:
        doc = client.alerts()
    except Exception:
        return None
    for alert in doc.get("alerts", ()):
        if alert["name"] == name:
            return alert
    return None


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
        ack = client.submit(dict(SPEC, job_id="reference", chaos=SLOW_CHAOS))
        acked.append(ack["job_id"])
        log(f"acked reference (seq {ack['seq']})")
        rejections = 0
        for index in range(max_queue + 8):
            try:
                ack = client.submit(
                    dict(SPEC, job_id=f"filler-{index}", chaos=SLOW_CHAOS)
                )
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

        # The health engine must notice the backlog the saturation
        # created: service_backlog fires off the scrape history, not a
        # point-in-time probe, so give the 0.2 s loop a few ticks.
        deadline = time.monotonic() + 15.0
        while time.monotonic() < deadline:
            backlog = _alert(client, "service_backlog")
            if backlog is not None and backlog["fired_count"] >= 1:
                break
            time.sleep(0.2)
        else:
            raise SystemExit(
                "FAIL: service_backlog alert never fired under saturation"
            )
        log("health: service_backlog alert fired under saturation")

        # Two SIGKILL + restart rounds mid-campaign.
        last_restart_wall = None
        for round_index in (1, 2):
            time.sleep(0.3)
            daemon.send_signal(signal.SIGKILL)
            daemon.wait(timeout=60)
            if daemon.returncode != -signal.SIGKILL:
                raise SystemExit(
                    f"FAIL: expected SIGKILL death, got {daemon.returncode}"
                )
            log(f"SIGKILL round {round_index}: daemon dead, restarting")
            last_restart_wall = time.time()
            daemon = start_daemon(state_dir, max_queue)
            client = wait_ready(state_dir)
            for job_id in acked:
                if client.job(job_id) is None:
                    raise SystemExit(
                        f"FAIL: acknowledged job {job_id} lost by SIGKILL"
                    )
            log(
                f"SIGKILL round {round_index}: all {len(acked)} acked "
                f"jobs survived"
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

        # History must span the last SIGKILL: the restarted incarnation
        # restores the flushed timeseries.json instead of starting from
        # an empty store.
        history = client.timeseries(tier="1s")
        oldest = min(
            (points[0][0] for points in history["series"].values()
             if points),
            default=None,
        )
        if oldest is None or oldest >= last_restart_wall:
            raise SystemExit(
                "FAIL: /timeseries history does not predate the last "
                f"restart (oldest {oldest}, restart {last_restart_wall})"
            )
        log("timeseries: scrape history survived both SIGKILLs")

        # The backlog alert must have resolved once the queue drained.
        deadline = time.monotonic() + 15.0
        while time.monotonic() < deadline:
            backlog = _alert(client, "service_backlog")
            if backlog is not None and not backlog["firing"]:
                break
            time.sleep(0.2)
        else:
            raise SystemExit(
                "FAIL: service_backlog alert still firing after drain"
            )
        log("health: service_backlog alert resolved after recovery")

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

    # The rotated trace must export as ONE stitched timeline covering
    # every incarnation: three daemon processes wrote segments, two of
    # them died by SIGKILL mid-span, and the export has to survive the
    # torn tails and keep all pids visible.
    chrome_out = state_dir / "trace.chrome.json"
    export = subprocess.run(
        [
            sys.executable, "-m", "repro", "trace-export",
            str(state_dir / "trace.jsonl"), "--out", str(chrome_out),
        ],
        env=dict(os.environ, PYTHONPATH=str(REPO / "src")), cwd=REPO,
    )
    if export.returncode != 0:
        raise SystemExit("FAIL: trace-export rejected the chaos trace")
    events = json.loads(chrome_out.read_text())["traceEvents"]
    span_pids = {
        event["pid"] for event in events if event["ph"] in ("X", "B")
    }
    if len(span_pids) < 2:
        raise SystemExit(
            f"FAIL: stitched trace covers only {len(span_pids)} daemon "
            f"incarnation(s); expected spans from the killed ones too"
        )
    names = {event["name"] for event in events if event["ph"] in ("X", "B")}
    if "service.job" not in names:
        raise SystemExit("FAIL: stitched trace lacks service.job spans")
    log(
        f"trace-export: {len(events)} events across "
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
