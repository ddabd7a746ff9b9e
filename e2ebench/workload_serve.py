"""`serve`: open-loop traffic against a real `repro serve` daemon.

A child daemon runs with default flags on a fresh state directory.
One generator process with two threads and at most two connections
drives it: the submitter thread sends uniform mid-size jobs at a fixed
rate, each with its own fleet seed, and the poller thread reads the
oldest unfinished job at a fixed interval until every verdict is
visible.  A 10k-CPU
fleet at scale 40 holds ~145 faulty CPUs, above the daemon's 64-CPU
granule, so default flags run every job on the process pool.

Latency is timed from each job's *due* time, not from when it was sent,
so a stalled generator shows up as latency (and as ``generator.lag``)
instead of silently lowering the offered load.  The poll interval is
the latency resolution; it is one request per interval plus one per
completion, whatever the backlog, and it is not a divisor of the
arrival interval, so completions do not alias onto poll ticks.  The daemon's ``/metrics`` is scraped once, after the last
verdict.

The repo holds no production traffic, so the job mix is an assumption:
uniform jobs keep the percentiles steady.
"""

from __future__ import annotations

import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional

from repro.errors import ServiceError
from repro.service import Rejected, ServiceClient, read_endpoint

from harness import (
    SpanRecorder,
    digest,
    join_spans,
    layer_metrics,
    layer_table,
    percentile,
    run_check,
    span_totals,
    tail,
    top_layers,
)

JOB_CPUS = 10_000
JOB_FAILURE_RATE_SCALE = 40.0
#: Offered load, about half the capacity measured on a 2-core host
#: (see README: the rate sweep that derived it).
RATE_PER_S = 4.0
#: A verdict counts toward goodput when it is visible within this many
#: seconds of its due time: well above the slowest verdicts seen at
#: RATE_PER_S under heavy hypervisor steal (~0.7 s), below the median
#: once the backlog grows (~1.6-1.8 s).
GOODPUT_LIMIT_S = 1.0
#: Poll interval, the generator's latency resolution.  Not a divisor
#: of the 250 ms arrival interval: a commensurate tick made every
#: latency round up by the same phase, so the median jumped by a whole
#: tick from run to run.
POLL_S = 0.023
#: Daemon spawns per run for setup_s; the last one serves the run.
SETUP_REPEATS = 3
READY_TIMEOUT_S = 60.0
#: How long the poller waits past the last due time for stragglers.
DRAIN_TIMEOUT_S = 60.0

INPUTS = {
    "job": {
        "total_processors": JOB_CPUS,
        "failure_rate_scale": JOB_FAILURE_RATE_SCALE,
        "fleet_seed": "seed * 100000 + job index",
        "pipeline_seed": "seed",
    },
    "rate_per_s": RATE_PER_S,
    "goodput_limit_s": GOODPUT_LIMIT_S,
    "poll_interval_s": POLL_S,
    "daemon_flags": "defaults (repro serve --state-dir DIR)",
    "traffic_mix": "uniform jobs; an assumption, the repo holds no "
                   "production traffic",
}


def job_specs(seed: int, count: int) -> List[Dict[str, object]]:
    return [
        {
            "job_id": f"e2e-{seed}-{index:05d}",
            "total_processors": JOB_CPUS,
            "failure_rate_scale": JOB_FAILURE_RATE_SCALE,
            "fleet_seed": seed * 100_000 + index,
            "pipeline_seed": seed,
        }
        for index in range(count)
    ]


# -- the daemon --------------------------------------------------------------


class Daemon:
    """One `repro serve` child; ``ready_s`` is spawn until /readyz."""

    def __init__(self, root: Path, state_dir: Path, env: Dict[str, str],
                 trace_out: Optional[Path] = None):
        shutil.rmtree(state_dir, ignore_errors=True)
        state_dir.mkdir(parents=True)
        self.state_dir = state_dir
        cmd = [sys.executable, "-m", "repro", "serve",
               "--state-dir", str(state_dir)]
        if trace_out is not None:
            cmd += ["--trace-out", str(trace_out)]
        self._log = open(state_dir.parent / f"{state_dir.name}.log", "wb")
        started = time.perf_counter()
        self.proc = subprocess.Popen(
            cmd, cwd=root, env=env,
            stdout=subprocess.DEVNULL, stderr=self._log,
        )
        try:
            deadline = started + READY_TIMEOUT_S
            while True:
                if self.proc.poll() is not None:
                    raise RuntimeError(
                        f"daemon exited with {self.proc.returncode} "
                        f"before it was ready"
                    )
                if time.perf_counter() > deadline:
                    raise RuntimeError("daemon not ready in time")
                try:
                    host, port, pid = read_endpoint(state_dir)
                except ServiceError:
                    pid = None
                if pid == self.proc.pid:
                    self.client = ServiceClient(host, port)
                    if self.client.readyz():
                        break
                time.sleep(0.005)
            self.ready_s = time.perf_counter() - started
        except BaseException:
            self.stop()
            raise

    def peak_rss_mb(self) -> float:
        status = Path(f"/proc/{self.proc.pid}/status").read_text()
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def stop(self) -> None:
        """SIGTERM (graceful drain), then wait; SIGKILL if it hangs."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=60)
        self._log.close()


# -- the open-loop generator ---------------------------------------------------


@dataclass
class JobTiming:
    job_id: str
    due: float
    sent: Optional[float] = None
    acked: Optional[float] = None
    seen: Optional[float] = None
    #: Written by the submitter thread only: unsent|refused|error|accepted.
    submit_state: str = "unsent"
    #: Written by the poller thread only: None until done|failed is seen.
    outcome: Optional[str] = None

    @property
    def lag(self) -> float:
        return self.sent - self.due

    @property
    def ack_latency(self) -> float:
        return self.acked - self.sent

    @property
    def verdict_latency(self) -> float:
        return self.seen - self.due


def due_times(start: float, rate: float, count: int) -> List[float]:
    return [start + index / rate for index in range(count)]


def submit_schedule(client, specs, timings: List[JobTiming],
                    clock: Callable[[], float], sleep: Callable[[float], None],
                    rec) -> None:
    """Send each job at its due time (never early; late if the previous
    submit overran), recording send and ack times."""
    for spec, timing in zip(specs, timings):
        wait = timing.due - clock()
        if wait > 0:
            sleep(wait)
        timing.sent = clock()
        try:
            with rec.span("service.submit"):
                client.submit(spec)
        except Rejected:
            timing.submit_state = "refused"
            continue
        except (ServiceError, OSError):
            timing.submit_state = "error"
            continue
        timing.acked = clock()
        timing.submit_state = "accepted"


def poll_once(client, pending: Dict[str, JobTiming],
              clock: Callable[[], float], rec) -> None:
    """Read the oldest unfinished job; while it is terminal, record it
    and read the next one.

    The daemon's default single campaign worker finishes jobs in
    submission order, so one request per interval, plus one per
    completion, sees every verdict whatever the backlog.  A job that
    finished out of order is seen with the one before it: late, never
    early.  ``pending`` is ordered by submission.
    """
    while pending:
        job_id, timing = next(iter(pending.items()))
        if timing.submit_state in ("refused", "error"):
            del pending[job_id]
            continue
        if timing.acked is None:
            return
        with rec.span("service.job_status"):
            doc = client.job(job_id)
        seen = clock()
        if doc is None or doc["state"] not in ("done", "failed"):
            return
        timing.seen = seen
        timing.outcome = doc["state"]
        del pending[job_id]


def run_open_loop(client, specs, *, rate: float, poll_s: float, rec,
                  clock: Callable[[], float] = time.monotonic,
                  sleep: Callable[[float], None] = time.sleep,
                  ) -> Dict[str, object]:
    """Drive ``specs`` at ``rate`` and poll until every accepted job is
    terminal or the drain timeout passes; returns timings and counts."""
    start = clock() + 0.05
    timings = [
        JobTiming(spec["job_id"], due)
        for spec, due in zip(specs, due_times(start, rate, len(specs)))
    ]
    pending = {timing.job_id: timing for timing in timings}
    submitted = threading.Event()
    polls = 0
    poll_errors = 0

    def poller():
        nonlocal polls, poll_errors
        give_up = timings[-1].due + DRAIN_TIMEOUT_S
        tick = start
        while pending and not (submitted.is_set() and clock() > give_up):
            tick += poll_s
            wait = tick - clock()
            if wait > 0:
                sleep(wait)
            try:
                poll_once(client, pending, clock, rec)
            except (ServiceError, OSError):
                poll_errors += 1
            polls += 1

    thread = threading.Thread(target=poller, name="e2e-poller", daemon=True)
    thread.start()
    try:
        submit_schedule(client, specs, timings, clock, sleep, rec)
    finally:
        submitted.set()
        thread.join(timeout=DRAIN_TIMEOUT_S + 30)
    if thread.is_alive():
        raise RuntimeError("poller did not finish")
    return {
        "timings": timings, "polls": polls, "poll_errors": poll_errors,
        "first_due": start,
    }


def summarize(loop: Dict[str, object]) -> Dict[str, object]:
    """End-to-end figures of one open-loop pass."""
    timings: List[JobTiming] = loop["timings"]
    accepted = [t for t in timings if t.acked is not None]
    done = [t for t in timings if t.outcome == "done"]
    verdicts = [t.verdict_latency for t in done]
    acks = [t.ack_latency for t in accepted]
    lags = [t.lag for t in timings if t.sent is not None]
    last_seen = max((t.seen for t in done), default=loop["first_due"])
    wall = last_seen - loop["first_due"]
    good = sum(1 for v in verdicts if v <= GOODPUT_LIMIT_S)
    tail_p, tail_v = tail(verdicts) if verdicts else (None, math.nan)
    ack_tail_p, ack_tail_v = tail(acks) if acks else (None, math.nan)
    lag_tail_p, lag_tail_v = tail(lags) if lags else (None, math.nan)
    return {
        "jobs": len(timings),
        "accepted": len(accepted),
        "done": len(done),
        "refused": sum(1 for t in timings if t.submit_state == "refused"),
        "errors": sum(1 for t in timings if t.submit_state == "error"),
        "failed_jobs": sum(1 for t in timings if t.outcome == "failed"),
        "unfinished": sum(
            1 for t in timings if t.acked is not None and t.outcome is None
        ),
        "wall_s": wall,
        "ack_p50_ms": statistics.median(acks) * 1000 if acks else math.nan,
        "ack_tail": (ack_tail_p, ack_tail_v * 1000),
        "verdict_p50_s": statistics.median(verdicts) if verdicts else math.nan,
        "verdict_tail": (tail_p, tail_v),
        "good": good,
        "goodput_jobs_per_s": good / wall if wall > 0 else 0.0,
        "lag_tail": (lag_tail_p, lag_tail_v * 1000),
        "polls": loop["polls"],
        "poll_errors": loop["poll_errors"],
        "verdict_p90_s": percentile(verdicts, 90) if verdicts else math.nan,
    }


# -- scrape, checks, per-layer ---------------------------------------------------


def scrape(client) -> Dict[str, float]:
    """Every sample of one /metrics read, keyed as rendered."""
    from repro.obs.metrics import parse_prometheus_text

    samples: Dict[str, float] = {}
    for entry in parse_prometheus_text(client.metrics_text()).values():
        samples.update(entry["samples"])
    return samples


def metric_total(samples: Dict[str, float], name: str, label: str = "") -> float:
    """Sum of ``name``'s samples whose labels contain ``label``."""
    total = 0.0
    for key, value in samples.items():
        base, _, labels = key.partition("{")
        if base == name and label in labels:
            total += value
    return total


def fetch_verdicts(client, timings: List[JobTiming]) -> Dict[str, dict]:
    return {
        t.job_id: client.verdict(t.job_id)
        for t in timings if t.outcome == "done"
    }


def check(specs, verdicts: Dict[str, dict], library) -> List[Dict[str, object]]:
    """Every verdict against an in-process ResilientCampaign."""
    from repro.resilience import CampaignSpec, ResilientCampaign

    checks = []
    for spec in specs:
        job_id = spec["job_id"]
        if job_id not in verdicts:
            continue
        fields = {k: v for k, v in spec.items() if k != "job_id"}

        def compare():
            campaign = ResilientCampaign.from_spec(
                CampaignSpec(**fields), library)
            campaign.run()
            return (
                campaign.result.to_dict() == verdicts[job_id]["result"],
                f"{len(campaign.result.detections)} detections",
            )

        checks.append(run_check(
            f"verdict {job_id} == in-process ResilientCampaign", compare))
    return checks


def faulty_cpus(verdicts: Dict[str, dict]) -> int:
    return sum(
        len(doc["result"]["detections"]) + len(doc["result"]["undetected"])
        for doc in verdicts.values()
    )


def queue_wait_p50(daemon_spans, timings: List[JobTiming]) -> float:
    """Median of (daemon ``service.job`` span start − client ack).

    Both ends read CLOCK_MONOTONIC, which Linux shares across
    processes, so the difference is the job's wait in the queue."""
    acked = {t.job_id: t.acked for t in timings if t.acked is not None}
    waits = [
        item["t0"] - acked[item["attrs"].get("job")]
        for item in daemon_spans
        if item["name"] == "service.job" and item["attrs"].get("job") in acked
    ]
    return statistics.median(waits) if waits else 0.0


def daemon_layer_values(samples: Dict[str, float], wall_s: float) -> Dict[str, float]:
    shard_s = metric_total(samples, "repro_service_shard_seconds_sum")
    return {
        "service.http_submit_s": metric_total(
            samples, "repro_service_http_request_seconds_sum",
            'route="/submit"'),
        "service.journal_append_s": metric_total(
            samples, "repro_service_journal_append_seconds_sum"),
        "service.journal_appends": metric_total(
            samples, "repro_service_journal_appends_total"),
        "service.shard_s": shard_s,
        "service.busy_share": shard_s / wall_s if wall_s > 0 else 0.0,
        "perf.parallel_lower_s": metric_total(
            samples, "repro_parallel_lower_seconds_sum"),
        "perf.parallel_tasks": metric_total(
            samples, "repro_parallel_tasks_total"),
        "fleet.range_s": metric_total(
            samples, "repro_campaign_range_seconds_sum"),
        "resilience.checkpoint_saves": metric_total(
            samples, "repro_checkpoint_total", 'op="save"'),
        "resilience.shards": metric_total(
            samples, "repro_service_shard_seconds_count"),
    }


def filesystem_of(path: Path) -> str:
    """The filesystem type mounted under ``path`` (from /proc/mounts)."""
    path = path.resolve()
    best, fstype = "", "unknown"
    try:
        lines = Path("/proc/mounts").read_text().splitlines()
    except OSError:
        return fstype
    for line in lines:
        parts = line.split()
        if len(parts) < 3:
            continue
        mount = parts[1]
        if (str(path) == mount or str(path).startswith(mount.rstrip("/") + "/")) \
                and len(mount) > len(best):
            best, fstype = mount, parts[2]
    return f"{fstype} at {best}"


def daemon_env(root: Path, tmp: Path) -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    env["TMPDIR"] = str(tmp)
    return env


# -- the workload ------------------------------------------------------------


def _drive(daemon, specs, rec) -> Dict[str, object]:
    """One open-loop pass, then the single scrape and the verdicts."""
    loop = run_open_loop(daemon.client, specs, rate=RATE_PER_S,
                         poll_s=POLL_S, rec=rec)
    return {
        "loop": loop,
        "summary": summarize(loop),
        "samples": scrape(daemon.client),
        "verdicts": fetch_verdicts(daemon.client, loop["timings"]),
    }


def _failures(summary: Dict[str, object]) -> int:
    return (summary["refused"] + summary["errors"] + summary["failed_jobs"]
            + summary["unfinished"])


def run(root: Path, seed: int, seconds: float, trace: int, scratch: Path,
        env: Dict[str, str]) -> Dict[str, object]:
    from repro.testing import build_library

    daemon = None
    try:
        if not trace:
            ready = []
            for index in range(SETUP_REPEATS):
                if daemon is not None:
                    daemon.stop()
                daemon = Daemon(root, scratch / f"state-{index}", env)
                ready.append(daemon.ready_s)
            specs = job_specs(seed, max(1, round(RATE_PER_S * seconds)))
            runs = [_drive(daemon, specs, SpanRecorder())]
            peak_rss_mb = daemon.peak_rss_mb()
        else:
            # Half the window untraced, half traced, same jobs in each.
            specs = job_specs(seed, max(1, round(RATE_PER_S * seconds / 2)))
            daemon = Daemon(root, scratch / "state-untraced", env)
            runs = [_drive(daemon, specs, SpanRecorder())]
            daemon.stop()
            trace_out = scratch / "daemon-trace.jsonl"
            daemon = Daemon(root, scratch / "state-traced", env,
                            trace_out=trace_out)
            rec = SpanRecorder.in_memory()
            runs.append(_drive(daemon, specs, rec))
    finally:
        if daemon is not None:
            daemon.stop()

    library = build_library()
    checks = check(specs, runs[-1]["verdicts"], library)
    for other in runs[:-1]:
        checks.append(run_check("untraced verdicts == traced verdicts", lambda: (
            other["verdicts"] == runs[-1]["verdicts"], "")))
    summary = runs[-1]["summary"]
    samples = runs[-1]["samples"]
    details: Dict[str, object] = {
        "summaries": [r["summary"] for r in runs],
        "checks": checks,
        "digest": digest({k: v["result"] for k, v in runs[-1]["verdicts"].items()}),
        "inputs": INPUTS,
        "jobs_per_pass": len(specs),
        "state_dir_filesystem": filesystem_of(daemon.state_dir),
        "repro_service_core_budget": metric_total(
            samples, "repro_service_core_budget"),
        "verdict_tail_percentile": summary["verdict_tail"][0],
        "latency_resolution_s": POLL_S,
    }
    result = {
        "attempted": sum(r["summary"]["jobs"] for r in runs) + len(checks),
        "failed": sum(_failures(r["summary"]) for r in runs)
        + sum(not c["ok"] for c in checks),
        "details": details,
    }
    if not trace:
        details["setup_samples_s"] = ready
        result["metrics"] = {
            "setup_s": statistics.median(ready),
            "wall_s": summary["wall_s"],
            "peak_rss_mb": peak_rss_mb,
            "goodput_jobs_per_s": summary["goodput_jobs_per_s"],
        }
        return result

    from repro.obs import read_trace_segments

    daemon_spans = join_spans(read_trace_segments(trace_out))
    bench_spans = join_spans(rec.records)
    table = layer_table(bench_spans + daemon_spans, summary["wall_s"])
    metrics: Dict[str, object] = daemon_layer_values(samples, summary["wall_s"])
    # Latency figures come from the untraced half of the run.
    untraced = runs[0]["summary"]
    details["untraced_verdict_tail_percentile"] = untraced["verdict_tail"][0]
    metrics.update({
        "ack_p50_ms": untraced["ack_p50_ms"],
        "verdict_p50_s": untraced["verdict_p50_s"],
        "verdict_tail_s": untraced["verdict_tail"][1],
        "fleet.faulty_cpus": faulty_cpus(runs[-1]["verdicts"]),
        "service.submit_s": span_totals(bench_spans).get("service.submit", 0.0),
        "service.ack_tail_ms": summary["ack_tail"][1],
        "service.queue_wait_p50_s": queue_wait_p50(
            daemon_spans, runs[-1]["loop"]["timings"]),
        "service.accepted_share": summary["accepted"] / summary["jobs"],
        "generator.lag_tail_ms": summary["lag_tail"][1],
        "generator.polls": summary["polls"],
        "obs.overhead_share": (
            summary["verdict_p50_s"] / untraced["verdict_p50_s"] - 1.0),
        "obs.spans": len(daemon_spans) + len(bench_spans),
    })
    metrics.update(layer_metrics(table))
    details.update({"layers": table, "top_layers": top_layers(table)})
    rec.write(scratch / "bench-trace.jsonl")
    result["metrics"] = metrics
    return result


def rate_sweep(root: Path, seed: int, rates: List[float], seconds: float,
               scratch: Path) -> List[Dict[str, object]]:
    """Open-loop passes at each rate on a fresh daemon: the measurement
    RATE_PER_S and GOODPUT_LIMIT_S were derived from."""
    env = daemon_env(root, scratch)
    rows = []
    for rate in rates:
        daemon = Daemon(root, scratch / f"sweep-{rate:g}", env)
        try:
            specs = job_specs(seed, max(1, round(rate * seconds)))
            loop = run_open_loop(daemon.client, specs, rate=rate,
                                 poll_s=POLL_S, rec=SpanRecorder())
        finally:
            daemon.stop()
        summary = summarize(loop)
        timings = [t for t in loop["timings"] if t.outcome == "done"]
        half = len(timings) // 2
        rows.append({
            "rate_per_s": rate,
            "jobs": summary["jobs"],
            "done": summary["done"],
            "verdict_p50_s": summary["verdict_p50_s"],
            "verdict_p90_s": summary["verdict_p90_s"],
            # A growing backlog shows as later jobs waiting longer.
            "p50_first_half_s": statistics.median(
                t.verdict_latency for t in timings[:half]),
            "p50_second_half_s": statistics.median(
                t.verdict_latency for t in timings[half:]),
        })
    return rows


if __name__ == "__main__":
    import argparse
    import json

    parser = argparse.ArgumentParser(
        description="Rate sweep behind RATE_PER_S (run from the repo root "
                    "with PYTHONPATH=src)")
    parser.add_argument("--rates", default="2,4,6,8,10,12")
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    root = Path(__file__).resolve().parent.parent
    scratch = root / ".e2ebench" / "sweep"
    scratch.mkdir(parents=True, exist_ok=True)
    rows = rate_sweep(root, args.seed,
                      [float(r) for r in args.rates.split(",")],
                      args.seconds, scratch)
    print(json.dumps(rows, indent=1))
