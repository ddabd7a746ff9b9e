"""Closed-loop runner shared by the `study` and `farron` workloads.

One caller runs passes back to back for the run's window.  Untraced
runs (``--trace 0``) time the passes with no spans and no telemetry and
measure ``setup_s`` from fresh processes.  Traced runs (``--trace 1``)
alternate untraced and traced passes: a traced pass records the
benchmark's spans around each public call and hands ``obs=`` to the
calls that take it, and the untraced passes of the same run give the
tracing overhead, pair by pair on the same inputs.
"""

from __future__ import annotations

import gc
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List

from harness import (
    SpanRecorder,
    digest,
    join_spans,
    layer_metrics,
    layer_table,
    span_totals,
    timed_passes,
    top_layers,
)

#: Fresh-process set-ups timed per untraced run for ``setup_s``.
SETUP_REPEATS = 3
#: A pass counts toward goodput when it returns within this many
#: seconds (about twice the median pass on a 2-core host).
GOODPUT_LIMIT_S = {"study": 15.0, "farron": 15.0}


def measure_setup(root: Path, module_name: str, env: Dict[str, str]) -> float:
    """Seconds from spawning a fresh interpreter until it has imported
    the workload and built its library and catalog."""
    started = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(root / "e2ebench" / "setup_probe.py"), module_name],
        cwd=root, env=env, stdout=subprocess.PIPE, text=True,
    )
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - started
    finally:
        proc.stdout.close()
        proc.wait(timeout=120)
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {line!r}")
    return elapsed


def run(module, name: str, root: Path, seed: int, seconds: float, trace: int,
        scratch: Path, env: Dict[str, str]) -> Dict[str, object]:
    setup_samples: List[float] = []
    if not trace:
        setup_samples = [
            measure_setup(root, module.__name__, env)
            for _ in range(SETUP_REPEATS)
        ]
    ctx = module.setup()

    untraced: List[float] = []
    traced: List[Dict[str, object]] = []
    latest: List[object] = []
    pass0: Dict[str, object] = {}

    def one_pass(index: int) -> None:
        # Every pass starts from the same heap: the previous pass's
        # outputs are released and collected before the clock starts.
        latest.clear()
        gc.collect()
        tracing = bool(trace) and index % 2 == 1
        rec = SpanRecorder.in_memory() if tracing else SpanRecorder()
        obs = library_spans = None
        if tracing:
            from repro.obs import MetricsRegistry, Observability
            from repro.obs.tracing import ListTraceSink, Tracer

            library_spans = ListTraceSink()
            obs = Observability(MetricsRegistry(), Tracer(library_spans))
        # Traced runs pair each traced pass with the untraced pass
        # before it on the same inputs.
        lot = index // 2 if trace else index
        began = time.perf_counter()
        out = module.run_pass(ctx, seed, lot, rec, obs, scratch)
        if obs is not None:
            with rec.span("obs.to_prometheus_text"):
                obs.metrics.to_prometheus_text()
        duration = time.perf_counter() - began
        latest.append(out)
        if index == 0:
            pass0["digest"] = digest(out.digest_view())
            pass0["counts"] = out.counts()
        if not tracing:
            untraced.append(duration)
            return
        spans = join_spans(rec.records)
        traced.append({
            "duration": duration,
            "spans": spans,
            "values": module.layer_values(span_totals(spans), out),
            "counts": out.counts(),
            "library_spans": len(join_spans(library_spans.records)),
            "rec": rec,
        })

    if trace:
        # One untimed pass first, so neither side of the first
        # traced/untraced pair carries the process's warm-up.
        module.run_pass(ctx, seed, 0, SpanRecorder(), None, scratch)
    count = timed_passes(
        seconds, one_pass, min_passes=2 if trace else module.MIN_PASSES)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    checks = module.check(ctx, seed, latest[0], scratch)
    failed_checks = sum(not c["ok"] for c in checks)
    details: Dict[str, object] = {
        "passes": count,
        "untraced_pass_s": untraced,
        "digest": pass0["digest"],
        "counts_pass0": pass0["counts"],
        "checks": checks,
        "inputs": module.INPUTS,
    }
    result = {
        "attempted": count + len(checks),
        "failed": failed_checks,
        "details": details,
    }

    if not trace:
        limit = GOODPUT_LIMIT_S[name]
        good = sum(1 for d in untraced if d <= limit)
        details.update({
            "setup_samples_s": setup_samples,
            "goodput_limit_s": limit,
        })
        result["metrics"] = {
            "setup_s": statistics.median(setup_samples),
            "wall_s": statistics.median(untraced),
            "peak_rss_mb": peak_rss_mb,
            "goodput_jobs_per_s": good / sum(untraced),
        }
        return result

    # Per-layer figures: times from the median traced pass, counts from
    # the first traced pass (the same lot for a given seed).
    wall = sum(t["duration"] for t in traced)
    table = layer_table([s for t in traced for s in t["spans"]], wall)
    for row in table.values():
        row["self_s"] /= len(traced)
        row["calls"] /= len(traced)
    rows = [t["values"] for t in traced]
    metrics: Dict[str, object] = {
        key: statistics.median(row[key] for row in rows) for key in rows[0]
    }
    metrics.update(traced[0]["counts"])
    metrics.update(layer_metrics(table))
    metrics["obs.overhead_share"] = statistics.median(
        t["duration"] / u for t, u in zip(traced, untraced)
    ) - 1.0
    metrics["obs.spans"] = len(traced[0]["spans"]) + traced[0]["library_spans"]
    details.update({
        "traced_pass_s": [t["duration"] for t in traced],
        "layers": table,
        "top_layers": top_layers(table),
    })
    traced[0]["rec"].write(scratch / "bench-trace.jsonl")
    result["metrics"] = metrics
    return result
