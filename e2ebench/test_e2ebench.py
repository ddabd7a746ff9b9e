"""Self-tests of the end-to-end benchmark.

Run from the repository root::

    python3 -m pytest e2ebench -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

from harness import (  # noqa: E402
    SpanRecorder,
    join_spans,
    layer_table,
    run_check,
    self_times,
    tail,
    tail_percentile,
    validate_metric_name,
    validate_unit,
)


# -- tail-percentile rule ------------------------------------------------------


@pytest.mark.parametrize("count, expected", [
    (1, None), (19, None), (20, 50.0), (39, 50.0), (40, 75.0),
    (99, 75.0), (100, 90.0), (199, 90.0), (200, 95.0), (1000, 99.0),
    (10_000, 99.9),
])
def test_tail_percentile_keeps_ten_samples_beyond(count, expected):
    assert tail_percentile(count) == expected


def test_tail_value_is_nearest_rank_and_small_sets_fall_back_to_median():
    values = [float(v) for v in range(1, 101)]
    assert tail(values) == (90.0, 90.0)
    beyond = sum(1 for v in values if v > tail(values)[1])
    assert beyond == 10
    assert tail([3.0, 1.0, 2.0]) == (None, 2.0)


# -- due-time accounting under an injected clock -----------------------------------


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def sleep(self, seconds):
        self.now += seconds


class FakeClient:
    """Submits cost a scripted time on the fake clock; every submitted
    job reads as done."""

    def __init__(self, clock, costs):
        self.clock = clock
        self.costs = costs
        self.submitted = []
        self.status_reads = 0

    def submit(self, spec):
        self.clock.now += self.costs[spec["job_id"]]
        self.submitted.append(spec["job_id"])
        return {"job_id": spec["job_id"], "state": "queued"}

    def job(self, job_id):
        self.status_reads += 1
        if job_id not in self.submitted:
            return None
        return {"job_id": job_id, "state": "done"}


def test_latency_counts_from_due_time_when_the_generator_stalls():
    from workload_serve import JobTiming, due_times, poll_once, submit_schedule

    clock = FakeClock()
    specs = [{"job_id": f"j{i}"} for i in range(3)]
    client = FakeClient(clock, {"j0": 0.01, "j1": 0.35, "j2": 0.01})
    timings = [
        JobTiming(spec["job_id"], due)
        for spec, due in zip(specs, due_times(0.0, 10.0, len(specs)))
    ]
    submit_schedule(client, specs, timings, clock, clock.sleep, SpanRecorder())
    # j1's slow submit pushes j2 past its due time (0.2 s) to 0.45 s.
    assert [t.sent for t in timings] == pytest.approx([0.0, 0.1, 0.45])
    assert timings[2].lag == pytest.approx(0.25)
    assert timings[1].ack_latency == pytest.approx(0.35)

    clock.now = 1.0
    pending = {t.job_id: t for t in timings}
    poll_once(client, pending, clock, SpanRecorder())
    assert not pending
    assert client.status_reads == 3  # one read per completion, in order
    # Verdict latency runs from the due time, so the stall counts.
    assert [t.verdict_latency for t in timings] == pytest.approx([1.0, 0.9, 0.8])
    assert timings[2].seen - timings[2].sent == pytest.approx(0.55)


# -- metric names --------------------------------------------------------------


@pytest.mark.parametrize("name", [
    "wall_s", "layer.fleet.self_s", "a-b", "9x", "x" * 64,
])
def test_legal_metric_names(name):
    assert validate_metric_name(name) == name


@pytest.mark.parametrize("name", [
    "", "_x", ".x", "-x", "a b", "a/b", "a%", "é", "x" * 65, None,
])
def test_illegal_metric_names(name):
    with pytest.raises(ValueError):
        validate_metric_name(name)


def test_benchmark_json_metrics_are_legal_and_unique():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    names += [w["name"] for w in bench["workloads"]]
    assert len(names) == len(set(names))
    for metric in bench["end_to_end"] + bench["per_layer"]:
        validate_metric_name(metric["name"])
        validate_unit(metric["unit"])
    assert "setup_s" in {m["name"] for m in bench["end_to_end"]}


# -- output checks ---------------------------------------------------------------


def test_an_oracle_that_raises_fails_its_check_without_ending_the_run():
    def oracle():
        raise OverflowError("math range error")

    assert run_check("precision", oracle) == {
        "name": "precision", "ok": False,
        "detail": "OverflowError: math range error"}
    assert run_check("parity", lambda: (True, "3 rows"))["ok"] is True


# -- self time -------------------------------------------------------------------


def _span(span_id, name, t0, t1, parent=None, pid=1):
    begin = {"kind": "span_begin", "name": name, "span": span_id, "pid": pid,
             "ts": t0}
    if parent is not None:
        begin["parent"] = parent
    end = {"kind": "span_end", "name": name, "span": span_id, "pid": pid,
           "ts": t1}
    return [begin, end]


def test_self_time_subtracts_the_union_of_children():
    records = (
        _span(1, "core.outer", 0.0, 10.0)
        + _span(2, "testing.a", 1.0, 4.0, parent=1)
        + _span(3, "testing.b", 3.0, 5.0, parent=1)  # overlaps a
        + _span(4, "fleet.c", 9.0, 12.0, parent=1)  # runs past the parent
    )
    spans = join_spans(records)
    assert dict(self_times(spans)) == pytest.approx(
        {"core.outer": 10.0 - 4.0 - 1.0, "testing.a": 3.0, "testing.b": 2.0,
         "fleet.c": 3.0})
    table = layer_table(spans, wall_s=10.0)
    assert table["testing"]["self_s"] == pytest.approx(5.0)
    assert table["testing"]["calls"] == 2
    assert table["core"]["share"] == pytest.approx(0.5)


# -- reduced-size smoke runs ---------------------------------------------------------


def _traced():
    from repro.obs import Observability

    return SpanRecorder.in_memory(), Observability.in_memory()


def test_study_smoke(tmp_path):
    import workload_study as study

    ctx = study.setup()
    rec, obs = _traced()
    out = study.run_pass(ctx, 3, 0, rec, obs, tmp_path, fleet_cpus=20_000,
                         catalog_names=["MIX1", "FPU1"])
    assert out.counts()["fleet.faulty_cpus"] == len(out.fleet.faulty) > 0
    checks = study.check(ctx, 3, out, tmp_path)
    assert checks and all(c["ok"] for c in checks), checks
    names = {s["name"] for s in join_spans(rec.records)}
    assert {"fleet.generate_fleet", "resilience.step",
            "testing.run_at_fixed_temperature"} <= names


def test_farron_smoke(tmp_path):
    import workload_farron as farron

    ctx = farron.setup()
    rec, obs = _traced()
    out = farron.run_pass(ctx, 3, 0, rec, obs, lanes=6, faulty_lanes=2,
                          fleet_cpus=20_000, online_hours=0.25)
    assert out.counts()["testing.lanes"] == 6
    checks = farron.check(ctx, 3, out, tmp_path)
    assert checks and all(c["ok"] for c in checks), checks


def test_serve_smoke(tmp_path):
    import workload_serve as serve
    from repro.testing import build_library

    env = serve.daemon_env(ROOT, tmp_path)
    daemon = serve.Daemon(ROOT, tmp_path / "state", env)
    try:
        specs = [dict(spec, total_processors=2000)
                 for spec in serve.job_specs(5, 4)]
        loop = serve.run_open_loop(daemon.client, specs, rate=8.0,
                                   poll_s=serve.POLL_S, rec=SpanRecorder())
        samples = serve.scrape(daemon.client)
        verdicts = serve.fetch_verdicts(daemon.client, loop["timings"])
    finally:
        daemon.stop()
    assert daemon.proc.returncode is not None
    summary = serve.summarize(loop)
    assert summary["done"] == 4 and summary["refused"] == 0
    assert serve.metric_total(samples, "repro_service_journal_appends_total") == 12
    checks = serve.check(specs, verdicts, build_library())
    assert len(checks) == 4 and all(c["ok"] for c in checks)


def test_without_program_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "e2ebench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "e2ebench/run.py", "--workload", "study",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
        env={"PATH": "/usr/bin:/bin"},
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
