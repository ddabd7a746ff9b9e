"""Fleet-scale telemetry: registry, tracing, and instrumentation hooks.

The load-bearing contract is the last section: enabling telemetry must
never change a campaign's results — detections, undetected lists, and
the exact CountedStream position are bit-identical with ``obs`` on or
off, for both engines and multiple seeds — and the recorded totals must
equal the campaign's results exactly.
"""

import json
import logging
import zlib

import pytest

from repro.cli import main
from repro.errors import ObservabilityError, TraceCorruptError
from repro.fleet import (
    FleetSpec,
    TestPipeline,
    VectorizedTestPipeline,
    generate_fleet,
)
from repro.obs import (
    DEFAULT_BUCKETS,
    JsonlTraceSink,
    ListTraceSink,
    MetricsRegistry,
    Observability,
    Tracer,
    check_artifacts,
    iter_spans,
    load_metrics,
    logging_setup,
    parse_prometheus_text,
    read_trace,
    read_trace_segments,
    render_report,
    trace_segment_paths,
)
from repro.resilience import CheckpointStore, ResilientCampaign
from repro.resilience.health import CampaignHealthReport
from repro.sealed import canonical
from repro.testing import BatchScreeningEngine, TestPlan
from repro.testing.framework import PlanEntry


@pytest.fixture(scope="module")
def fleet():
    # ~120 faulty CPUs: several shards at the tested shard sizes.
    return generate_fleet(
        FleetSpec(total_processors=6_000, failure_rate_scale=60.0, seed=9)
    )


# ---------------------------------------------------------------------------
# metrics registry
# ---------------------------------------------------------------------------


class TestMetricsRegistry:
    def test_counter_inc_and_lookup(self):
        registry = MetricsRegistry()
        family = registry.counter("repro_x_total", "help", ("engine",))
        family.labels(engine="scalar").inc()
        family.labels(engine="scalar").inc(2.0)
        family.labels(engine="vectorized").inc(5.0)
        assert registry.value("repro_x_total", engine="scalar") == 3.0
        assert registry.total("repro_x_total") == 8.0
        assert registry.sample_count == 3

    def test_counter_rejects_negative_and_gauge_allows_set(self):
        registry = MetricsRegistry()
        counter = registry.counter("c_total")
        with pytest.raises(ObservabilityError):
            counter.inc(-1.0)
        gauge = registry.gauge("g")
        gauge.set(4.5)
        gauge.set(-2.5)
        assert registry.value("g") == -2.5

    def test_invalid_names_and_labels_rejected(self):
        registry = MetricsRegistry()
        with pytest.raises(ObservabilityError):
            registry.counter("0bad")
        with pytest.raises(ObservabilityError):
            registry.counter("ok_total", "", ("bad-label",))
        with pytest.raises(ObservabilityError):
            registry.counter("ok_total", "", ("__reserved",))

    def test_re_registration_must_match(self):
        registry = MetricsRegistry()
        registry.counter("x_total", "", ("a",))
        registry.counter("x_total", "", ("a",))  # idempotent
        with pytest.raises(ObservabilityError):
            registry.gauge("x_total")
        with pytest.raises(ObservabilityError):
            registry.counter("x_total", "", ("b",))

    def test_histogram_bucket_edges_are_inclusive(self):
        registry = MetricsRegistry()
        family = registry.histogram(
            "h_seconds", buckets=(1.0, 5.0, float("inf"))
        )
        series = family.labels()
        series.observe(1.0)   # == edge → first bucket
        series.observe(1.0001)
        series.observe(5.0)
        series.observe(99.0)  # only +Inf holds it
        snapshot = registry.snapshot()
        row = snapshot["families"][0]["series"][0]
        # Non-cumulative per-bucket counts; the +Inf bucket is implicit
        # in count - sum(finite buckets).
        assert row["bucket_counts"] == [1, 2, 1]
        assert row["count"] == 4
        assert row["sum"] == pytest.approx(1.0 + 1.0001 + 5.0 + 99.0)

    def test_histogram_bucket_normalization(self):
        registry = MetricsRegistry()
        # A finite terminal edge gets +Inf appended automatically...
        family = registry.histogram("h1_seconds", buckets=(1.0, 2.0))
        assert family.buckets == (1.0, 2.0, float("inf"))
        # ...but unsorted or empty layouts are rejected outright.
        with pytest.raises(ObservabilityError):
            registry.histogram(
                "h2_seconds", buckets=(2.0, 1.0, float("inf"))
            )
        with pytest.raises(ObservabilityError):
            registry.histogram("h3_seconds", buckets=())
        assert DEFAULT_BUCKETS[-1] == float("inf")

    def test_merge_rejects_mismatched_metadata(self):
        # A saved document in which two families share a name but not a
        # kind must not load.
        counter = MetricsRegistry()
        counter.counter("m_total")
        gauge = MetricsRegistry()
        gauge.gauge("m_total")
        document = json.loads(counter.to_json())
        payload = document["payload"]
        payload["families"] += gauge.snapshot()["families"]
        document["crc32"] = zlib.crc32(canonical(payload))
        with pytest.raises(ObservabilityError):
            MetricsRegistry.from_json(json.dumps(document))

    def test_json_round_trip_and_crc_detection(self):
        registry = MetricsRegistry()
        registry.counter("n_total", "", ("k",)).labels(k="x").inc(9.0)
        registry.histogram("h_seconds").labels().observe(0.25)
        text = registry.to_json()
        loaded = MetricsRegistry.from_json(text)
        assert loaded.snapshot() == registry.snapshot()
        document = json.loads(text)
        document["payload"]["families"][0]["series"][0]["value"] = 10.0
        with pytest.raises(ObservabilityError):
            MetricsRegistry.from_json(json.dumps(document))

    def test_prometheus_text_round_trip(self):
        registry = MetricsRegistry()
        registry.counter(
            "repro_n_total", "things", ("engine",)
        ).labels(engine="scalar").inc(4.0)
        registry.histogram("repro_h_seconds").labels().observe(0.002)
        text = registry.to_prometheus_text()
        assert "# TYPE repro_n_total counter" in text
        assert "# HELP repro_n_total things" in text
        assert 'repro_n_total{engine="scalar"} 4' in text
        assert 'le="+Inf"' in text
        parsed = parse_prometheus_text(text)
        assert parsed["repro_n_total"]["kind"] == "counter"
        samples = parsed["repro_h_seconds"]["samples"]
        assert samples["repro_h_seconds_count"] == 1.0
        # Cumulative buckets: every bucket at or above 0.0025 sees the
        # observation, including +Inf.
        assert samples['repro_h_seconds_bucket{le="+Inf"}'] == 1.0

    @pytest.mark.parametrize("name", ["m.json", "m.prom"])
    def test_non_utf8_byte_raises_observability_error(self, tmp_path, name):
        registry = MetricsRegistry()
        registry.counter("repro_n_total", "things").labels().inc()
        path = tmp_path / name
        registry.save(path)
        data = bytearray(path.read_bytes())
        data[data.index(b"things") + 1] ^= 0x80
        path.write_bytes(bytes(data))
        with pytest.raises(ObservabilityError):
            load_metrics(path)

    def test_save_sniffs_format_by_suffix(self, tmp_path):
        registry = MetricsRegistry()
        registry.counter("repro_n_total").labels().inc()
        json_path = tmp_path / "m.json"
        prom_path = tmp_path / "m.prom"
        registry.save(json_path)
        registry.save(prom_path)
        assert json_path.read_text().lstrip().startswith("{")
        assert "# TYPE repro_n_total" in prom_path.read_text()
        for path in (json_path, prom_path):
            loaded = load_metrics(path)
            parsed = getattr(loaded, "_parsed_exposition", None)
            names = list(parsed) if parsed is not None else loaded.families()
            assert "repro_n_total" in names


# ---------------------------------------------------------------------------
# tracing
# ---------------------------------------------------------------------------


class TestTracer:
    def test_nesting_and_ordering(self):
        sink = ListTraceSink()
        ticks = iter(range(100))
        tracer = Tracer(sink, clock=lambda: float(next(ticks)))
        with tracer.span("outer", shard=1):
            with tracer.span("inner"):
                tracer.event("tick", n=3)
        kinds = [(r["kind"], r["name"]) for r in sink.records]
        assert kinds == [
            ("span_begin", "outer"),
            ("span_begin", "inner"),
            ("event", "tick"),
            ("span_end", "inner"),
            ("span_end", "outer"),
        ]
        outer_begin, inner_begin, event, inner_end, outer_end = sink.records
        assert "parent" not in outer_begin
        assert inner_begin["parent"] == outer_begin["span"]
        assert event["span"] == inner_begin["span"]
        # Ticks: begin(0), enter(1), begin(2), enter(3), event(4),
        # inner end(5) → dur 5-3, outer end(6) → dur 6-1.
        assert inner_end["dur_s"] == pytest.approx(2.0)
        assert outer_end["dur_s"] == pytest.approx(5.0)
        assert outer_begin["attrs"] == {"shard": 1}

    def test_span_records_error_class_and_propagates(self):
        sink = ListTraceSink()
        tracer = Tracer(sink)
        with pytest.raises(ValueError):
            with tracer.span("boom"):
                raise ValueError("nope")
        end = sink.records[-1]
        assert end["kind"] == "span_end"
        assert end["error"] == "ValueError"

    def test_iter_spans_joins_begin_end(self):
        sink = ListTraceSink()
        tracer = Tracer(sink)
        with tracer.span("a", k="v"):
            pass
        joined = list(iter_spans(sink.records))
        assert len(joined) == 1
        assert joined[0]["name"] == "a"
        assert joined[0]["attrs"] == {"k": "v"}
        assert joined[0]["dur_s"] >= 0.0

    def test_jsonl_round_trip(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        tracer = Tracer(JsonlTraceSink(path))
        with tracer.span("outer"):
            tracer.event("e", x=1)
        tracer.close()
        records = read_trace(path)
        assert [r["kind"] for r in records] == [
            "span_begin", "event", "span_end",
        ]
        assert check_artifacts(trace_path=path) == []

    def test_corrupt_line_raises_strict_and_lax(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        tracer = Tracer(JsonlTraceSink(path))
        with tracer.span("outer"):
            pass
        tracer.close()
        lines = path.read_text().splitlines()
        lines[1] = lines[1].replace("span_begin", "span_break")
        path.write_text("\n".join(lines) + "\n")
        # A corrupt *interior* line is corruption in both modes; only a
        # torn final line is tolerated without strict.
        with pytest.raises(TraceCorruptError):
            read_trace(path, strict=True)
        with pytest.raises(TraceCorruptError):
            read_trace(path)

    def test_torn_tail_tolerated_unless_strict(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        tracer = Tracer(JsonlTraceSink(path))
        with tracer.span("outer"):
            pass
        tracer.close()
        text = path.read_text()
        path.write_text(text[: len(text) - 20])  # tear the last record
        records = read_trace(path)
        assert [r["kind"] for r in records] == ["span_begin"]
        with pytest.raises(TraceCorruptError):
            read_trace(path, strict=True)

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        body = json.dumps({"kind": "event", "name": "x", "ts": 0.0})
        path.write_text(body + "\n")
        with pytest.raises(TraceCorruptError):
            read_trace(path)

    def _trace(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        tracer = Tracer(JsonlTraceSink(path))
        for index in range(3):
            tracer.event("e", index=index)
        tracer.close()
        return path

    def test_cut_inside_header_is_a_torn_tail(self, tmp_path):
        path = self._trace(tmp_path)
        path.write_bytes(path.read_bytes()[:10])
        assert read_trace(path) == []
        with pytest.raises(TraceCorruptError):
            read_trace(path, strict=True)

    def test_merged_final_lines_are_corruption_not_a_torn_tail(
        self, tmp_path
    ):
        path = self._trace(tmp_path)
        data = bytearray(path.read_bytes())
        data[data.rindex(b"\n", 0, len(data) - 1)] ^= 0x20
        path.write_bytes(bytes(data))
        for strict in (False, True):
            with pytest.raises(TraceCorruptError, match="line 3"):
                read_trace(path, strict=strict)

    def test_non_utf8_byte_is_line_damage(self, tmp_path):
        path = self._trace(tmp_path)
        data = bytearray(path.read_bytes())
        data[data.index(b'"index":1') + 3] ^= 0x80
        path.write_bytes(bytes(data))
        for strict in (False, True):
            with pytest.raises(TraceCorruptError, match="line 3"):
                read_trace(path, strict=strict)


# ---------------------------------------------------------------------------
# trace rotation
# ---------------------------------------------------------------------------


class TestSinkRotation:
    def _fill(self, sink, n, start=0):
        for i in range(start, start + n):
            sink.emit({"kind": "event", "name": f"e{i}", "ts": float(i),
                       "pid": 1, "tid": 0, "attrs": {}})
        sink.close()

    def test_rotates_and_numbering_continues_across_incarnations(
        self, tmp_path
    ):
        base = tmp_path / "trace.jsonl"
        sink = JsonlTraceSink(base, max_bytes=1024)
        self._fill(sink, 40)
        first = trace_segment_paths(base)
        assert len(first) > 1
        assert [p.name for p in first][0] == "trace-000001.jsonl"
        assert not base.exists()  # rotating mode never writes the bare file
        # Restart: a new sink extends numbering instead of overwriting.
        sink2 = JsonlTraceSink(base, max_bytes=1024)
        self._fill(sink2, 5, start=40)
        second = trace_segment_paths(base)
        assert len(second) == len(first) + 1
        assert second[: len(first)] == first
        records = read_trace_segments(base)
        assert [r["name"] for r in records] == [f"e{i}" for i in range(45)]

    def test_segment_reader_stitches_bare_file_first(self, tmp_path):
        base = tmp_path / "trace.jsonl"
        legacy = JsonlTraceSink(base)  # non-rotating legacy mode
        self._fill(legacy, 3)
        rotating = JsonlTraceSink(base, max_bytes=1024)
        self._fill(rotating, 2, start=3)
        names = [r["name"] for r in read_trace_segments(base)]
        assert names == ["e0", "e1", "e2", "e3", "e4"]

    def test_torn_tails_tolerated_per_segment(self, tmp_path):
        base = tmp_path / "trace.jsonl"
        sink = JsonlTraceSink(base, max_bytes=1024)
        self._fill(sink, 40)
        paths = trace_segment_paths(base)
        # Tear the final segment AND an earlier one: any segment can be
        # the last write of a SIGKILLed incarnation, so the lax reader
        # drops each torn tail; strict refuses.
        for path in (paths[-1], paths[0]):
            raw = path.read_text()
            path.write_text(raw[:-20])
        survivors = read_trace_segments(base)
        assert 0 < len(survivors) < 40
        with pytest.raises(TraceCorruptError):
            read_trace_segments(base, strict=True)
        # Corruption BEFORE a segment's final line is damage, not a
        # crash artifact — lax still raises.
        lines = paths[1].read_text().splitlines()
        lines[1] = lines[1][:-5]  # mangle a mid-segment record
        paths[1].write_text("\n".join(lines) + "\n")
        with pytest.raises(TraceCorruptError):
            read_trace_segments(base)

    def test_max_bytes_floor(self, tmp_path):
        with pytest.raises(ObservabilityError, match=">= 1024"):
            JsonlTraceSink(tmp_path / "t.jsonl", max_bytes=10)


def _spans_trace(path, rotate_bytes=None, spans=30):
    obs = Observability.create(None, path, trace_rotate_bytes=rotate_bytes)
    for index in range(spans):
        with obs.tracer.span("work", index=index):
            obs.tracer.event("tick")
    obs.close()


class TestObsReportReadsRotatedTraces:
    """``obs-report --trace`` takes the path given to ``--trace-out``,
    whether the sink rotated or not."""

    def test_rotated_trace_reports_like_a_bare_one(self, tmp_path, capsys):
        bare = tmp_path / "bare" / "trace.jsonl"
        rotated = tmp_path / "rotated" / "trace.jsonl"
        bare.parent.mkdir()
        rotated.parent.mkdir()
        _spans_trace(bare)
        _spans_trace(rotated, rotate_bytes=1024)
        assert not rotated.exists()
        assert len(trace_segment_paths(rotated)) > 1
        assert check_artifacts(trace_path=bare) == []
        assert check_artifacts(trace_path=rotated) == []
        for path in (bare, rotated):
            report = render_report(trace_path=path)
            assert "(90 records, 30 point events)" in report
            assert "work  30" in report
        assert main(["obs-report", "--trace", str(rotated)]) == 0
        assert main(["obs-report", "--trace", str(rotated), "--check"]) == 0
        assert "ok: telemetry artifacts validate" in capsys.readouterr().out

    def test_torn_segment_renders_but_fails_check(self, tmp_path):
        base = tmp_path / "trace.jsonl"
        _spans_trace(base, rotate_bytes=1024)
        first = trace_segment_paths(base)[0]
        first.write_bytes(first.read_bytes()[:-7])
        assert "work" in render_report(trace_path=base)
        problems = check_artifacts(trace_path=base)
        assert len(problems) == 1 and "is torn" in problems[0]

    def test_missing_trace_is_still_an_error(self, tmp_path):
        missing = tmp_path / "trace.jsonl"
        with pytest.raises(ObservabilityError, match="cannot read trace"):
            render_report(trace_path=missing)
        assert main(["obs-report", "--trace", str(missing)]) == 2
        problems = check_artifacts(trace_path=missing)
        assert len(problems) == 1 and "cannot read trace" in problems[0]


# ---------------------------------------------------------------------------
# context helpers
# ---------------------------------------------------------------------------


class TestObservabilityContext:
    def test_health_observer_bridge(self):
        obs = Observability.in_memory()
        health = CampaignHealthReport()
        health.observer = obs
        health.record("checkpoint_fallback", "skipped campaign-000002.ckpt")
        health.record("resume", "resumed at cursor 24", shard=3)
        assert obs.metrics.value(
            "repro_health_events_total", kind="checkpoint_fallback"
        ) == 1.0
        assert obs.metrics.value(
            "repro_health_events_total", kind="resume"
        ) == 1.0
        names = [
            r["name"] for r in obs.tracer._sink.records
            if r["kind"] == "event"
        ]
        assert names == ["health.checkpoint_fallback", "health.resume"]
        # The observer is a class-level default, never serialized.
        assert "observer" not in health.to_dict()

    def test_close_writes_metrics_and_trace(self, tmp_path):
        metrics_path = tmp_path / "m.prom"
        trace_path = tmp_path / "t.jsonl"
        obs = Observability.create(metrics_path, trace_path)
        obs.inc("repro_campaign_cpus_total", 2, engine="scalar")
        with obs.tracer.span("campaign.run"):
            pass
        obs.close()
        assert check_artifacts(metrics_path, trace_path) == []
        report = render_report(metrics_path, trace_path)
        assert "repro_campaign_cpus_total" in report
        assert "campaign.run" in report


# ---------------------------------------------------------------------------
# logging setup
# ---------------------------------------------------------------------------


class TestLoggingSetup:
    def test_handler_replaced_not_stacked(self):
        first = logging_setup(verbose=0)
        second = logging_setup(verbose=2)
        named = [
            h for h in second.handlers
            if h.get_name() == "repro-obs-stderr"
        ]
        assert first is second
        assert len(named) == 1
        assert second.level == logging.DEBUG

    def test_verbosity_mapping_and_explicit_level(self):
        assert logging_setup(verbose=0).level == logging.WARNING
        assert logging_setup(verbose=1).level == logging.INFO
        assert logging_setup(verbose=5).level == logging.DEBUG
        assert logging_setup("error").level == logging.ERROR
        with pytest.raises(ValueError):
            logging_setup("noisy")


# ---------------------------------------------------------------------------
# campaign determinism: telemetry must not perturb results
# ---------------------------------------------------------------------------


def _run_engine(engine_name, fleet, library, seed, obs):
    if engine_name == "scalar":
        engine = TestPipeline(fleet, library, seed=seed, obs=obs)
        result = engine.run()
        return result, engine._stream.consumed
    engine = VectorizedTestPipeline(fleet, library, seed=seed, obs=obs)
    result = engine.run()
    return result, engine._scalar._stream.consumed


class TestCampaignDeterminism:
    @pytest.mark.parametrize("engine_name", ["scalar", "vectorized"])
    @pytest.mark.parametrize("seed", [11, 23])
    def test_enabled_vs_disabled_bit_identical(
        self, fleet, library, engine_name, seed
    ):
        plain, plain_position = _run_engine(
            engine_name, fleet, library, seed, None
        )
        obs = Observability.in_memory()
        traced, traced_position = _run_engine(
            engine_name, fleet, library, seed, obs
        )
        assert traced.detections == plain.detections
        assert traced.undetected_ids == plain.undetected_ids
        assert traced_position == plain_position
        assert len(plain.detections) > 20, "campaign must not be vacuous"
        # And the telemetry actually recorded the campaign.
        assert obs.metrics.total("repro_campaign_cpus_total") == float(
            len(fleet.faulty)
        )

    def test_metric_totals_match_results_exactly(self, fleet, library):
        obs = Observability.in_memory()
        result, position = _run_engine("vectorized", fleet, library, 11, obs)
        metrics = obs.metrics
        assert metrics.value(
            "repro_campaign_cpus_total", engine="vectorized"
        ) == float(len(fleet.faulty))
        assert metrics.total("repro_campaign_detections_total") == float(
            len(result.detections)
        )
        assert metrics.value(
            "repro_campaign_undetected_total", engine="vectorized"
        ) == float(len(result.undetected_ids))
        assert metrics.value(
            "repro_campaign_draws_total", engine="vectorized"
        ) == float(position)

    @pytest.mark.parametrize(
        "total, scale", [(20_000, 25.0), (40_000, 60.0)]
    )
    def test_file_artifacts_self_check(self, library, tmp_path, total, scale):
        """A campaign writing a metrics file and a JSONL trace matches
        the silent run bit for bit, counts every faulty CPU, and leaves
        artifacts that pass ``obs-report --check``'s self-checks."""
        population = generate_fleet(
            FleetSpec(total_processors=total, failure_rate_scale=scale, seed=7)
        )
        plain, plain_position = _run_engine(
            "vectorized", population, library, 11, None
        )
        metrics_path = tmp_path / "metrics.prom"
        trace_path = tmp_path / "trace.jsonl"
        obs = Observability.create(metrics_path, trace_path)
        traced, traced_position = _run_engine(
            "vectorized", population, library, 11, obs
        )
        cpus = obs.metrics.total("repro_campaign_cpus_total")
        obs.close()
        assert traced.detections == plain.detections
        assert traced.undetected_ids == plain.undetected_ids
        assert traced_position == plain_position
        assert cpus == len(population.faulty) > 100
        # A bare engine run opens no span, so the lazy trace sink may
        # never create its file.
        assert check_artifacts(
            metrics_path, trace_path if trace_path.exists() else None
        ) == []


# ---------------------------------------------------------------------------
# telemetry budget: enabled cost is bounded per shard and per run
# ---------------------------------------------------------------------------

#: Most instrument updates and trace records enabled telemetry may make.
#: A checkpointed campaign shard makes up to ten updates (its range's
#: CPUs, one per detecting stage, undetected, draws and seconds; the
#: checkpoint counter and the checkpoint's health event) and five trace
#: records (the shard and checkpoint spans and the health event); the
#: run's span and memory gauges fit in the margin.  A batch screening
#: makes four counter updates and one span, however many lanes it runs.
CAMPAIGN_SAMPLES_PER_SHARD = 16
CAMPAIGN_TRACE_RECORDS_PER_SHARD = 8
SCREENING_SAMPLES_PER_RUN = 8
SCREENING_TRACE_RECORDS_PER_RUN = 4


def _recording_obs():
    sink = ListTraceSink()
    return Observability(MetricsRegistry(), Tracer(sink)), sink


class TestTelemetryBudget:
    def test_campaign_cost_is_per_shard_not_per_detection(
        self, library, tmp_path
    ):
        population = generate_fleet(
            FleetSpec(total_processors=20_000, failure_rate_scale=60.0, seed=7)
        )
        obs, sink = _recording_obs()
        campaign = ResilientCampaign(
            population, library, seed=11, shard_size=64,
            checkpoint_store=CheckpointStore(tmp_path), obs=obs,
        )
        result = campaign.run()
        shards = -(-len(population.faulty) // 64)
        # Per-detection accounting would overrun the budget several
        # times over.
        assert len(result.detections) > 3 * CAMPAIGN_SAMPLES_PER_SHARD * shards
        assert obs.metrics.sample_count <= CAMPAIGN_SAMPLES_PER_SHARD * shards
        assert len(sink.records) <= CAMPAIGN_TRACE_RECORDS_PER_SHARD * shards

    @pytest.mark.parametrize("lanes", [1, 6])
    def test_screening_cost_is_per_run_not_per_lane(self, library, lanes):
        population = generate_fleet(
            FleetSpec(total_processors=6_000, failure_rate_scale=60.0, seed=9)
        )
        plan = TestPlan(
            entries=[
                PlanEntry(tc.testcase_id, 30.0) for tc in list(library)[:20]
            ]
        )
        obs, sink = _recording_obs()
        BatchScreeningEngine(
            population.faulty[:lanes], plan, library, seed=0, obs=obs
        ).run()
        assert obs.metrics.total("repro_toolchain_screen_lanes_total") == lanes
        assert obs.metrics.sample_count <= SCREENING_SAMPLES_PER_RUN
        assert len(sink.records) <= SCREENING_TRACE_RECORDS_PER_RUN
