"""Mission-control layer: time-series store, health rules, trace
rotation, Chrome export, and the daemon endpoints that serve them.

Everything here follows the determinism rules of the rest of the
suite: stores and engines never read clocks themselves (tests stamp
timestamps explicitly), and the enabled-vs-disabled parity tests assert
byte-identical campaign results."""

import json

import pytest

from repro.cli import _render_top, main
from repro.errors import ObservabilityError, TimeSeriesCorruptError
from repro.obs import (
    DEFAULT_TIERS,
    HealthEngine,
    HealthRule,
    JsonlTraceSink,
    ListTraceSink,
    MetricsRegistry,
    MetricsScraper,
    Observability,
    TimeSeriesStore,
    Tier,
    Tracer,
    default_service_rules,
    read_trace_segments,
    to_chrome_trace,
    trace_segment_paths,
    write_chrome_trace,
)
from repro.obs.timeseries import DETECTION_RATIO_SERIES, series_key
from repro.service import ServiceClient, ServiceThread


TIERS = (Tier("raw", 0.0, 50), Tier("1s", 1.0, 50), Tier("1m", 60.0, 50))


class TestTimeSeriesStore:
    def test_downsampling_tiers(self):
        store = TimeSeriesStore(TIERS)
        # 100 samples at 10 Hz: 100 raw points would overflow the ring,
        # 10 one-second buckets, a single one-minute bucket.
        for i in range(100):
            store.record("g", float(i), 1000.0 + i * 0.1)
        assert len(store.points("g", "raw")) == 50  # ring-bounded
        one_s = store.points("g", "1s")
        assert len(one_s) == 10
        # Bucket [1001, 1002) saw values 10..19: last/min/max aggregate.
        ts, last, lo, hi = one_s[1]
        assert (ts, last, lo, hi) == (1001.0, 19.0, 10.0, 19.0)
        one_m = store.points("g", "1m")
        assert len(one_m) == 1
        assert one_m[0][2:] == [0.0, 99.0]

    def test_latest_and_value_at_fall_back_to_coarse_tiers(self):
        store = TimeSeriesStore(TIERS)
        for i in range(200):
            store.record("g", float(i), 1000.0 + i)
        # Raw ring holds only the newest 50, but the 1m tier still
        # remembers the beginning of history.
        assert store.latest("g") == (1199.0, 199.0)
        ts, value = store.value_at("g", 1010.0)
        assert ts <= 1010.0
        assert value >= 0.0
        assert store.latest("missing") is None
        assert store.value_at("missing", 1.0) is None

    def test_since_filter_and_doc_prefix(self):
        store = TimeSeriesStore(TIERS)
        store.record("a_one", 1.0, 10.0)
        store.record("a_two", 2.0, 20.0)
        store.record("b", 3.0, 30.0)
        assert store.points("a_one", "raw", since=11.0) == []
        doc = store.to_doc(prefix="a_", tier="1s", since=15.0)
        assert doc["tier"] == "1s"
        assert sorted(doc["series"]) == ["a_one", "a_two"]
        assert doc["series"]["a_one"] == []
        assert doc["series"]["a_two"] == [[20.0, 2.0, 2.0, 2.0]]

    def test_unknown_tier_rejected(self):
        store = TimeSeriesStore(TIERS)
        store.record("g", 1.0, 1.0)
        with pytest.raises(ObservabilityError, match="unknown tier"):
            store.points("g", "5m")

    def test_validation(self):
        with pytest.raises(ObservabilityError, match="at least one"):
            TimeSeriesStore(())
        with pytest.raises(ObservabilityError, match="duplicate"):
            TimeSeriesStore((Tier("x", 0.0, 1), Tier("x", 1.0, 1)))
        with pytest.raises(ObservabilityError, match="capacity"):
            TimeSeriesStore((Tier("x", 0.0, 0),))

    def test_save_load_round_trip(self, tmp_path):
        store = TimeSeriesStore(TIERS)
        for i in range(25):
            store.record("g", float(i), 100.0 + i)
            store.record('h{mode="x"}', float(-i), 100.0 + i)
        path = tmp_path / "history.json"
        store.save(path)
        loaded = TimeSeriesStore.load(path)
        assert loaded.tiers == store.tiers
        for key in store.keys():
            for tier in store.tiers:
                assert loaded.points(key, tier.name) == store.points(
                    key, tier.name
                )

    def test_torn_file_restores_fresh_but_load_raises(self, tmp_path):
        store = TimeSeriesStore(TIERS)
        store.record("g", 1.0, 1.0)
        path = tmp_path / "history.json"
        store.save(path)
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) // 2])  # torn write
        with pytest.raises(TimeSeriesCorruptError):
            TimeSeriesStore.load(path)
        fresh = TimeSeriesStore.restore(path)
        assert fresh.keys() == []  # lost history, live daemon

    def test_crc_flip_detected(self, tmp_path):
        store = TimeSeriesStore(TIERS)
        store.record("g", 1.0, 1.0)
        path = tmp_path / "history.json"
        store.save(path)
        doc = json.loads(path.read_text())
        doc["payload"]["series"]["g"]["raw"][0][1] = 999.0
        path.write_text(json.dumps(doc))
        with pytest.raises(TimeSeriesCorruptError, match="CRC"):
            TimeSeriesStore.load(path)

    def test_missing_file_restores_empty(self, tmp_path):
        store = TimeSeriesStore.restore(tmp_path / "nope.json")
        assert store.keys() == []
        assert store.tiers == DEFAULT_TIERS


class TestMetricsScraper:
    def test_counters_gauges_and_histograms(self):
        registry = MetricsRegistry()
        store = TimeSeriesStore(TIERS)
        scraper = MetricsScraper(registry, store)
        registry.counter("jobs_total", "", ["state"]).labels("done").inc(3)
        registry.gauge("depth", "").set(7)
        hist = registry.histogram(
            "lat_seconds", "", ["route"], buckets=(0.1, 1.0, 10.0)
        )
        hist.labels("/x").observe(0.05)
        hist.labels("/x").observe(5.0)
        scraper.scrape(100.0)
        assert store.latest('jobs_total{state="done"}') == (100.0, 3.0)
        assert store.latest("depth") == (100.0, 7.0)
        # Prometheus suffix convention: name_count{labels}, never
        # name{labels}_count — health rules match families by prefix.
        assert store.latest('lat_seconds_count{route="/x"}') == (100.0, 2.0)
        assert 'lat_seconds_sum{route="/x"}' in store.keys()
        p99 = store.latest('lat_seconds_p99{route="/x"}')
        assert p99 == (100.0, 10.0)  # upper bound of the 5.0 bucket

    def test_p99_uses_interval_delta_not_cumulative(self):
        registry = MetricsRegistry()
        store = TimeSeriesStore(TIERS)
        scraper = MetricsScraper(registry, store)
        hist = registry.histogram("h", "", buckets=(0.1, 1.0, 10.0))
        for _ in range(100):
            hist.observe(5.0)
        scraper.scrape(1.0)
        assert store.latest("h_p99")[1] == 10.0
        # Interval two only observes fast samples; a cumulative
        # quantile would stay stuck at 10.0.
        for _ in range(100):
            hist.observe(0.05)
        scraper.scrape(2.0)
        assert store.latest("h_p99") == (2.0, 0.1)
        # No observations in interval three: no p99 point recorded.
        scraper.scrape(3.0)
        assert store.latest("h_p99") == (2.0, 0.1)

    def test_detection_ratio_derived(self):
        registry = MetricsRegistry()
        store = TimeSeriesStore(TIERS)
        scraper = MetricsScraper(registry, store)
        scraper.scrape(1.0)
        assert store.latest(DETECTION_RATIO_SERIES) is None  # no CPUs yet
        registry.counter("repro_campaign_cpus_total", "").inc(200)
        registry.counter("repro_campaign_detections_total", "").inc(10)
        scraper.scrape(2.0)
        assert store.latest(DETECTION_RATIO_SERIES) == (2.0, 0.05)

    def test_series_key_rendering(self):
        assert series_key("n", (), ()) == "n"
        assert series_key("n", ("a", "b"), ("x", "y")) == 'n{a="x",b="y"}'


def _engine(rules, store=None, obs=None):
    store = store if store is not None else TimeSeriesStore(TIERS)
    return store, HealthEngine(store, rules, obs=obs)


class TestHealthRules:
    def test_threshold_fires_and_resolves(self):
        store, engine = _engine(
            [HealthRule(name="hot", metric="temp", op=">", threshold=90.0)]
        )
        assert engine.evaluate(1.0) == []  # no data: healthy
        store.record("temp", 95.0, 2.0)
        assert engine.evaluate(2.0) == ["hot"]
        assert engine.active() == ["hot"]
        assert engine.evaluate(3.0) == []  # still firing, no transition
        store.record("temp", 50.0, 4.0)
        assert engine.evaluate(4.0) == ["hot"]
        assert engine.active() == []
        doc = engine.to_doc(5.0)
        assert doc["alerts"][0]["fired_count"] == 1
        assert doc["alerts"][0]["firing"] is False

    def test_worst_offender_across_labels(self):
        store, engine = _engine(
            [HealthRule(name="slow", metric="lat_p99", op=">", threshold=1.0)]
        )
        store.record('lat_p99{route="/a"}', 0.5, 1.0)
        store.record('lat_p99{route="/b"}', 3.0, 1.0)
        engine.evaluate(1.0)
        state = engine.to_doc(1.0)["alerts"][0]
        assert state["firing"] is True
        assert state["last_series"] == 'lat_p99{route="/b"}'
        assert state["last_value"] == 3.0

    def test_for_s_debounce(self):
        store, engine = _engine(
            [HealthRule(name="d", metric="g", op=">", threshold=0.0, for_s=5.0)]
        )
        store.record("g", 1.0, 0.0)
        assert engine.evaluate(0.0) == []  # held 0 s
        assert engine.evaluate(4.9) == []
        assert engine.evaluate(5.0) == ["d"]
        # A dip resets the debounce anchor.
        store.record("g", -1.0, 6.0)
        assert engine.evaluate(6.0) == ["d"]  # resolved
        store.record("g", 1.0, 7.0)
        assert engine.evaluate(7.0) == []
        assert engine.evaluate(11.9) == []
        assert engine.evaluate(12.0) == ["d"]

    def test_guard_gates_evaluation_but_not_resolution(self):
        store, engine = _engine(
            [
                HealthRule(
                    name="starved", metric="leased", op="<", threshold=1.0,
                    guard_metric="active", guard_min=1.0,
                )
            ]
        )
        store.record("leased", 0.0, 1.0)
        assert engine.evaluate(1.0) == []  # guard closed: no 'active'
        store.record("active", 2.0, 2.0)
        assert engine.evaluate(2.0) == ["starved"]
        # Guard closing again does NOT auto-resolve a firing alert.
        store.record("active", 0.0, 3.0)
        assert engine.evaluate(3.0) == []
        assert engine.active() == ["starved"]

    def test_absence_needs_history_first(self):
        store, engine = _engine(
            [HealthRule(name="stale", metric="beat", kind="absence",
                        window_s=60.0)]
        )
        assert engine.evaluate(1000.0) == []  # never existed: fine
        store.record("beat", 1.0, 1000.0)
        assert engine.evaluate(1050.0) == []  # 50 s old, inside window
        assert engine.evaluate(1061.0) == ["stale"]
        store.record("beat", 2.0, 1062.0)
        assert engine.evaluate(1062.0) == ["stale"]  # resolved

    def test_rate_of_change_drift(self):
        store, engine = _engine(
            [HealthRule(name="drift", metric="ratio", kind="rate", op="<",
                        threshold=-0.001, window_s=100.0)]
        )
        store.record("ratio", 0.5, 0.0)
        assert engine.evaluate(0.0) == []  # one sample: no slope
        store.record("ratio", 0.5, 50.0)
        assert engine.evaluate(50.0) == []  # flat
        store.record("ratio", 0.1, 100.0)
        assert engine.evaluate(100.0) == ["drift"]

    def test_announcements_reach_metrics_and_trace(self):
        sink = ListTraceSink()
        obs = Observability(MetricsRegistry(), Tracer(sink))
        store, engine = _engine(
            [HealthRule(name="hot", metric="t", op=">", threshold=1.0,
                        severity="critical")],
            obs=obs,
        )
        store.record("t", 5.0, 1.0)
        engine.evaluate(1.0)
        snap = obs.metrics.snapshot()
        alerts = [f for f in snap["families"] if f["name"] == "ALERTS"]
        assert alerts and alerts[0]["series"][0]["value"] == 1.0
        assert alerts[0]["series"][0]["labels"] == ["hot", "critical"]
        fired = [r for r in sink.records if r.get("name") == "alert.fire"]
        assert fired and fired[0]["attrs"]["alertname"] == "hot"
        store.record("t", 0.0, 2.0)
        engine.evaluate(2.0)
        assert any(r.get("name") == "alert.resolve" for r in sink.records)

    def test_rule_validation(self):
        with pytest.raises(ObservabilityError, match="unknown kind"):
            HealthRule(name="x", metric="m", kind="bogus")
        with pytest.raises(ObservabilityError, match="unknown op"):
            HealthRule(name="x", metric="m", op="!=")
        with pytest.raises(ObservabilityError, match="window_s"):
            HealthRule(name="x", metric="m", kind="rate", window_s=0.0)
        store = TimeSeriesStore(TIERS)
        rule = HealthRule(name="x", metric="m")
        with pytest.raises(ObservabilityError, match="duplicate"):
            HealthEngine(store, [rule, rule])

    def test_default_rules_cover_issue_checklist(self):
        rules = {r.name for r in default_service_rules()}
        assert {
            "sdc_detection_rate_drift", "shard_latency_p99",
            "journal_append_latency", "service_backlog",
            "campaign_progress_stalled",
        } <= rules
        assert "rss_ceiling" not in rules
        with_rss = {r.name for r in
                    default_service_rules(rss_limit_bytes=1 << 30)}
        assert "rss_ceiling" in with_rss


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
        from repro.errors import TraceCorruptError

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


class TestChromeExport:
    def _records(self):
        return [
            {"kind": "span_begin", "name": "job", "span": 1, "pid": 10,
             "tid": 0, "ts": 100.0, "attrs": {"job_id": "j1"}},
            {"kind": "span_begin", "name": "shard", "span": 2, "parent": 1,
             "pid": 10, "tid": 0, "ts": 100.1, "attrs": {}},
            # Worker root span: remote parent in pid 10.
            {"kind": "span_begin", "name": "lower", "span": 1, "parent": 2,
             "parent_pid": 10, "pid": 20, "tid": 0, "ts": 7.0, "attrs": {}},
            {"kind": "span_end", "name": "lower", "span": 1, "pid": 20,
             "tid": 0, "ts": 7.5, "dur_s": 0.5},
            {"kind": "event", "name": "alert.fire", "pid": 10, "tid": 0,
             "ts": 100.2, "attrs": {"alertname": "x"}},
            {"kind": "span_end", "name": "shard", "span": 2, "pid": 10,
             "tid": 0, "ts": 100.4, "dur_s": 0.3},
            # span 1 in pid 10 never ends: simulated SIGKILL tear.
        ]

    def test_structure(self):
        doc = to_chrome_trace(self._records())
        events = doc["traceEvents"]
        by_ph = {}
        for event in events:
            by_ph.setdefault(event["ph"], []).append(event)
        # Process metadata for both pids; first pid is the coordinator.
        names = {e["pid"]: e["args"]["name"] for e in by_ph["M"]}
        assert "coordinator" in names[10] and "worker" in names[20]
        # Two completed spans, one torn begin, one instant.
        assert {e["name"] for e in by_ph["X"]} == {"shard", "lower"}
        assert [e["name"] for e in by_ph["B"]] == ["job"]
        assert by_ph["i"][0]["name"] == "alert.fire"
        # Cross-pid parent became a flow pair rooted in the parent pid.
        assert by_ph["s"][0]["pid"] == 10
        flow_finish = by_ph["f"][0]
        assert flow_finish["pid"] == 20 and flow_finish["bp"] == "e"
        assert by_ph["s"][0]["id"] == flow_finish["id"]
        # Per-pid normalization: every track starts at ts 0.
        for pid in (10, 20):
            track = [e["ts"] for e in events
                     if e.get("pid") == pid and "ts" in e]
            assert min(track) == 0.0

    def test_error_spans_carry_error_arg(self):
        records = [
            {"kind": "span_begin", "name": "s", "span": 1, "pid": 1,
             "tid": 0, "ts": 0.0, "attrs": {}},
            {"kind": "span_end", "name": "s", "span": 1, "pid": 1,
             "tid": 0, "ts": 1.0, "dur_s": 1.0, "error": "ValueError"},
        ]
        doc = to_chrome_trace(records)
        complete = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert complete[0]["args"]["error"] == "ValueError"

    def test_write_round_trip(self, tmp_path):
        out = tmp_path / "trace.chrome.json"
        count = write_chrome_trace(self._records(), out)
        doc = json.loads(out.read_text())
        assert len(doc["traceEvents"]) == count
        assert doc["displayTimeUnit"] == "ms"


class TestTraceExportCli:
    def test_export_from_rotated_segments(self, tmp_path, capsys):
        base = tmp_path / "trace.jsonl"
        sink = JsonlTraceSink(base, max_bytes=1024)
        tracer = Tracer(sink)
        for i in range(30):
            with tracer.span("work", index=i):
                pass
        sink.close()
        assert len(trace_segment_paths(base)) > 1
        out = tmp_path / "out.json"
        rc = main(["trace-export", str(base), "--out", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert len([e for e in doc["traceEvents"] if e["ph"] == "X"]) == 30

    def test_default_output_suffix(self, tmp_path):
        base = tmp_path / "trace.jsonl"
        sink = JsonlTraceSink(base)
        tracer = Tracer(sink)
        with tracer.span("w"):
            pass
        sink.close()
        assert main(["trace-export", str(base)]) == 0
        assert (tmp_path / "trace.chrome.json").exists()

    def test_missing_trace_is_an_error(self, tmp_path):
        assert main(["trace-export", str(tmp_path / "nope.jsonl")]) == 2


class TestRenderTop:
    def test_frame_contents(self):
        jobs = {
            "counts": {"running": 1, "queued": 2, "done": 3},
            "jobs": [
                {"job_id": "a", "state": "done", "restarts": 0},
                {"job_id": "b", "state": "running", "restarts": 2},
            ],
        }
        alerts = {
            "alerts": [
                {"name": "hot", "severity": "critical", "firing": True,
                 "for_s": 12.0, "last_value": 97.0,
                 "description": "too hot"},
                {"name": "cold", "severity": "info", "firing": False,
                 "for_s": None, "last_value": None, "description": ""},
            ]
        }
        series = {
            "series": {
                "repro_service_active_jobs": [[1.0, 1.0, 1.0, 1.0]],
                "repro_rss_bytes": [[1.0, 2048.0, 2048.0, 2048.0]],
            }
        }
        frame = _render_top(jobs, alerts, series, "127.0.0.1:1234")
        assert "127.0.0.1:1234" in frame
        assert "queued=2" in frame
        assert "alerts firing: 1" in frame
        assert "[critical] hot for 12s value=97 — too hot" in frame
        assert "cold" not in frame  # resolved alerts stay off the frame
        assert "2.0 KiB" in frame
        assert "b" in frame and "restarts=2" in frame

    def test_empty_docs_render(self):
        frame = _render_top({}, {}, {}, "x:1")
        assert "alerts firing: 0" in frame


SPEC = {
    "total_processors": 2_000,
    "failure_rate_scale": 40.0,
    "fleet_seed": 3,
    "pipeline_seed": 7,
}


@pytest.fixture(scope="module")
def mission_service(tmp_path_factory, library):
    state = tmp_path_factory.mktemp("mission-state")
    with ServiceThread(
        state, library=library, scrape_interval_s=0.05,
        history_flush_every=1,
    ) as handle:
        client = ServiceClient("127.0.0.1", handle.port)
        client.wait_ready()
        yield state, client


class TestServiceMissionControl:
    def test_scrape_loop_populates_store(self, mission_service):
        _state, client = mission_service
        client.submit(dict(SPEC, job_id="mc-1"))
        client.wait_verdict("mc-1", timeout_s=120)
        doc = client.timeseries(name="repro_service")
        assert [t["name"] for t in doc["tiers"]] == ["raw", "1s", "1m"]
        assert any(
            key.startswith("repro_service_http_request_seconds_count")
            for key in doc["series"]
        )
        points = doc["series"]["repro_service_active_jobs"]
        assert points and all(len(p) == 4 for p in points)

    def test_identity_gauges_present(self, mission_service):
        _state, client = mission_service
        text = client.metrics_text()
        assert "repro_build_info{version=" in text
        assert "repro_uptime_seconds" in text
        assert "repro_rss_bytes" in text  # scrape-interval RSS sampling

    def test_alerts_endpoint_shape(self, mission_service):
        _state, client = mission_service
        doc = client.alerts()
        assert doc["evaluations"] > 0
        names = {a["name"] for a in doc["alerts"]}
        assert "sdc_detection_rate_drift" in names
        assert "campaign_progress_stalled" in names

    def test_bad_queries_are_400(self, mission_service):
        _state, client = mission_service
        reply = client._request("GET", "/timeseries?tier=bogus")
        assert reply.status == 400
        assert "unknown tier" in reply.json()["error"]
        reply = client._request("GET", "/timeseries?since=abc")
        assert reply.status == 400

    def test_healthz_detail_stays_200(self, mission_service):
        _state, client = mission_service
        reply = client._request("GET", "/healthz")
        assert reply.status == 200
        assert reply.json()["status"] == "ok"


class TestHistoryPersistence:
    def test_history_survives_restart(self, tmp_path, library):
        state = tmp_path / "state"
        with ServiceThread(
            state, library=library, scrape_interval_s=0.05,
            history_flush_every=1,
        ) as handle:
            client = ServiceClient("127.0.0.1", handle.port)
            client.wait_ready()
            client.submit(dict(SPEC, job_id="persist-1"))
            client.wait_verdict("persist-1", timeout_s=120)
        assert (state / "timeseries.json").exists()
        before = TimeSeriesStore.load(state / "timeseries.json")
        assert before.keys()
        with ServiceThread(
            state, library=library, scrape_interval_s=0.05
        ) as handle:
            client = ServiceClient("127.0.0.1", handle.port)
            client.wait_ready()
            doc = client.timeseries(tier="raw")
        # The restarted incarnation serves pre-restart history.
        assert set(before.keys()) <= set(doc["series"])

    def test_history_flushed_before_first_ready(self, tmp_path, library):
        # Default scrape interval and flush cadence: without a boot
        # flush the first history file lands ten ticks after readiness,
        # so a daemon killed sooner would lose all of its history.
        state = tmp_path / "state"
        with ServiceThread(state, library=library) as handle:
            assert handle.service.history_flush_every == 10
            store = TimeSeriesStore.load(state / "timeseries.json")
            assert "repro_uptime_seconds" in store.keys()

    def test_torn_history_file_does_not_kill_boot(self, tmp_path, library):
        state = tmp_path / "state"
        state.mkdir()
        (state / "timeseries.json").write_text('{"format": "repro-')
        with ServiceThread(
            state, library=library, scrape_interval_s=0.05
        ) as handle:
            client = ServiceClient("127.0.0.1", handle.port)
            client.wait_ready()
            assert client.healthz()


class TestServiceBitIdentity:
    def test_mission_control_never_changes_verdicts(
        self, tmp_path, library
    ):
        """The full mission-control stack (fast scrape loop, health
        rules, rotating trace sink) must not perturb seeded verdicts."""
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
                scrape_interval_s=0.02,
            ) as handle:
                client = ServiceClient("127.0.0.1", handle.port)
                client.wait_ready()
                client.submit(dict(SPEC, job_id="parity"))
                instrumented = client.wait_verdict("parity", timeout_s=120)
        finally:
            obs.close()
        assert instrumented["result"] == plain["result"]
        assert instrumented["spec"] == plain["spec"]
