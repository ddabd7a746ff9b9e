"""Unit tests for the resilience primitives.

Counted RNG streams, checkpoint self-checks and rotation, chaos
scheduling, health-trail compatibility, and configuration validation.
"""

import json

import pytest

from repro.core import BackoffController
from repro.core.boundary import AdaptiveTemperatureBoundary
from repro.errors import (
    CheckpointCorruptError,
    CheckpointError,
    CheckpointVersionError,
    ConfigurationError,
)
from repro.fleet.pipeline import PipelineConfig, StageConfig
from repro.resilience import (
    CampaignHealthReport,
    CampaignSpec,
    ChaosInjector,
    CheckpointStore,
    HealthEvent,
    ResilientCampaign,
    read_checkpoint,
    write_checkpoint,
)
from repro.rng import CountedStream, substream


# -- CountedStream ---------------------------------------------------------


def test_counted_stream_matches_raw_substream():
    stream = CountedStream(7, "pipeline")
    raw = substream(7, "pipeline")
    assert [stream.draw() for _ in range(100)] == list(raw.random(100))
    assert stream.consumed == 100


def test_counted_draw_many_equals_scalar_draws():
    a = CountedStream(7, "pipeline")
    b = CountedStream(7, "pipeline")
    many = a.draw_many(1000)
    singles = [b.draw() for _ in range(1000)]
    assert list(many) == singles
    assert a.consumed == b.consumed == 1000


def test_counted_stream_fast_forward_and_reset():
    a = CountedStream(7, "pipeline")
    b = CountedStream(7, "pipeline")
    skipped = [a.draw() for _ in range(57)]
    b.fast_forward(57)
    assert b.consumed == 57
    assert a.draw() == b.draw()
    # reset_to rewinds by rebuilding from the seed.
    a.reset_to(0)
    assert a.consumed == 0
    assert [a.draw() for _ in range(57)] == skipped


def test_counted_stream_reset_forward_and_validation():
    stream = CountedStream(7, "pipeline")
    stream.reset_to(10)
    assert stream.consumed == 10
    with pytest.raises(ValueError):
        stream.reset_to(-1)
    with pytest.raises(ValueError):
        stream.fast_forward(-5)


def test_backoff_controller_step_validation():
    controller = BackoffController(AdaptiveTemperatureBoundary())
    with pytest.raises(ConfigurationError, match="dt_s"):
        controller.step(50.0, 0.0, 1.0)
    with pytest.raises(ConfigurationError, match="utilization"):
        controller.step(50.0, 1.0, float("nan"))
    with pytest.raises(ConfigurationError, match="utilization"):
        controller.step(50.0, 1.0, 1.5)
    with pytest.raises(ConfigurationError, match="temperature_c"):
        controller.step(float("nan"), 1.0, 1.0)
    with pytest.raises(ConfigurationError, match="hold_s"):
        BackoffController(AdaptiveTemperatureBoundary(), hold_s=float("inf"))


# -- pipeline config validation -------------------------------------------


def _stage(**overrides):
    params = dict(
        name="factory", time_days=0.0, per_testcase_s=1.0, test_temp_c=80.0
    )
    params.update(overrides)
    return StageConfig(**params)


def test_stage_config_validation():
    with pytest.raises(ConfigurationError, match="name"):
        _stage(name="")
    with pytest.raises(ConfigurationError, match="per_testcase_s"):
        _stage(per_testcase_s=0.0)
    with pytest.raises(ConfigurationError, match="per_testcase_s"):
        _stage(per_testcase_s=float("nan"))
    with pytest.raises(ConfigurationError, match="time_days"):
        _stage(time_days=-1.0)
    with pytest.raises(ConfigurationError, match="test_temp_c"):
        _stage(test_temp_c=float("inf"))
    with pytest.raises(ConfigurationError, match="recurring_days"):
        _stage(recurring_days=0.0)


def test_pipeline_config_validation():
    stage = _stage()
    with pytest.raises(ConfigurationError, match="stage"):
        PipelineConfig(stages=())
    with pytest.raises(ConfigurationError, match="horizon_days"):
        PipelineConfig(stages=(stage,), horizon_days=0.0)
    with pytest.raises(ConfigurationError, match="must be identical"):
        PipelineConfig(stages=(stage, _stage(per_testcase_s=2.0)))


# -- checkpoints -----------------------------------------------------------


PAYLOAD = {"cursor": 12, "draws": 345, "day": 1.9428902930940239e-05}


def test_checkpoint_round_trip(tmp_path):
    path = tmp_path / "snap.ckpt"
    write_checkpoint(path, PAYLOAD)
    assert read_checkpoint(path) == PAYLOAD
    assert not list(tmp_path.glob("*.tmp"))  # atomic: no debris


def test_checkpoint_detects_flipped_byte(tmp_path):
    path = tmp_path / "snap.ckpt"
    write_checkpoint(path, PAYLOAD)
    data = bytearray(path.read_bytes())
    index = data.index(b"345"[0], data.index(b"draws"[0]))
    data[index] ^= 0x01
    path.write_bytes(bytes(data))
    with pytest.raises((CheckpointCorruptError, CheckpointVersionError)):
        read_checkpoint(path)


def test_checkpoint_detects_torn_write(tmp_path):
    path = tmp_path / "snap.ckpt"
    write_checkpoint(path, PAYLOAD)
    path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])
    with pytest.raises(CheckpointCorruptError, match="torn"):
        read_checkpoint(path)


def test_checkpoint_rejects_future_version(tmp_path):
    path = tmp_path / "snap.ckpt"
    write_checkpoint(path, PAYLOAD)
    document = json.loads(path.read_text())
    document["version"] = 999
    path.write_text(json.dumps(document))
    with pytest.raises(CheckpointVersionError, match="999"):
        read_checkpoint(path)


def test_checkpoint_missing_file(tmp_path):
    with pytest.raises(CheckpointError):
        read_checkpoint(tmp_path / "absent.ckpt")


def test_store_rotation_and_fallback(tmp_path):
    store = CheckpointStore(tmp_path, keep=2)
    for cursor in range(5):
        store.save({"cursor": cursor})
    names = [path.name for path in store.paths()]
    assert names == ["campaign-000004.ckpt", "campaign-000005.ckpt"]
    assert store.load_latest()["cursor"] == 4

    # Corrupt the newest: the loader falls back and records it.
    newest = store.paths()[-1]
    newest.write_bytes(newest.read_bytes()[:10])
    health = CampaignHealthReport()
    assert store.load_latest(health)["cursor"] == 3
    assert health.count("checkpoint_fallback") == 1

    # Corrupt both: nothing usable.
    oldest = store.paths()[0]
    oldest.write_bytes(b"garbage")
    assert store.load_latest() is None


def test_fresh_start_records_skipped_snapshots(library, tmp_path):
    """With every retained snapshot damaged the campaign starts over,
    and its health still names each snapshot it skipped, in order."""
    spec = CampaignSpec(
        total_processors=1500, fleet_seed=3, failure_rate_scale=80.0,
        shard_size=4,
    )
    store = CheckpointStore(tmp_path)
    campaign = ResilientCampaign.from_spec(
        spec, library, checkpoint_store=store, checkpoint_every=1
    )
    campaign.step()
    campaign.step()
    for path in store.paths():
        data = bytearray(path.read_bytes())
        data[len(data) // 2] ^= 0x01
        path.write_bytes(bytes(data))
    fallbacks = CampaignHealthReport()
    assert store.load_latest(fallbacks) is None
    assert fallbacks.count("checkpoint_fallback") == 2
    fresh = ResilientCampaign.open(
        library, None, fallbacks, spec=spec, checkpoint_store=store
    )
    assert fresh.health.events == fallbacks.events
    assert fresh.health.resumes == 0


# -- chaos injector --------------------------------------------------------


def test_chaos_rejects_unknown_kind():
    with pytest.raises(ConfigurationError, match="unknown chaos fault"):
        ChaosInjector({0: ["meteor_strike"]})


def test_chaos_fires_each_fault_once():
    chaos = ChaosInjector({2: ["corrupt_byte"]})
    assert chaos.fires(1, "corrupt_byte") is False
    assert chaos.fires(2, "corrupt_byte") is True
    assert chaos.fires(2, "corrupt_byte") is False  # faults do not recur
    assert chaos.fired == {(2, "corrupt_byte")}
    assert chaos.pending() == {}


def test_job_injectors_share_exact_visit_counts():
    """Job threads count hook visits in the daemon's counters without
    losing an update, so ``--chaos`` kills land on the exact visit."""
    import sys
    import threading

    daemon = ChaosInjector.from_spec("kill:drain:1")
    jobs = [daemon.for_job({0: ["delay"]}) for _ in range(8)]

    def visit_many(job):
        for _ in range(2000):
            job.visit("shard_done")

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [
            threading.Thread(target=visit_many, args=(job,)) for job in jobs
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert daemon._visits == {"shard_done": 8 * 2000}
    assert all(job.exits == [("kill", "drain", 1)] for job in jobs)


def test_chaos_seeded_schedule_is_deterministic():
    a = ChaosInjector.seeded(42, shard_count=20, rate=0.4)
    b = ChaosInjector.seeded(42, shard_count=20, rate=0.4)
    assert a.schedule == b.schedule
    assert a.schedule  # rate 0.4 over 120 slots: practically certain
    assert ChaosInjector.seeded(43, shard_count=20, rate=0.4).schedule != a.schedule


def test_chaos_records_into_health(library):
    """The campaign records each fired fault once; the injector holds
    no report of its own."""
    chaos = ChaosInjector({0: ["delay"]}, delay_s=0.0)
    campaign = ResilientCampaign.from_spec(
        CampaignSpec(
            total_processors=1500, fleet_seed=3, failure_rate_scale=80.0,
            shard_size=8,
        ),
        library,
        chaos=chaos,
    )
    campaign.step()  # shard 0: the delay fires
    campaign.step()  # shard 1: nothing left to fire
    assert campaign.health.faults == 1
    assert campaign.health.of_kind("fault")[0].detail == "injected delay"
    assert not hasattr(chaos, "health") and not hasattr(chaos, "obs")


# -- health report ---------------------------------------------------------


def test_health_report_round_trip():
    report = CampaignHealthReport()
    report.record("fault", "injected delay", shard=3)
    report.record("resume", "resumed at cursor 24", shard=3)
    clone = CampaignHealthReport.from_dict(report.to_dict())
    assert clone.events == report.events
    assert clone.events[0] == HealthEvent("fault", "injected delay", shard=3)
    assert clone.summary() == "faults=1 checkpoints=0 resumes=1"


def test_resume_keeps_retired_health_event_kinds(library, tmp_path):
    """A snapshot written while shards could still be retried and
    degraded carries ``retry`` and ``degradation`` events; it resumes
    to the uninterrupted result and keeps them in its trail."""
    spec = CampaignSpec(
        total_processors=1500, fleet_seed=3, failure_rate_scale=80.0,
        shard_size=8,
    )
    older = ResilientCampaign.from_spec(spec, library, checkpoint_every=10**6)
    older.step()
    older.step()
    payload = older._payload()
    payload["health"]["events"] += [
        {"kind": "retry", "detail": "attempt 1", "shard": 1, "item": None},
        {"kind": "degradation", "detail": "vectorized -> scalar",
         "shard": 1, "item": None},
    ]
    store = CheckpointStore(tmp_path)
    store.save(payload)
    resumed = ResilientCampaign.resume(store, library)
    result = resumed.run()
    direct = ResilientCampaign.from_spec(spec, library).run()
    assert result.detections == direct.detections
    assert result.undetected_ids == direct.undetected_ids
    health = resumed.health
    assert (health.count("retry"), health.count("degradation")) == (1, 1)
    assert health.resumes == 1
    assert "retries" not in health.summary()


# -- dt_s validation in simulators -----------------------------------------


def test_runner_rejects_degenerate_dt(framework, named):
    from repro.testing.runner import ToolchainRunner

    runner = ToolchainRunner(named["MIX1"])
    testcase = next(iter(framework.library))
    with pytest.raises(ConfigurationError, match="duration_s"):
        runner.run_testcase(testcase, duration_s=float("nan"))


def test_simulate_online_rejects_degenerate_dt(library, named):
    from repro.core import ApplicationProfile, simulate_online
    from repro.cpu import Feature

    app = ApplicationProfile(
        name="x",
        features=frozenset({Feature.VECTOR}),
        instruction_usage={"VFMA_F32": 1.0},
    )
    with pytest.raises(ConfigurationError, match="dt_s"):
        simulate_online(
            named["MIX1"], app, hours=1.0, library=library, dt_s=0.0
        )
    with pytest.raises(ConfigurationError, match="hours"):
        simulate_online(
            named["MIX1"], app, hours=float("inf"), library=library
        )
