"""A daemon job runs the same campaign as a direct ``ResilientCampaign``.

A ``repro serve`` job drained after its second shard, whose newest
snapshot then tears on disk, must resume in the next incarnation to
what a direct :class:`~repro.resilience.ResilientCampaign` lands when it
is dropped at the same shard, takes the same damage and is reopened:
the same result and the same health report, down to the skipped
snapshot's name.  The skipped snapshot and the resume each reach
telemetry exactly once.
"""

import shutil
import threading

import numpy as np

from repro.obs import ListTraceSink, MetricsRegistry, Observability, Tracer
from repro.resilience import (
    CampaignHealthReport,
    CampaignSpec,
    CheckpointStore,
    ResilientCampaign,
)
from repro.service import ServiceClient, ServiceThread

from .damage import damage

#: ~35 faulty CPUs in 5 shards.
SPEC = dict(
    total_processors=1500,
    fleet_seed=3,
    pipeline_seed=5,
    failure_rate_scale=80.0,
    shard_size=8,
)
DROPPED_AFTER = 2
CHECKPOINT_EVERY = 1


def tear_newest(store):
    damage(store.paths()[-1], "torn_checkpoint", np.random.default_rng(7))


def test_daemon_job_matches_direct_supervised_run(
    tmp_path, library, monkeypatch
):
    # The direct run uses the directory the daemon gives the job, so
    # the health trail's skipped-snapshot detail agrees byte for byte.
    state = tmp_path / "state"
    store = CheckpointStore(state / "jobs" / "supervised" / "ckpt")
    dropped = ResilientCampaign.from_spec(
        CampaignSpec(**SPEC), library,
        checkpoint_store=store, checkpoint_every=CHECKPOINT_EVERY,
    )
    for _ in range(DROPPED_AFTER):
        dropped.step()
    tear_newest(store)
    fallbacks = CampaignHealthReport()
    payload = store.load_latest(fallbacks)
    direct = ResilientCampaign.open(
        library, payload, fallbacks, spec=CampaignSpec(**SPEC),
        checkpoint_store=store, checkpoint_every=CHECKPOINT_EVERY,
    )
    result = direct.run()
    health = direct.health
    assert health.count("checkpoint_fallback") == 1
    assert health.resumes == 1
    shutil.rmtree(state)

    # The daemon's first incarnation holds the job after its shard
    # DROPPED_AFTER until drain begins, so the job stops right there.
    sink = ListTraceSink()
    obs = Observability(MetricsRegistry(), Tracer(sink))
    handle = ServiceThread(
        state, library=library,
        checkpoint_every=CHECKPOINT_EVERY, obs=obs,
    ).start()
    draining = handle.service.scheduler._stop_event
    held = threading.Event()
    step = ResilientCampaign.step

    def held_step(campaign):
        more = step(campaign)
        if campaign.cursor == DROPPED_AFTER * SPEC["shard_size"]:
            held.set()
            assert draining.wait(timeout=60), "drain never began"
        return more

    monkeypatch.setattr(ResilientCampaign, "step", held_step)
    client = ServiceClient("127.0.0.1", handle.port)
    client.submit(dict(SPEC, job_id="supervised"))
    assert held.wait(timeout=60)
    handle.stop()
    monkeypatch.undo()
    assert len(store.paths()) == DROPPED_AFTER
    tear_newest(store)

    with ServiceThread(
        state, library=library,
        checkpoint_every=CHECKPOINT_EVERY, obs=obs,
    ) as handle:
        client = ServiceClient("127.0.0.1", handle.port)
        verdict = client.wait_verdict("supervised", timeout_s=120)

    assert verdict["result"] == result.to_dict()
    assert verdict["health"] == health.to_dict()
    names = [record["name"] for record in sink.records]
    for kind in ("checkpoint_fallback", "resume"):
        assert names.count(f"health.{kind}") == 1
        assert obs.metrics.value(
            "repro_health_events_total", kind=kind
        ) == 1
