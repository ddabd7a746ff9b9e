"""A daemon job runs the same campaign as a direct ``ResilientCampaign``.

A ``repro serve`` job whose chaos schedule stalls two shards, tears one
snapshot and bit-rots another must land what a direct
:class:`~repro.resilience.ResilientCampaign` lands for the same spec,
schedule and checkpoint interval: the same result and the same health
report.  Every injected fault reaches telemetry exactly once, as a
``health.fault`` trace event and in
``repro_health_events_total{kind="fault"}``.
"""

from repro.obs import ListTraceSink, MetricsRegistry, Observability, Tracer
from repro.resilience import (
    CampaignSpec,
    ChaosInjector,
    CheckpointStore,
    ResilientCampaign,
)
from repro.service import ServiceClient, ServiceThread

#: ~35 faulty CPUs in 5 shards, so every scheduled fault lands.
SPEC = dict(
    total_processors=1500,
    fleet_seed=3,
    pipeline_seed=5,
    failure_rate_scale=80.0,
    shard_size=8,
)

SCHEDULE = {
    0: ["delay"],
    1: ["torn_checkpoint"],
    2: ["delay"],
    3: ["corrupt_byte"],
}
CHAOS_SEED = 7
CHECKPOINT_EVERY = 1


def test_daemon_job_matches_direct_supervised_run(tmp_path, library):
    direct = ResilientCampaign.from_spec(
        CampaignSpec(**SPEC),
        library,
        checkpoint_store=CheckpointStore(tmp_path / "direct"),
        chaos=ChaosInjector(SCHEDULE, seed=CHAOS_SEED),
        checkpoint_every=CHECKPOINT_EVERY,
    )
    result = direct.run()
    health = direct.health
    sink = ListTraceSink()
    obs = Observability(MetricsRegistry(), Tracer(sink))
    with ServiceThread(
        tmp_path / "state", library=library,
        checkpoint_every=CHECKPOINT_EVERY, obs=obs,
    ) as handle:
        client = ServiceClient("127.0.0.1", handle.port)
        client.submit(dict(
            SPEC, job_id="supervised",
            chaos={
                "schedule": {
                    str(shard): kinds for shard, kinds in SCHEDULE.items()
                },
                "seed": CHAOS_SEED,
            },
        ))
        verdict = client.wait_verdict("supervised", timeout_s=120)

    faults = sum(len(kinds) for kinds in SCHEDULE.values())
    assert verdict["result"] == result.to_dict()
    assert verdict["health"] == health.to_dict()
    assert health.faults == faults
    assert health.resumes == 0

    names = [record["name"] for record in sink.records]
    assert names.count("health.fault") == faults
    assert not [name for name in names if name.startswith("chaos.")]
    assert obs.metrics.value(
        "repro_health_events_total", kind="fault"
    ) == faults
