"""The daemon supervises its jobs with the shared campaign restart loop.

A ``repro serve`` job whose chaos schedule kills its campaign twice and
fails two shards must land what :func:`run_resilient_campaign` lands
for the same spec, schedule and checkpoint interval: the same result,
one restart per kill, and the same health report.  Every injected fault
reaches telemetry exactly once, as a ``health.fault`` trace event and
in ``repro_health_events_total{kind="fault"}``.
"""

from repro.obs import ListTraceSink, MetricsRegistry, Observability, Tracer
from repro.resilience import (
    CampaignSpec,
    ChaosInjector,
    CheckpointStore,
    run_resilient_campaign,
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

SCHEDULE = {0: ["exception"], 1: ["kill"], 2: ["exception"], 3: ["kill"]}
CHAOS_SEED = 7
CHECKPOINT_EVERY = 1


def test_daemon_job_matches_direct_supervised_run(tmp_path, library):
    result, health = run_resilient_campaign(
        library,
        spec=CampaignSpec(**SPEC),
        checkpoint_store=CheckpointStore(tmp_path / "direct"),
        chaos=ChaosInjector(SCHEDULE, seed=CHAOS_SEED),
        checkpoint_every=CHECKPOINT_EVERY,
    )
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

    kills = sum(kinds.count("kill") for kinds in SCHEDULE.values())
    faults = sum(len(kinds) for kinds in SCHEDULE.values())
    assert verdict["result"] == result.to_dict()
    assert verdict["restarts"] == kills
    assert verdict["health"] == health.to_dict()
    assert health.faults == faults
    assert health.resumes == kills

    names = [record["name"] for record in sink.records]
    assert names.count("health.fault") == faults
    assert not [name for name in names if name.startswith("chaos.")]
    assert obs.metrics.value(
        "repro_health_events_total", kind="fault"
    ) == faults
