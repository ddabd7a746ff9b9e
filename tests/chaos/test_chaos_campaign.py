"""Chaos acceptance: campaigns survive injected harness faults.

The invariant under test is the tentpole guarantee: a campaign that is
killed, resumed, retried, and degraded by a seeded chaos schedule
produces a :class:`FleetStudyResult` **bit-identical** to the fault-free
run at the same seed, and the health report enumerates every injected
fault and every recovery action taken.
"""

import pytest

from repro.core import ExponentialBackoff
from repro.fleet import FleetSpec, TestPipeline, generate_fleet
from repro.resilience import (
    CampaignSpec,
    ChaosInjector,
    CheckpointStore,
    ResilientCampaign,
    run_resilient_campaign,
)

#: 10k-CPU acceptance fleet; the scale multiplier gives ~200 faulty
#: CPUs so shards/checkpoints/chaos all have something to chew on.
SPEC = CampaignSpec(
    total_processors=10_000,
    fleet_seed=7,
    pipeline_seed=11,
    failure_rate_scale=60.0,
    shard_size=32,
)

#: No real sleeping in CI: retries still count, they just don't wait.
NO_WAIT = ExponentialBackoff(base_s=0.0, cap_s=0.0, jitter=0.0)


@pytest.fixture(scope="module")
def fleet():
    return generate_fleet(
        FleetSpec(
            total_processors=SPEC.total_processors,
            seed=SPEC.fleet_seed,
            failure_rate_scale=SPEC.failure_rate_scale,
        )
    )


@pytest.fixture(scope="module")
def baseline(fleet, library):
    """The fault-free ground truth: one uninterrupted scalar run."""
    return TestPipeline(fleet, library, seed=SPEC.pipeline_seed).run()


def assert_bit_identical(result, baseline):
    assert result.detections == baseline.detections
    assert result.undetected_ids == baseline.undetected_ids
    assert result.population_total == baseline.population_total


def test_fault_free_campaign_matches_pipeline(fleet, library, baseline, tmp_path):
    store = CheckpointStore(tmp_path)
    campaign = ResilientCampaign(
        fleet, library, spec=SPEC, seed=SPEC.pipeline_seed,
        shard_size=SPEC.shard_size, checkpoint_store=store,
    )
    assert_bit_identical(campaign.run(), baseline)
    assert campaign.health.checkpoints_written >= 1
    assert campaign.health.faults == 0
    assert store.paths(), "snapshots must be on disk"


def test_acceptance_chaos_campaign_bit_identical(library, baseline, tmp_path):
    """The ISSUE acceptance scenario: >=1 kill, >=1 torn checkpoint,
    >=1 parity trip (plus the rest of the fault menu), all survived
    with a bit-identical result and a complete audit trail."""
    schedule = {
        0: ["exception"],
        1: ["parity_trip"],
        2: ["torn_checkpoint", "kill"],
        3: ["delay"],
        4: ["corrupt_byte", "kill"],
    }
    chaos = ChaosInjector(schedule, seed=5, delay_s=0.001)
    store = CheckpointStore(tmp_path)
    result, health = run_resilient_campaign(
        library,
        spec=SPEC,
        checkpoint_store=store,
        chaos=chaos,
        checkpoint_every=1,
        retry_backoff=NO_WAIT,
    )
    assert_bit_identical(result, baseline)
    # Every scheduled fault fired exactly once and was recorded.
    assert not chaos.pending()
    fault_events = health.of_kind("fault")
    for shard, kinds in schedule.items():
        for kind in kinds:
            assert any(
                event.shard == shard and kind in event.detail
                for event in fault_events
            ), f"fault {kind} on shard {shard} missing from health report"
    # ... and every recovery action is enumerated too.
    assert health.retries >= 1  # the injected exception was retried
    assert health.degradations >= 1  # the parity trip degraded to scalar
    assert health.resumes == 2  # one per kill
    assert health.count("checkpoint_fallback") >= 1  # the torn snapshot
    assert health.checkpoints_written >= 5


@pytest.mark.parametrize("chaos_seed", [101, 202, 303])
def test_seeded_chaos_matrix(library, baseline, tmp_path, chaos_seed):
    """CI's fixed seed matrix: random schedules, same invariant."""
    faulty = len(baseline.detections) + len(baseline.undetected_ids)
    shard_count = -(-faulty // SPEC.shard_size)
    chaos = ChaosInjector.seeded(chaos_seed, shard_count, rate=0.3)
    chaos.delay_s = 0.001
    result, health = run_resilient_campaign(
        library,
        spec=SPEC,
        checkpoint_store=CheckpointStore(tmp_path),
        chaos=chaos,
        checkpoint_every=1,
        retry_backoff=NO_WAIT,
        max_restarts=shard_count,
    )
    assert_bit_identical(result, baseline)
    assert not chaos.pending()
    assert health.faults == sum(len(k) for k in chaos.schedule.values())


def test_resume_requires_checkpoint(library, tmp_path):
    from repro.errors import ConfigurationError

    with pytest.raises(ConfigurationError, match="no usable checkpoint"):
        ResilientCampaign.resume(CheckpointStore(tmp_path), library)
