"""Property: checkpoint round-trips are bit-identical at any boundary.

A campaign dropped after an arbitrary shard, as a dead process leaves
it, and resumed from its snapshot must finish with exactly the result
of an uninterrupted run — including the restored position of the
pipeline's counted RNG stream.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fleet import FleetSpec, TestPipeline, generate_fleet
from repro.resilience import CheckpointStore, ResilientCampaign

TOTAL = 1_500
FLEET_SEED = 3
PIPELINE_SEED = 11
SHARD_SIZE = 8


@pytest.fixture(scope="module")
def fleet():
    return generate_fleet(
        FleetSpec(
            total_processors=TOTAL, seed=FLEET_SEED, failure_rate_scale=150.0
        )
    )


@pytest.fixture(scope="module")
def baseline(fleet, library):
    pipeline = TestPipeline(fleet, library, seed=PIPELINE_SEED)
    result = pipeline.run()
    return result, pipeline._stream.consumed


def _dropped_after(fleet, library, store, shard):
    """A campaign stepped through ``shard`` with a snapshot after every
    shard, then abandoned: only its snapshots survive it."""
    campaign = ResilientCampaign(
        fleet, library, seed=PIPELINE_SEED, shard_size=SHARD_SIZE,
        checkpoint_store=store, checkpoint_every=1,
    )
    for _ in range(shard + 1):
        campaign.step()
    return campaign


def _resume(store, fleet, library):
    return ResilientCampaign.resume(
        store, library, population=fleet,
        seed=PIPELINE_SEED, shard_size=SHARD_SIZE,
    )


@settings(max_examples=8, deadline=None)
@given(data=st.data())
def test_kill_resume_at_random_boundary_is_bit_identical(
    fleet, library, baseline, tmp_path_factory, data
):
    reference, reference_draws = baseline
    shard_count = -(-len(fleet.faulty) // SHARD_SIZE)
    kill_shard = data.draw(
        st.integers(min_value=0, max_value=shard_count - 1), label="kill_shard"
    )
    store = CheckpointStore(tmp_path_factory.mktemp("ckpt"))
    _dropped_after(fleet, library, store, kill_shard)
    resumed = _resume(store, fleet, library)
    result = resumed.run()
    assert result.detections == reference.detections
    assert result.undetected_ids == reference.undetected_ids
    assert resumed.health.resumes == 1


@settings(max_examples=8, deadline=None)
@given(data=st.data())
def test_snapshot_restores_exact_rng_position(
    fleet, library, baseline, tmp_path_factory, data
):
    """Stopping after shard k and resuming must put the stream at the
    exact draw count the uninterrupted run had at that boundary."""
    reference, reference_draws = baseline
    shard_count = -(-len(fleet.faulty) // SHARD_SIZE)
    stop_shard = data.draw(
        st.integers(min_value=0, max_value=shard_count - 1), label="stop_shard"
    )
    store = CheckpointStore(tmp_path_factory.mktemp("ckpt"))
    first = _dropped_after(fleet, library, store, stop_shard)
    draws_at_kill = first._stream.consumed
    cursor_at_kill = first.cursor

    resumed = _resume(store, fleet, library)
    assert resumed.cursor == cursor_at_kill
    assert resumed._stream.consumed == draws_at_kill
    final = resumed.run()
    assert final.detections == reference.detections
    assert final.undetected_ids == reference.undetected_ids
    assert resumed._stream.consumed == reference_draws
