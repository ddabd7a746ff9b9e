"""Vectorized campaign engine: exact-RNG replay and scalar parity.

The contract under test is *bit* equality: the vectorized engine must
consume the same draws in the same order as the scalar reference, so
every detection (processor, stage, day, failing testcases) and the
undetected list come out identical under the same seed.
"""

import numpy as np
import pytest

from repro.faults.trigger import TriggerModel
from repro.fleet import (
    FleetSpec,
    TestPipeline,
    VectorizedTestPipeline,
    generate_fleet,
)
from repro.perf.exact_rng import (
    VectorPCG64,
    derive_seed_batch,
    pcg64_state_words,
)
from repro.resilience import ResilientCampaign
from repro.rng import derive_seed
from repro.testing import build_library


# ---------------------------------------------------------------------------
# exact_rng vs numpy
# ---------------------------------------------------------------------------


def test_seed_words_match_seedsequence():
    rs = np.random.RandomState(42)
    seeds = np.concatenate(
        [
            np.array([0, 1, 2, 5, 2**31, 2**32 - 1, 2**32, 2**63 - 1]),
            rs.randint(0, 2**63, size=200),
        ]
    ).astype(np.uint64)
    words = pcg64_state_words(seeds)
    for i, seed in enumerate(seeds.tolist()):
        expected = np.random.SeedSequence(seed).generate_state(4, np.uint64)
        got = np.array([w[i] for w in words], dtype=np.uint64)
        assert np.array_equal(got, expected), f"seed {seed}"


def test_uniform_then_normal_draws_bitwise():
    """The trigger-behaviour draw pattern: one uniform, one normal."""
    rs = np.random.RandomState(7)
    seeds = rs.randint(0, 2**63, size=300).astype(np.uint64)
    vec = VectorPCG64.from_seeds(seeds)
    got_u = vec.uniform(40.0, 72.0)
    got_n = vec.normal(0.6)
    for i, seed in enumerate(seeds.tolist()):
        ref = np.random.Generator(np.random.PCG64(seed))
        assert got_u[i] == ref.uniform(40.0, 72.0)
        assert got_n[i] == ref.normal(0.0, 0.6)


@pytest.mark.parametrize("seed", [755, 1312, 1437, 1567, 1764, 1950])
def test_normal_tail_path_bitwise(seed):
    """Seeds whose early draws leave the ziggurat fast strip entirely."""
    vec = VectorPCG64.from_seeds(np.array([seed], dtype=np.uint64))
    ref = np.random.Generator(np.random.PCG64(seed))
    for _ in range(12):
        assert vec.standard_normal()[0] == ref.standard_normal()


def test_normal_rejection_paths_bitwise_at_volume():
    rs = np.random.RandomState(11)
    seeds = rs.randint(0, 2**63, size=400).astype(np.uint64)
    vec = VectorPCG64.from_seeds(seeds)
    refs = [np.random.Generator(np.random.PCG64(int(s))) for s in seeds]
    for _ in range(25):
        got = vec.standard_normal()
        expected = np.array([r.standard_normal() for r in refs])
        assert np.array_equal(got, expected)


def test_derive_seed_batch_matches_scalar():
    suffixes = [f"TC-{i:03d}" for i in range(50)]
    batch = derive_seed_batch(0, ("trigger", "D-MIX1-0"), suffixes)
    for suffix, got in zip(suffixes, batch.tolist()):
        assert got == derive_seed(0, "trigger", "D-MIX1-0", suffix)


# ---------------------------------------------------------------------------
# campaign parity
# ---------------------------------------------------------------------------


def _detection_key(detection):
    return (
        detection.processor_id,
        detection.arch_name,
        detection.stage_name,
        detection.day,
        detection.failing_testcase_ids,
    )


def _assert_campaign_parity(spec: FleetSpec) -> None:
    """Scalar and vectorized campaigns over ``spec`` (pipeline seed 11)
    agree on every detection, the undetected ids and the final stream
    position."""
    fleet = generate_fleet(spec)
    library = build_library()
    scalar = TestPipeline(
        fleet, library, trigger_model=TriggerModel(), seed=11
    )
    scalar_result = scalar.run()
    vectorized = VectorizedTestPipeline(
        fleet, library, trigger_model=TriggerModel(), seed=11
    )
    vectorized_result = vectorized.run()
    assert [_detection_key(d) for d in scalar_result.detections] == [
        _detection_key(d) for d in vectorized_result.detections
    ]
    assert scalar_result.undetected_ids == vectorized_result.undetected_ids
    assert scalar._stream.consumed == vectorized._scalar._stream.consumed
    # The campaign actually detected things (not a vacuous equality).
    assert len(scalar_result.detections) > 100


def test_campaign_parity_on_50k_fleet():
    _assert_campaign_parity(
        FleetSpec(total_processors=50_000, failure_rate_scale=25.0, seed=3)
    )


def test_campaign_parity_on_20k_fleet():
    _assert_campaign_parity(
        FleetSpec(total_processors=20_000, failure_rate_scale=25.0, seed=7)
    )


def test_campaign_parity_across_pipeline_seeds():
    fleet = generate_fleet(
        FleetSpec(total_processors=5_000, failure_rate_scale=40.0, seed=9)
    )
    library = build_library()
    for seed in (0, 1, 97):
        scalar = TestPipeline(
            fleet, library, trigger_model=TriggerModel(), seed=seed
        ).run()
        vectorized = VectorizedTestPipeline(
            fleet, library, trigger_model=TriggerModel(), seed=seed
        ).run()
        assert [_detection_key(d) for d in scalar.detections] == [
            _detection_key(d) for d in vectorized.detections
        ]
        assert scalar.undetected_ids == vectorized.undetected_ids


def test_sharded_campaign_keeps_no_lowered_block():
    """Campaigns walk shards forward and never lower a range twice, so
    the engine keeps no lowered block once a shard is replayed."""
    fleet = generate_fleet(
        FleetSpec(total_processors=5_000, failure_rate_scale=40.0, seed=9)
    )
    library = build_library()
    campaign = ResilientCampaign(fleet, library, seed=11, shard_size=16)
    engine = campaign._vectorized
    lower = engine._lower_range
    lowered = {}

    def spy(start, stop):
        assert (start, stop) not in lowered
        lowered[(start, stop)] = block = lower(start, stop)
        return block

    engine._lower_range = spy
    result = campaign.run()
    ranges = list(lowered)
    assert len(ranges) >= 4
    # A held block would come back as the same object.
    assert all(lower(*key) is not lowered[key] for key in ranges)
    scalar = TestPipeline(fleet, library, seed=11).run()
    assert result.detections == scalar.detections
    assert result.undetected_ids == scalar.undetected_ids
