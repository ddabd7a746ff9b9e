"""Unit tests for fleet population, topology, pipeline, and stats."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cpu import VULNERABLE_FEATURES, Feature, SDCType
from repro.errors import ConfigurationError
from repro.fleet import (
    FleetSpec,
    OnsetMixture,
    PipelineConfig,
    TestPipeline,
    build_topology,
    generate_fleet,
    stats,
)
from repro.rng import substream
from repro.units import permyriad


REPO = Path(__file__).resolve().parents[2]

#: Figure 2's key order after a campaign that found faulty CPUs and
#: after one that found none.
FEATURE_ORDER_CHILD = """
import json
from repro.fleet import FleetSpec, TestPipeline, generate_fleet, stats
from repro.fleet.pipeline import FleetStudyResult
from repro.testing import build_library

fleet = generate_fleet(
    FleetSpec(total_processors=1500, seed=3, failure_rate_scale=80.0)
)
found = TestPipeline(fleet, build_library(), seed=5).run()
assert found.detections
empty = FleetStudyResult(fleet.total, dict(fleet.arch_counts))
print(json.dumps([
    [str(f) for f in stats.feature_proportions(result, fleet)]
    for result in (found, empty)
]))
"""


@pytest.fixture(scope="module")
def small_fleet():
    # 200k CPUs keeps unit tests fast while leaving ~70 faulty CPUs.
    return generate_fleet(FleetSpec(total_processors=200_000, seed=5))


class TestPopulation:
    def test_total_count(self, small_fleet):
        assert small_fleet.total == 200_000

    def test_faulty_incidence_order_of_magnitude(self, small_fleet):
        rate = permyriad(len(small_fleet.faulty) / small_fleet.total)
        # Table 2's rates average ~3.6‱; incidence inflated by escapes.
        assert 1.0 < rate < 10.0

    def test_deterministic(self):
        a = generate_fleet(FleetSpec(total_processors=50_000, seed=9))
        b = generate_fleet(FleetSpec(total_processors=50_000, seed=9))
        assert [p.processor_id for p in a.faulty] == [
            p.processor_id for p in b.faulty
        ]

    def test_every_faulty_has_one_defect(self, small_fleet):
        for processor in small_fleet.faulty:
            assert len(processor.defects) == 1

    def test_type_mix(self, small_fleet):
        consistency = sum(
            1
            for p in small_fleet.faulty
            if p.defects[0].sdc_type is SDCType.CONSISTENCY
        )
        fraction = consistency / len(small_fleet.faulty)
        # §4.1's 8/27 split, loosely.
        assert 0.1 < fraction < 0.5

    def test_onset_mixture_weights_validated(self):
        with pytest.raises(ConfigurationError):
            OnsetMixture(at_birth_weight=0.9, burn_in_weight=0.9, late_weight=0.9)

    def test_onset_sampling_ranges(self):
        mixture = OnsetMixture()
        rng = substream(1, "onset")
        onsets = [mixture.sample(rng) for _ in range(500)]
        assert any(o == 0.0 for o in onsets)
        assert any(0.0 < o <= 45.0 for o in onsets)
        assert any(o > 50.0 for o in onsets)

    def test_escapes_marked(self, small_fleet):
        escaped = [
            p
            for p in small_fleet.faulty
            if p.defects[0].escapes_toolchain
        ]
        assert 0 < len(escaped) < len(small_fleet.faulty) / 4


class TestTopology:
    def test_datacenter_counts(self, small_fleet):
        topology = build_topology(small_fleet)
        assert len(topology.datacenters) == 28
        countries = {dc.country for dc in topology.datacenters}
        assert len(countries) == 14

    def test_all_faulty_placed(self, small_fleet):
        topology = build_topology(small_fleet)
        assert len(topology.machines()) == len(small_fleet.faulty)

    def test_group_schedule_spans_months(self, small_fleet):
        topology = build_topology(small_fleet)
        offsets = {
            topology.regular_test_offset_days(m) for m in topology.machines()
        }
        assert max(offsets) >= 14.0
        # Whole-fleet coverage takes months (§2.4).
        assert topology.n_groups * topology.group_stagger_days >= 60.0


class TestPipelineCampaign:
    @pytest.fixture(scope="class")
    def result(self, small_fleet, library):
        return TestPipeline(small_fleet, library).run()

    def test_most_faulty_detected(self, small_fleet, result):
        detectable = len(small_fleet.detectable_faulty())
        assert len(result.detections) >= 0.8 * detectable

    def test_escapes_never_detected(self, small_fleet, result):
        escaped_ids = {
            p.processor_id
            for p in small_fleet.faulty
            if p.defects[0].escapes_toolchain
        }
        detected_ids = {d.processor_id for d in result.detections}
        assert not (escaped_ids & detected_ids)

    def test_stage_names_valid(self, result):
        names = {d.stage_name for d in result.detections}
        assert names <= {"factory", "datacenter", "reinstall", "regular"}

    def test_pre_production_dominates(self, result):
        # Observation 2: pre-production catches ~90% of faulty CPUs.
        config = PipelineConfig()
        fraction = stats.pre_production_fraction(
            result, config.pre_production_stage_names()
        )
        assert fraction > 0.7

    def test_detections_cite_testcases(self, result):
        for detection in result.detections:
            assert detection.failing_testcase_ids

    def test_timing_rates_sum(self, result):
        rates = stats.timing_failure_rates(result)
        total = rates.pop("total")
        assert sum(rates.values()) == pytest.approx(total)

    def test_arch_rates_cover_all(self, result):
        rates = stats.arch_failure_rates(result)
        assert set(rates) == {f"M{i}" for i in range(1, 10)}

    def test_feature_and_datatype_proportions(self, small_fleet, result):
        features = stats.feature_proportions(result, small_fleet)
        assert all(0.0 <= v <= 1.0 for v in features.values())
        datatypes = stats.datatype_proportions(result, small_fleet)
        assert datatypes
        assert all(0.0 <= v <= 1.0 for v in datatypes.values())

    def test_feature_order_ignores_hash_seed(self):
        """Figure 2 lists features in ``Feature``'s declaration order on
        both return paths, whatever ``PYTHONHASHSEED`` orders the
        ``VULNERABLE_FEATURES`` frozenset by."""
        expected = [str(f) for f in Feature if f in VULNERABLE_FEATURES]
        for hash_seed in ("0", "1"):
            child = subprocess.run(
                [sys.executable, "-c", FEATURE_ORDER_CHILD],
                env=dict(os.environ, PYTHONHASHSEED=hash_seed,
                         PYTHONPATH=str(REPO / "src")),
                capture_output=True, text=True, timeout=120,
            )
            assert child.returncode == 0, child.stderr
            assert json.loads(child.stdout) == [expected, expected]

    def test_ineffective_testcases(self, result):
        # Observation 11: the vast majority of testcases never fire.
        ineffective = stats.ineffective_testcase_count(result, 633)
        assert ineffective > 400

    def test_single_core_fraction(self, small_fleet, result):
        fraction = stats.single_core_fraction(result, small_fleet)
        assert 0.3 < fraction < 0.7
