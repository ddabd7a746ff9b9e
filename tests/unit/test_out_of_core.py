"""Out-of-core substrate: fleet frames and column-store spill.

The contract under test: every fleet population is frame-backed, its
rows are pinned per seed, reading it in chunks matches one full build,
each access to the frame builds exactly the Processors it names, and a
vectorized campaign lowered from the frame's columns is *bit-identical*
to the scalar oracle over a plain list of every faulty Processor while
building none itself.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.analysis import DetectionFrame
from repro.colstore import read_columns, write_columns
from repro.cpu import catalog
from repro.errors import (
    CheckpointCorruptError,
    CheckpointError,
    ConfigurationError,
)
from repro.fleet import (
    ROW_SCHEMA,
    FleetFrame,
    FleetPopulation,
    FleetSpec,
    TestPipeline,
    VectorizedTestPipeline,
    fleet_arch_counts,
    generate_fleet,
    stats,
)
from repro.fleet.pipeline import FleetStudyResult
from repro.fleet.population import fleet_multiplier_sums
from repro.obs import Observability
from repro.resilience import CampaignSpec, ChaosInjector, ResilientCampaign

#: Dense enough that every arch contributes faulty CPUs.
SPEC = FleetSpec(total_processors=50_000, failure_rate_scale=50.0, seed=3)
#: Shard width of the campaign-level checks.
SHARD = 64
#: Range width of the paper-scale run: the vectorized engine lowers one
#: range of frame rows at a time.
SCALE_RANGE = 8192

#: sha256 over the ROW_SCHEMA columns (name, dtype, bytes, in schema
#: order) of ``FleetSpec(20_000, failure_rate_scale=20, seed=seed)``,
#: recorded from the chunked generator that the one column draw
#: replaced.
PINNED_ROWS = {
    1: "c1067e2e4a261749041959bf8ef9915017b4a74135331116e225c52bd13a592b",
    3: "13f8a91455b14b3dfb8d1eeb4fa47c64c76aecdf78ca18dd088eb649a48bd73d",
    7: "2d0ebb5682e50bd6ad4653895666375e362bce385caad4cce90ecc5295033353",
}


def materialized_population(spec: FleetSpec) -> FleetPopulation:
    """The reference: every faulty Processor resident in a plain list."""
    return FleetPopulation(
        spec, fleet_arch_counts(spec), list(generate_fleet(spec).faulty)
    )


@pytest.fixture(scope="module")
def eager():
    return materialized_population(SPEC)


@pytest.fixture(scope="module")
def framed():
    return generate_fleet(SPEC)


def _counting(frame, monkeypatch):
    """Record the slice of every row build ``frame`` performs."""
    build = frame._build
    built = []

    def recording(rows):
        built.append(rows)
        return build(rows)

    monkeypatch.setattr(frame, "_build", recording)
    return built


# -- generation ----------------------------------------------------------------


@pytest.mark.parametrize("seed", sorted(PINNED_ROWS))
def test_fleet_rows_pinned(seed):
    spec = FleetSpec(
        total_processors=20_000, failure_rate_scale=20.0, seed=seed
    )
    columns = generate_fleet(spec).faulty.columns
    digest = hashlib.sha256()
    for name, dtype in ROW_SCHEMA.items():
        assert columns[name].dtype == dtype
        digest.update(name.encode())
        digest.update(str(dtype).encode())
        digest.update(columns[name].tobytes())
    assert digest.hexdigest() == PINNED_ROWS[seed]


@pytest.mark.parametrize("seed", [1, 3, 7])
@pytest.mark.parametrize("chunk_size", [17, 256, 100_000])
def test_streamed_chunks_match_eager_generation(seed, chunk_size):
    """Reading the frame in consecutive ``chunk_size`` slices, with
    boundaries mid-arch or past the end, yields the same Processors as
    building them all at once."""
    spec = FleetSpec(
        total_processors=20_000, failure_rate_scale=20.0, seed=seed
    )
    reference = materialized_population(spec)
    frame = generate_fleet(spec).faulty
    streamed = []
    for start in range(0, len(frame), chunk_size):
        chunk = frame[start:start + chunk_size]
        assert 0 < len(chunk) <= chunk_size
        streamed.extend(chunk)
    assert streamed == reference.faulty
    assert frame[:] == reference.faulty
    assert fleet_arch_counts(spec) == reference.arch_counts


def test_arch_counts_need_no_rng():
    counts = fleet_arch_counts(SPEC)
    assert sum(counts.values()) == SPEC.total_processors
    assert counts == fleet_arch_counts(SPEC)


def _counter_total(obs, name):
    for family in obs.metrics.snapshot()["families"]:
        if family["name"] == name:
            return sum(point["value"] for point in family["series"])
    raise AssertionError(f"metric {name} not emitted")


# -- frame-backed populations --------------------------------------------------


def test_frame_population_matches_eager(eager, framed):
    assert isinstance(framed.faulty, FleetFrame)
    assert len(framed.faulty) == len(eager.faulty)
    assert framed.faulty[:] == eager.faulty
    assert framed.arch_counts == eager.arch_counts
    assert framed.total == eager.total


def test_frame_population_grouping_matches(eager, framed):
    assert framed.detectable_faulty() == eager.detectable_faulty()
    by_arch = framed.faulty_by_arch()
    eager_by_arch = eager.faulty_by_arch()
    assert list(by_arch) == list(eager_by_arch)
    for name in by_arch:
        assert by_arch[name] == eager_by_arch[name]


def test_frame_builds_exactly_the_rows_asked(framed, eager, monkeypatch):
    frame = FleetFrame(framed.faulty.arch_names, framed.faulty.columns)
    built = _counting(frame, monkeypatch)
    n = len(frame)
    assert n == len(eager.faulty) > 64

    def rows_built():
        count = sum(len(range(*rows.indices(n))) for rows in built)
        built.clear()
        return count

    # An int builds its one row; a slice builds its own rows.
    assert frame[3] == eager.faulty[3]
    assert rows_built() == 1
    assert frame[5:12] == eager.faulty[5:12]
    assert rows_built() == 7
    # Nothing is cached: two reads build twice, equal but not identical.
    first, second = frame[40], frame[40]
    assert rows_built() == 2
    assert first == second and first is not second
    # Negative indices, step slices and the bounds behave like a list's.
    assert frame[-1] == eager.faulty[-1]
    assert frame[-3:] == eager.faulty[-3:]
    assert frame[1:60:7] == eager.faulty[1:60:7]
    assert frame[::-5] == eager.faulty[::-5]
    assert frame[n:] == frame[7:3] == []
    assert rows_built() == 1 + 3 + 9 + len(eager.faulty[::-5])
    for index in (n, -n - 1):
        with pytest.raises(IndexError):
            frame[index]
    # Iteration builds fixed blocks covering every row once.
    assert list(frame) == frame[:] == eager.faulty
    assert rows_built() == 2 * n


def test_empty_fleet_frame():
    spec = FleetSpec(total_processors=10, failure_rate_scale=1e-9, seed=1)
    population = generate_fleet(spec)
    assert len(population.faulty) == 0
    assert population.faulty[:] == list(population.faulty) == []
    for name, dtype in ROW_SCHEMA.items():
        assert population.faulty.columns[name].dtype == dtype
    assert sum(population.arch_counts.values()) == 10


# -- column store container ----------------------------------------------------


def test_colstore_rejects_corrupt_column(tmp_path):
    columns = {"a": np.arange(10, dtype=np.int64), "b": np.ones(10)}
    write_columns(tmp_path / "store", columns, meta={"kind": "test"})
    loaded, meta = read_columns(tmp_path / "store", verify=True)
    assert meta["kind"] == "test"
    np.testing.assert_array_equal(loaded["a"], columns["a"])
    # Flip one payload byte: metadata checks still pass, verify fails.
    target = tmp_path / "store" / "a.npy"
    raw = bytearray(target.read_bytes())
    raw[-1] ^= 0xFF
    target.write_bytes(bytes(raw))
    with pytest.raises(CheckpointCorruptError):
        read_columns(tmp_path / "store", verify=True)


def test_colstore_rejects_torn_manifest(tmp_path):
    write_columns(tmp_path / "store", {"a": np.arange(4)}, meta={})
    manifest = tmp_path / "store" / "manifest.json"
    manifest.write_bytes(manifest.read_bytes()[:-7])
    with pytest.raises(CheckpointError):
        read_columns(tmp_path / "store")


def test_colstore_spill_bytes_metered(tmp_path):
    obs = Observability.in_memory()
    written = write_columns(
        tmp_path / "store", {"a": np.zeros(1000)}, obs=obs
    )
    assert _counter_total(obs, "repro_spill_bytes_total") == written


# -- campaign-level parity -----------------------------------------------------


def _run_in_ranges(population, library, width):
    """The vectorized engine over ``population``, ``width`` faulty CPUs
    per ``run_range`` call; returns the result and stream position."""
    engine = VectorizedTestPipeline(population, library, seed=11)
    result = FleetStudyResult(
        population_total=population.total,
        arch_counts=dict(population.arch_counts),
    )
    faulty = len(population.faulty)
    for start in range(0, faulty, width):
        engine.run_range(start, min(start + width, faulty), result)
    return result, engine._scalar._stream.consumed


def _assert_streamed_parity(eager, framed, library, width):
    """The vectorized engine over the frame, range by range, against
    the scalar oracle over every Processor in a plain list."""
    oracle = TestPipeline(eager, library, seed=11)
    reference = oracle.run()
    streamed, position = _run_in_ranges(framed, library, width)
    assert streamed.detections == reference.detections
    assert streamed.undetected_ids == reference.undetected_ids
    assert streamed.arch_counts == reference.arch_counts
    assert position == oracle._stream.consumed
    assert len(reference.detections) > 100


def test_streamed_campaign_bit_identical(eager, framed, library):
    # Shard-sized ranges, as a campaign requests them.
    _assert_streamed_parity(eager, framed, library, SHARD)


def test_scale_reference_campaign_bit_identical(library):
    """The paper-scale run's reference fleet, in its range width."""
    spec = FleetSpec(total_processors=30_000, failure_rate_scale=20.0, seed=7)
    _assert_streamed_parity(
        materialized_population(spec), generate_fleet(spec), library,
        SCALE_RANGE,
    )


#: One paper-scale run in a fresh interpreter, whose peak RSS is then
#: the run's alone: the campaign range by range, then the detections
#: spilled to a column store, memory-mapped back with every payload
#: re-hashed, and their rates checked against the object-graph stats.
SCALE_RUN = """
import json, sys, tempfile
from pathlib import Path
from repro.analysis import DetectionFrame
from repro.fleet import FleetSpec, VectorizedTestPipeline, generate_fleet, stats
from repro.fleet.pipeline import FleetStudyResult
from repro.obs import peak_rss_bytes
from repro.testing import build_library

total, width = int(sys.argv[1]), int(sys.argv[2])
spec = FleetSpec(total_processors=total, failure_rate_scale=20.0, seed=7)
population = generate_fleet(spec)
engine = VectorizedTestPipeline(population, build_library(), seed=11)
result = FleetStudyResult(
    population_total=population.total,
    arch_counts=dict(population.arch_counts),
)
faulty = len(population.faulty)
for start in range(0, faulty, width):
    engine.run_range(start, min(start + width, faulty), result)
frame = DetectionFrame.from_result(result)
with tempfile.TemporaryDirectory() as spill_dir:
    path = Path(spill_dir) / "detections"
    frame.save(path)
    loaded = DetectionFrame.load(path, mmap=True, verify=True)
    assert loaded.overall_failure_rate() == stats.overall_failure_rate(result)
    assert loaded.timing_failure_rates() == stats.timing_failure_rates(result)
    assert loaded.arch_failure_rates() == stats.arch_failure_rates(result)
print(json.dumps({
    "detections": len(result.detections),
    "peak_rss_bytes": peak_rss_bytes(),
}))
"""


@pytest.mark.parametrize(
    "total, max_peak_rss_mb", [(300_000, 400.0), (1_000_000, 512.0)]
)
def test_paper_scale_campaign_peak_rss_bound(total, max_peak_rss_mb):
    src = Path(__file__).resolve().parents[2] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    run = subprocess.run(
        [sys.executable, "-c", SCALE_RUN, str(total), str(SCALE_RANGE)],
        env=env, capture_output=True, text=True,
    )
    assert run.returncode == 0, run.stderr
    report = json.loads(run.stdout)
    assert report["detections"] > 1_000
    assert report["peak_rss_bytes"] / 1e6 <= max_peak_rss_mb


def test_vectorized_engine_rejects_plain_lists(eager, library):
    with pytest.raises(ConfigurationError, match="FleetFrame"):
        VectorizedTestPipeline(eager, library, seed=11)


def test_bulk_multiplier_sums_match_the_catalog(library):
    """Every row's bulk multiplier sum equals the scalar one, over
    fleets whose all-core rows together cover all nine architectures
    (M9's 32 cores draw 31 multipliers), and every row's reference
    multiplier is 1.0."""
    all_core_archs = set()
    for seed in (1, 3):
        population = generate_fleet(FleetSpec(
            total_processors=50_000, failure_rate_scale=50.0, seed=seed
        ))
        frame = population.faulty
        columns = frame.columns
        archs = [frame.arch_names[code] for code in columns["arch_code"].tolist()]
        core_ids = columns["core_id"].tolist()
        processors = frame[:]
        names = [processor.processor_id for processor in processors]
        sums = fleet_multiplier_sums(archs, core_ids, names)
        for arch, core, name, total in zip(archs, core_ids, names, sums):
            if core >= 0:
                assert total == 1.0
                continue
            all_core_archs.add(arch)
            n = catalog.ARCHITECTURES[arch].physical_cores
            assert total == sum(catalog._core_multipliers(n, name).values())
        scalar = TestPipeline(population, library)
        for processor, total in zip(processors, sums):
            defect = processor.defects[0]
            assert defect.core_multiplier(defect.core_ids[0]) == 1.0
            assert scalar._multiplier_sum(defect) == total
    assert all_core_archs == set(catalog.ARCHITECTURES)


def test_campaign_builds_no_processor(library, monkeypatch):
    """A campaign over ``generate_fleet`` lowers every shard from the
    frame's columns and never builds a Processor."""
    population = generate_fleet(SPEC)
    built = _counting(population.faulty, monkeypatch)
    campaign = ResilientCampaign(population, library, seed=11, shard_size=SHARD)
    campaign.run()
    assert built == []
    assert campaign.cursor == len(population.faulty) > SHARD


def test_degraded_shard_builds_its_range_once(library, monkeypatch):
    """A parity trip reruns its shard on the scalar oracle, which
    builds exactly that shard's Processors, once."""
    population = generate_fleet(SPEC)
    built = _counting(population.faulty, monkeypatch)
    campaign = ResilientCampaign(
        population, library, seed=11, shard_size=SHARD,
        chaos=ChaosInjector({1: ["parity_trip"]}),
    )
    campaign.run()
    assert [(rows.start, rows.stop, rows.step) for rows in built] == [
        (SHARD, 2 * SHARD, None)
    ]
    assert campaign.health.degradations == 1


def test_campaign_spec_from_dict_tolerates_old_payloads():
    old = {
        "total_processors": 1000,
        "fleet_seed": 5,
        "pipeline_seed": 7,
        "failure_rate_scale": 2.0,
        "escape_fraction": 0.05,
        "shard_size": 64,
    }
    spec = CampaignSpec.from_dict(old)
    assert spec == CampaignSpec(
        total_processors=1000, fleet_seed=5, pipeline_seed=7,
        failure_rate_scale=2.0, shard_size=64,
    )
    assert list(spec.to_dict()) == list(old)
    # Retired selectors, in any combination and with any value, read
    # as the one campaign path.
    for legacy in (
        {"engine": "scalar"},
        {"engine": "parallel", "max_resident_cpus": 0},
        {"engine": "vectorized", "max_resident_cpus": 128},
    ):
        assert CampaignSpec.from_dict(dict(old, **legacy)) == spec
    with pytest.raises(ConfigurationError):
        CampaignSpec.from_dict({"fleet_seed": 5})
    with pytest.raises(ConfigurationError, match="unknown"):
        CampaignSpec.from_dict(dict(old, workers=2))


# -- columnar detections spill -------------------------------------------------


@pytest.fixture(scope="module")
def study_result(framed, library):
    return VectorizedTestPipeline(framed, library, seed=11).run()


def test_detection_frame_roundtrip(study_result):
    frame = DetectionFrame.from_result(study_result)
    assert len(frame) == len(study_result.detections)
    rebuilt = frame.to_result()
    assert rebuilt.detections == study_result.detections
    assert rebuilt.undetected_ids == study_result.undetected_ids
    assert rebuilt.arch_counts == study_result.arch_counts
    assert rebuilt.population_total == study_result.population_total


def test_detection_frame_kernels_match_stats(study_result):
    frame = DetectionFrame.from_result(study_result)
    assert frame.overall_failure_rate() == stats.overall_failure_rate(
        study_result
    )
    assert frame.timing_failure_rates() == stats.timing_failure_rates(
        study_result
    )
    assert frame.arch_failure_rates() == stats.arch_failure_rates(
        study_result
    )
    assert frame.failing_testcases() == study_result.failing_testcases()


def test_detection_frame_save_load(tmp_path, study_result):
    frame = DetectionFrame.from_result(study_result)
    frame.save(tmp_path / "detections")
    loaded = DetectionFrame.load(tmp_path / "detections", verify=True)
    assert loaded.to_result().detections == study_result.detections
    assert loaded.timing_failure_rates() == frame.timing_failure_rates()
