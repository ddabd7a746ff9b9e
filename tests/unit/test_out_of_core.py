"""Out-of-core substrate: streamed generation, frames, spill.

The contract under test: every out-of-core path — chunked population
generation, frame-backed lazy populations, and column-store spill — is
*bit-identical* to the eager in-memory path it replaces, and bounded in
what it keeps resident.
"""

import numpy as np
import pytest

from repro.analysis import DetectionFrame
from repro.analysis.columnar import (
    RecordFrame,
    load_record_frame,
    save_record_frame,
)
from repro.analysis.corpus_cache import CorpusCache
from repro.colstore import read_columns, write_columns
from repro.errors import (
    CheckpointCorruptError,
    CheckpointError,
    ConfigurationError,
)
from repro.fleet import (
    FleetSpec,
    FrameFleetPopulation,
    VectorizedTestPipeline,
    fleet_arch_counts,
    generate_fleet,
    generate_fleet_frame,
    iter_fleet_chunks,
    stats,
)
from repro.fleet.frame import FleetFrame, LazyFaultyList
from repro.fleet.pipeline import FleetStudyResult
from repro.obs import Observability
from repro.resilience import CampaignSpec

#: Dense enough that every arch contributes faulty CPUs and chunk
#: boundaries land mid-arch.
SPEC = FleetSpec(total_processors=50_000, failure_rate_scale=50.0, seed=3)


@pytest.fixture(scope="module")
def eager():
    return generate_fleet(SPEC)


@pytest.fixture(scope="module")
def framed():
    return generate_fleet_frame(SPEC, chunk_size=64, window=64)


# -- streamed generation parity ------------------------------------------------


@pytest.mark.parametrize("seed", [1, 3, 7])
@pytest.mark.parametrize("chunk_size", [17, 256, 100_000])
def test_streamed_chunks_match_eager_generation(seed, chunk_size):
    spec = FleetSpec(
        total_processors=20_000, failure_rate_scale=20.0, seed=seed
    )
    eager_population = generate_fleet(spec)
    streamed = []
    for chunk in iter_fleet_chunks(spec, chunk_size=chunk_size):
        assert len(chunk) <= chunk_size
        streamed.extend(chunk.materialize())
    assert streamed == eager_population.faulty
    assert fleet_arch_counts(spec) == eager_population.arch_counts


def test_chunk_size_must_be_positive():
    with pytest.raises(ConfigurationError):
        list(iter_fleet_chunks(SPEC, chunk_size=0))


def test_arch_counts_need_no_rng():
    counts = fleet_arch_counts(SPEC)
    assert sum(counts.values()) == SPEC.total_processors
    assert counts == fleet_arch_counts(SPEC)


def _counter_total(obs, name):
    for family in obs.metrics.snapshot()["families"]:
        if family["name"] == name:
            return sum(point["value"] for point in family["series"])
    raise AssertionError(f"metric {name} not emitted")


def test_chunk_counter_reaches_obs():
    obs = Observability.in_memory()
    generate_fleet_frame(SPEC, chunk_size=64, obs=obs)
    assert _counter_total(obs, "repro_fleet_chunks_total") >= 2


# -- frame-backed populations --------------------------------------------------


def test_frame_population_matches_eager(eager, framed):
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


def test_lazy_list_window_locality(framed, eager):
    lazy = LazyFaultyList(framed.frame, window=64)
    # Sequential integer access within one window costs one rebuild.
    first = [lazy[i] for i in range(min(64, len(lazy)))]
    assert lazy.materializations == 1
    assert first == eager.faulty[: len(first)]
    # Crossing the window boundary costs exactly one more.
    if len(lazy) > 64:
        _ = lazy[64]
        assert lazy.materializations == 2
    # Slices materialize the exact requested range.
    assert lazy[5:12] == eager.faulty[5:12]
    assert lazy[-3:] == eager.faulty[-3:]
    with pytest.raises(IndexError):
        lazy[len(lazy)]


def test_frame_save_load_roundtrip(tmp_path, framed, eager):
    frame = framed.frame
    written = frame.save(tmp_path / "fleet")
    assert written > 0
    loaded = FleetFrame.load(tmp_path / "fleet", verify=True)
    assert loaded.spec == frame.spec
    assert loaded.arch_names == frame.arch_names
    assert loaded.arch_counts == frame.arch_counts
    for name, column in frame.columns.items():
        np.testing.assert_array_equal(loaded.columns[name], column)
    population = FrameFleetPopulation(loaded, window=128)
    assert population.faulty[:25] == eager.faulty[:25]


def test_empty_fleet_frame():
    spec = FleetSpec(total_processors=10, failure_rate_scale=1e-9, seed=1)
    population = generate_fleet_frame(spec, chunk_size=8)
    assert len(population.faulty) == 0
    assert population.faulty[:] == []
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


def test_streamed_campaign_bit_identical(eager, framed, library):
    reference_engine = VectorizedTestPipeline(eager, library, seed=11)
    reference = reference_engine.run()
    # Window-sized ranges, so no range asks the frame for more resident
    # Processors than its window holds.
    engine = VectorizedTestPipeline(framed, library, seed=11)
    streamed = FleetStudyResult(
        population_total=framed.total, arch_counts=dict(framed.arch_counts)
    )
    faulty = len(framed.faulty)
    for start in range(0, faulty, framed.faulty.window):
        engine.run_range(
            start, min(start + framed.faulty.window, faulty), streamed
        )
    assert streamed.detections == reference.detections
    assert streamed.undetected_ids == reference.undetected_ids
    assert streamed.arch_counts == reference.arch_counts
    assert engine._scalar._stream.consumed == (
        reference_engine._scalar._stream.consumed
    )


def test_campaign_spec_out_of_core_population():
    spec = CampaignSpec(
        total_processors=20_000,
        fleet_seed=3,
        failure_rate_scale=20.0,
        max_resident_cpus=128,
    )
    population = spec.build_population()
    assert isinstance(population, FrameFleetPopulation)
    assert population.faulty.window == 128
    eager_population = CampaignSpec(
        total_processors=20_000, fleet_seed=3, failure_rate_scale=20.0
    ).build_population()
    assert population.faulty[:] == eager_population.faulty


def test_campaign_spec_from_dict_tolerates_old_payloads():
    old = {
        "total_processors": 1000,
        "fleet_seed": 5,
        "pipeline_seed": 7,
        "failure_rate_scale": 2.0,
        "escape_fraction": 0.05,
        "engine": "scalar",
        "shard_size": 64,
        # no max_resident_cpus: written before the field existed
    }
    spec = CampaignSpec.from_dict(old)
    assert spec.max_resident_cpus == 0
    assert spec.to_dict()["max_resident_cpus"] == 0
    with pytest.raises(ConfigurationError):
        CampaignSpec.from_dict({"fleet_seed": 5})


# -- columnar detections spill -------------------------------------------------


@pytest.fixture(scope="module")
def study_result(eager, library):
    return VectorizedTestPipeline(eager, library, seed=11).run()


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


# -- record-frame spill and cache ----------------------------------------------


def _synthetic_record_store(rows=200):
    from repro.cpu.features import DataType
    from repro.rng import substream
    from repro.testing.records import RecordStore, SDCRecord

    rng = substream(17, "out-of-core-records")
    store = RecordStore()
    for row in range(rows):
        expected = int(rng.integers(0, 2**31))
        store.add(
            SDCRecord(
                processor_id=f"CPU{int(rng.integers(4))}",
                testcase_id=f"tc{int(rng.integers(5))}",
                pcore_id=0,
                defect_id="d0",
                instruction="IMUL_I32",
                dtype=DataType.INT32,
                expected_bits=expected,
                actual_bits=expected ^ (1 << int(rng.integers(31))),
                temperature_c=80.0,
                time_s=float(row),
            )
        )
    return store


def test_record_frame_spill_roundtrip(tmp_path):
    store = _synthetic_record_store()
    frame = RecordFrame.from_store(store)
    save_record_frame(frame, tmp_path / "frame")
    loaded = load_record_frame(tmp_path / "frame", verify=True)
    assert loaded.settings == frame.settings
    assert loaded.processors == frame.processors
    assert loaded.testcases == frame.testcases
    for name in (
        "expected_lo", "actual_lo", "mask_lo", "dtype_code",
        "setting_code", "processor_code", "testcase_code",
    ):
        np.testing.assert_array_equal(
            getattr(loaded, name), getattr(frame, name)
        )


def test_corpus_cache_frame_for_hits_disk(tmp_path):
    cache = CorpusCache(tmp_path)
    builds = []

    def builder():
        builds.append(1)
        return _synthetic_record_store()

    first = cache.frame_for("k1", builder)
    assert cache.last_hit is False
    assert builds == [1]
    again = cache.frame_for("k1", builder)
    assert cache.last_hit is True
    assert builds == [1], "hit must not rebuild the corpus"
    np.testing.assert_array_equal(again.mask_lo, first.mask_lo)
    assert again.settings == first.settings
