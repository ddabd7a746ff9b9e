"""Speed floors and bit parity of the fast engines at full benchmark size.

Tier-1 (``tests/``) checks every fast engine against its scalar oracle
on inputs small enough to keep the suite quick.  The checks here run
the inputs the engines are sized for, where a speed floor means
something and a scalar pass takes seconds:

* **screening** — one 200-processor delivery lot (40 faulty CPUs from
  a dense generated fleet plus 160 healthy units) through the full
  633-testcase equal allocation at 60 s per testcase, on the scalar
  ``TestFramework.execute`` loop, on :class:`BatchScreeningEngine`, and
  on an instrumented batch run.  Every lane's runs, records and RNG end
  state must be identical.  The batch engine must be at least 8x the
  scalar loop on machines with at least 4 usable cores; smaller
  machines skip only the floor.
* **campaign** — 100k-processor fleets through the scalar
  ``TestPipeline`` over a plain list of every faulty Processor and
  through ``VectorizedTestPipeline`` over the frame: at failure-rate
  scale 100 as one range, and at scale 20 in the paper-scale run's
  8192-CPU ranges.  Detections, undetected ids, architecture counts
  and the final stream position must be identical.
* **analysis** — the full §4-§5 figure suite over a 120k-record
  synthetic corpus through the per-record modules and through the
  ``RecordFrame`` kernels: identical results, and the kernels at least
  10x faster (the one-time frame build is not timed).

Run with
``PYTHONPATH=src python -m pytest benchmarks/test_engine_floors.py -q``.
"""

import dataclasses
import os
import time

import pytest

from repro.analysis import (
    RecordFrame,
    bitflip_histogram,
    bitflip_histogram_frame,
    flip_count_distribution,
    flip_count_distribution_frame,
    pattern_proportions_by_setting,
    pattern_proportions_by_setting_frame,
    summarize_precision,
    summarize_precision_frame,
)
from repro.analysis.bitflips import flip_direction_fraction
from repro.analysis.columnar import flip_direction_fraction_frame
from repro.cpu import DataType, datatypes
from repro.faults.bitflip import PositionBiasedBitflip, UniformBitflip
from repro.fleet import (
    FleetPopulation,
    FleetSpec,
    TestPipeline,
    VectorizedTestPipeline,
    fleet_arch_counts,
    generate_fleet,
)
from repro.fleet.pipeline import FleetStudyResult
from repro.obs import Observability, check_artifacts
from repro.rng import substream
from repro.testing import BatchScreeningEngine, RecordStore, TestFramework
from repro.testing.framework import PlanEntry, TestPlan
from repro.testing.records import SDCRecord


def _usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity API outside Linux
        return os.cpu_count() or 1


def _timed(func, *args):
    start = time.perf_counter()
    result = func(*args)
    return result, time.perf_counter() - start


# -- screening ---------------------------------------------------------------


def _report_key(report):
    return (
        report.processor_id,
        report.total_duration_s,
        [dataclasses.asdict(run) for run in report.runs],
        report.store.records,
        report.store.consistency_records,
    )


@pytest.fixture(scope="module")
def screening_lot(library, tmp_path_factory):
    fleet = generate_fleet(
        FleetSpec(total_processors=60_000, failure_rate_scale=40.0, seed=7)
    )
    faulty = fleet.faulty[:40]
    healthy = [
        dataclasses.replace(
            faulty[0], processor_id=f"H-{index:04d}", defects=()
        )
        for index in range(160)
    ]
    processors = faulty + healthy
    plan = TestPlan(
        entries=[PlanEntry(tc.testcase_id, 60.0) for tc in library]
    )

    frameworks = [TestFramework(library, seed=0) for _ in processors]
    runners = [
        framework.runner_for(processor)
        for framework, processor in zip(frameworks, processors)
    ]

    def scalar_loop():
        return [
            framework.execute(plan, processor, runner=runner)
            for framework, processor, runner in zip(
                frameworks, processors, runners
            )
        ]

    scalar, scalar_s = _timed(scalar_loop)
    batch_engine = BatchScreeningEngine(processors, plan, library, seed=0)
    batch, batch_s = _timed(batch_engine.run)

    out = tmp_path_factory.mktemp("screening-obs")
    metrics_path, trace_path = out / "metrics.prom", out / "trace.jsonl"
    obs = Observability.create(metrics_path, trace_path)
    observed_engine = BatchScreeningEngine(
        processors, plan, library, seed=0, obs=obs
    )
    observed = observed_engine.run()
    lanes_counted = obs.metrics.total("repro_toolchain_screen_lanes_total")
    obs.close()

    def states(lane_runners):
        return [runner._rng.bit_generator.state for runner in lane_runners]

    return {
        "lanes": len(processors),
        "testcases": len(plan.entries),
        "scalar": ([_report_key(r) for r in scalar], states(runners)),
        "batch": (
            [_report_key(r) for r in batch], states(batch_engine.runners)
        ),
        "observed": (
            [_report_key(r) for r in observed],
            states(observed_engine.runners),
        ),
        "errors": sum(report.error_count for report in scalar),
        "lanes_counted": lanes_counted,
        "artifact_problems": check_artifacts(metrics_path, trace_path),
        "scalar_s": scalar_s,
        "batch_s": batch_s,
    }


def test_screening_parity_on_200_lane_lot(screening_lot):
    lot = screening_lot
    assert (lot["lanes"], lot["testcases"]) == (200, 633)
    assert lot["batch"] == lot["scalar"]
    # Telemetry changes no lane's results or RNG position.
    assert lot["observed"] == lot["scalar"]
    assert lot["lanes_counted"] == lot["lanes"]
    assert lot["artifact_problems"] == []
    # The lot finds errors (not a vacuous equality).
    assert lot["errors"] > 0


def test_screening_speedup_floor(screening_lot):
    speedup = screening_lot["scalar_s"] / screening_lot["batch_s"]
    print(
        f"\nscreening: scalar {screening_lot['scalar_s']:.2f}s, "
        f"batch {screening_lot['batch_s']:.2f}s, {speedup:.1f}x"
    )
    if _usable_cores() < 4:
        pytest.skip("the 8x screening floor needs >= 4 usable cores")
    assert speedup >= 8.0


# -- campaign ----------------------------------------------------------------


@pytest.mark.parametrize(
    "scale, range_cpus", [(100.0, None), (20.0, 8192)]
)
def test_campaign_parity_on_100k_fleet(library, scale, range_cpus):
    spec = FleetSpec(
        total_processors=100_000, failure_rate_scale=scale, seed=7
    )
    framed = generate_fleet(spec)
    plain = FleetPopulation(
        spec, fleet_arch_counts(spec), list(framed.faulty)
    )
    scalar = TestPipeline(plain, library, seed=11)
    reference = scalar.run()
    vectorized = VectorizedTestPipeline(framed, library, seed=11)
    result = FleetStudyResult(
        population_total=framed.total, arch_counts=dict(framed.arch_counts)
    )
    faulty = len(framed.faulty)
    width = range_cpus or faulty
    for start in range(0, faulty, width):
        vectorized.run_range(start, min(start + width, faulty), result)
    assert result.detections == reference.detections
    assert result.undetected_ids == reference.undetected_ids
    assert result.arch_counts == reference.arch_counts
    assert vectorized._scalar._stream.consumed == scalar._stream.consumed
    assert len(reference.detections) > 500


# -- analysis ----------------------------------------------------------------

#: Every dtype the figures analyze.
DTYPES = (
    DataType.INT16,
    DataType.INT32,
    DataType.UINT32,
    DataType.FLOAT32,
    DataType.FLOAT64,
    DataType.FLOAT64X,
    DataType.BIN8,
    DataType.BIN16,
    DataType.BIN32,
    DataType.BIN64,
)
NUMERIC_DTYPES = tuple(d for d in DTYPES if d.is_numeric)


def synthetic_corpus(records, processors, testcases, seed) -> RecordStore:
    """A corpus with the study's shape, at fleet scale.

    Each (processor, testcase) setting keeps one dtype (a defective
    instruction corrupts one result type) and reuses a small mask set
    most of the time (Observation 8's recurring patterns), with a
    fresh-mask tail.  float64x flips stay in the significand fraction:
    the paper saw no extended-precision exponent hits, and the scalar
    x87 decoder refuses values such flips would push out of range.
    """
    rng = substream(seed, "bench-analysis-corpus")
    numeric_model = PositionBiasedBitflip()
    f64x_model = PositionBiasedBitflip(fraction_bias=1.0)
    binary_model = UniformBitflip()

    def model_for(dtype):
        if dtype is DataType.FLOAT64X:
            return f64x_model
        return numeric_model if dtype.is_numeric else binary_model

    setting_dtype = {}
    setting_masks = {}
    store = RecordStore()
    for row in range(records):
        key = (int(rng.integers(processors)), int(rng.integers(testcases)))
        dtype = setting_dtype.get(key)
        if dtype is None:
            dtype = DTYPES[int(rng.integers(len(DTYPES)))]
            setting_dtype[key] = dtype
            setting_masks[key] = [
                model_for(dtype).sample_mask(dtype, rng) for _ in range(2)
            ]
        masks = setting_masks[key]
        if rng.random() < 0.75:
            mask = masks[int(rng.integers(len(masks)))]
        else:
            mask = model_for(dtype).sample_mask(dtype, rng)
        expected_bits = datatypes.encode(
            datatypes.random_value(rng, dtype), dtype
        )
        p, t = key
        store.add(
            SDCRecord(
                processor_id=f"CPU{p:03d}",
                testcase_id=f"tc{t:03d}",
                pcore_id=0,
                defect_id=f"defect-{p:03d}",
                instruction="FMA_F64",
                dtype=dtype,
                expected_bits=expected_bits,
                actual_bits=expected_bits ^ mask,
                temperature_c=78.0,
                time_s=float(row),
            )
        )
    return store


def scalar_suite(store):
    records = store.records
    return (
        [bitflip_histogram(records, dtype) for dtype in DTYPES],
        [summarize_precision(records, dtype) for dtype in NUMERIC_DTYPES],
        pattern_proportions_by_setting(store, min_records=8),
        [flip_count_distribution(store, dtype) for dtype in DTYPES],
        flip_direction_fraction(records),
    )


def columnar_suite(frame):
    return (
        [bitflip_histogram_frame(frame, dtype) for dtype in DTYPES],
        [summarize_precision_frame(frame, dtype) for dtype in NUMERIC_DTYPES],
        pattern_proportions_by_setting_frame(frame, min_records=8),
        [flip_count_distribution_frame(frame, dtype) for dtype in DTYPES],
        flip_direction_fraction_frame(frame),
    )


def test_columnar_floor_at_120k_records():
    store = synthetic_corpus(120_000, processors=30, testcases=20, seed=5)
    frame = RecordFrame.from_store(store)
    # Best of two passes each.
    scalar_s = columnar_s = float("inf")
    for _ in range(2):
        scalar, seconds = _timed(scalar_suite, store)
        scalar_s = min(scalar_s, seconds)
        columnar, seconds = _timed(columnar_suite, frame)
        columnar_s = min(columnar_s, seconds)
    assert columnar == scalar
    print(
        f"\nanalysis: scalar {scalar_s:.3f}s, columnar {columnar_s:.3f}s, "
        f"{scalar_s / columnar_s:.1f}x"
    )
    assert scalar_s / columnar_s >= 10.0
