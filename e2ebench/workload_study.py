"""`study`: the paper's §3-§6 measurement pipeline, closed loop.

One caller runs the pipeline pass after pass through the public API:
fleet generation, the resilient campaign on the in-process vectorized
engine, the detection frame spilled to a column store and reloaded
memory-mapped for the Table 1/2 rates, the 27-CPU catalog SDC corpus
through the scalar toolchain runner, the columnar figure kernels and
the Observation-12 detector experiments.  Every pass of a run uses the
same inputs, all derived from the workload seed.
"""

from __future__ import annotations

import shutil
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

from repro.analysis import (
    DetectionFrame,
    RecordFrame,
    bitflip_histogram,
    bitflip_histogram_frame,
    flip_count_distribution,
    flip_count_distribution_frame,
    flip_direction_fraction,
    flip_direction_fraction_frame,
    pattern_proportions_by_setting,
    pattern_proportions_by_setting_frame,
    summarize_precision,
    summarize_precision_frame,
)
from repro.cpu import DataType, full_catalog
from repro.detectors import (
    checksum_timing_experiment,
    checksum_timing_experiment_batch,
    ecc_multibit_experiment,
    ecc_multibit_experiment_batch,
    erasure_faulty_encoder_experiment_batch,
    erasure_propagation_experiment_batch,
    prediction_experiment,
)
from repro.faults import IIDBitflip
from repro.fleet import FleetSpec, TestPipeline, generate_fleet, stats
from repro.fleet.pipeline import FleetStudyResult
from repro.resilience import ResilientCampaign
from repro.testing import RecordStore, ToolchainRunner, build_library

from harness import run_check

#: The paper's population: over one million CPUs, densified so the
#: faulty population (~6.9k CPUs) gives every stage work.
FLEET_CPUS = 1_000_000
FAILURE_RATE_SCALE = 20.0
#: §5's preheat methodology for the catalog corpus.
CORPUS_TEMP_C = 78.0
CORPUS_DURATION_S = 900.0
#: Figure dtypes run through the columnar kernels.
FIGURE_DTYPES = (
    DataType.INT32,
    DataType.FLOAT32,
    DataType.FLOAT64,
    DataType.FLOAT64X,
)
#: Observation-12 trial counts, as in the detector bench.
CHECKSUM_TRIALS = 600
ECC_TRIALS = 1500
ERASURE_TRIALS = 60
PREDICTION_STREAM = 4000
#: Campaign shards re-run on the scalar oracle by the output check.
CHECKED_SHARDS = 2
#: Every pass repeats the same inputs, so one pass is a measurement.
MIN_PASSES = 1

INPUTS = {
    "fleet_cpus": FLEET_CPUS,
    "failure_rate_scale": FAILURE_RATE_SCALE,
    "campaign_engine": "vectorized (in-process)",
    "corpus": "27 catalog CPUs, every testcase that can fail",
    "corpus_temp_c": CORPUS_TEMP_C,
    "corpus_duration_s": CORPUS_DURATION_S,
    "detector_trials": {
        "checksum": CHECKSUM_TRIALS, "ecc": ECC_TRIALS,
        "erasure": ERASURE_TRIALS, "prediction_stream": PREDICTION_STREAM,
    },
}


def setup():
    """What a fresh process builds before its first pass."""
    return {"library": build_library(), "catalog": full_catalog()}


@dataclass
class StudyPass:
    fleet: object = None
    result: Optional[FleetStudyResult] = None
    shards: int = 0
    spill_bytes: int = 0
    rates: Dict[str, object] = field(default_factory=dict)
    store: Optional[RecordStore] = None
    runs: int = 0
    productive_runs: int = 0
    figures: Dict[str, object] = field(default_factory=dict)
    detectors: Dict[str, object] = field(default_factory=dict)

    def counts(self) -> Dict[str, int]:
        return {
            "fleet.faulty_cpus": len(self.fleet.faulty),
            "resilience.shards": self.shards,
            "testing.records": len(self.store.records),
            "colstore.bytes": self.spill_bytes,
        }

    def digest_view(self) -> Dict[str, object]:
        return {
            "counts": self.counts(),
            "runs": self.runs,
            "detections": [d.to_row() for d in self.result.detections],
            "undetected": self.result.undetected_ids,
            "rates": self.rates,
            "figures": self.figures,
            "detectors": self.detectors,
        }


def run_kernels(frame: RecordFrame) -> Dict[str, object]:
    return {
        "histograms": {
            str(dtype): bitflip_histogram_frame(frame, dtype)
            for dtype in FIGURE_DTYPES
        },
        "precision": {
            str(dtype): summarize_precision_frame(frame, dtype)
            for dtype in FIGURE_DTYPES
        },
        "patterns": pattern_proportions_by_setting_frame(frame, min_records=8),
        "flip_counts": {
            str(dtype): flip_count_distribution_frame(frame, dtype)
            for dtype in FIGURE_DTYPES
        },
        "direction": flip_direction_fraction_frame(frame),
    }


def run_pass(ctx, seed: int, index: int, rec, obs, scratch: Path, *,
             fleet_cpus=FLEET_CPUS, catalog_names=None) -> StudyPass:
    """One pass of the pipeline; ``rec`` spans each public call.  Every
    pass of a run has the same inputs, so ``index`` is unused."""
    library, catalog = ctx["library"], ctx["catalog"]
    out = StudyPass()
    with rec.span("fleet.generate_fleet"):
        out.fleet = generate_fleet(FleetSpec(
            total_processors=fleet_cpus,
            failure_rate_scale=FAILURE_RATE_SCALE,
            seed=seed,
        ))
    campaign = ResilientCampaign(out.fleet, library, seed=seed, obs=obs)
    more = True
    while more:
        with rec.span("resilience.step"):
            more = campaign.step()
        out.shards += 1
    out.result = campaign.result

    spill = scratch / "detections"
    shutil.rmtree(spill, ignore_errors=True)
    with rec.span("analysis.detection_frame"):
        frame = DetectionFrame.from_result(out.result)
    with rec.span("colstore.save"):
        out.spill_bytes = frame.save(spill, obs=obs)
    with rec.span("colstore.load"):
        loaded = DetectionFrame.load(spill, mmap=True, verify=True)
    with rec.span("analysis.rates"):
        out.rates = {
            "overall": loaded.overall_failure_rate(),
            "timing": loaded.timing_failure_rates(),
            "arch": loaded.arch_failure_rates(),
        }

    out.store = RecordStore()
    names = catalog_names if catalog_names is not None else list(catalog)
    for name in names:
        runner = ToolchainRunner(catalog[name], seed=seed)
        with rec.span("testing.can_ever_fail"):
            failing = [tc for tc in library if runner.can_ever_fail(tc)]
        for testcase in failing:
            with rec.span("testing.run_at_fixed_temperature"):
                run = runner.run_at_fixed_temperature(
                    testcase, CORPUS_TEMP_C, CORPUS_DURATION_S, store=out.store
                )
            out.runs += 1
            out.productive_runs += bool(run.records or run.consistency_records)
    with rec.span("analysis.record_frame"):
        record_frame = RecordFrame.from_store(out.store)
    with rec.span("analysis.kernels"):
        out.figures = run_kernels(record_frame)

    with rec.span("detectors.experiments"):
        out.detectors = {
            "checksum": checksum_timing_experiment_batch(
                trials=CHECKSUM_TRIALS, seed=seed),
            "ecc_study": ecc_multibit_experiment_batch(
                trials=ECC_TRIALS, seed=seed),
            "ecc_iid": ecc_multibit_experiment_batch(
                bitflip_model=IIDBitflip(), trials=ECC_TRIALS, seed=seed),
            "erasure": erasure_propagation_experiment_batch(
                trials=ERASURE_TRIALS, seed=seed),
            "faulty_encoder": erasure_faulty_encoder_experiment_batch(
                trials=ERASURE_TRIALS, seed=seed),
            "prediction": prediction_experiment(
                tolerance=0.05, stream_len=PREDICTION_STREAM, seed=seed),
        }
    return out


def layer_values(spans: Dict[str, float], out: StudyPass) -> Dict[str, float]:
    """The study rows of the per-layer table, from one traced pass's
    summed span seconds by name."""
    return {
        "fleet.generate_s": spans.get("fleet.generate_fleet", 0.0),
        "resilience.step_s": spans.get("resilience.step", 0.0),
        "testing.runner_s": spans.get("testing.run_at_fixed_temperature", 0.0),
        "analysis.detections_s": sum(spans.get(name, 0.0) for name in (
            "analysis.detection_frame", "colstore.save", "colstore.load",
            "analysis.rates")),
        "analysis.columnar_s": spans.get("analysis.record_frame", 0.0)
        + spans.get("analysis.kernels", 0.0),
        "detectors.experiments_s": spans.get("detectors.experiments", 0.0),
        "testing.productive_share": (
            out.productive_runs / out.runs if out.runs else 0.0),
    }


def check(ctx, seed: int, out: StudyPass, scratch: Path) -> List[Dict[str, object]]:
    """Output checks against the repo's scalar oracles (untimed)."""
    library = ctx["library"]
    checks = []

    # Re-run the campaign shard by shard: it must reproduce the timed
    # pass, and sampled shards must match the scalar TestPipeline
    # started at the same stream position.
    replay = ResilientCampaign(out.fleet, library, seed=seed)
    faulty = len(out.fleet.faulty)
    shard_count = -(-faulty // replay.shard_size)
    sampled = sorted({0, seed % shard_count})[:CHECKED_SHARDS]
    for shard in range(shard_count):
        position = replay._stream.consumed
        before_det = len(replay.result.detections)
        before_und = len(replay.result.undetected_ids)
        replay.step()
        if shard not in sampled:
            continue
        start = shard * replay.shard_size
        stop = min(start + replay.shard_size, faulty)

        def scalar_shard():
            scalar = TestPipeline(out.fleet, library, seed=seed)
            scalar._stream.reset_to(position)
            reference = FleetStudyResult(
                population_total=out.fleet.total,
                arch_counts=dict(out.fleet.arch_counts),
            )
            scalar.run_range(start, stop, reference)
            return (
                reference.detections == replay.result.detections[before_det:]
                and reference.undetected_ids
                == replay.result.undetected_ids[before_und:],
                f"cpus [{start}, {stop})",
            )

        checks.append(run_check(
            f"campaign shard {shard} == scalar TestPipeline", scalar_shard))
    checks.append(run_check("campaign replay == timed pass", lambda: (
        replay.result.detections == out.result.detections
        and replay.result.undetected_ids == out.result.undetected_ids, "")))
    checks.append(run_check(
        "reloaded detection frame rates == fleet.stats", lambda: (
            out.rates["overall"] == stats.overall_failure_rate(out.result)
            and out.rates["timing"] == stats.timing_failure_rates(out.result)
            and out.rates["arch"] == stats.arch_failure_rates(out.result),
            "")))

    records = out.store.records
    figures = out.figures
    for dtype in FIGURE_DTYPES:
        key = str(dtype)
        checks.append(run_check(
            f"bitflip histogram {key} == analysis.bitflips", lambda: (
                figures["histograms"][key] == bitflip_histogram(records, dtype)
                and figures["flip_counts"][key]
                == flip_count_distribution(out.store, dtype),
                "")))
        checks.append(run_check(
            f"precision summary {key} == analysis.precision", lambda: (
                figures["precision"][key] == summarize_precision(records, dtype),
                "")))
    checks.append(run_check(
        "patterns and flip direction == analysis.bitflips", lambda: (
            figures["patterns"]
            == pattern_proportions_by_setting(out.store, min_records=8)
            and figures["direction"] == flip_direction_fraction(records),
            f"{len(records)} records")))
    detectors = out.detectors
    checks.append(run_check("batched detectors == scalar experiments", lambda: (
        detectors["checksum"]
        == checksum_timing_experiment(trials=CHECKSUM_TRIALS, seed=seed)
        and detectors["ecc_study"]
        == ecc_multibit_experiment(trials=ECC_TRIALS, seed=seed), "")))
    return checks
