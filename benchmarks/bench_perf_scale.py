"""Out-of-core scale benchmark: a 1M-CPU campaign in bounded RSS.

Proves the paper-scale claim of the out-of-core substrate end-to-end:

1. **Parity** — a reference fleet (default 100k CPUs) is campaigned
   twice: through the scalar oracle ``TestPipeline`` over a plain list
   of every faulty Processor built from the same rows, and range by
   range through ``VectorizedTestPipeline`` over ``generate_fleet``'s
   frame-backed population; detections, undetected ids, and the
   finishing stream position must be bit-identical.
2. **Scale** — a 1,000,000-CPU fleet is generated as one compact
   frame, campaigned range by range through the vectorized engine
   (which lowers the frame's columns and builds no Processor), and
   analysed through the columnar ``DetectionFrame`` spilled to a
   CRC-checked on-disk column store and memory-mapped back.  Peak RSS
   over the whole run must stay under ``--max-peak-rss-mb`` (default
   512 MB — the stated bound enforced in CI).

Results land in ``BENCH_scale.json`` at the repository root.

Usage::

    PYTHONPATH=src python benchmarks/bench_perf_scale.py
    PYTHONPATH=src python benchmarks/bench_perf_scale.py \
        --processors 200000 --reference-processors 20000 \
        --out /tmp/smoke.json
"""

import argparse
import json
import logging
import platform
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from repro.analysis import DetectionFrame
from repro.faults.trigger import TriggerModel
from repro.fleet import (
    FleetPopulation,
    FleetSpec,
    TestPipeline,
    VectorizedTestPipeline,
    fleet_arch_counts,
    generate_fleet,
    stats,
)
from repro.fleet.pipeline import FleetStudyResult
from repro.obs import (
    Observability,
    effective_cores,
    logging_setup,
    record_memory,
)
from repro.testing import build_library

logger = logging.getLogger("repro.bench.perf_scale")

#: Faulty CPUs per campaign range: the vectorized engine lowers one
#: range of frame rows at a time.
RANGE_CPUS = 8192


def _detection_key(detection):
    return (
        detection.processor_id,
        detection.arch_name,
        detection.stage_name,
        detection.day,
        detection.failing_testcase_ids,
    )


def _run_streamed(spec, library, *, seed):
    """Streamed campaign: the vectorized engine over the frame-backed
    population, one ``RANGE_CPUS`` range at a time."""
    population = generate_fleet(spec)
    engine = VectorizedTestPipeline(
        population, library, trigger_model=TriggerModel(), seed=seed,
    )
    result = FleetStudyResult(
        population_total=population.total,
        arch_counts=dict(population.arch_counts),
    )
    faulty = len(population.faulty)
    for start in range(0, faulty, RANGE_CPUS):
        engine.run_range(start, min(start + RANGE_CPUS, faulty), result)
    return population, result, engine._scalar._stream.consumed


def _check_reference_parity(args, library) -> dict:
    spec = FleetSpec(
        total_processors=args.reference_processors,
        failure_rate_scale=args.scale,
        seed=args.fleet_seed,
    )
    # The scalar oracle, every faulty Processor resident at once in a
    # plain list.
    fleet = FleetPopulation(
        spec, fleet_arch_counts(spec), list(generate_fleet(spec).faulty)
    )
    oracle = TestPipeline(
        fleet, library, trigger_model=TriggerModel(), seed=args.seed
    )
    reference = oracle.run()
    reference_position = oracle._stream.consumed

    _, streamed, streamed_position = _run_streamed(
        spec, library, seed=args.seed,
    )
    ref_keys = [_detection_key(d) for d in reference.detections]
    streamed_keys = [_detection_key(d) for d in streamed.detections]
    assert ref_keys == streamed_keys, (
        "streamed campaign diverged from the scalar oracle"
    )
    assert reference.undetected_ids == streamed.undetected_ids
    assert reference.arch_counts == streamed.arch_counts
    assert reference_position == streamed_position, (
        "streamed campaign must finish at the exact serial stream position"
    )
    return {
        "processors": spec.total_processors,
        "faulty": len(fleet.faulty),
        "detections": len(ref_keys),
        "parity": "exact",
    }


def _run_scale(args, library, obs) -> dict:
    spec = FleetSpec(
        total_processors=args.processors,
        failure_rate_scale=args.scale,
        seed=args.fleet_seed,
    )
    start = time.perf_counter()
    population, result, _ = _run_streamed(spec, library, seed=args.seed)
    campaign_s = time.perf_counter() - start

    # Columnar analytics leg: encode -> spill -> mmap back -> kernels,
    # with every rate checked against the object-graph stats helpers.
    start = time.perf_counter()
    frame = DetectionFrame.from_result(result)
    with tempfile.TemporaryDirectory(prefix="bench-scale-") as spill_dir:
        spill_path = Path(spill_dir) / "detections"
        spill_bytes = frame.save(spill_path, obs=obs)
        loaded = DetectionFrame.load(spill_path, mmap=True, verify=True)
        assert loaded.overall_failure_rate() == stats.overall_failure_rate(
            result
        )
        assert loaded.timing_failure_rates() == stats.timing_failure_rates(
            result
        )
        assert loaded.arch_failure_rates() == stats.arch_failure_rates(
            result
        )
    analytics_s = time.perf_counter() - start

    peak_rss = record_memory(obs)
    report = {
        "processors": spec.total_processors,
        "failure_rate_scale": spec.failure_rate_scale,
        "faulty": len(population.faulty),
        "detections": len(result.detections),
        "range_cpus": RANGE_CPUS,
        "campaign_s": round(campaign_s, 4),
        "analytics_s": round(analytics_s, 4),
        "spill_bytes": spill_bytes,
        "peak_rss_bytes": peak_rss,
        "peak_rss_mb": round(peak_rss / 1e6, 1),
        "max_peak_rss_mb": args.max_peak_rss_mb,
    }
    return report


def run(args: argparse.Namespace) -> dict:
    library = build_library()
    obs = Observability.in_memory()

    reference = _check_reference_parity(args, library)
    scale = _run_scale(args, library, obs)

    return {
        "benchmark": "bench_perf_scale",
        "fleet_seed": args.fleet_seed,
        "pipeline_seed": args.seed,
        "reference": reference,
        "scale": scale,
        "environment": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "machine": platform.machine(),
            "effective_cores": effective_cores(),
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--processors", type=int, default=1_000_000)
    parser.add_argument(
        "--reference-processors", type=int, default=100_000,
        help="fleet the scalar oracle runs for the exact-parity check",
    )
    parser.add_argument(
        "--scale", type=float, default=20.0,
        help="failure_rate_scale densifying the faulty population",
    )
    parser.add_argument("--fleet-seed", type=int, default=7)
    parser.add_argument("--seed", type=int, default=11, help="pipeline seed")
    parser.add_argument(
        "--max-peak-rss-mb", type=float, default=512.0,
        help="fail if peak RSS over the whole benchmark exceeds this",
    )
    parser.add_argument(
        "--out",
        type=Path,
        default=Path(__file__).resolve().parent.parent / "BENCH_scale.json",
    )
    args = parser.parse_args(argv)
    logging_setup(verbose=1)

    report = run(args)
    args.out.write_text(json.dumps(report, indent=2) + "\n")
    scale = report["scale"]
    print(
        f"reference {report['reference']['processors']:,} CPUs: "
        f"{report['reference']['detections']} detections, parity exact"
    )
    print(
        f"scale {scale['processors']:,} CPUs: {scale['faulty']} faulty, "
        f"{scale['detections']} detections, campaign "
        f"{scale['campaign_s']:.2f}s, analytics {scale['analytics_s']:.2f}s, "
        f"peak RSS {scale['peak_rss_mb']:.1f} MB "
        f"(bound {scale['max_peak_rss_mb']:.0f} MB)"
    )
    logger.info("wrote %s", args.out)
    if scale["peak_rss_mb"] > args.max_peak_rss_mb:
        logger.error(
            "FAIL: peak RSS %.1f MB exceeds the %.0f MB bound",
            scale["peak_rss_mb"], args.max_peak_rss_mb,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
