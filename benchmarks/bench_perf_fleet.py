"""Timing benchmark: scalar vs vectorized fleet campaign.

Runs the same seeded staged test campaign through the scalar
``TestPipeline`` and the batch ``VectorizedTestPipeline``; asserts both
engines produce *identical* detections (same processors, stages, days,
and failing-testcase sets, in the same order) and finish at the same
stream position; and records the wall-clock comparison in
``BENCH_fleet.json`` at the repository root so the perf trajectory is
tracked across PRs.  Parity is enforced unconditionally.

The default configuration is a 100k-processor fleet densified with
``failure_rate_scale`` so the campaign actually exercises thousands of
faulty processors (a default-rate 100k fleet only has a few dozen).

Usage::

    PYTHONPATH=src python benchmarks/bench_perf_fleet.py
    PYTHONPATH=src python benchmarks/bench_perf_fleet.py \
        --processors 5000 --scale 10 --repeats 1 --out /tmp/smoke.json
"""

import argparse
import json
import logging
import platform
import sys
import time
from pathlib import Path

import numpy as np

from repro.faults.trigger import TriggerModel
from repro.fleet import (
    FleetSpec,
    TestPipeline,
    VectorizedTestPipeline,
    generate_fleet,
)
from repro.obs import logging_setup
from repro.perf.parallel import default_workers
from repro.testing import build_library

logger = logging.getLogger("repro.bench.perf_fleet")


def _detection_key(detection):
    return (
        detection.processor_id,
        detection.arch_name,
        detection.stage_name,
        detection.day,
        detection.failing_testcase_ids,
    )


def run(args: argparse.Namespace) -> dict:
    spec = FleetSpec(
        total_processors=args.processors,
        failure_rate_scale=args.scale,
        seed=args.fleet_seed,
    )
    fleet = generate_fleet(spec)
    library = build_library()

    scalar_s = float("inf")
    vectorized_s = float("inf")
    scalar_result = None
    vectorized_result = None
    # Fresh pipeline + trigger model per run: the scalar engine memoizes
    # setting behaviours on the trigger model, and reusing it would
    # understate the scalar cost.
    for _ in range(args.repeats):
        pipeline = TestPipeline(
            fleet, library, trigger_model=TriggerModel(), seed=args.seed
        )
        start = time.perf_counter()
        scalar_result = pipeline.run()
        scalar_s = min(scalar_s, time.perf_counter() - start)
        scalar_position = pipeline._stream.consumed

        engine = VectorizedTestPipeline(
            fleet, library, trigger_model=TriggerModel(), seed=args.seed
        )
        start = time.perf_counter()
        vectorized_result = engine.run()
        vectorized_s = min(vectorized_s, time.perf_counter() - start)
        vectorized_position = engine._scalar._stream.consumed

    scalar_keys = [_detection_key(d) for d in scalar_result.detections]
    vector_keys = [_detection_key(d) for d in vectorized_result.detections]
    assert scalar_keys == vector_keys, "vectorized detections diverged"
    assert scalar_result.undetected_ids == vectorized_result.undetected_ids
    assert scalar_position == vectorized_position, (
        "vectorized engine must finish at the scalar stream position"
    )

    fleet_info = {
        "total_processors": spec.total_processors,
        "failure_rate_scale": spec.failure_rate_scale,
        "seed": spec.seed,
        "faulty": len(fleet.faulty),
    }
    environment = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "effective_cores": default_workers(),
    }
    return {
        "benchmark": "bench_perf_fleet",
        "fleet": fleet_info,
        "pipeline_seed": args.seed,
        "repeats": args.repeats,
        "scalar_s": round(scalar_s, 4),
        "vectorized_s": round(vectorized_s, 4),
        "speedup": round(scalar_s / vectorized_s, 2),
        "detections": len(scalar_keys),
        "parity": "exact",
        "environment": environment,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--processors", type=int, default=100_000)
    parser.add_argument(
        "--scale",
        type=float,
        default=100.0,
        help="failure_rate_scale densifying the faulty population",
    )
    parser.add_argument("--fleet-seed", type=int, default=7)
    parser.add_argument("--seed", type=int, default=11, help="pipeline seed")
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument(
        "--out",
        type=Path,
        default=Path(__file__).resolve().parent.parent / "BENCH_fleet.json",
    )
    args = parser.parse_args(argv)
    logging_setup(verbose=1)
    if args.repeats < 1:
        parser.error("--repeats must be >= 1")

    report = run(args)
    args.out.write_text(json.dumps(report, indent=2) + "\n")
    print(
        f"scalar {report['scalar_s']:.3f}s  "
        f"vectorized {report['vectorized_s']:.3f}s  "
        f"speedup {report['speedup']:.1f}x  "
        f"({report['detections']} detections, parity exact)"
    )
    logger.info("wrote %s", args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
