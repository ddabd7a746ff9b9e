"""Timing benchmark: scalar vs columnar SDC-record analytics.

Materializes a large synthetic SDC-record corpus (100k+ records across
hundreds of settings, every dtype of Table 3), runs the full §4-§5
figure-analysis suite once through the scalar record-loop modules
(:mod:`repro.analysis.bitflips` / :mod:`repro.analysis.precision`) and
once through the columnar frame kernels
(:mod:`repro.analysis.columnar`); asserts the results are *identical*
(histogram counts, pattern proportions, flip-count distributions, and
precision summaries, down to the last double); and records the
wall-clock comparison in ``BENCH_analysis.json`` at the repository root
so the perf trajectory is tracked across PRs.

The corpus is built in process on every run (``materialize_s`` in the
report), so it always reflects the current bitflip models.

Parity is enforced unconditionally; the ``--min-speedup`` gate can be
relaxed (e.g. in CI containers with noisy neighbours) without touching
the parity checks.  The gate compares the kernel passes; the one-time
frame construction (paid once per corpus and shared session-wide by
every figure benchmark) is timed and recorded separately, along with
the combined ``speedup_with_frame_build``.

Usage::

    PYTHONPATH=src python benchmarks/bench_perf_analysis.py
    PYTHONPATH=src python benchmarks/bench_perf_analysis.py \
        --records 20000 --min-speedup 0 --out /tmp/smoke.json
"""

import argparse
import json
import logging
import platform
import sys
import time
from pathlib import Path

import numpy as np

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
from repro.obs import logging_setup
from repro.rng import substream
from repro.testing import RecordStore
from repro.testing.records import SDCRecord

logger = logging.getLogger("repro.bench.perf_analysis")

#: Every dtype the figures analyze.  The setting's dtype is fixed (a
#: defective instruction corrupts one result type), like the catalog's.
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


def build_synthetic_corpus(
    records: int, processors: int, testcases: int, seed: int
) -> RecordStore:
    """A corpus with the study's shape, at fleet scale.

    Settings reuse a small per-setting mask set most of the time
    (Observation 8's recurring patterns) with a fresh-mask tail, so the
    pattern-mining kernels see realistic group structure.  float64x
    flips are confined to the significand fraction — the paper observed
    no extended-precision exponent hits, and the scalar x87 decoder
    (rightly) refuses to materialize the astronomically-out-of-range
    values such flips would produce.
    """
    rng = substream(seed, "bench-analysis-corpus")
    numeric_model = PositionBiasedBitflip()
    f64x_model = PositionBiasedBitflip(fraction_bias=1.0)
    binary_model = UniformBitflip()

    def model_for(dtype: DataType):
        if dtype is DataType.FLOAT64X:
            return f64x_model
        if dtype.is_numeric:
            return numeric_model
        return binary_model

    setting_dtype = {}
    setting_masks = {}
    store = RecordStore()
    for row in range(records):
        p = int(rng.integers(processors))
        t = int(rng.integers(testcases))
        key = (p, t)
        dtype = setting_dtype.get(key)
        if dtype is None:
            dtype = DTYPES[int(rng.integers(len(DTYPES)))]
            setting_dtype[key] = dtype
            model = model_for(dtype)
            setting_masks[key] = [
                model.sample_mask(dtype, rng) for _ in range(2)
            ]
        masks = setting_masks[key]
        if rng.random() < 0.75:
            mask = masks[int(rng.integers(len(masks)))]
        else:
            mask = model_for(dtype).sample_mask(dtype, rng)
        expected_bits = datatypes.encode(
            datatypes.random_value(rng, dtype), dtype
        )
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


def scalar_suite(store: RecordStore) -> dict:
    """The full figure-analysis pass through the per-record modules."""
    return {
        "histograms": {
            dtype: bitflip_histogram(store.records, dtype)
            for dtype in DTYPES
        },
        "summaries": {
            dtype: summarize_precision(store.records, dtype)
            for dtype in NUMERIC_DTYPES
        },
        "proportions": pattern_proportions_by_setting(store, min_records=8),
        "flip_counts": {
            dtype: flip_count_distribution(store, dtype) for dtype in DTYPES
        },
        "direction": flip_direction_fraction(store.records),
    }


def columnar_suite(frame: RecordFrame) -> dict:
    """The same pass through the struct-of-arrays kernels.

    Frame construction is timed separately by the harness: the frame is
    built once per corpus (the benchmark suite shares it session-wide
    across every figure) and amortized over all subsequent kernels.
    """
    return {
        "histograms": {
            dtype: bitflip_histogram_frame(frame, dtype) for dtype in DTYPES
        },
        "summaries": {
            dtype: summarize_precision_frame(frame, dtype)
            for dtype in NUMERIC_DTYPES
        },
        "proportions": pattern_proportions_by_setting_frame(
            frame, min_records=8
        ),
        "flip_counts": {
            dtype: flip_count_distribution_frame(frame, dtype)
            for dtype in DTYPES
        },
        "direction": flip_direction_fraction_frame(frame),
    }


def run(args: argparse.Namespace) -> dict:
    start = time.perf_counter()
    store = build_synthetic_corpus(
        args.records, args.processors, args.testcases, args.corpus_seed
    )
    materialize_s = time.perf_counter() - start

    start = time.perf_counter()
    frame = RecordFrame.from_store(store)
    frame_build_s = time.perf_counter() - start

    scalar_s = float("inf")
    columnar_s = float("inf")
    scalar = columnar = None
    for _ in range(args.repeats):
        start = time.perf_counter()
        scalar = scalar_suite(store)
        scalar_s = min(scalar_s, time.perf_counter() - start)

        start = time.perf_counter()
        columnar = columnar_suite(frame)
        columnar_s = min(columnar_s, time.perf_counter() - start)

    # Exact parity, result by result.
    for dtype in DTYPES:
        assert scalar["histograms"][dtype] == columnar["histograms"][dtype], (
            f"histogram diverged for {dtype}"
        )
        assert scalar["flip_counts"][dtype] == columnar["flip_counts"][dtype], (
            f"flip-count distribution diverged for {dtype}"
        )
    for dtype in NUMERIC_DTYPES:
        assert scalar["summaries"][dtype] == columnar["summaries"][dtype], (
            f"precision summary diverged for {dtype}"
        )
    assert scalar["proportions"] == columnar["proportions"], (
        "pattern proportions diverged"
    )
    assert scalar["direction"] == columnar["direction"], (
        "flip-direction fraction diverged"
    )

    return {
        "benchmark": "bench_perf_analysis",
        "corpus": {
            "records": len(store.records),
            "settings": len({r.setting for r in store.records}),
            "seed": args.corpus_seed,
            "materialize_s": round(materialize_s, 4),
        },
        "repeats": args.repeats,
        "scalar_s": round(scalar_s, 4),
        "columnar_s": round(columnar_s, 4),
        "frame_build_s": round(frame_build_s, 4),
        "speedup": round(scalar_s / columnar_s, 2),
        "speedup_with_frame_build": round(
            scalar_s / (columnar_s + frame_build_s), 2
        ),
        "parity": "exact",
        "environment": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "machine": platform.machine(),
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--records", type=int, default=120_000)
    parser.add_argument("--processors", type=int, default=30)
    parser.add_argument("--testcases", type=int, default=20)
    parser.add_argument("--corpus-seed", type=int, default=5)
    parser.add_argument("--repeats", type=int, default=2)
    parser.add_argument(
        "--min-speedup", type=float, default=10.0,
        help="fail unless columnar speedup reaches this (0 disables the "
             "gate; parity is always enforced)",
    )
    parser.add_argument(
        "--out",
        type=Path,
        default=Path(__file__).resolve().parent.parent
        / "BENCH_analysis.json",
    )
    args = parser.parse_args(argv)
    logging_setup(verbose=1)
    if args.repeats < 1:
        parser.error("--repeats must be >= 1")

    report = run(args)
    args.out.write_text(json.dumps(report, indent=2) + "\n")
    print(
        f"corpus {report['corpus']['records']} records "
        f"/ {report['corpus']['settings']} settings "
        f"(built in {report['corpus']['materialize_s']:.2f}s)"
    )
    print(
        f"scalar {report['scalar_s']:.3f}s  "
        f"columnar {report['columnar_s']:.3f}s  "
        f"(+{report['frame_build_s']:.3f}s one-time frame build)  "
        f"speedup {report['speedup']:.1f}x  "
        f"({report['speedup_with_frame_build']:.1f}x incl. frame build, "
        f"parity exact)"
    )
    logger.info("wrote %s", args.out)
    if args.min_speedup > 0.0 and report["speedup"] < args.min_speedup:
        logger.error(
            "FAIL: columnar speedup %.2fx below gate %.2fx",
            report["speedup"], args.min_speedup,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
