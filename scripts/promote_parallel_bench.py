#!/usr/bin/env python
"""Promote a measured multi-core speedup into a committed BENCH file.

A committed benchmark report captured on a 1-effective-core box cannot
speak to multi-core behaviour.  CI writes a fresh candidate report
(e.g. ``bench_perf_toolchain.py --out``); this script promotes that
candidate into the committed artifact **only** when the candidate was
measured somewhere that can actually speak to it:

* the candidate runner reports ``>= --min-cores`` effective cores
  (1-core runners skip cleanly with exit 0 — the gate, not a failure);
* the candidate's parity field is ``exact`` (a report whose results
  diverged must never be promoted);
* the candidate is a ``--benchmark-name`` report;
* the candidate's ``speedup`` reaches at least the committed one when
  the committed artifact already came from a capable runner (never
  replace a good measurement with a worse one).

Exit codes: 0 promoted or cleanly skipped, 1 candidate rejected.
"""

import argparse
import json
import sys
from pathlib import Path
REPO = Path(__file__).resolve().parents[1]


def log(message: str) -> None:
    print(f"[promote-parallel-bench] {message}", flush=True)


def promote(
    candidate_path: Path,
    committed_path: Path,
    min_cores: int,
    dry_run: bool = False,
    benchmark_name: str = "bench_perf_toolchain",
) -> int:
    try:
        candidate = json.loads(candidate_path.read_text())
    except (OSError, ValueError) as error:
        log(f"skip: no usable candidate report ({error})")
        return 0
    cores = int(candidate.get("environment", {}).get("effective_cores", 0))
    if cores < min_cores:
        log(
            f"skip: candidate measured on {cores} effective core(s); "
            f"promotion needs >= {min_cores}"
        )
        return 0
    if candidate.get("parity") != "exact":
        log(f"reject: candidate parity is {candidate.get('parity')!r}")
        return 1
    if candidate.get("benchmark") != benchmark_name:
        log(
            f"reject: not a {benchmark_name} report: "
            f"{candidate.get('benchmark')!r}"
        )
        return 1
    candidate_speedup = float(candidate.get("speedup", 0.0))
    if candidate_speedup <= 0.0:
        log("reject: candidate has no usable speedup")
        return 1
    try:
        committed = json.loads(committed_path.read_text())
    except (OSError, ValueError):
        committed = {}
    committed_cores = int(
        committed.get("environment", {}).get("effective_cores", 0)
    )
    committed_speedup = float(committed.get("speedup", 0.0))
    if committed_cores >= min_cores and committed_speedup >= candidate_speedup:
        log(
            f"skip: committed artifact already holds a >= {min_cores}-core "
            f"measurement at speedup {committed_speedup:.2f} "
            f"(candidate {candidate_speedup:.2f})"
        )
        return 0
    log(
        f"promoting: {cores}-core measurement, speedup "
        f"{candidate_speedup:.2f} (was {committed_cores}-core, "
        f"{committed_speedup:.2f})"
    )
    if dry_run:
        log("dry run: committed artifact left untouched")
        return 0
    committed_path.write_text(
        json.dumps(candidate, indent=1, sort_keys=False) + "\n"
    )
    log(f"wrote {committed_path}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--candidate", default="/tmp/BENCH_toolchain_candidate.json",
        help="fresh benchmark report to promote",
    )
    parser.add_argument(
        "--committed", default=str(REPO / "BENCH_toolchain.json"),
        help="committed artifact to promote into",
    )
    parser.add_argument(
        "--min-cores", type=int, default=4,
        help="effective cores required before a promotion (default 4)",
    )
    parser.add_argument(
        "--dry-run", action="store_true",
        help="report the decision without writing the committed file",
    )
    parser.add_argument(
        "--benchmark-name", default="bench_perf_toolchain",
        help="required 'benchmark' field of the candidate report; the "
             "same speedup/parity/core gates apply to any flat "
             "benchmark report (e.g. bench_perf_fleet)",
    )
    args = parser.parse_args(argv)
    return promote(
        Path(args.candidate),
        Path(args.committed),
        args.min_cores,
        dry_run=args.dry_run,
        benchmark_name=args.benchmark_name,
    )


if __name__ == "__main__":
    sys.exit(main())
