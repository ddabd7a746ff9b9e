"""End-to-end benchmark of the repo: `study`, `farron` and `serve`.

Run from the repository root::

    python3 e2ebench/run.py --workload study --seed 1 --seconds 25 --trace 0

The workload seed makes every input; the same seed gives the same
inputs.  ``--trace 0`` measures the end-to-end metrics listed in
BENCHMARK.json with tracing off; ``--trace 1`` measures the per-layer
metrics in a traced run.  Every metric is printed with its unit, and
the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A detail
report (provenance, inputs, output checks, digest, layer table) lands
in ``.e2ebench/reports/``.

The program is built from the checkout's ``src/``; without it the
benchmark exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import sys
import tempfile
from pathlib import Path

from harness import validate_metric_name, validate_unit

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".e2ebench"
CLOSED_LOOP = {"study": "workload_study", "farron": "workload_farron"}


def _fail(message: str) -> int:
    print(f"e2ebench: {message}", file=sys.stderr)
    return 2


def provenance(seed: int, seconds: float, trace: int) -> dict:
    import numpy

    return {
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "effective_cores": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        return _fail(f"no program sources at {src}")
    sys.path.insert(0, str(src))
    import repro

    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        return _fail(f"imported repro from {repro.__file__}, not {src}")

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = {w["name"]: w for w in bench["workloads"]}
    if args.workload not in workloads:
        return _fail(f"unknown workload {args.workload!r}")
    listed = bench["per_layer"] if args.trace else bench["end_to_end"]
    for metric in listed:
        validate_metric_name(metric["name"])
        validate_unit(metric["unit"])

    scratch = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(scratch, ignore_errors=True)
    scratch.mkdir(parents=True)
    tmp = WORK / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)
    tempfile.tempdir = str(tmp)
    env = dict(os.environ, PYTHONPATH=str(src))

    if args.workload == "serve":
        import workload_serve

        result = workload_serve.run(
            ROOT, args.seed, args.seconds, args.trace, scratch, env)
    else:
        import importlib

        import closed_loop

        module = importlib.import_module(CLOSED_LOOP[args.workload])
        result = closed_loop.run(
            module, args.workload, ROOT, args.seed, args.seconds, args.trace,
            scratch, env)

    measured = result["metrics"]
    unlisted = set(measured) - {m["name"] for m in listed}
    if unlisted:
        raise RuntimeError(f"metrics missing from BENCHMARK.json: {sorted(unlisted)}")
    metrics = {}
    for metric in listed:
        name = metric["name"]
        if name not in measured and not args.trace:
            raise RuntimeError(f"end-to-end metric {name} was not measured")
        # A layer this workload never calls reads 0.
        metrics[name] = {"value": float(measured.get(name, 0.0)),
                         "unit": metric["unit"]}
    finite = all(math.isfinite(m["value"]) for m in metrics.values())
    correct = result["failed"] == 0 and finite

    report = {
        "workload": args.workload,
        "why": workloads[args.workload]["why"],
        "provenance": provenance(args.seed, args.seconds, args.trace),
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
        **result["details"],
    }
    reports = WORK / "reports"
    reports.mkdir(parents=True, exist_ok=True)
    (reports / f"{scratch.name}.json").write_text(
        json.dumps(report, indent=1, sort_keys=True, default=str))

    for check in result["details"]["checks"]:
        if not check["ok"]:
            print(f"check FAILED: {check['name']} {check.get('detail', '')}")
    for name, metric in metrics.items():
        print(f"{name:34s} {metric['value']:>16.6g} {metric['unit']}")
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
