"""Fold the run reports in ``.e2ebench/reports`` into ``e2ebench/BASELINE.json``.

Run from the repository root after running the benchmark on several
seeds, untraced and traced::

    for seed in 1 2 3; do
      python3 e2ebench/run.py --workload study --seed $seed --seconds 25 --trace 0
    done
    python3 e2ebench/run.py --workload study --seed 1 --seconds 25 --trace 1
    python3 e2ebench/summarize.py

For each workload and end-to-end metric it records the values of the
untraced runs at BENCHMARK.json's ``run_seconds``, their median and
quartiles, and the spread (inter-quartile distance over the median)
next to the metric's bound.  From the traced runs it records the
per-layer medians and the top three layers by self time.  Later
changes cite their deltas against this file.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path

from harness import spread

ROOT = Path(__file__).resolve().parent.parent
REPORTS = ROOT / ".e2ebench" / "reports"


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


def summarize(bench: dict, reports: list) -> dict:
    seconds = bench["run_seconds"]
    out = {"run_seconds": seconds, "workloads": {}}
    for workload in bench["workloads"]:
        name = workload["name"]
        mine = [r for r in reports if r["workload"] == name
                and r["provenance"]["seconds"] == seconds]
        untraced = sorted((r for r in mine if r["provenance"]["trace"] == 0),
                          key=lambda r: r["provenance"]["seed"])
        traced = sorted((r for r in mine if r["provenance"]["trace"] == 1),
                        key=lambda r: r["provenance"]["seed"])
        entry = {
            "why": workload["why"],
            "seeds": [r["provenance"]["seed"] for r in untraced],
            "traced_seeds": [r["provenance"]["seed"] for r in traced],
            "correct_runs": sum(r["correct"] for r in mine),
            "runs": len(mine),
            "failed_operations": sum(r["failed"] for r in mine),
            "digests": {str(r["provenance"]["seed"]): r["digest"] for r in untraced},
        }
        if mine:
            entry["inputs"] = mine[0]["inputs"]
            entry["provenance"] = {
                key: mine[0]["provenance"][key]
                for key in ("effective_cores", "python", "numpy", "machine")
            }
            for key in ("state_dir_filesystem", "repro_service_core_budget",
                        "verdict_tail_percentile", "latency_resolution_s",
                        "jobs_per_pass", "goodput_limit_s"):
                if key in mine[0]:
                    entry["provenance"][key] = mine[0][key]
        e2e = {}
        for metric in bench["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in untraced]
            if not values:
                continue
            q1, median, q3 = _quartiles(values)
            e2e[metric["name"]] = {
                "unit": metric["unit"], "median": median, "q1": q1, "q3": q3,
                "spread": spread(values), "bound": metric["bound"],
                "values": values,
            }
        entry["end_to_end"] = e2e
        if traced:
            entry["per_layer"] = {
                metric["name"]: statistics.median(
                    r["metrics"][metric["name"]]["value"] for r in traced)
                for metric in bench["per_layer"]
            }
            layers = {}
            for layer in traced[0]["layers"]:
                layers[layer] = {
                    field: statistics.median(
                        r["layers"][layer][field] for r in traced)
                    for field in ("self_s", "share", "calls")
                }
            entry["layers"] = layers
            entry["top_layers"] = [
                layer for layer in sorted(layers, key=lambda l: -layers[l]["self_s"])
                if layers[layer]["self_s"] > 0
            ][:3]
        out["workloads"][name] = entry
    return out


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    reports = [json.loads(p.read_text()) for p in sorted(REPORTS.glob("*.json"))]
    summary = summarize(bench, reports)
    path = Path(__file__).resolve().parent / "BASELINE.json"
    path.write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n")
    for name, entry in summary["workloads"].items():
        print(f"{name}: {entry['runs']} runs, top layers {entry.get('top_layers')}")
        for metric, row in entry["end_to_end"].items():
            flag = "" if row["spread"] < row["bound"] / 3 else "  <-- spread"
            print(f"  {metric:20s} median {row['median']:<12.6g} "
                  f"spread {row['spread']:.4f} bound {row['bound']}{flag}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
