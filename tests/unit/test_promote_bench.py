"""Gating logic of scripts/promote_parallel_bench.py.

A multi-core speedup measured by CI replaces the committed 1-core
artifact — but only from a runner with enough effective cores, only
with exact parity, and never overwriting a better multi-core
measurement.
"""

import importlib.util
import json
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "promote_parallel_bench",
    Path(__file__).resolve().parents[2]
    / "scripts" / "promote_parallel_bench.py",
)
promote_mod = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(promote_mod)


def report(cores, speedup, parity="exact", benchmark="bench_perf_toolchain"):
    return {
        "benchmark": benchmark,
        "parity": parity,
        "speedup": speedup,
        "environment": {"effective_cores": cores},
    }


@pytest.fixture()
def paths(tmp_path):
    candidate = tmp_path / "candidate.json"
    committed = tmp_path / "BENCH_toolchain.json"
    committed.write_text(json.dumps(report(1, 0.1)))
    return candidate, committed


def run(candidate, committed, **kwargs):
    return promote_mod.promote(candidate, committed, 4, **kwargs)


class TestGate:
    def test_one_core_candidate_skips_cleanly(self, paths):
        candidate, committed = paths
        candidate.write_text(json.dumps(report(1, 0.9)))
        before = committed.read_text()
        assert run(candidate, committed) == 0
        assert committed.read_text() == before

    def test_missing_candidate_skips_cleanly(self, paths):
        candidate, committed = paths
        assert run(candidate, committed) == 0

    def test_multicore_candidate_promotes(self, paths):
        candidate, committed = paths
        candidate.write_text(json.dumps(report(8, 0.7)))
        assert run(candidate, committed) == 0
        promoted = json.loads(committed.read_text())
        assert promoted["environment"]["effective_cores"] == 8

    def test_parity_violation_rejected(self, paths):
        candidate, committed = paths
        candidate.write_text(json.dumps(report(8, 0.7, parity="diverged")))
        before = committed.read_text()
        assert run(candidate, committed) == 1
        assert committed.read_text() == before

    def test_wrong_benchmark_rejected(self, paths):
        candidate, committed = paths
        candidate.write_text(
            json.dumps(report(8, 0.7, benchmark="bench_perf_analysis"))
        )
        assert run(candidate, committed) == 1

    def test_never_overwrites_a_better_multicore_measurement(self, paths):
        candidate, committed = paths
        committed.write_text(json.dumps(report(8, 0.8)))
        candidate.write_text(json.dumps(report(4, 0.5)))
        before = committed.read_text()
        assert run(candidate, committed) == 0
        assert committed.read_text() == before

    def test_better_candidate_replaces_multicore_measurement(self, paths):
        candidate, committed = paths
        committed.write_text(json.dumps(report(4, 0.5)))
        candidate.write_text(json.dumps(report(8, 0.8)))
        assert run(candidate, committed) == 0
        assert json.loads(
            committed.read_text()
        )["environment"]["effective_cores"] == 8

    def test_dry_run_decides_without_writing(self, paths):
        candidate, committed = paths
        candidate.write_text(json.dumps(report(8, 0.7)))
        before = committed.read_text()
        assert run(candidate, committed, dry_run=True) == 0
        assert committed.read_text() == before

    def test_benchmark_name_generalizes_the_gate(self, tmp_path):
        """--benchmark-name retargets the whole gate at another flat
        report (the fleet bench's speedup)."""
        candidate = tmp_path / "cand.json"
        committed = tmp_path / "BENCH_fleet.json"
        candidate.write_text(
            json.dumps(report(8, 0.7, benchmark="bench_perf_fleet"))
        )
        committed.write_text(
            json.dumps(report(1, 0.1, benchmark="bench_perf_fleet"))
        )
        assert promote_mod.promote(
            candidate, committed, 4,
            benchmark_name="bench_perf_fleet",
        ) == 0
        assert json.loads(
            committed.read_text()
        )["environment"]["effective_cores"] == 8
        # The default name rejects the same candidate.
        assert promote_mod.promote(candidate, committed, 4) == 1

    def test_cli_accepts_benchmark_name(self, tmp_path):
        candidate = tmp_path / "cand.json"
        committed = tmp_path / "comm.json"
        candidate.write_text(
            json.dumps(report(8, 0.7, benchmark="bench_perf_fleet"))
        )
        committed.write_text(
            json.dumps(report(1, 0.1, benchmark="bench_perf_fleet"))
        )
        assert promote_mod.main([
            "--candidate", str(candidate),
            "--committed", str(committed),
            "--benchmark-name", "bench_perf_fleet",
        ]) == 0

    def test_flat_speedup_report_promotes_by_speedup(self, tmp_path):
        """Flat reports (the toolchain bench) gate on their plain
        speedup field."""

        def flat(cores, speedup):
            return {
                "benchmark": "bench_perf_toolchain",
                "parity": "exact",
                "speedup": speedup,
                "environment": {"effective_cores": cores},
            }

        candidate = tmp_path / "cand.json"
        committed = tmp_path / "BENCH_toolchain.json"
        committed.write_text(json.dumps(flat(1, 8.8)))
        candidate.write_text(json.dumps(flat(8, 9.5)))
        assert promote_mod.promote(
            candidate, committed, 4,
            benchmark_name="bench_perf_toolchain",
        ) == 0
        assert json.loads(committed.read_text())["speedup"] == 9.5
        # A multi-core committed artifact is never replaced by a
        # slower candidate.
        candidate.write_text(json.dumps(flat(16, 9.0)))
        assert promote_mod.promote(
            candidate, committed, 4,
            benchmark_name="bench_perf_toolchain",
        ) == 0
        assert json.loads(committed.read_text())["speedup"] == 9.5

    def test_flat_report_without_speedup_rejected(self, tmp_path):
        candidate = tmp_path / "cand.json"
        committed = tmp_path / "comm.json"
        candidate.write_text(json.dumps({
            "benchmark": "bench_perf_toolchain",
            "parity": "exact",
            "environment": {"effective_cores": 8},
        }))
        committed.write_text("{}")
        assert promote_mod.promote(
            candidate, committed, 4,
            benchmark_name="bench_perf_toolchain",
        ) == 1

    def test_cli_skip_on_this_runner_or_promote(self, tmp_path):
        # End-to-end CLI invocation with defaults pointed at temp files:
        # on any runner this must exit 0 (skip or promote, never crash).
        candidate = tmp_path / "cand.json"
        committed = tmp_path / "comm.json"
        candidate.write_text(json.dumps(report(2, 0.9)))
        committed.write_text(json.dumps(report(1, 0.1)))
        assert promote_mod.main([
            "--candidate", str(candidate),
            "--committed", str(committed),
        ]) == 0
