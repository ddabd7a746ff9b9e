"""Unit tests for the command-line interface."""

import pytest

from repro.analysis import DetectionFrame
from repro.cli import build_parser, main
from repro.cpu import catalog_processor
from repro.resilience import CampaignSpec, ResilientCampaign
from repro.testing import TestFramework


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_fleet_study_defaults(self):
        args = build_parser().parse_args(["fleet-study"])
        assert args.size == 300_000
        assert args.seed == 1

    @pytest.mark.parametrize("option", [
        ["--engine", "vectorized"],
        ["--max-resident-cpus", "128"],
    ])
    def test_fleet_study_has_no_campaign_selectors(self, option):
        """Every campaign runs vectorized over a frame-backed fleet."""
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fleet-study", *option])

    @pytest.mark.parametrize("argv", [
        ["top", "--once"],
        ["trace-export", "trace.jsonl"],
        ["serve", "--state-dir", "s", "--scrape-interval", "0.2"],
        ["serve", "--state-dir", "s", "--rss-limit-mb", "512"],
    ])
    def test_mission_control_settings_are_gone(self, argv):
        """The daemon keeps /metrics and the trace; the time-series
        dashboard, the exporter and their settings are gone."""
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(argv)
        assert exc.value.code == 2

    def test_test_command(self):
        args = build_parser().parse_args(
            ["test", "MIX1", "--duration", "30", "--preheat", "70"]
        )
        assert args.cpu == ["MIX1"]
        assert args.duration == 30.0
        assert args.preheat == 70.0

    def test_test_command_multi_cpu_batch(self):
        """The number of CPUs picks the screening engine; there is no
        option for it."""
        args = build_parser().parse_args(["test", "MIX1", "FPU1"])
        assert args.cpu == ["MIX1", "FPU1"]
        with pytest.raises(SystemExit):
            build_parser().parse_args(["test", "MIX1", "--engine", "batch"])

    def test_version_exits(self):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["--version"])
        assert exc.value.code == 0


class TestCommands:
    def test_catalog_lists_27(self, capsys):
        assert main(["catalog"]) == 0
        out = capsys.readouterr().out
        assert "MIX1" in out and "CNST2" in out
        # 27 CPUs plus a three-line header.
        assert len(out.strip().splitlines()) == 27 + 3

    def test_test_unknown_cpu_fails_cleanly(self, capsys):
        assert main(["test", "NOPE"]) == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("bad", [
        ["--shard-size", "0"],
        ["--checkpoint-every", "0"],
        ["--size", "0"],
    ])
    def test_fleet_study_bad_value_fails_cleanly(self, capsys, bad):
        assert main(["fleet-study", "--size", "2000", *bad]) == 2
        err = capsys.readouterr().err
        assert "error" in err
        assert "Traceback" not in err

    def test_fleet_study_spills_detections_only(self, tmp_path, library):
        """The fleet frame is a function of the spec, so ``--spill-dir``
        keeps only the detections, which load back CRC-verified."""
        spill = tmp_path / "study"
        assert main([
            "fleet-study", "--size", "20000", "--spill-dir", str(spill),
        ]) == 0
        assert [path.name for path in spill.iterdir()] == ["detections"]
        loaded = DetectionFrame.load(spill / "detections", verify=True)
        direct = ResilientCampaign.from_spec(
            CampaignSpec(total_processors=20_000, pipeline_seed=1), library
        ).run()
        assert len(loaded) == len(direct.detections) > 0
        assert loaded.to_result().detections == direct.detections

    def test_test_runs_catalog_cpu(self, capsys):
        assert main(["test", "SIMD1", "--duration", "2"]) == 0
        out = capsys.readouterr().out
        assert "SIMD1" in out
        assert "detected" in out

    def test_test_several_cpus_print_the_scalar_lines(self, library, capsys):
        """Two CPUs screen in lockstep on the batch engine and print
        what screening each alone on the scalar runner prints."""
        names = ["MIX1", "FPU1"]
        assert main(["test", *names, "--duration", "30"]) == 0
        grouped = capsys.readouterr().out
        alone = ""
        for name in names:
            assert main(["test", name, "--duration", "30"]) == 0
            alone += capsys.readouterr().out
        assert grouped == alone
        framework = TestFramework(library)
        plan = framework.equal_allocation_plan(30.0)
        counts = [
            framework.execute(plan, catalog_processor(name)).error_count
            for name in names
        ]
        assert [
            int(line.split(":")[1])
            for line in grouped.splitlines()
            if "SDC records" in line
        ] == counts

    def test_detectors_command(self, capsys):
        assert main(["detectors"]) == 0
        out = capsys.readouterr().out
        assert "pre-parity" in out
        assert "AN-coded" in out
