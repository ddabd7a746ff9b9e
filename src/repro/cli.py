"""Command-line interface: ``python -m repro <command>``.

Exposes the study's headline experiments without writing any code:

* ``fleet-study``    — Tables 1-2, Figures 2-3, Observations 4/11
* ``catalog``        — the 27 studied faulty processors (Table 3 view)
* ``test``           — run the toolchain against one catalog CPU
* ``protect``        — Farron online protection demo on MIX1
* ``detectors``      — Observation 12's fault-tolerance comparison
* ``salvage``        — fail-in-place capacity accounting
* ``resume``         — continue a checkpointed fleet study
* ``serve``          — always-on fleet service daemon (journaled HTTP API)
* ``obs-report``     — summarize/validate telemetry artifacts

Every command accepts the shared observability flags (``--metrics-out``,
``--trace-out``, ``--trace-rotate-bytes``, ``-v``, ``--log-level``);
``obs-report --trace`` reads a trace back, rotated segments included.
stdout stays reserved for machine-readable results, diagnostics go to
stderr via ``logging``.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
from typing import List, Optional

from . import __version__

__all__ = ["main", "build_parser"]

logger = logging.getLogger(__name__)


def _obs_parent() -> argparse.ArgumentParser:
    """Shared observability flags, attached to every subcommand."""
    parent = argparse.ArgumentParser(add_help=False)
    group = parent.add_argument_group("observability")
    group.add_argument(
        "--metrics-out", default=None, metavar="PATH",
        help="write campaign metrics here on exit "
             "(.json → canonical JSON container, else Prometheus text)",
    )
    group.add_argument(
        "--trace-out", default=None, metavar="PATH",
        help="write a JSONL span/event trace of the run here",
    )
    group.add_argument(
        "--trace-rotate-bytes", type=int, default=None, metavar="BYTES",
        help="rotate the trace into numbered segments "
             "(trace-000000.jsonl, ...) once a segment reaches BYTES; "
             "default: one unbounded file",
    )
    group.add_argument(
        "-v", "--verbose", action="count", default=0,
        help="stderr diagnostic verbosity (-v INFO, -vv DEBUG)",
    )
    group.add_argument(
        "--log-level", default=None, metavar="LEVEL",
        help="explicit stderr log level name (overrides -v)",
    )
    return parent


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'Understanding Silent Data Corruptions in a "
            "Large Production CPU Population' (SOSP 2023)"
        ),
    )
    parser.add_argument(
        "--version", action="version", version=f"repro {__version__}"
    )
    obs = _obs_parent()
    sub = parser.add_subparsers(dest="command", required=True)

    fleet = sub.add_parser(
        "fleet-study", parents=[obs],
        help="run the fleet measurement study",
    )
    fleet.add_argument(
        "--size", type=int, default=300_000,
        help="fleet size (default 300k; the paper used >1M)",
    )
    fleet.add_argument("--seed", type=int, default=1)
    fleet.add_argument(
        "--checkpoint-dir", default=None,
        help="write resumable snapshots here; continue with 'repro resume'",
    )
    fleet.add_argument(
        "--checkpoint-every", type=int, default=4,
        help="shards between snapshots (default 4)",
    )
    fleet.add_argument(
        "--shard-size", type=int, default=256,
        help="faulty CPUs per shard, the checkpoint granule",
    )
    fleet.add_argument(
        "--spill-dir", default=None, metavar="DIR",
        help="spill the campaign's detections to a CRC-checked column "
             "store in DIR/detections",
    )

    sub.add_parser(
        "catalog", parents=[obs],
        help="list the 27 studied faulty processors",
    )

    test = sub.add_parser(
        "test", parents=[obs],
        help="run the toolchain against a catalog CPU",
    )
    test.add_argument(
        "cpu", nargs="+",
        help="catalog name(s), e.g. MIX1 COMP3; one CPU screens on the "
             "scalar runner, several screen in lockstep on the batch "
             "engine (bit-identical results)",
    )
    test.add_argument(
        "--duration", type=float, default=60.0,
        help="seconds per testcase (default 60, the baseline's allocation)",
    )
    test.add_argument(
        "--preheat", type=float, default=None,
        help="burn-in target temperature in °C (default: start at idle)",
    )

    protect = sub.add_parser(
        "protect", parents=[obs],
        help="Farron online-protection demo (MIX1)",
    )
    protect.add_argument("--hours", type=float, default=24.0)

    sub.add_parser(
        "detectors", parents=[obs],
        help="Observation 12 detector comparison",
    )

    salvage = sub.add_parser(
        "salvage", parents=[obs],
        help="fail-in-place capacity accounting",
    )
    salvage.add_argument("--size", type=int, default=300_000)

    resume = sub.add_parser(
        "resume", parents=[obs],
        help="continue a checkpointed fleet study from its newest snapshot",
    )
    resume.add_argument(
        "checkpoint_dir",
        help="directory previously passed to fleet-study --checkpoint-dir",
    )

    serve = sub.add_parser(
        "serve", parents=[obs],
        help="run the always-on fleet service daemon",
    )
    serve.add_argument(
        "--state-dir", required=True, metavar="DIR",
        help="journal + checkpoint home; restart on the same directory "
             "resumes every acknowledged job bit-identically",
    )
    serve.add_argument(
        "--host", default="127.0.0.1",
        help="bind address (default 127.0.0.1)",
    )
    serve.add_argument(
        "--port", type=int, default=0,
        help="bind port (default 0 = pick a free one; see "
             "<state-dir>/endpoint.json for the result)",
    )
    serve.add_argument(
        "--max-queue", type=int, default=64,
        help="admission bound: queued+active jobs beyond this get 429 "
             "with Retry-After (default 64)",
    )
    serve.add_argument(
        "--max-active", type=int, default=1,
        help="jobs that run at once, one in-process campaign thread "
             "each (default 1)",
    )
    serve.add_argument(
        "--checkpoint-every", type=int, default=2,
        help="shards between campaign snapshots (default 2)",
    )
    serve.add_argument(
        "--job-timeout", type=float, default=None, metavar="SECONDS",
        help="wall-clock budget per job, checked between shards "
             "(default: unlimited)",
    )
    serve.add_argument(
        "--retain-verdicts", default=None, metavar="N|AGE",
        help="verdict retention: keep the newest N verdicts, or those "
             "younger than AGE (30m/24h/7d); expiry is journaled so a "
             "restart never resurrects a deleted verdict (default: keep "
             "everything)",
    )
    serve.add_argument(
        "--chaos", default=None, metavar="SPEC",
        help="chaos-testing hook: comma-separated action:point:nth, e.g. "
             "'kill:shard_done:3,tear_journal:journal_append:2' "
             "(simulated SIGKILL at exact lifecycle points; test use)",
    )

    report = sub.add_parser(
        "obs-report", parents=[obs],
        help="summarize --metrics-out/--trace-out artifacts",
    )
    report.add_argument(
        "--metrics", default=None, metavar="PATH",
        help="metrics artifact to load (JSON container or Prometheus text)",
    )
    report.add_argument(
        "--trace", default=None, metavar="PATH",
        help="JSONL trace artifact to load, as passed to --trace-out; "
             "rotated trace-NNNNNN.jsonl siblings are read too",
    )
    report.add_argument(
        "--check", action="store_true",
        help="validate artifact schemas/self-checks instead of rendering "
             "(CI mode: exit 1 and list violations on any problem)",
    )
    return parser


def _print_fleet_tables(campaign) -> None:
    from .analysis import side_by_side
    from .cpu.catalog import PAPER_ARCH_FAILURE_RATES_PERMYRIAD
    from .fleet import stats

    paper_timings = {
        "factory": 0.776, "datacenter": 0.18, "reinstall": 2.306,
        "regular": 0.348, "total": 3.61,
    }
    print(side_by_side(
        paper_timings, stats.timing_failure_rates_permyriad(campaign),
        title="Table 1 — failure rate per test timing (permyriad)",
    ))
    print()
    print(side_by_side(
        PAPER_ARCH_FAILURE_RATES_PERMYRIAD,
        stats.arch_failure_rates_permyriad(campaign),
        title="Table 2 — failure rate per micro-architecture (permyriad)",
    ))


def _cmd_fleet_study(args, obs=None) -> int:
    from .resilience import CampaignSpec, CheckpointStore, ResilientCampaign
    from .testing import build_library

    spec = CampaignSpec(
        total_processors=args.size,
        fleet_seed=args.seed,
        pipeline_seed=args.seed,
        shard_size=args.shard_size,
    )
    store = (
        CheckpointStore(args.checkpoint_dir)
        if args.checkpoint_dir is not None
        else None
    )
    campaign = ResilientCampaign.from_spec(
        spec, build_library(),
        checkpoint_store=store,
        checkpoint_every=args.checkpoint_every,
        obs=obs,
    )
    result = campaign.run()
    _print_fleet_tables(result)
    logger.info("campaign health: %s", campaign.health.summary())
    if args.spill_dir is not None:
        _spill_study(args.spill_dir, result, obs)
    if store is not None:
        logger.info(
            "snapshots in %s (continue with: repro resume %s)",
            store.directory, store.directory,
        )
    return 0


def _spill_study(spill_dir, result, obs=None) -> None:
    """Spill the campaign's detections as a memory-mappable column
    store."""
    from pathlib import Path

    from .analysis import DetectionFrame

    base = Path(spill_dir)
    frame = DetectionFrame.from_result(result)
    written = frame.save(base / "detections", obs=obs)
    logger.info(
        "spilled %d detections to %s (%d bytes)",
        len(frame), base / "detections", written,
    )


def _cmd_resume(args, obs=None) -> int:
    from .resilience import CheckpointStore, ResilientCampaign
    from .testing import build_library

    store = CheckpointStore(args.checkpoint_dir)
    campaign = ResilientCampaign.resume(store, build_library(), obs=obs)
    logger.info(
        "resuming at cursor %d of %d faulty CPUs",
        campaign.cursor, len(campaign.population.faulty),
    )
    result = campaign.run()
    _print_fleet_tables(result)
    logger.info("campaign health: %s", campaign.health.summary())
    return 0


def _cmd_catalog(args, obs=None) -> int:
    from .analysis import render_table
    from .cpu import full_catalog

    rows = []
    for name, processor in sorted(full_catalog().items()):
        defect = processor.defects[0]
        rows.append((
            name,
            processor.arch.name,
            f"{processor.age_years:.2f}",
            len(processor.defective_cores()),
            str(defect.sdc_type),
            ",".join(str(f) for f in defect.features),
        ))
    print(render_table(
        ("CPU", "arch", "age(Y)", "#pcore", "type", "features"),
        rows,
        title="The 27 extensively-studied faulty processors",
    ))
    return 0


def _cmd_test(args, obs=None) -> int:
    from .cpu import catalog_processor
    from .testing import TestFramework, build_library

    library = build_library()
    framework = TestFramework(library, engine="batch")
    processors = [catalog_processor(name) for name in args.cpu]
    plan = framework.equal_allocation_plan(args.duration)
    plan.preheat_to_c = args.preheat
    reports = framework.execute_batch(plan, processors, obs=obs)
    for processor, report in zip(processors, reports):
        hours = report.total_duration_s / 3600.0
        print(f"{processor.processor_id}: one round at {args.duration:.0f} s "
              f"per testcase ({hours:.2f} h total)")
        print(f"  detected: {report.detected}")
        print(f"  failing testcases: {len(report.failed_testcase_ids)}")
        print(f"  SDC records: {report.error_count}")
    return 0


def _cmd_protect(args, obs=None) -> int:
    from .core import ApplicationProfile, simulate_online
    from .cpu import Feature, catalog_processor
    from .testing import build_library

    library = build_library()
    mix1 = catalog_processor("MIX1")
    app = ApplicationProfile(
        name="matrix",
        features=frozenset({Feature.VECTOR, Feature.FPU}),
        instruction_usage={"VFMA_F32": 9.0e5},
        spike_period_s=2 * 3600.0,
        spike_duration_s=120.0,
    )
    unprotected = simulate_online(
        mix1, app, hours=args.hours, protected=False, library=library,
        dt_s=5.0, obs=obs,
    )
    protected = simulate_online(
        mix1, app, hours=args.hours, protected=True, library=library,
        dt_s=5.0, obs=obs,
    )
    print(f"MIX1, {args.hours:.0f} simulated hours:")
    print(f"  unprotected: {unprotected.sdc_count} SDCs "
          f"(max temp {unprotected.max_temp_c:.1f} °C)")
    print(f"  with Farron: {protected.sdc_count} SDCs, boundary "
          f"{protected.final_boundary_c:.1f} °C, backoff "
          f"{protected.backoff_seconds_per_hour:.1f} s/h")
    return 0


def _cmd_detectors(args, obs=None) -> int:
    from .detectors import (
        an_code_experiment,
        checksum_timing_experiment,
        ecc_multibit_experiment,
        erasure_propagation_experiment,
        prediction_experiment,
    )

    checksum = checksum_timing_experiment()
    print(f"CRC: post-parity {checksum.post_parity_rate:.0%} detected, "
          f"pre-parity (CPU SDC) {checksum.pre_parity_rate:.0%} detected")
    ecc = ecc_multibit_experiment()
    print(f"SECDED: silent miscorrection rate "
          f"{ecc.silent_failure_rate:.2%} under the study flip model")
    erasure = erasure_propagation_experiment()
    print(f"RS erasure code: corruption propagated in "
          f"{erasure.propagation_rate:.0%} of rebuilds")
    prediction = prediction_experiment()
    print(f"range prediction: missed {prediction.miss_rate:.0%} of float SDCs")
    an = an_code_experiment()
    print(f"AN-coded ALU (new opportunity): detected "
          f"{an.an_detection_rate:.0%} at decode")
    return 0


def _cmd_salvage(args, obs=None) -> int:
    from .fleet import FleetSpec, TestPipeline, generate_fleet, salvage_study
    from .testing import build_library

    fleet = generate_fleet(FleetSpec(total_processors=args.size, seed=1))
    campaign = TestPipeline(fleet, build_library(), seed=1, obs=obs).run()
    detected_ids = {d.processor_id for d in campaign.detections}
    report = salvage_study(
        [p for p in fleet.faulty if p.processor_id in detected_ids]
    )
    print(f"detected faulty processors: {report.faulty_processors}")
    print(f"cores salvaged by fine-grained decommission: "
          f"{report.cores_salvaged} of {report.cores_lost_whole_processor} "
          f"({report.salvage_fraction:.1%})")
    return 0


def _cmd_serve(args, obs=None) -> int:
    import asyncio

    from .resilience import ChaosInjector
    from .service import ReproService

    service = ReproService(
        args.state_dir,
        host=args.host,
        port=args.port,
        obs=obs,
        chaos=ChaosInjector.from_spec(args.chaos),
        max_queue=args.max_queue,
        max_active=args.max_active,
        checkpoint_every=args.checkpoint_every,
        job_timeout_s=args.job_timeout,
        retain_verdicts=args.retain_verdicts,
    )
    asyncio.run(service.run())
    return 0


def _cmd_obs_report(args, obs=None) -> int:
    from .obs import check_artifacts, render_report

    if args.metrics is None and args.trace is None:
        logger.error("error: obs-report needs --metrics and/or --trace")
        return 2
    if args.check:
        problems = check_artifacts(args.metrics, args.trace)
        for problem in problems:
            print(f"violation: {problem}")
        if problems:
            return 1
        print("ok: telemetry artifacts validate")
        return 0
    print(render_report(args.metrics, args.trace))
    return 0


_COMMANDS = {
    "fleet-study": _cmd_fleet_study,
    "catalog": _cmd_catalog,
    "test": _cmd_test,
    "protect": _cmd_protect,
    "detectors": _cmd_detectors,
    "salvage": _cmd_salvage,
    "resume": _cmd_resume,
    "serve": _cmd_serve,
    "obs-report": _cmd_obs_report,
}


def main(argv: Optional[List[str]] = None) -> int:
    from .errors import ReproError
    from .obs import logging_setup

    args = build_parser().parse_args(argv)
    try:
        logging_setup(args.log_level, verbose=args.verbose)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    observability = None
    if args.metrics_out is not None or args.trace_out is not None:
        from .obs import Observability

        observability = Observability.create(
            args.metrics_out, args.trace_out,
            trace_rotate_bytes=getattr(args, "trace_rotate_bytes", None),
        )
    try:
        return _COMMANDS[args.command](args, observability)
    except ReproError as error:
        logger.error("error: %s", error)
        return 2
    except BrokenPipeError:
        # stdout consumer (e.g. `... | head`) went away mid-report;
        # detach stdout so interpreter shutdown doesn't re-raise.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    finally:
        if observability is not None:
            observability.close()
            if args.metrics_out is not None:
                logger.info("metrics written to %s", args.metrics_out)
            if args.trace_out is not None:
                logger.info("trace written to %s", args.trace_out)
