"""`farron`: the paper's §7 mitigation loop, closed loop.

One caller screens delivery batches back to back.  A 60k-CPU fleet at
failure-rate scale 40 supplies the faulty lanes; each batch takes the
next lot of its computation-defect CPUs, identical healthy units fill
the rest (the 1:4 mix of the 200-lane ROADMAP batch), and a fresh
Farron deployment runs the pre-production round on the batch screening
engine (burn-in, the 633-testcase adequate round, targeted rounds and
core masking).  The screening records go through the columnar
analytics, and the six Table-4 CPUs run the online control loop on the
batch stepper.

Passes cycle through the same few lots of one fixed fleet, and the
workload seed drives the test and control-loop random streams.  Lots
drawn from a per-seed fleet made a run hinge on whether one of its lots
held a CPU that fires thousands of times in the adequate round: over
five seeds the median pass spread 0.098 and peak RSS 0.29 (54-83 MB).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List

from repro.core import (
    ApplicationProfile,
    Farron,
    FarronConfig,
    simulate_online_batch,
)
from repro.cpu import Feature, full_catalog
from repro.fleet import FleetSpec, generate_fleet
from repro.testing import TestFramework, build_library
from repro.testing.batch import screening_record_frame

from harness import run_check
from workload_study import run_kernels

#: 25 lanes keep one pass near 7 s on a 2-core host, so a run's
#: median spans several lots; the faulty share is the 40-in-200 of the
#: ROADMAP delivery batch.  The batch engine's per-plan cost is nearly
#: flat in the lane count, and each flagged CPU adds its targeted round,
#: so fewer faulty lanes per lot means less lot-to-lot spread.
LANES = 25
FAULTY_LANES = 5
DELIVERY_FLEET_CPUS = 60_000
DELIVERY_SCALE = 40.0
DELIVERY_FLEET_SEED = 0
#: Passes cycle through this many lots; every untraced run screens each.
LOTS = 4
MIN_PASSES = LOTS
#: Farron's adequate pre-production round (FarronConfig defaults).
PRE_PRODUCTION_PER_TESTCASE_S = 600.0
PRE_PRODUCTION_PREHEAT_C = 80.0
#: Online control-loop horizon over the six Table-4 CPUs.
ONLINE_HOURS = 4.0
ONLINE_DT_S = 5.0
TABLE4_CPUS = ("MIX1", "SIMD1", "FPU1", "FPU2", "CNST1", "CNST2")
#: Lanes of pass 0 re-run on the scalar framework by the output check:
#: up to two faulty lanes (flagged first) and one healthy lane.
CHECKED_FAULTY_LANES = 2

INPUTS = {
    "lanes": LANES,
    "faulty_lanes": FAULTY_LANES,
    "delivery_fleet_cpus": DELIVERY_FLEET_CPUS,
    "delivery_failure_rate_scale": DELIVERY_SCALE,
    "delivery_fleet_seed": DELIVERY_FLEET_SEED,
    "lots": LOTS,
    "lot_pick": "lot k = computation-defect faulty CPUs "
                "[k * faulty_lanes, (k + 1) * faulty_lanes) of the fleet; "
                "pass i screens lot i mod lots (traced runs: lot i // 2)",
    "seeded": "TestFramework and simulate_online_batch random streams",
    "pre_production": {
        "engine": "batch",
        "per_testcase_s": PRE_PRODUCTION_PER_TESTCASE_S,
        "preheat_c": PRE_PRODUCTION_PREHEAT_C,
    },
    "online": {
        "cpus": list(TABLE4_CPUS),
        "hours": ONLINE_HOURS,
        "dt_s": ONLINE_DT_S,
    },
}


def setup():
    """What a fresh process builds before its first pass."""
    return {"library": build_library(), "catalog": full_catalog()}


def table4_app(name: str) -> ApplicationProfile:
    """The Table-4 application profile of one CPU: spiky apps for the
    CPUs whose rows show control overhead, steady apps for the rest."""
    spiky = name in ("MIX1", "SIMD1", "CNST1")
    usage = {
        "MIX1": {"VFMA_F32": 9.0e5},
        "SIMD1": {"VFMA_F32": 9.0e5},
        "FPU1": {"FATAN_F64X": 8.0e5},
        "FPU2": {"FATAN_F64X": 8.0e5},
    }.get(name, {})
    return ApplicationProfile(
        name=f"app-{name}",
        features=frozenset({Feature.VECTOR, Feature.FPU, Feature.TRX_MEM}),
        instruction_usage=usage,
        consistency_ops_per_s=9.0e5 if name.startswith("CNST") else 0.0,
        spike_utilization=0.9 if spiky else 0.35,
        spike_period_s=12 * 3600.0,
        spike_duration_s=60.0,
    )


def delivery_batch(fleet, lot: int, lanes: int, faulty_lanes: int) -> list:
    """Lot ``lot`` of the fleet's computation-defect CPUs plus healthy
    units.

    CPUs with a consistency defect are left out: their record volume in
    the adequate round is heavy-tailed (one CPU of a 60k lot emitted
    834,234 consistency records, an 18 s, 340 MB pass against ~8 s and
    ~75 MB for the others).  The study workload's catalog corpus
    (CNST1, CNST2) measures that path.
    """
    computation = [
        cpu for cpu in fleet.faulty
        if not any(defect.is_consistency for defect in cpu.defects)
    ]
    faulty = computation[lot * faulty_lanes:(lot + 1) * faulty_lanes]
    healthy = [
        dataclasses.replace(
            faulty[0], processor_id=f"H-{lot:04d}-{index:03d}", defects=()
        )
        for index in range(lanes - len(faulty))
    ]
    return faulty + healthy


@dataclass
class FarronPass:
    lot: int = 0
    faulty_in_fleet: int = 0
    batch: list = field(default_factory=list)
    outcomes: list = field(default_factory=list)
    records: int = 0
    runs: int = 0
    productive_runs: int = 0
    figures: Dict[str, object] = field(default_factory=dict)
    online: list = field(default_factory=list)
    online_steps: int = 0

    def counts(self) -> Dict[str, int]:
        return {
            "fleet.faulty_cpus": self.faulty_in_fleet,
            "testing.lanes": len(self.batch),
            "core.flagged": sum(o.detected for o in self.outcomes),
            "testing.records": self.records,
        }

    def digest_view(self) -> Dict[str, object]:
        return {
            "counts": self.counts(),
            "runs": self.runs,
            "outcomes": [
                (o.processor_id, o.status.value, list(o.newly_masked_cores),
                 sorted(o.report.failed_testcase_ids))
                for o in self.outcomes
            ],
            "figures": self.figures,
            "online": [dataclasses.asdict(r) for r in self.online],
        }


def run_pass(ctx, seed: int, index: int, rec, obs, scratch=None, *, lanes=LANES,
             faulty_lanes=FAULTY_LANES, fleet_cpus=DELIVERY_FLEET_CPUS,
             online_hours=ONLINE_HOURS) -> FarronPass:
    library, catalog = ctx["library"], ctx["catalog"]
    out = FarronPass(lot=index % LOTS)
    with rec.span("fleet.generate_fleet"):
        fleet = generate_fleet(FleetSpec(
            total_processors=fleet_cpus,
            failure_rate_scale=DELIVERY_SCALE,
            seed=DELIVERY_FLEET_SEED,
        ))
    out.faulty_in_fleet = len(fleet.faulty)
    out.batch = delivery_batch(fleet, out.lot, lanes, faulty_lanes)

    farron = Farron(
        library,
        framework=TestFramework(library, seed=seed, engine="batch"),
        config=FarronConfig(
            pre_production_per_testcase_s=PRE_PRODUCTION_PER_TESTCASE_S,
            pre_production_preheat_c=PRE_PRODUCTION_PREHEAT_C,
        ),
        obs=obs,
    )
    with rec.span("core.pre_production_test_many"):
        out.outcomes = farron.pre_production_test_many(out.batch)
    reports = [o.report for o in out.outcomes]
    out.runs = sum(len(r.runs) for r in reports)
    out.productive_runs = sum(run.detected for r in reports for run in r.runs)

    with rec.span("analysis.screening_record_frame"):
        frame = screening_record_frame(reports)
    with rec.span("analysis.kernels"):
        out.figures = run_kernels(frame)
    out.records = len(frame)

    with rec.span("core.simulate_online_batch"):
        out.online = simulate_online_batch(
            [catalog[name] for name in TABLE4_CPUS],
            [table4_app(name) for name in TABLE4_CPUS],
            hours=online_hours, protected=True, farron=farron,
            dt_s=ONLINE_DT_S, seed=seed, obs=obs,
        )
    out.online_steps = len(TABLE4_CPUS) * int(online_hours * 3600.0 / ONLINE_DT_S)
    return out


def layer_values(spans: Dict[str, float], out: FarronPass) -> Dict[str, float]:
    """The farron rows of the per-layer table, from one traced pass's
    summed span seconds by name."""
    online_s = spans.get("core.simulate_online_batch", 0.0)
    return {
        "fleet.generate_s": spans.get("fleet.generate_fleet", 0.0),
        "core.pre_production_s": spans.get("core.pre_production_test_many", 0.0),
        "analysis.columnar_s": spans.get("analysis.screening_record_frame", 0.0)
        + spans.get("analysis.kernels", 0.0),
        "core.online_s": online_s,
        "core.online_steps_per_s": (
            out.online_steps / online_s if online_s > 0 else 0.0),
        "testing.productive_share": (
            out.productive_runs / out.runs if out.runs else 0.0),
    }


def _report_key(report):
    return (
        report.processor_id,
        report.total_duration_s,
        [dataclasses.asdict(run) for run in report.runs],
        report.store.records,
        report.store.consistency_records,
    )


def check(ctx, seed: int, out: FarronPass, scratch: Path) -> List[Dict[str, object]]:
    """Sampled lanes of the batch round against the scalar framework."""
    library = ctx["library"]
    scalar = TestFramework(library, seed=seed)
    plan = scalar.equal_allocation_plan(PRE_PRODUCTION_PER_TESTCASE_S)
    plan.preheat_to_c = PRE_PRODUCTION_PREHEAT_C
    faulty = [i for i, cpu in enumerate(out.batch) if cpu.defects]
    picked = sorted(
        faulty, key=lambda i: (not out.outcomes[i].detected, i)
    )[:CHECKED_FAULTY_LANES]
    picked.append(len(out.outcomes) - 1)
    checks = []
    for lane in picked:
        processor = out.batch[lane]

        def compare():
            reference = scalar.execute(plan, processor)
            return (
                _report_key(reference) == _report_key(out.outcomes[lane].report),
                f"{processor.processor_id}, "
                f"{len(reference.store.records)} records",
            )

        checks.append(run_check(
            f"batch lane {lane} == scalar TestFramework.execute", compare))
    return checks
