"""Ablation: which of Farron's ingredients buys what.

Farron's §7.2 wins come from three mechanisms; this ablation isolates
each on MIX1-class and FPU-class CPUs:

* **prioritization** — drop it (equal time over all testcases within
  Farron's ~1 h budget) and coverage collapses, because the budget
  spreads over 633 testcases instead of the suspected/active few;
* **burn-in preheat** — drop it and high-tmin settings go undetected
  early in the round while the package is still warming;
* **adaptive boundary** — replace it with fixed low/high boundaries:
  too low throttles constantly (control overhead explodes), too high
  stops preventing tricky SDCs.
"""

from repro.analysis import render_table
from repro.core import (
    ApplicationProfile,
    Farron,
    coverage_experiment,
    simulate_online,
)
from repro.core.boundary import AdaptiveTemperatureBoundary, BoundaryDecision
from repro.cpu import Feature
from repro.testing import PlanEntry, TestFramework, TestPlan

from conftest import run_once


def _farron_like_equal_budget_plan(library, total_duration_s):
    per_testcase = total_duration_s / len(library)
    return TestPlan(
        entries=[PlanEntry(tc.testcase_id, per_testcase) for tc in library],
        preheat_to_c=72.0,
    )


def test_ablation_prioritization_and_preheat(benchmark, catalog, library):
    SEEDS = (0, 1, 2)

    def measure():
        cpu = catalog["MIX1"]
        # Every round screens one CPU, so it runs on the scalar runner.
        framework = TestFramework(library)
        known = framework.known_failing_settings(cpu, generous_duration_s=1200.0)

        farron_covs = []
        no_priority_covs = []
        cold_covs = []
        for seed in SEEDS:
            # Full Farron.
            farron = coverage_experiment(
                cpu, library, "farron", known=known,
                framework=TestFramework(library, seed=seed),
                seed=seed,
            )
            farron_covs.append(farron.coverage)

            # No prioritization: same total budget, equal split, preheated.
            no_priority_plan = _farron_like_equal_budget_plan(
                library, farron.round_duration_s
            )
            report = TestFramework(library, seed=seed).execute(
                no_priority_plan, cpu
            )
            no_priority_covs.append(
                len(report.failed_settings() & known) / len(known)
            )

            # No burn-in: the same Farron plan but starting cold.
            farron_obj = Farron(
                library, framework=TestFramework(library, seed=seed)
            )
            pre = TestFramework(library, seed=seed).execute(
                TestFramework(library).equal_allocation_plan(600.0), cpu
            )
            farron_obj.pool.add(cpu)
            farron_obj.priorities.record_processor_detections(
                cpu.processor_id, pre.failed_testcase_ids
            )
            boundary_c = farron_obj.boundary_for(cpu.processor_id).boundary_c
            plan = farron_obj.scheduler.regular_plan(
                cpu.processor_id, boundary_c
            )
            plan.preheat_to_c = None  # ablate the burn-in
            cold_report = TestFramework(library, seed=seed).execute(plan, cpu)
            cold_covs.append(
                len(cold_report.failed_settings() & known) / len(known)
            )

        mean = lambda xs: sum(xs) / len(xs)
        return {
            "known": len(known),
            "farron": mean(farron_covs),
            "no_prioritization": mean(no_priority_covs),
            "no_burn_in": mean(cold_covs),
        }

    results = run_once(benchmark, measure)
    print()
    print(
        render_table(
            ("variant", "coverage"),
            (
                ("Farron (full)", f"{results['farron']:.2f}"),
                ("- prioritization", f"{results['no_prioritization']:.2f}"),
                ("- burn-in preheat", f"{results['no_burn_in']:.2f}"),
            ),
            title=f"Ablation — MIX1 one-round coverage "
            f"({results['known']} known errors)",
        )
    )
    assert results["farron"] > results["no_prioritization"]
    # Burn-in's marginal effect is small here because Farron's all-core
    # suspected tests warm the package within minutes anyway; allow
    # run-to-run sampling spread.
    assert results["farron"] >= results["no_burn_in"] - 0.25


def test_ablation_fixed_vs_adaptive_boundary(benchmark, catalog, library):
    app = ApplicationProfile(
        name="matrix",
        features=frozenset({Feature.VECTOR, Feature.FPU}),
        instruction_usage={"VFMA_F32": 9.0e5},
        spike_period_s=2 * 3600.0,
        spike_duration_s=120.0,
    )

    class FixedBoundary(AdaptiveTemperatureBoundary):
        """Hard threshold: throttle on any exceedance, never learn."""

        def record(self, temperature_c):
            self._records.append(temperature_c)
            self._sample_count += 1
            if temperature_c <= self.boundary_c:
                return BoundaryDecision.OK
            return BoundaryDecision.BACKOFF

    def run_variant(boundary):
        farron = Farron(library)
        farron._boundaries[catalog["MIX1"].processor_id] = boundary
        return simulate_online(
            catalog["MIX1"], app, hours=24, protected=True,
            farron=farron, dt_s=5.0,
        )

    def measure():
        adaptive = run_variant(AdaptiveTemperatureBoundary(initial_c=50.0))
        # Fixed-low: throttle above 50 °C, forever.
        fixed_low = run_variant(FixedBoundary(initial_c=50.0))
        # Fixed-high: 80 °C threshold the app never reaches.
        fixed_high = run_variant(
            FixedBoundary(initial_c=80.0, hard_cap_c=85.0)
        )
        return adaptive, fixed_low, fixed_high

    adaptive, fixed_low, fixed_high = run_once(benchmark, measure)
    print()
    print(
        render_table(
            ("boundary", "SDCs", "backoff s/h", "control overhead"),
            (
                ("adaptive (Farron)", adaptive.sdc_count,
                 f"{adaptive.backoff_seconds_per_hour:.1f}",
                 f"{adaptive.control_overhead:.4%}"),
                ("fixed 50 °C", fixed_low.sdc_count,
                 f"{fixed_low.backoff_seconds_per_hour:.1f}",
                 f"{fixed_low.control_overhead:.4%}"),
                ("fixed 80 °C", fixed_high.sdc_count,
                 f"{fixed_high.backoff_seconds_per_hour:.1f}",
                 f"{fixed_high.control_overhead:.4%}"),
            ),
            title="Ablation — adaptive vs fixed temperature boundary (MIX1)",
        )
    )
    # Adaptive: protects AND stays cheap.
    assert adaptive.sdc_count == 0
    # Fixed-low also protects but throttles vastly more.
    assert fixed_low.sdc_count == 0
    assert fixed_low.backoff_seconds_per_hour > max(
        10.0 * adaptive.backoff_seconds_per_hour, 60.0
    )
    # Fixed-high never throttles and lets tricky SDCs through.
    assert fixed_high.backoff_seconds == 0.0
    assert fixed_high.sdc_count > 0


def test_ablation_backoff_vs_cooling_control(benchmark, catalog, library):
    """§5's two temperature controls, compared.

    Cooling-device control costs no performance (zero backoff) but
    responds through the package's thermal inertia, so an occasional
    excursion can still graze the trigger zone; workload backoff clips
    faster at a small performance cost — which is the trade Farron
    makes because cooling control "is not widely applicable" anyway.
    """
    app = ApplicationProfile(
        name="matrix",
        features=frozenset({Feature.VECTOR, Feature.FPU}),
        instruction_usage={"VFMA_F32": 9.0e5},
        spike_period_s=2 * 3600.0,
        spike_duration_s=120.0,
    )

    def measure():
        unprotected = simulate_online(
            catalog["MIX1"], app, hours=36, protected=False,
            library=library, dt_s=5.0,
        )
        backoff = simulate_online(
            catalog["MIX1"], app, hours=36, protected=True,
            library=library, dt_s=5.0, control="backoff",
        )
        cooling = simulate_online(
            catalog["MIX1"], app, hours=36, protected=True,
            library=library, dt_s=5.0, control="cooling",
        )
        return unprotected, backoff, cooling

    unprotected, backoff, cooling = run_once(benchmark, measure)
    print()
    print(
        render_table(
            ("control", "SDCs", "backoff s/h", "max temp"),
            (
                ("none", unprotected.sdc_count, "0.0",
                 f"{unprotected.max_temp_c:.1f}"),
                ("workload backoff", backoff.sdc_count,
                 f"{backoff.backoff_seconds_per_hour:.1f}",
                 f"{backoff.max_temp_c:.1f}"),
                ("cooling device", cooling.sdc_count, "0.0",
                 f"{cooling.max_temp_c:.1f}"),
            ),
            title="Ablation — §5's two temperature-control mechanisms (MIX1)",
        )
    )
    assert backoff.sdc_count == 0
    assert cooling.backoff_seconds == 0.0  # no performance impact
    assert cooling.sdc_count <= max(1, unprotected.sdc_count // 2)
    assert cooling.max_temp_c <= unprotected.max_temp_c
