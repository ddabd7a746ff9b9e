"""Batch screening engine: bit-exact parity with the scalar runner.

The contract under test is the tentpole claim: for any seed, plan and
defect mix, running one ``TestPlan`` per processor through
:class:`BatchScreeningEngine` produces exactly what looping
``TestFramework.execute`` produces — the same ``TestcaseRun`` fields
(records, consistency records, temperatures), the same report totals,
and the same RNG end position per lane.
"""

import dataclasses

import numpy as np
import pytest

from repro.core import Farron
from repro.cpu import catalog_processor
from repro.errors import ConfigurationError
from repro.obs import Observability
from repro.testing import (
    BatchScreeningEngine,
    TestFramework,
    TestPlan,
    screen_plans,
    screening_record_frame,
)
from repro.testing.framework import PlanEntry
from repro.thermal.batch import BatchPackageThermalModel
from repro.thermal.model import PackageThermalModel


def scalar_oracle(library, processors, plans, seeds):
    """Reports and RNG end states from the per-processor scalar loop."""
    reports, states = [], []
    for processor, plan, seed in zip(processors, plans, seeds):
        framework = TestFramework(library, seed=seed)
        runner = framework.runner_for(processor)
        reports.append(framework.execute(plan, processor, runner=runner))
        states.append(runner._rng.bit_generator.state)
    return reports, states


def assert_reports_equal(scalar_reports, batch_reports):
    assert len(scalar_reports) == len(batch_reports)
    for scalar, batch in zip(scalar_reports, batch_reports):
        assert scalar.processor_id == batch.processor_id
        assert scalar.total_duration_s == batch.total_duration_s
        assert [dataclasses.asdict(run) for run in scalar.runs] == [
            dataclasses.asdict(run) for run in batch.runs
        ]
        assert scalar.store.records == batch.store.records
        assert (
            scalar.store.consistency_records
            == batch.store.consistency_records
        )


class TestEngineParity:
    @pytest.mark.parametrize("seed", [0, 7])
    @pytest.mark.parametrize("preheat", [None, 82.0])
    @pytest.mark.parametrize(
        "names",
        [
            ["MIX1", "COMP3", "FPU2"],          # computation defects
            ["CNST1", "CNSTG2", "CNSTG5"],      # consistency defects
            ["MIX2", "CNSTG4", "SIMD1"],        # mixed
        ],
    )
    def test_matrix(self, library, names, preheat, seed):
        processors = [catalog_processor(name) for name in names]
        ids = [tc.testcase_id for tc in library]
        cons_ids = [tc.testcase_id for tc in library if tc.is_consistency]
        plan = TestPlan(
            entries=[PlanEntry(t, 40.0) for t in ids[:50] + cons_ids[:6]],
            preheat_to_c=preheat,
        )
        plans = [plan] * len(processors)
        seeds = [seed] * len(processors)
        scalar_reports, states = scalar_oracle(
            library, processors, plans, seeds
        )
        engine = BatchScreeningEngine(processors, plan, library, seed=seed)
        batch_reports = engine.run()
        assert_reports_equal(scalar_reports, batch_reports)
        for runner, state in zip(engine.runners, states):
            assert runner._rng.bit_generator.state == state

    def test_heterogeneous_plans_and_seeds(self, library):
        """Different plans, durations, preheats and seeds per lane."""
        names = ["MIX1", "COMP7", "CNSTG3", "FPU1", "SIMD2"]
        processors = [catalog_processor(name) for name in names]
        ids = [tc.testcase_id for tc in library]
        plans = []
        for k in range(len(processors)):
            entries = [
                PlanEntry(t, 35.0 + 5.0 * (k % 3))
                for t in ids[k * 30:(k + 1) * 30 + 10]
            ]
            plan = TestPlan(entries=entries)
            if k % 2 == 0:
                plan.preheat_to_c = 70.0 + 3.0 * k
            plans.append(plan)
        seeds = [11, 3, 5, 3, 9]
        scalar_reports, states = scalar_oracle(
            library, processors, plans, seeds
        )
        engine = BatchScreeningEngine(processors, plans, library, seed=seeds)
        assert_reports_equal(scalar_reports, engine.run())
        for runner, state in zip(engine.runners, states):
            assert runner._rng.bit_generator.state == state

    def test_explicit_cores_entries(self, library):
        """Per-entry core pinning interleaved with all-core entries."""
        processors = [catalog_processor("MIX1"), catalog_processor("COMP1")]
        ids = [tc.testcase_id for tc in library]
        plan = TestPlan(
            entries=[
                PlanEntry(ids[0], 50.0),
                PlanEntry(ids[1], 30.0, cores=(0, 1, 2)),
                PlanEntry(ids[2], 25.0, cores=(5,)),
                PlanEntry(ids[3], 50.0),
            ]
        )
        scalar_reports, states = scalar_oracle(
            library, processors, [plan, plan], [2, 2]
        )
        engine = BatchScreeningEngine(processors, plan, library, seed=2)
        assert_reports_equal(scalar_reports, engine.run())
        for runner, state in zip(engine.runners, states):
            assert runner._rng.bit_generator.state == state

    def test_healthy_processor_zero_errors(self, library):
        """A defect-free lane produces runs but zero draws."""
        healthy = dataclasses.replace(
            catalog_processor("MIX1"), processor_id="H-0", defects=()
        )
        plan = TestPlan(
            entries=[
                PlanEntry(tc.testcase_id, 60.0) for tc in list(library)[:40]
            ]
        )
        scalar_reports, states = scalar_oracle(
            library, [healthy], [plan], [0]
        )
        engine = BatchScreeningEngine([healthy], plan, library, seed=0)
        batch_reports = engine.run()
        assert_reports_equal(scalar_reports, batch_reports)
        assert batch_reports[0].error_count == 0
        # No draw may ever touch a healthy lane's substream.
        assert engine.runners[0]._rng.bit_generator.state == states[0]

    def test_thermal_state_matches_scalar(self, library):
        """Per-lane (t_package, deltas) end state equals the scalar model's."""
        processors = [catalog_processor("MIX1"), catalog_processor("CNST2")]
        plan = TestPlan(
            entries=[
                PlanEntry(tc.testcase_id, 45.0) for tc in list(library)[:25]
            ],
            preheat_to_c=75.0,
        )
        engine = BatchScreeningEngine(processors, plan, library, seed=1)
        engine.run()
        for i, processor in enumerate(processors):
            framework = TestFramework(library, seed=1)
            runner = framework.runner_for(processor)
            framework.execute(plan, processor, runner=runner)
            t_package, deltas = engine.thermal.lane_states()[i]
            assert t_package == runner.thermal._t_package
            assert deltas == runner.thermal._deltas
            assert float(engine.elapsed[i]) == runner.thermal.elapsed_s


class TestObsInstrumentation:
    def test_enabled_vs_disabled_bit_identity(self, library):
        processors = [catalog_processor("MIX1"), catalog_processor("CNSTG6")]
        plan = TestPlan(
            entries=[
                PlanEntry(tc.testcase_id, 40.0) for tc in list(library)[:30]
            ]
        )
        silent = BatchScreeningEngine(processors, plan, library, seed=4)
        silent_reports = silent.run()
        obs = Observability.in_memory()
        observed = BatchScreeningEngine(
            processors, plan, library, seed=4, obs=obs
        )
        observed_reports = observed.run()
        assert_reports_equal(silent_reports, observed_reports)
        for a, b in zip(silent.runners, observed.runners):
            assert (
                a._rng.bit_generator.state == b._rng.bit_generator.state
            )
        rendered = obs.metrics.to_prometheus_text()
        assert "repro_toolchain_screen_lanes_total" in rendered
        assert "repro_toolchain_screen_windows_total" in rendered

    def test_screen_plans_wrapper(self, library):
        processors = [catalog_processor("COMP2")]
        plan = TestPlan(
            entries=[
                PlanEntry(tc.testcase_id, 30.0) for tc in list(library)[:10]
            ]
        )
        engine = BatchScreeningEngine(processors, plan, library, seed=0)
        assert_reports_equal(
            engine.run(), screen_plans(processors, plan, library, seed=0)
        )


class TestValidation:
    def test_empty_processors(self, library):
        with pytest.raises(ConfigurationError):
            BatchScreeningEngine([], TestPlan(), library)

    def test_plan_count_mismatch(self, library):
        processors = [catalog_processor("MIX1")]
        plan = TestPlan(entries=[PlanEntry(list(library)[0].testcase_id, 10.0)])
        with pytest.raises(ConfigurationError):
            BatchScreeningEngine(processors, [plan, plan], library)

    def test_seed_count_mismatch(self, library):
        processors = [catalog_processor("MIX1")]
        plan = TestPlan(entries=[PlanEntry(list(library)[0].testcase_id, 10.0)])
        with pytest.raises(ConfigurationError):
            BatchScreeningEngine(processors, plan, library, seed=[1, 2])

    def test_bad_dt(self, library):
        processors = [catalog_processor("MIX1")]
        plan = TestPlan(entries=[PlanEntry(list(library)[0].testcase_id, 10.0)])
        with pytest.raises(ConfigurationError):
            BatchScreeningEngine(processors, plan, library, dt_s=0.0)

    def test_masked_cores_rejected(self, library):
        processor = dataclasses.replace(
            catalog_processor("MIX1"), masked_cores=frozenset({3})
        )
        plan = TestPlan(
            entries=[
                PlanEntry(list(library)[0].testcase_id, 10.0, cores=(3,))
            ]
        )
        engine = BatchScreeningEngine([processor], plan, library)
        with pytest.raises(ConfigurationError, match="masked"):
            engine.run()

    def test_framework_rejects_unknown_engine(self, library):
        with pytest.raises(ConfigurationError):
            TestFramework(library, engine="gpu")


class TestFrameworkIntegration:
    def test_execute_routes_through_batch(self, library):
        processor = catalog_processor("MIX1")
        plan = TestPlan(
            entries=[
                PlanEntry(tc.testcase_id, 30.0) for tc in list(library)[:20]
            ]
        )
        scalar = TestFramework(library, seed=5).execute(plan, processor)
        batched = TestFramework(library, seed=5, engine="batch").execute(
            plan, processor
        )
        assert_reports_equal([scalar], [batched])

    def test_execute_batch_scalar_vs_batch(self, library):
        processors = [catalog_processor("MIX1"), catalog_processor("FPU3")]
        plan = TestPlan(
            entries=[
                PlanEntry(tc.testcase_id, 30.0) for tc in list(library)[:20]
            ]
        )
        scalar = TestFramework(library, seed=1).execute_batch(
            plan, processors
        )
        batched = TestFramework(
            library, seed=1, engine="batch"
        ).execute_batch(plan, processors)
        assert_reports_equal(scalar, batched)

    def test_record_frame_round_trip(self, library):
        processors = [catalog_processor("MIX1"), catalog_processor("COMP5")]
        plan = TestPlan(
            entries=[PlanEntry(tc.testcase_id, 60.0) for tc in library],
            preheat_to_c=85.0,
        )
        reports = screen_plans(processors, plan, library, seed=0)
        frame = screening_record_frame(reports)
        total = sum(len(report.store.records) for report in reports)
        assert len(frame) == total


class TestManyWrappers:
    def test_farron_pre_production_many(self, library):
        processors = [catalog_processor("MIX1"), catalog_processor("FPU4")]
        serial = Farron(library, framework=TestFramework(library, seed=4))
        serial_outcomes = [serial.pre_production_test(p) for p in processors]
        grouped = Farron(
            library,
            framework=TestFramework(library, seed=4, engine="batch"),
        )
        grouped_outcomes = grouped.pre_production_test_many(processors)
        for a, b in zip(serial_outcomes, grouped_outcomes):
            assert a.processor_id == b.processor_id
            assert a.status == b.status
            assert a.newly_masked_cores == b.newly_masked_cores
            assert_reports_equal([a.report], [b.report])


class TestLanewiseThermal:
    def test_step_lanewise_matches_scalar_models(self):
        """Heterogeneous dt schedules, lane by lane, bit-exact."""
        archs = [
            catalog_processor("MIX1").arch,
            catalog_processor("COMP1").arch,
        ]
        batch = BatchPackageThermalModel(archs)
        scalars = [PackageThermalModel(arch) for arch in archs]
        schedule = [
            (10.0, 10.0, 1.2),
            (10.0, 0.0, 0.9),
            (4.5, 10.0, 1.5),
            (2.0, 7.5, 0.4),
        ]
        for dt0, dt1, heat in schedule:
            powers = batch.core_powers(np.ones(2), np.full(2, heat))
            batch.step_lanewise(np.array([dt0, dt1]), powers)
            for scalar, dt, arch in zip(scalars, (dt0, dt1), archs):
                if dt > 0.0:
                    scalar.step(
                        dt,
                        {
                            core: (1.0, heat)
                            for core in range(arch.physical_cores)
                        },
                    )
            for lane, scalar in enumerate(scalars):
                t_package, deltas = batch.lane_states()[lane]
                assert t_package == scalar._t_package
                assert deltas == scalar._deltas

    def test_total_power_rows_cache_is_pure(self):
        archs = [catalog_processor("MIX1").arch]
        batch = BatchPackageThermalModel(archs)
        powers = np.where(batch.core_mask, 1.75, 0.0)
        cached = batch.total_power_rows(powers)
        fresh = BatchPackageThermalModel(archs)
        fresh.step_lanewise(np.array([10.0]), powers, total_power=cached)
        plain = BatchPackageThermalModel(archs)
        plain.step_lanewise(np.array([10.0]), powers)
        assert fresh.t_package.tolist() == plain.t_package.tolist()
        assert fresh.deltas.tolist() == plain.deltas.tolist()

    def test_step_lanewise_rejects_negative_dt(self):
        batch = BatchPackageThermalModel([catalog_processor("MIX1").arch])
        with pytest.raises(ConfigurationError):
            batch.step_lanewise(
                np.array([-1.0]), np.zeros_like(batch.deltas)
            )
