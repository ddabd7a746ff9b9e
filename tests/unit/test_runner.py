"""Unit tests for the statistical toolchain runner."""

import dataclasses
import math

import pytest

from repro.cpu import DEFAULT_ISA, Feature, Processor, datatypes
from repro.errors import ConfigurationError
from repro.testing import RecordStore, SDCRecord, TestcaseRun, ToolchainRunner
from repro.testing.records import ConsistencyRecord
from repro.testing.runner import _operand_dtype


@pytest.fixture()
def mix1_runner(catalog):
    return ToolchainRunner(catalog["MIX1"])


@pytest.fixture()
def fma_loop(library):
    return next(
        tc
        for tc in library.loops()
        if tc.instruction_mix.get("VFMA_F32", 0) >= 0.5
    )


class TestMatching:
    def test_can_ever_fail(self, catalog, library, fma_loop):
        runner = ToolchainRunner(catalog["SIMD1"])
        assert runner.can_ever_fail(fma_loop)
        unrelated = next(
            tc for tc in library.loops()
            if tc.instruction_mix.get("FATAN_F64X", 0) >= 0.5
        )
        assert not runner.can_ever_fail(unrelated)

    def test_consistency_matching(self, catalog, library):
        runner = ToolchainRunner(catalog["CNST2"])
        txmem_tc = next(
            tc for tc in library.consistency_testcases()
            if tc.consistency_kind.value == "txmem"
        )
        coherence_tc = next(
            tc for tc in library.consistency_testcases()
            if tc.consistency_kind.value == "coherence"
        )
        assert runner.can_ever_fail(txmem_tc)
        assert not runner.can_ever_fail(coherence_tc)

    def test_healthy_processor_never_fails(self, catalog, library):
        healthy = catalog["SIMD1"].with_masked_cores(range(12))
        runner = ToolchainRunner(healthy)
        assert not any(runner.can_ever_fail(tc) for tc in library)


class TestFixedTemperature:
    def test_detects_above_tmin(self, mix1_runner, fma_loop):
        run = mix1_runner.run_at_fixed_temperature(fma_loop, 78.0, 1200.0)
        assert run.detected
        for record in run.records:
            assert record.instruction == "VFMA_F32"
            assert record.temperature_c == 78.0
            assert record.expected_bits != record.actual_bits

    def test_silent_below_tmin(self, mix1_runner, fma_loop):
        run = mix1_runner.run_at_fixed_temperature(fma_loop, 40.0, 1200.0)
        assert not run.detected

    def test_store_collection(self, mix1_runner, fma_loop):
        store = RecordStore()
        mix1_runner.run_at_fixed_temperature(
            fma_loop, 78.0, 600.0, store=store
        )
        assert len(store) > 0

    def test_bad_duration(self, mix1_runner, fma_loop):
        with pytest.raises(ConfigurationError):
            mix1_runner.run_at_fixed_temperature(fma_loop, 60.0, 0.0)

    def _assert_rejected_before_any_draw(self, runner, testcase, temp, duration):
        before = runner._rng.bit_generator.state
        with pytest.raises(ConfigurationError):
            runner.run_at_fixed_temperature(testcase, temp, duration)
        assert runner._rng.bit_generator.state == before

    def test_nan_duration_rejected(self, mix1_runner, fma_loop):
        self._assert_rejected_before_any_draw(
            mix1_runner, fma_loop, 78.0, math.nan
        )

    def test_infinite_duration_rejected(self, mix1_runner, fma_loop):
        self._assert_rejected_before_any_draw(
            mix1_runner, fma_loop, 78.0, math.inf
        )

    def test_nan_temperature_rejected(self, mix1_runner, fma_loop):
        self._assert_rejected_before_any_draw(
            mix1_runner, fma_loop, math.nan, 600.0
        )

    def test_infinite_temperature_rejected(self, mix1_runner, fma_loop):
        self._assert_rejected_before_any_draw(
            mix1_runner, fma_loop, math.inf, 600.0
        )
        self._assert_rejected_before_any_draw(
            mix1_runner, fma_loop, -math.inf, 600.0
        )


class TestThermalCoupledRun:
    def test_run_heats_package(self, catalog, library, fma_loop):
        runner = ToolchainRunner(catalog["MIX1"])
        run = runner.run_testcase(fma_loop, 300.0)
        assert run.end_temp_c > run.start_temp_c
        assert run.max_core_temp_c >= run.end_temp_c - 1.0

    def test_heat_persists_across_testcases(self, catalog, fma_loop):
        runner = ToolchainRunner(catalog["MIX1"])
        first = runner.run_testcase(fma_loop, 300.0)
        second = runner.run_testcase(fma_loop, 60.0)
        assert second.start_temp_c > first.start_temp_c + 5.0

    def test_masked_cores_rejected(self, catalog, fma_loop):
        masked = catalog["MIX1"].with_masked_cores([0])
        runner = ToolchainRunner(masked)
        with pytest.raises(ConfigurationError):
            runner.run_testcase(fma_loop, 60.0, cores=[0])

    def test_masked_cores_excluded_by_default(self, catalog, fma_loop):
        masked = catalog["MIX1"].with_masked_cores(range(16))
        runner = ToolchainRunner(masked)
        run = runner.run_testcase(fma_loop, 600.0)
        assert not run.detected

    def test_consistency_records(self, catalog, library):
        runner = ToolchainRunner(catalog["CNST1"])
        testcase = next(
            tc for tc in library.consistency_testcases()
            if tc.consistency_kind.value == "coherence"
            and tc.consistency_ops_per_s >= 3.5e5
        )
        run = runner.run_at_fixed_temperature(testcase, 65.0, 1800.0)
        assert run.consistency_records
        assert all(r.kind == "coherence" for r in run.consistency_records)

    def test_idle_cools(self, catalog, fma_loop):
        runner = ToolchainRunner(catalog["MIX1"])
        runner.run_testcase(fma_loop, 600.0)
        hot = runner.thermal.package_temp
        runner.idle(600.0)
        assert runner.thermal.package_temp < hot


# -- parity with the per-core reference matcher and sampling loop ---------------
#
# The runner matches defects structurally and samples compiled settings.
# These references keep the per-core logic it replaced: match every
# defect on every core, sample the uncompiled trigger law, and build
# one record per error through `FaultInjector.materialize`.


def _reference_computation_settings(processor, testcase, pcore_id):
    if testcase.is_consistency or pcore_id in processor.masked_cores:
        return []
    pairs = []
    for defect in processor.active_defects():
        if defect.is_consistency or not defect.affects_core(pcore_id):
            continue
        for mnemonic in defect.instructions:
            if testcase.uses_instruction(mnemonic):
                pairs.append((defect, mnemonic))
    return pairs


def _reference_consistency_defects(processor, testcase, pcore_id):
    if not testcase.is_consistency or pcore_id in processor.masked_cores:
        return []
    wanted = (
        Feature.CACHE
        if testcase.consistency_kind.value == "coherence"
        else Feature.TRX_MEM
    )
    return [
        defect
        for defect in processor.active_defects()
        if defect.is_consistency
        and defect.affects_core(pcore_id)
        and wanted in defect.features
    ]


def _reference_can_ever_fail(processor, testcase):
    return any(
        _reference_computation_settings(processor, testcase, pcore_id)
        or _reference_consistency_defects(processor, testcase, pcore_id)
        for pcore_id in range(processor.arch.physical_cores)
    )


def _reference_materialize(runner, testcase, defect, mnemonic, pcore_id,
                           count, temperature_c):
    instruction = DEFAULT_ISA[mnemonic]
    arity = instruction.arity
    flat = datatypes.random_values(
        runner._rng, _operand_dtype(instruction), count * arity
    )
    records = []
    for index in range(count):
        correct = instruction.execute(*flat[index * arity:(index + 1) * arity])
        event = runner.injector.materialize(
            defect, instruction, correct, runner._rng
        )
        records.append(SDCRecord(
            processor_id=runner.processor.processor_id,
            testcase_id=testcase.testcase_id,
            pcore_id=pcore_id,
            defect_id=defect.defect_id,
            instruction=mnemonic,
            dtype=instruction.dtype,
            expected_bits=event.expected_bits,
            actual_bits=event.actual_bits,
            temperature_c=temperature_c,
            time_s=0.0,
        ))
    return records


def _reference_fixed_temperature(runner, testcase, temperature_c, duration_s,
                                 cores):
    processor = runner.processor
    key = testcase.testcase_id
    records, consistency = [], []
    for pcore_id in cores:
        for defect, mnemonic in _reference_computation_settings(
            processor, testcase, pcore_id
        ):
            count = runner.trigger.sample_errors(
                defect, key, temperature_c, testcase.usage_per_s(mnemonic),
                pcore_id, duration_s, runner._rng,
            )
            if count:
                records.extend(_reference_materialize(
                    runner, testcase, defect, mnemonic, pcore_id,
                    count, temperature_c,
                ))
        for defect in _reference_consistency_defects(
            processor, testcase, pcore_id
        ):
            count = runner.trigger.sample_errors(
                defect, key, temperature_c, testcase.consistency_ops_per_s,
                pcore_id, duration_s, runner._rng,
            )
            for _ in range(count):
                consistency.append(ConsistencyRecord(
                    processor_id=processor.processor_id,
                    testcase_id=key,
                    pcore_id=pcore_id,
                    defect_id=defect.defect_id,
                    kind=testcase.consistency_kind.value,
                    temperature_c=temperature_c,
                    time_s=0.0,
                ))
    return records, consistency


def _masked_variants(processor):
    """The processor, one defective core masked, every defective core
    masked."""
    defective = sorted(processor.defective_cores())
    return [
        processor,
        processor.with_masked_cores(defective[:1]),
        processor.with_masked_cores(defective),
    ]


class TestStructuralMatchingParity:
    def test_catalog_matches_per_core_reference(self, catalog, library):
        for processor in catalog.values():
            for variant in _masked_variants(processor):
                runner = ToolchainRunner(variant)
                for testcase in library:
                    assert runner.can_ever_fail(testcase) == (
                        _reference_can_ever_fail(variant, testcase)
                    ), (variant.processor_id, sorted(variant.masked_cores),
                        testcase.testcase_id)

    def test_defect_before_onset_never_matches(self, catalog, library):
        mix1, cnst2 = catalog["MIX1"], catalog["CNST2"]
        late = dataclasses.replace(mix1.defects[0], onset_days=400.0)
        for age_years, defects in (
            (1.0, (late,)),                      # younger than the onset
            (1.0, (late, cnst2.defects[0])),     # one active, one not
            (2.0, (late,)),                      # past the onset
        ):
            processor = Processor(
                processor_id="ONSET", arch=cnst2.arch, defects=defects,
                age_years=age_years,
            )
            runner = ToolchainRunner(processor)
            verdicts = [runner.can_ever_fail(tc) for tc in library]
            assert verdicts == [
                _reference_can_ever_fail(processor, tc) for tc in library
            ]
            assert any(verdicts) == (age_years > 1.0 or len(defects) > 1)


class TestFixedTemperatureParity:
    @pytest.mark.parametrize("name", ["MIX1", "FPU1", "CNST1", "CNST2"])
    def test_matches_reference_loop(self, catalog, library, name):
        processor = catalog[name]
        failing = [
            tc for tc in library if _reference_can_ever_fail(processor, tc)
        ]
        passing = [
            tc for tc in library
            if not _reference_can_ever_fail(processor, tc)
        ]
        testcases = failing[:10] + passing[:2]
        n_cores = processor.arch.physical_cores
        defective = sorted(processor.defective_cores())
        partly = processor.with_masked_cores(defective[:1])
        cases = [
            (processor, None),
            (processor, [n_cores - 1, 0, 3, 1, 0]),
            (partly, None),
            (partly, [defective[0], n_cores - 1] + defective[:3]),
        ]
        productive = 0
        for variant, cores in cases:
            ref_cores = (
                [c.pcore_id for c in variant.available_cores()]
                if cores is None else cores
            )
            for temperature_c, duration_s in ((78.0, 900.0), (66.0, 1800.0)):
                runner = ToolchainRunner(variant, seed=5)
                reference = ToolchainRunner(variant, seed=5)
                for testcase in testcases:
                    run = runner.run_at_fixed_temperature(
                        testcase, temperature_c, duration_s, cores=cores
                    )
                    records, consistency = _reference_fixed_temperature(
                        reference, testcase, temperature_c, duration_s,
                        ref_cores,
                    )
                    assert run.records == records
                    assert run.consistency_records == consistency
                    assert (
                        run.start_temp_c == run.end_temp_c
                        == run.max_core_temp_c == temperature_c
                    )
                    productive += run.detected
                assert (
                    runner._rng.bit_generator.state
                    == reference._rng.bit_generator.state
                )
        assert productive > 0

    def test_store_takes_runs_in_order(self, catalog, library):
        runner = ToolchainRunner(catalog["CNST1"], seed=3)
        store = RecordStore()
        runs = [
            runner.run_at_fixed_temperature(tc, 78.0, 900.0, store=store)
            for tc in library.consistency_testcases()
        ]
        assert store.consistency_records == [
            record for run in runs for record in run.consistency_records
        ]
        assert store.consistency_records


class TestBurstEmissionParity:
    def test_every_catalog_instruction_matches_reference(
        self, catalog, library
    ):
        """A column-emitted burst materializes the records, and leaves
        the stream where, ``count`` ``FaultInjector.materialize`` calls
        would."""
        dtypes = set()
        for processor in catalog.values():
            for defect in processor.active_defects():
                if defect.is_consistency:
                    continue
                pcore_id = min(defect.core_ids)
                for mnemonic in defect.instructions:
                    testcase = next(
                        tc for tc in library if tc.uses_instruction(mnemonic)
                    )
                    runner = ToolchainRunner(processor, seed=9)
                    reference = ToolchainRunner(processor, seed=9)
                    run = TestcaseRun(
                        processor.processor_id, testcase.testcase_id, 1.0
                    )
                    runner._emit_records(
                        run, testcase, defect, mnemonic, pcore_id,
                        40, 77.5, 0.0,
                    )
                    assert list(run.records) == _reference_materialize(
                        reference, testcase, defect, mnemonic, pcore_id,
                        40, 77.5,
                    )
                    assert (
                        runner._rng.bit_generator.state
                        == reference._rng.bit_generator.state
                    )
                    dtypes.add(DEFAULT_ISA[mnemonic].dtype)
        assert {d.value for d in dtypes} >= {
            "i32", "ui32", "f32", "f64", "f64x", "bin64"
        }
