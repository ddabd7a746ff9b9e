"""Running testcases against a simulated processor.

Two fidelities share one trigger law:

* :meth:`ToolchainRunner.run_testcase` co-simulates the thermal model
  and statistical error arrival (Poisson with the setting's occurrence
  frequency), materializing each error's corrupted value through the
  defect's bitflip model.  This is how month-scale test campaigns run
  in milliseconds while still producing bit-accurate SDC records.
* :meth:`ToolchainRunner.run_at_fixed_temperature` holds temperature
  constant — the §5 methodology of preheating to a desired temperature
  and measuring occurrence frequency there (Figure 8's sweeps).

Thermal coupling details the paper leans on are reproduced: cores under
test heat the shared package (busy-neighbour effect), heat persists
across consecutive testcases (test-order effect), and per-core heat is
throttled at a realistic ceiling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..errors import ConfigurationError
from ..rng import substream
from ..cpu import datatypes
from ..cpu.defects import Defect
from ..cpu.features import DataType, Feature
from ..cpu.isa import DEFAULT_ISA, Instruction
from ..cpu.processor import Processor
from ..faults.injector import FaultInjector
from ..faults.trigger import TriggerModel
from ..thermal.model import PackageThermalModel
from .records import ConsistencyRecord, RecordStore, SDCRecord
from .testcase import ConsistencyKind, Testcase

__all__ = ["TestcaseRun", "ToolchainRunner", "HEAT_THROTTLE", "WINDOW_S"]

#: Per-core heat-factor ceiling: sustained power is thermally throttled,
#: keeping all-core burn-in just under the package temperature limit.
HEAT_THROTTLE = 1.6

#: Thermal co-simulation window of a screening run, in seconds: each
#: window steps the package model once and samples every live setting
#: once.  The batch engine advances its lanes by the same window, which
#: is what keeps the two engines' records bit-identical.
WINDOW_S = 10.0


@dataclass
class TestcaseRun:
    """Outcome of running one testcase for one duration."""

    __test__ = False  # not a pytest test class


    processor_id: str
    testcase_id: str
    duration_s: float
    records: List[SDCRecord] = field(default_factory=list)
    consistency_records: List[ConsistencyRecord] = field(default_factory=list)
    start_temp_c: float = 0.0
    end_temp_c: float = 0.0
    max_core_temp_c: float = 0.0

    @property
    def detected(self) -> bool:
        return bool(self.records) or bool(self.consistency_records)

    @property
    def error_count(self) -> int:
        return len(self.records) + len(self.consistency_records)


#: The operand dtype depends only on the instruction's result dtype, so
#: one small map serves every ISA (materialization bursts hit this on
#: every record).
_OPERAND_DTYPE_CACHE: Dict[DataType, DataType] = {}


def _operand_dtype(instruction: Instruction) -> DataType:
    """Data type operands are drawn from for a given instruction."""
    dtype = instruction.dtype
    cached = _OPERAND_DTYPE_CACHE.get(dtype)
    if cached is None:
        if dtype.is_float:
            # Transcendental/extended ops consume doubles.
            cached = DataType.FLOAT64 if dtype is DataType.FLOAT64X else dtype
        else:
            cached = dtype
        _OPERAND_DTYPE_CACHE[dtype] = cached
    return cached


class ToolchainRunner:
    """Drives testcases from the library against one processor."""

    def __init__(
        self,
        processor: Processor,
        trigger_model: Optional[TriggerModel] = None,
        seed: int = 0,
        heat_scale: float = 1.0,
    ):
        if heat_scale <= 0:
            raise ConfigurationError("heat_scale must be positive")
        self.processor = processor
        self.trigger = trigger_model or TriggerModel()
        self.thermal = PackageThermalModel(processor.arch)
        #: Framework efficiency multiplier on testcase heat.  §5's
        #: "toolchain update" case: a more efficient framework burns
        #: fewer cycles, generates less heat, and reproduces fewer SDCs.
        self.heat_scale = heat_scale
        self.injector = FaultInjector(processor, self.trigger)
        self._rng = substream(seed, "runner", processor.processor_id)
        # (masked_cores object, core-id list) — invalidated by identity
        # when the processor is rebuilt with a different mask.
        self._default_cores_cache: Optional[Tuple[frozenset, List[int]]] = None

    def default_cores(self) -> List[int]:
        """Unmasked physical-core ids, cached per mask object.

        ``available_cores`` builds fresh :class:`PhysicalCore` objects
        on every call; the screening engines ask for the same list once
        per plan entry, so memoize it.  The cache keys on the identity
        of ``masked_cores`` — pool operations replace the processor (or
        its frozenset) rather than mutating it in place.
        """
        cache = self._default_cores_cache
        masked = self.processor.masked_cores
        if cache is None or cache[0] is not masked:
            cores = [c.pcore_id for c in self.processor.available_cores()]
            self._default_cores_cache = (masked, cores)
            return cores
        return cache[1]

    # -- defect/testcase matching -----------------------------------------

    def _matched_settings(
        self, testcase: Testcase
    ) -> List[Tuple[Defect, Optional[str], float]]:
        """Active defects this testcase exercises, before core filtering.

        Each entry is ``(defect, mnemonic-or-None, usage_per_s)``: a
        computation testcase matches every (defect, mnemonic) pair it
        executes, a consistency testcase every consistency defect with
        the feature its kind stresses (``None`` mnemonic).  Entries
        follow defect order, then mnemonic order — the per-core setting
        order of both engines.
        """
        active = self.processor.active_defects()
        if testcase.is_consistency:
            wanted = (
                Feature.CACHE
                if testcase.consistency_kind is ConsistencyKind.COHERENCE
                else Feature.TRX_MEM
            )
            return [
                (defect, None, testcase.consistency_ops_per_s)
                for defect in active
                if defect.is_consistency and wanted in defect.features
            ]
        return [
            (defect, mnemonic, testcase.usage_per_s(mnemonic))
            for defect in active
            if not defect.is_consistency
            for mnemonic in defect.instructions
            if testcase.uses_instruction(mnemonic)
        ]

    def compiled_core_settings(
        self, testcase: Testcase, cores: Sequence[int]
    ) -> List[Tuple[int, List[tuple]]]:
        """Per-core compiled trigger settings for one testcase run.

        This hoists the per-setting work of
        :meth:`TriggerModel.sample_errors` — behaviour resolution, core
        multiplier, usage-stress power — out of the sampling loops.
        Defects are matched against the testcase once, not once per
        core; per core only the unmasked/affected filter remains, so
        the per-core order is the matched order.  Settings whose law
        can never fire (``compile_setting`` → ``None``) would draw
        nothing from :meth:`TriggerModel.sample_errors` either, so
        dropping them changes no draw.  Each entry is ``(pcore_id,
        [(compiled, defect, mnemonic-or-None), ...])``; a ``None``
        mnemonic marks a consistency setting.
        """
        matches = self._matched_settings(testcase)
        if not matches:
            return [(pcore_id, []) for pcore_id in cores]
        masked = self.processor.masked_cores
        # `affected_cores` builds a fresh frozenset per call; take it
        # once per match instead of once per (core, match).
        hoisted = [
            (defect, defect.affected_cores, mnemonic, usage)
            for defect, mnemonic, usage in matches
        ]
        plan = []
        for pcore_id in cores:
            settings: List[tuple] = []
            if pcore_id not in masked:
                for defect, affected, mnemonic, usage in hoisted:
                    if pcore_id not in affected:
                        continue
                    compiled = self.trigger.compile_setting(
                        defect, testcase.testcase_id, usage, pcore_id
                    )
                    if compiled is not None:
                        settings.append((compiled, defect, mnemonic))
            plan.append((pcore_id, settings))
        return plan

    def can_ever_fail(self, testcase: Testcase) -> bool:
        """Whether any (core, defect) combination matches this testcase.

        Decided from the active defects alone: a matched defect (see
        :meth:`_matched_settings`) counts when it affects at least one
        unmasked physical core of the processor.
        """
        masked = self.processor.masked_cores
        n_cores = self.processor.arch.physical_cores
        return any(
            0 <= pcore_id < n_cores and pcore_id not in masked
            for defect, _, _ in self._matched_settings(testcase)
            for pcore_id in defect.core_ids
        )

    # -- record materialization ---------------------------------------------

    def _materialize_records(
        self,
        testcase: Testcase,
        defect: Defect,
        mnemonic: str,
        pcore_id: int,
        count: int,
        temperature_c: float,
        time_s: float,
    ) -> List[SDCRecord]:
        instruction = DEFAULT_ISA[mnemonic]
        dtype = instruction.dtype
        # `FaultInjector.materialize`'s checks depend only on (defect,
        # dtype): run them once per burst, then corrupt each result
        # with the same encode → sample_mask → XOR sequence.
        sample_mask = self.injector.bitflip_for(defect, dtype).sample_mask
        rng = self._rng
        arity = instruction.arity
        # One batched draw for the whole burst instead of per-operand
        # generator round trips.
        flat = datatypes.random_values(
            rng, _operand_dtype(instruction), count * arity
        )
        records = []
        for index in range(count):
            operands = flat[index * arity:(index + 1) * arity]
            expected_bits = datatypes.encode(
                instruction.execute(*operands), dtype
            )
            records.append(
                SDCRecord(
                    processor_id=self.processor.processor_id,
                    testcase_id=testcase.testcase_id,
                    pcore_id=pcore_id,
                    defect_id=defect.defect_id,
                    instruction=mnemonic,
                    dtype=dtype,
                    expected_bits=expected_bits,
                    actual_bits=expected_bits ^ sample_mask(dtype, rng),
                    temperature_c=temperature_c,
                    time_s=time_s,
                )
            )
        return records

    def _emit_records(
        self,
        run: TestcaseRun,
        testcase: Testcase,
        defect: Defect,
        mnemonic: Optional[str],
        pcore_id: int,
        count: int,
        temperature_c: float,
        time_s: float,
    ) -> None:
        """Append one setting's burst of ``count`` errors to ``run``.

        The single emission path of every engine: computation settings
        materialize one record per error; a consistency burst carries
        no per-error payload, so it is one frozen record repeated
        ``count`` times (equal to ``count`` separately built records).
        """
        if mnemonic is not None:
            run.records.extend(
                self._materialize_records(
                    testcase, defect, mnemonic, pcore_id,
                    count, temperature_c, time_s,
                )
            )
            return
        record = ConsistencyRecord(
            processor_id=self.processor.processor_id,
            testcase_id=testcase.testcase_id,
            pcore_id=pcore_id,
            defect_id=defect.defect_id,
            kind=testcase.consistency_kind.value,
            temperature_c=temperature_c,
            time_s=time_s,
        )
        run.consistency_records.extend([record] * count)

    # -- main entry points ------------------------------------------------------

    def run_testcase(
        self,
        testcase: Testcase,
        duration_s: float,
        cores: Optional[Sequence[int]] = None,
        store: Optional[RecordStore] = None,
    ) -> TestcaseRun:
        """Run one testcase with live thermal co-simulation.

        ``cores`` are the physical cores under test (defaults to all
        non-masked cores, i.e. the framework's full-concurrency mode).
        The thermal state persists on the runner across calls, so
        consecutive testcases see each other's remaining heat.  Time
        advances in :data:`WINDOW_S` windows, the last one shortened
        to end at ``duration_s``.
        """
        if not math.isfinite(duration_s) or duration_s <= 0:
            raise ConfigurationError(
                f"duration_s must be positive and finite, got {duration_s!r}"
            )
        if cores is None:
            cores = self.default_cores()
        else:
            cores = list(cores)
            masked = [c for c in cores if c in self.processor.masked_cores]
            if masked:
                raise ConfigurationError(f"cores {masked} are masked out")
        heat = min(testcase.heat_factor() * self.heat_scale, HEAT_THROTTLE)
        loads = {core: (1.0, heat) for core in cores}
        run = TestcaseRun(
            processor_id=self.processor.processor_id,
            testcase_id=testcase.testcase_id,
            duration_s=duration_s,
            start_temp_c=self.thermal.package_temp,
        )
        # Hoisted per-run: trigger-law compilation happens once, not
        # once per (window, core, setting).  The per-window loop below
        # then only reads temperatures and samples the compiled laws.
        core_settings = self.compiled_core_settings(testcase, cores)
        elapsed = 0.0
        while elapsed < duration_s - 1e-9:
            step = min(WINDOW_S, duration_s - elapsed)
            self.thermal.step(step, loads)
            elapsed += step
            time_s = self.thermal.elapsed_s
            for pcore_id, settings in core_settings:
                temp = self.thermal.core_temp(pcore_id)
                if temp > run.max_core_temp_c:
                    run.max_core_temp_c = temp
                for compiled, defect, mnemonic in settings:
                    count = compiled.sample_errors(temp, step, self._rng)
                    if count:
                        self._emit_records(
                            run, testcase, defect, mnemonic, pcore_id,
                            count, temp, time_s,
                        )
        run.end_temp_c = self.thermal.package_temp
        if store is not None:
            store.extend(run.records)
            store.extend_consistency(run.consistency_records)
        return run

    def run_at_fixed_temperature(
        self,
        testcase: Testcase,
        temperature_c: float,
        duration_s: float,
        cores: Optional[Sequence[int]] = None,
        store: Optional[RecordStore] = None,
    ) -> TestcaseRun:
        """Run with the core temperature pinned (§5's preheat methodology).

        Every core under test spends one ``duration_s`` interval at
        ``temperature_c``, so each compiled setting samples its Poisson
        count exactly once, in :meth:`compiled_core_settings` order.
        Masked cores in an explicit ``cores`` list compile no settings
        and so record nothing.
        """
        if not math.isfinite(duration_s) or duration_s <= 0:
            raise ConfigurationError(
                f"duration_s must be positive and finite, got {duration_s!r}"
            )
        if not math.isfinite(temperature_c):
            raise ConfigurationError(
                f"temperature_c must be finite, got {temperature_c!r}"
            )
        if cores is None:
            cores = self.default_cores()
        run = TestcaseRun(
            processor_id=self.processor.processor_id,
            testcase_id=testcase.testcase_id,
            duration_s=duration_s,
            start_temp_c=temperature_c,
            end_temp_c=temperature_c,
            max_core_temp_c=temperature_c,
        )
        for pcore_id, settings in self.compiled_core_settings(testcase, cores):
            for compiled, defect, mnemonic in settings:
                count = compiled.sample_errors(
                    temperature_c, duration_s, self._rng
                )
                if count:
                    self._emit_records(
                        run, testcase, defect, mnemonic, pcore_id,
                        count, temperature_c, 0.0,
                    )
        if store is not None:
            store.extend(run.records)
            store.extend_consistency(run.consistency_records)
        return run

    def idle(self, duration_s: float) -> None:
        """Let the package cool with no load (between test rounds)."""
        self.thermal.step(duration_s, {})
