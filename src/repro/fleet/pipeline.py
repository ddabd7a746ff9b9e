"""The fleet test pipeline: factory → datacenter → re-install → regular.

§2.4 / Figure 1: pre-production testing happens after factory delivery,
after datacenter delivery, and after system re-installation; in
production, machines are regularly tested in groups on a months-long
cycle.  Every stage runs the whole toolchain with equal per-testcase
durations (§2.4).

Detection is computed from the same trigger law the record-level runner
uses, closed-form instead of sampled per 10-second interval — a CPU's
probability of failing a stage is ``1 − exp(−Σ expected errors)`` over
its matching (testcase, core) settings — which is what makes a
million-CPU, 32-month campaign tractable while remaining consistent
with the detailed runs.
"""

from __future__ import annotations

import math
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..errors import ConfigurationError
from ..rng import CountedStream
from ..cpu.defects import Defect
from ..cpu.features import Feature
from ..cpu.processor import Processor
from ..faults.trigger import TriggerModel
from ..testing.library import TestcaseLibrary
from ..testing.testcase import ConsistencyKind, Testcase
from .population import FleetPopulation

__all__ = [
    "StageConfig",
    "PipelineConfig",
    "Detection",
    "FleetStudyResult",
    "TestPipeline",
    "record_range_metrics",
]

#: 32 months (§2.4: "we have conducted SDC testing ... over 32 months").
STUDY_HORIZON_DAYS = 32 * 30.4


def record_range_metrics(
    obs,
    engine: str,
    result: "FleetStudyResult",
    entry_detections: int,
    entry_undetected: int,
    draws: int,
    cpus: int,
    seconds: float,
) -> None:
    """Account one *completed* campaign range into ``obs``.

    Shared by both engines' ``run_range``, so a campaign shard is
    accounted by the engine that ran it.
    """
    obs.inc("repro_campaign_cpus_total", cpus, engine=engine)
    # One update per stage, not per detection: instrument updates per
    # range stay bounded whatever the range's detection count.
    stages = Counter(
        detection.stage_name
        for detection in result.detections[entry_detections:]
    )
    for stage, count in stages.items():
        obs.inc(
            "repro_campaign_detections_total", count,
            engine=engine, stage=stage,
        )
    undetected = len(result.undetected_ids) - entry_undetected
    if undetected:
        obs.inc(
            "repro_campaign_undetected_total", undetected, engine=engine
        )
    if draws:
        obs.inc("repro_campaign_draws_total", draws, engine=engine)
    obs.observe("repro_campaign_range_seconds", seconds, engine=engine)


@dataclass(frozen=True)
class StageConfig:
    """One test timing of Figure 1."""

    name: str
    time_days: float
    per_testcase_s: float
    #: Core temperature reached while testing (the toolchain's testcases
    #: are stressful and run concurrently on all cores).
    test_temp_c: float
    #: Period for recurring stages (regular tests); None = one-shot.
    recurring_days: Optional[float] = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("stage name must be non-empty")
        if not math.isfinite(self.per_testcase_s) or self.per_testcase_s <= 0:
            raise ConfigurationError(
                f"stage {self.name!r}: per_testcase_s must be a positive "
                f"finite number, got {self.per_testcase_s!r}"
            )
        if not math.isfinite(self.time_days) or self.time_days < 0:
            raise ConfigurationError(
                f"stage {self.name!r}: time_days must be a non-negative "
                f"finite number of days since factory delivery, got "
                f"{self.time_days!r}"
            )
        if not math.isfinite(self.test_temp_c):
            raise ConfigurationError(
                f"stage {self.name!r}: test_temp_c must be finite, got "
                f"{self.test_temp_c!r}"
            )
        if self.recurring_days is not None and (
            not math.isfinite(self.recurring_days) or self.recurring_days <= 0
        ):
            raise ConfigurationError(
                f"stage {self.name!r}: recurring_days must be None (one-shot) "
                f"or a positive finite period, got {self.recurring_days!r}"
            )


@dataclass(frozen=True)
class PipelineConfig:
    """The default schedule, calibrated to §2.4/§7's descriptions."""

    stages: Tuple[StageConfig, ...] = (
        # Pre-production stages get "adequate" resources (§7.1).
        StageConfig("factory", 0.0, per_testcase_s=600.0, test_temp_c=80.0),
        StageConfig("datacenter", 21.0, per_testcase_s=300.0, test_temp_c=78.0),
        StageConfig("reinstall", 45.0, per_testcase_s=600.0, test_temp_c=80.0),
        # Regular tests: every 3 months, 1 minute per testcase — the
        # 633-minute ≈ 10.55 h baseline round of §7.2.
        StageConfig(
            "regular", 95.0, per_testcase_s=60.0, test_temp_c=76.0,
            recurring_days=90.0,
        ),
    )
    horizon_days: float = STUDY_HORIZON_DAYS

    def __post_init__(self) -> None:
        if not self.stages:
            raise ConfigurationError("pipeline needs at least one stage")
        if not math.isfinite(self.horizon_days) or self.horizon_days <= 0:
            raise ConfigurationError(
                f"horizon_days must be a positive finite number, got "
                f"{self.horizon_days!r}"
            )
        # Both engines cache per-stage expectations by stage *name*;
        # same-named stages with different parameters would silently
        # reuse the wrong cache entry, so reject them up front.
        seen: Dict[str, StageConfig] = {}
        for stage in self.stages:
            twin = seen.setdefault(stage.name, stage)
            if twin != stage:
                raise ConfigurationError(
                    f"stages named {stage.name!r} have conflicting "
                    f"parameters; same-named stages must be identical"
                )

    def pre_production_stage_names(self) -> Tuple[str, ...]:
        return tuple(s.name for s in self.stages if s.recurring_days is None)


@dataclass(frozen=True)
class Detection:
    """One faulty CPU caught by the pipeline."""

    processor_id: str
    arch_name: str
    stage_name: str
    day: float
    failing_testcase_ids: Tuple[str, ...]

    def to_row(self) -> list:
        """Compact JSON-able row (checkpoint/verdict wire format).

        ``day`` survives bit-for-bit: JSON float encoding is CPython's
        shortest-round-trip repr.
        """
        return [
            self.processor_id,
            self.arch_name,
            self.stage_name,
            self.day,
            list(self.failing_testcase_ids),
        ]

    @classmethod
    def from_row(cls, row: list) -> "Detection":
        return cls(
            processor_id=row[0],
            arch_name=row[1],
            stage_name=row[2],
            day=row[3],
            failing_testcase_ids=tuple(row[4]),
        )


@dataclass
class FleetStudyResult:
    """Everything the 32-month campaign produced."""

    population_total: int
    arch_counts: Dict[str, int]
    detections: List[Detection] = field(default_factory=list)
    undetected_ids: List[str] = field(default_factory=list)

    def detections_by_stage(self) -> Dict[str, List[Detection]]:
        grouped: Dict[str, List[Detection]] = {}
        for detection in self.detections:
            grouped.setdefault(detection.stage_name, []).append(detection)
        return grouped

    def detections_by_arch(self) -> Dict[str, List[Detection]]:
        grouped: Dict[str, List[Detection]] = {}
        for detection in self.detections:
            grouped.setdefault(detection.arch_name, []).append(detection)
        return grouped

    def failing_testcases(self) -> Set[str]:
        """Union of testcases that ever detected an error (Obs. 11)."""
        failing: Set[str] = set()
        for detection in self.detections:
            failing.update(detection.failing_testcase_ids)
        return failing

    def to_dict(self) -> Dict[str, object]:
        """JSON-able verdict document; round-trips bit-exactly through
        :meth:`from_dict` (detection order, float days, id lists)."""
        return {
            "population_total": self.population_total,
            "arch_counts": dict(self.arch_counts),
            "detections": [d.to_row() for d in self.detections],
            "undetected": list(self.undetected_ids),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "FleetStudyResult":
        return cls(
            population_total=int(data["population_total"]),
            arch_counts=dict(data["arch_counts"]),
            detections=[
                Detection.from_row(row) for row in data.get("detections", [])
            ],
            undetected_ids=list(data.get("undetected", [])),
        )


class TestPipeline:
    """Runs the population through the staged test schedule."""

    __test__ = False  # not a pytest test class

    def __init__(
        self,
        population: FleetPopulation,
        library: TestcaseLibrary,
        config: Optional[PipelineConfig] = None,
        trigger_model: Optional[TriggerModel] = None,
        seed: int = 11,
        *,
        obs=None,
    ):
        self.population = population
        self.library = library
        self.config = config or PipelineConfig()
        self.trigger = trigger_model or TriggerModel()
        self.seed = seed
        #: Optional :class:`repro.obs.Observability` context.  ``None``
        #: (the default) disables telemetry; the only cost left on the
        #: hot path is one attribute check per ``run_range`` call.
        self.obs = obs
        #: The campaign's single Bernoulli stream.  A counted stream so
        #: checkpointing can record the exact draw position and a
        #: resumed run continues bit-identically (see repro.resilience).
        self._stream = CountedStream(seed, "pipeline")

    # -- matching settings ---------------------------------------------------

    def _matching_settings(
        self, features: Tuple[Feature, ...], instructions: Tuple[str, ...]
    ) -> List[Tuple[Testcase, float]]:
        """(testcase, usage) pairs that can trigger a defect with these
        features and instructions.

        Only consistency defects name no instructions (enforced by
        :class:`~repro.cpu.defects.Defect`), so the shape alone picks
        the branch.
        """
        matches: List[Tuple[Testcase, float]] = []
        if not instructions:
            wanted = (
                ConsistencyKind.COHERENCE
                if Feature.CACHE in features
                else ConsistencyKind.TXMEM
            )
            for testcase in self.library.consistency_testcases():
                if testcase.consistency_kind is wanted or len(features) > 1:
                    matches.append((testcase, testcase.consistency_ops_per_s))
            return matches
        for mnemonic in instructions:
            for testcase in self.library.using_instruction(mnemonic):
                matches.append((testcase, testcase.usage_per_s(mnemonic)))
        return matches

    def _multiplier_sum(self, defect: Defect) -> float:
        return sum(
            defect.core_multiplier(core) for core in defect.core_ids
        )

    # -- stage detection probability -------------------------------------------

    def expected_stage_errors(
        self,
        defect: Defect,
        stage: StageConfig,
        settings: Optional[List[Tuple[Testcase, float]]] = None,
    ) -> Dict[str, float]:
        """Per-testcase expected error counts for one stage execution."""
        if settings is None:
            settings = self._matching_settings(
                defect.features, defect.instructions
            )
        multiplier_sum = self._multiplier_sum(defect)
        expectations: Dict[str, float] = {}
        if not settings:
            return expectations
        # core_multiplier is folded in via multiplier_sum; evaluate
        # the law once on a unit-multiplier reference core.
        reference_core = defect.core_ids[0]
        reference_mult = defect.core_multiplier(reference_core)
        if reference_mult == 0.0:
            return expectations
        for testcase, usage in settings:
            freq = self.trigger.occurrence_frequency(
                defect,
                testcase.testcase_id,
                stage.test_temp_c,
                usage,
                reference_core,
            )
            per_unit = freq / reference_mult
            expected = per_unit * multiplier_sum * stage.per_testcase_s / 60.0
            if expected > 0.0:
                expectations[testcase.testcase_id] = (
                    expectations.get(testcase.testcase_id, 0.0) + expected
                )
        return expectations

    @staticmethod
    def _detection_probability(expectations: Dict[str, float]) -> float:
        total = sum(expectations.values())
        return 1.0 - math.exp(-total)

    def _sample_failing_testcases(
        self, expectations: Dict[str, float]
    ) -> Tuple[str, ...]:
        """Which testcases fired, given that at least one did."""
        failing = [
            tc_id
            for tc_id, expected in expectations.items()
            if self._stream.draw() < 1.0 - math.exp(-expected)
        ]
        if not failing and expectations:
            failing = [max(expectations, key=expectations.get)]
        return tuple(sorted(failing))

    # -- the campaign -------------------------------------------------------------

    def _stage_occurrences(self) -> List[Tuple[StageConfig, float]]:
        occurrences: List[Tuple[StageConfig, float]] = []
        for stage in self.config.stages:
            if stage.recurring_days is None:
                occurrences.append((stage, stage.time_days))
            else:
                day = stage.time_days
                while day <= self.config.horizon_days:
                    occurrences.append((stage, day))
                    day += stage.recurring_days
        occurrences.sort(key=lambda pair: pair[1])
        return occurrences

    def run(self) -> FleetStudyResult:
        """Run every faulty CPU through the schedule until detection."""
        result = FleetStudyResult(
            population_total=self.population.total,
            arch_counts=dict(self.population.arch_counts),
        )
        self.run_range(0, len(self.population.faulty), result)
        return result

    def run_range(
        self, start: int, stop: int, result: FleetStudyResult
    ) -> FleetStudyResult:
        """Run faulty CPUs ``[start, stop)``, appending into ``result``.

        The campaign stream position carries across calls, so covering
        the population in consecutive ranges (possibly interleaved with
        the vectorized engine, or across a checkpoint/resume boundary)
        produces bit-identical output to one :meth:`run` call.
        """
        obs = self.obs
        if obs is not None:
            started = time.perf_counter()
            entry_draws = self._stream.consumed
            entry_detections = len(result.detections)
            entry_undetected = len(result.undetected_ids)
        occurrences = self._stage_occurrences()
        for processor in self.population.faulty[start:stop]:
            detection = self._run_processor(processor, occurrences)
            if detection is None:
                result.undetected_ids.append(processor.processor_id)
            else:
                result.detections.append(detection)
        if obs is not None:
            record_range_metrics(
                obs, "scalar", result,
                entry_detections, entry_undetected,
                self._stream.consumed - entry_draws,
                stop - start,
                time.perf_counter() - started,
            )
        return result

    def _run_processor(
        self,
        processor: Processor,
        occurrences: Sequence[Tuple[StageConfig, float]],
    ) -> Optional[Detection]:
        defect = processor.defects[0]
        if defect.escapes_toolchain:
            return None
        settings = self._matching_settings(
            defect.features, defect.instructions
        )
        if not settings:
            return None
        # Expectation per stage config is time-invariant, so compute
        # once per distinct stage and reuse across recurrences.
        per_stage: Dict[str, Dict[str, float]] = {}
        for stage, day in occurrences:
            if not defect.active_at(day):
                continue
            expectations = per_stage.get(stage.name)
            if expectations is None:
                expectations = self.expected_stage_errors(defect, stage, settings)
                per_stage[stage.name] = expectations
            probability = self._detection_probability(expectations)
            if probability > 0.0 and self._stream.draw() < probability:
                return Detection(
                    processor_id=processor.processor_id,
                    arch_name=processor.arch.name,
                    stage_name=stage.name,
                    day=day,
                    failing_testcase_ids=self._sample_failing_testcases(
                        expectations
                    ),
                )
        return None
