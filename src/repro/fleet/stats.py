"""Fleet-level failure statistics (Tables 1-2, Figures 2-3, Obs. 1-3).

Every number here is *measured* from a simulated campaign's
:class:`~repro.fleet.pipeline.FleetStudyResult`; the paper's values are
calibration targets, re-printed beside measurements by the benchmark
harness.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Set

from ..cpu.features import DataType, Feature, VULNERABLE_FEATURES
from ..cpu.processor import Processor
from ..units import permyriad
from .pipeline import FleetStudyResult
from .population import FleetPopulation

__all__ = [
    "timing_failure_rates",
    "arch_failure_rates",
    "overall_failure_rate",
    "feature_proportions",
    "datatype_proportions",
    "single_core_fraction",
    "ineffective_testcase_count",
]


def overall_failure_rate(result: FleetStudyResult) -> float:
    """Detected-faulty fraction of the whole population (Obs. 1)."""
    return len(result.detections) / result.population_total


def timing_failure_rates(result: FleetStudyResult) -> Dict[str, float]:
    """Table 1: failure rate per test timing, in fleet fraction."""
    by_stage = result.detections_by_stage()
    rates = {
        stage: len(detections) / result.population_total
        for stage, detections in by_stage.items()
    }
    rates["total"] = overall_failure_rate(result)
    return rates


def timing_failure_rates_permyriad(result: FleetStudyResult) -> Dict[str, float]:
    """Table 1 in the paper's permyriad units."""
    return {
        stage: permyriad(rate)
        for stage, rate in timing_failure_rates(result).items()
    }


def pre_production_fraction(
    result: FleetStudyResult, pre_stage_names: Sequence[str]
) -> float:
    """Share of all detections made before production (Obs. 2: 90.36%)."""
    if not result.detections:
        return 0.0
    pre = sum(
        1
        for detection in result.detections
        if detection.stage_name in set(pre_stage_names)
    )
    return pre / len(result.detections)


def arch_failure_rates(result: FleetStudyResult) -> Dict[str, float]:
    """Table 2: per-micro-architecture detected failure rate (fraction)."""
    by_arch = result.detections_by_arch()
    return {
        arch: len(by_arch.get(arch, [])) / count
        for arch, count in result.arch_counts.items()
        if count > 0
    }


def arch_failure_rates_permyriad(result: FleetStudyResult) -> Dict[str, float]:
    return {
        arch: permyriad(rate)
        for arch, rate in arch_failure_rates(result).items()
    }


def _detected_processors(
    result: FleetStudyResult, population: FleetPopulation
) -> List[Processor]:
    detected_ids = {d.processor_id for d in result.detections}
    return [p for p in population.faulty if p.processor_id in detected_ids]


def feature_proportions(
    result: FleetStudyResult, population: FleetPopulation
) -> Dict[Feature, float]:
    """Figure 2: proportion of faulty CPUs per defective feature.

    Proportions can sum past 1 because one defect may span multiple
    features (MIX1-style fused vector/FPU faults).
    """
    processors = _detected_processors(result, population)
    if not processors:
        return {f: 0.0 for f in VULNERABLE_FEATURES}
    return {
        feature: sum(
            1 for p in processors if feature in p.defective_features()
        )
        / len(processors)
        for feature in VULNERABLE_FEATURES
    }


def datatype_proportions(
    result: FleetStudyResult, population: FleetPopulation
) -> Dict[DataType, float]:
    """Figure 3: proportion of faulty CPUs affecting each datatype."""
    processors = _detected_processors(result, population)
    if not processors:
        return {}
    counts: Dict[DataType, int] = {}
    for processor in processors:
        affected: Set[DataType] = set()
        for defect in processor.defects:
            affected.update(defect.datatypes)
        for dtype in affected:
            counts[dtype] = counts.get(dtype, 0) + 1
    return {
        dtype: count / len(processors) for dtype, count in counts.items()
    }


def single_core_fraction(
    result: FleetStudyResult, population: FleetPopulation
) -> float:
    """Observation 4: fraction of faulty CPUs with one defective core."""
    processors = _detected_processors(result, population)
    if not processors:
        return 0.0
    single = sum(1 for p in processors if len(p.defective_cores()) == 1)
    return single / len(processors)


def ineffective_testcase_count(
    result: FleetStudyResult, toolchain_size: int
) -> int:
    """Observation 11: testcases that never detected any error."""
    return toolchain_size - len(result.failing_testcases())
