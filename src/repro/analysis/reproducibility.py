"""Reproducibility analysis (§5, Figures 8-9).

Occurrence frequency — errors per minute of a setting — is measured by
repeatedly running the failed testcase, exactly as the study does.  The
temperature sweep pins the core temperature (preheating when the
setting cannot reach it naturally) and measures the frequency at each
point; a least-squares line through ``log10(frequency)`` vs temperature
gives the Figure-8 fits, and the scatter of frequency-at-minimum-
triggering-temperature vs that temperature gives Figure 9.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from ..errors import ConfigurationError
from ..cpu.processor import Processor
from ..faults.trigger import TriggerModel
from ..testing.library import TestcaseLibrary
from ..testing.runner import ToolchainRunner
from ..testing.testcase import Testcase
from .correlation import LinearFit, linear_fit

__all__ = [
    "FrequencyMeasurement",
    "TemperatureSweep",
    "measure_frequency",
    "temperature_sweep",
    "SettingReproducibility",
    "catalog_setting_survey",
]


@dataclass(frozen=True)
class FrequencyMeasurement:
    """One measured occurrence frequency at one temperature."""

    temperature_c: float
    errors: int
    duration_s: float

    @property
    def frequency_per_min(self) -> float:
        return self.errors / (self.duration_s / 60.0)

    @property
    def log10_frequency(self) -> Optional[float]:
        freq = self.frequency_per_min
        return math.log10(freq) if freq > 0 else None


@dataclass
class TemperatureSweep:
    """A Figure-8 style sweep for one setting."""

    processor_id: str
    testcase_id: str
    pcore_id: int
    measurements: List[FrequencyMeasurement] = field(default_factory=list)

    def nonzero(self) -> List[FrequencyMeasurement]:
        return [m for m in self.measurements if m.errors > 0]

    def fit(self) -> Optional[LinearFit]:
        """Least-squares fit of log10(frequency) against temperature."""
        points = [
            (m.temperature_c, m.log10_frequency)
            for m in self.nonzero()
        ]
        if len(points) < 3:
            return None
        xs = [p[0] for p in points]
        ys = [p[1] for p in points]
        if len(set(xs)) < 2:
            return None
        return linear_fit(xs, ys)

    def observed_min_trigger_temp(self) -> Optional[float]:
        """Lowest temperature at which errors were observed."""
        nonzero = self.nonzero()
        if not nonzero:
            return None
        return min(m.temperature_c for m in nonzero)


def measure_frequency(
    runner: ToolchainRunner,
    testcase: Testcase,
    temperature_c: float,
    duration_s: float = 600.0,
    pcore_id: int = 0,
) -> FrequencyMeasurement:
    """Measure one setting's frequency at a pinned temperature."""
    run = runner.run_at_fixed_temperature(
        testcase, temperature_c, duration_s, cores=[pcore_id]
    )
    return FrequencyMeasurement(
        temperature_c=temperature_c,
        errors=run.error_count,
        duration_s=duration_s,
    )


def temperature_sweep(
    runner: ToolchainRunner,
    testcase: Testcase,
    temperatures: Sequence[float],
    duration_s: float = 600.0,
    pcore_id: int = 0,
) -> TemperatureSweep:
    """Sweep a setting over pinned temperatures (Figure 8's method)."""
    if not temperatures:
        raise ConfigurationError("need at least one temperature")
    sweep = TemperatureSweep(
        processor_id=runner.processor.processor_id,
        testcase_id=testcase.testcase_id,
        pcore_id=pcore_id,
    )
    for temperature in temperatures:
        sweep.measurements.append(
            measure_frequency(
                runner, testcase, temperature, duration_s, pcore_id
            )
        )
    return sweep


@dataclass(frozen=True)
class SettingReproducibility:
    """One point of Figure 9: a setting's tmin and frequency there."""

    processor_id: str
    testcase_id: str
    tmin_c: float
    log10_freq_at_tmin: float

    @property
    def apparent(self) -> bool:
        """The paper's apparent/tricky split (§5): apparent SDCs are
        detectable near idle temperature with high frequency."""
        return self.tmin_c <= 52.0 and self.log10_freq_at_tmin >= -0.5


def catalog_setting_survey(
    processors: Sequence[Processor],
    library: TestcaseLibrary,
    trigger: Optional[TriggerModel] = None,
    max_settings_per_processor: int = 4,
) -> List[SettingReproducibility]:
    """Resolve (tmin, frequency-at-tmin) for failing settings (Fig. 9).

    Uses the trigger model's per-setting behaviour — the quantity the
    study estimates empirically by long runs just above/below threshold
    temperatures — for a bounded number of settings per processor, like
    the paper's per-CPU experiment budget.
    """
    trigger = trigger or TriggerModel()
    points: List[SettingReproducibility] = []
    for processor in processors:
        runner = ToolchainRunner(processor, trigger_model=trigger)
        taken = 0
        for testcase in library:
            if taken >= max_settings_per_processor:
                break
            matched = False
            usage = 0.0
            for defect in processor.defects:
                if defect.is_consistency:
                    continue
                for mnemonic in defect.instructions:
                    if testcase.uses_instruction(mnemonic):
                        candidate = testcase.usage_per_s(mnemonic)
                        # Survey tight-loop settings only: the study's
                        # frequency measurements repeat the *failed*
                        # testcase, which saturates the defective
                        # instruction; diluted settings would fold
                        # usage stress into the Figure-9 scatter.
                        if candidate >= 0.5 * trigger.reference_usage:
                            matched = True
                            usage = max(usage, candidate)
                if matched:
                    behaviour = trigger.behaviour(
                        defect, testcase.testcase_id
                    )
                    stress = (
                        usage / trigger.reference_usage
                    ) ** behaviour.stress_exponent
                    log10_freq = behaviour.log10_freq_at_tmin + math.log10(
                        max(stress, 1e-12)
                    )
                    points.append(
                        SettingReproducibility(
                            processor_id=processor.processor_id,
                            testcase_id=testcase.testcase_id,
                            tmin_c=behaviour.tmin_c,
                            log10_freq_at_tmin=log10_freq,
                        )
                    )
                    taken += 1
                    break
    return points
