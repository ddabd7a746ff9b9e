"""Fault-injection campaigns: comparing failure models at application level.

§8: "fault injection is widely used [to evaluate fault-tolerance
systems] ... Our observations can help improve the injector designs so
as to better evaluate the solutions to SDCs in production
environments."  §4.2 lists the deficiencies of IID-irradiation
injectors: no location preference, no flip correlation.

A :class:`InjectionCampaign` drives a numeric workload (dot products,
the HPC staple) under a configurable bitflip model and measures the
*application-level* consequences — how large the result errors are and
how often a simple sanity check would notice.  Running it under the
study model and the IID model side by side quantifies how much an IID
injector misestimates production SDC impact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List

import numpy as np

from ..errors import ConfigurationError
from ..rng import substream
from ..cpu import datatypes
from ..cpu.features import DataType
from .bitflip import BitflipModel, IIDBitflip, PositionBiasedBitflip

__all__ = ["CampaignResult", "InjectionCampaign", "compare_failure_models"]


@dataclass
class CampaignResult:
    """Application-level impact of one injection campaign."""

    model_name: str
    runs: int
    injections: int
    #: Relative error of each corrupted run's final result.
    relative_errors: List[float] = field(default_factory=list)
    #: Runs whose result became non-finite (inf/nan) — immediately
    #: visible, i.e. *not* silent.
    non_finite: int = 0

    def median_error(self) -> float:
        if not self.relative_errors:
            return 0.0
        ordered = sorted(self.relative_errors)
        return ordered[len(ordered) // 2]

    def fraction_below(self, threshold: float) -> float:
        if not self.relative_errors:
            return 0.0
        return sum(1 for e in self.relative_errors if e < threshold) / len(
            self.relative_errors
        )


@dataclass
class InjectionCampaign:
    """Injects one flip per run into a float64 dot-product workload."""

    model: BitflipModel
    model_name: str
    vector_len: int = 64
    seed: int = 0

    def __post_init__(self) -> None:
        if self.vector_len < 2:
            raise ConfigurationError("vector_len must be at least 2")

    def run(self, runs: int = 500) -> CampaignResult:
        rng = substream(self.seed, "campaign", self.model_name)
        result = CampaignResult(model_name=self.model_name, runs=runs, injections=0)
        for _ in range(runs):
            xs = rng.uniform(0.5, 2.0, size=self.vector_len)
            ys = rng.uniform(0.5, 2.0, size=self.vector_len)
            golden = float(np.dot(xs, ys))
            # Corrupt one intermediate partial sum mid-reduction.
            split = int(rng.integers(1, self.vector_len))
            partial = float(np.dot(xs[:split], ys[:split]))
            bits = datatypes.encode(partial, DataType.FLOAT64)
            bits ^= self.model.sample_mask(DataType.FLOAT64, rng)
            corrupted_partial = datatypes.decode(bits, DataType.FLOAT64)
            result.injections += 1
            final = corrupted_partial + float(np.dot(xs[split:], ys[split:]))
            if not math.isfinite(final):
                result.non_finite += 1
                continue
            result.relative_errors.append(abs(final - golden) / abs(golden))
        return result


def compare_failure_models(
    runs: int = 800, seed: int = 0
) -> List[CampaignResult]:
    """The §4.2 injector-design comparison: study model vs IID model."""
    campaigns = [
        InjectionCampaign(
            PositionBiasedBitflip(), "study (position-biased, patterns)",
            seed=seed,
        ),
        InjectionCampaign(IIDBitflip(), "IID single-flip (irradiation)", seed=seed),
    ]
    return [campaign.run(runs) for campaign in campaigns]
