"""Fleet population generation.

The study covers "over one million CPUs from hundreds of clusters in 28
data centers across 14 countries" (§1).  Healthy processors are only
*counted* (there are ~999,640 of them and they never do anything
interesting); each faulty processor is one sampled row
(:data:`ROW_SCHEMA`) that rebuilds into a Processor with its defect
whenever the test pipeline asks for it.

Calibration:

* per-architecture faulty *incidence* derives from Table 2's measured
  failure rates, inflated by the escape fraction (§2.3's toolchain
  false negatives — faulty CPUs that are never detected and therefore
  never counted by the paper);
* defect *onset times* follow a three-component mixture chosen so the
  four test timings of Table 1 (factory / datacenter / re-install /
  regular) each catch their share: present-at-birth defects, early
  burn-in defects that develop during transport/assembly/installation,
  and late-onset or intermittent defects that only regular testing can
  catch;
* trigger parameters follow the same Figure-9 law as the catalog.
"""

from __future__ import annotations

from dataclasses import MISSING, dataclass, field, fields as dataclass_fields
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import ConfigurationError
from ..rng import substream
from ..units import from_permyriad
from ..cpu.catalog import (
    ARCHITECTURES,
    FIG9_INTERCEPT,
    FIG9_NOISE_SD,
    FIG9_SLOPE,
    PAPER_ARCH_FAILURE_RATES_PERMYRIAD,
    _GENERATED_POOLS,
    _computation_bitflip,
    _core_multiplier_sums,
    _core_multipliers,
)
from ..cpu.defects import Defect, DefectScope, TriggerProfile
from ..cpu.features import Feature
from ..cpu.isa import DEFAULT_ISA
from ..cpu.processor import MicroArchitecture, Processor

__all__ = [
    "OnsetMixture",
    "FleetSpec",
    "FleetPopulation",
    "ROW_SCHEMA",
    "FLEET_TRIGGER_DEFAULTS",
    "draw_fleet_columns",
    "fleet_arch_counts",
    "fleet_cpu_name",
    "fleet_defect_id",
    "fleet_multiplier_sums",
    "fleet_signature_shape",
]

#: The one row schema of a faulty CPU: column name -> dtype, in the
#: order :func:`draw_fleet_columns` draws the values.  The last eight
#: columns are :func:`_sample_defect_params`' tuple.  Generation and
#: :class:`~.frame.FleetFrame`'s validation and row building all read
#: this table.
ROW_SCHEMA: Dict[str, np.dtype] = {
    "arch_code": np.dtype(np.int16),
    # Per-architecture faulty index (the ``F%04d`` in the CPU name).
    "arch_index": np.dtype(np.int32),
    "onset_days": np.dtype(np.float64),
    "escapes": np.dtype(np.bool_),
    "consistency": np.dtype(np.bool_),
    "combo": np.dtype(np.int8),
    "pool_index": np.dtype(np.int32),
    # Defective physical core, or -1 for all-core defects.
    "core_id": np.dtype(np.int32),
    "tmin": np.dtype(np.float64),
    "log10_f0": np.dtype(np.float64),
    "slope": np.dtype(np.float64),
    "pattern_prob": np.dtype(np.float64),
}


@dataclass(frozen=True)
class OnsetMixture:
    """When defects become active, relative to factory delivery.

    Weights are the mixture probabilities; the windows are in days.
    Tuned so the four Table-1 timings split detections roughly
    0.776 : 0.18 : 2.306 : 0.348 (factory : datacenter : re-install :
    regular).
    """

    at_birth_weight: float = 0.215
    #: Transit damage: defects that develop between factory shipment and
    #: datacenter arrival — the small share datacenter-delivery testing
    #: catches (Table 1: 0.18 of 3.61 permyriad).
    transit_weight: float = 0.035
    burn_in_weight: float = 0.62
    late_weight: float = 0.13
    transit_window_days: Tuple[float, float] = (1.0, 21.0)
    #: Burn-in onsets develop during assembly/installation — after the
    #: datacenter-delivery test (day 21) but before the re-installation
    #: test (day 45), which is why re-installation catches the largest
    #: share in Table 1.
    burn_in_window_days: Tuple[float, float] = (22.0, 45.0)
    #: Late onsets appear during the 32-month production horizon.
    late_window_days: Tuple[float, float] = (50.0, 900.0)

    def __post_init__(self) -> None:
        total = (
            self.at_birth_weight
            + self.transit_weight
            + self.burn_in_weight
            + self.late_weight
        )
        if abs(total - 1.0) > 1e-9:
            raise ConfigurationError("onset mixture weights must sum to 1")

    def sample(self, rng: np.random.Generator) -> float:
        u = rng.random()
        if u < self.at_birth_weight:
            return 0.0
        u -= self.at_birth_weight
        if u < self.transit_weight:
            low, high = self.transit_window_days
        elif u < self.transit_weight + self.burn_in_weight:
            low, high = self.burn_in_window_days
        else:
            low, high = self.late_window_days
        return float(rng.uniform(low, high))


@dataclass(frozen=True)
class FleetSpec:
    """Parameters of the generated fleet."""

    total_processors: int = 1_000_000
    #: Fraction of the fleet per architecture (defaults to uniform-ish
    #: shares; companies buy in batches so shares differ).
    arch_shares: Optional[Dict[str, float]] = None
    #: Fraction of faulty CPUs whose defect escapes the toolchain
    #: entirely (§2.3: "We did find SDCs that cannot be detected by this
    #: toolchain").
    escape_fraction: float = 0.05
    #: Multiplier on the per-architecture faulty incidence.  Table 2
    #: rates leave a 100k-CPU fleet with only a few dozen faulty CPUs;
    #: benchmarks and parity tests raise this to build dense faulty
    #: populations without paying for millions of healthy counters.
    failure_rate_scale: float = 1.0
    onset: OnsetMixture = field(default_factory=OnsetMixture)
    seed: int = 1

    def __post_init__(self) -> None:
        if self.failure_rate_scale <= 0:
            raise ConfigurationError("failure_rate_scale must be positive")

    def resolved_shares(self) -> Dict[str, float]:
        if self.arch_shares is not None:
            shares = dict(self.arch_shares)
        else:
            # Newer architectures are deployed in larger volume.
            raw = {
                name: 0.6 + 0.1 * arch.generation
                for name, arch in ARCHITECTURES.items()
            }
            total = sum(raw.values())
            shares = {name: value / total for name, value in raw.items()}
        total = sum(shares.values())
        if abs(total - 1.0) > 1e-9:
            raise ConfigurationError("arch shares must sum to 1")
        return shares


@dataclass
class FleetPopulation:
    """The generated fleet: healthy counts plus the faulty CPUs.

    :func:`~.frame.generate_fleet` backs ``faulty`` with a
    :class:`~.frame.FleetFrame`, which builds Processors from its rows
    on each access.  The vectorized engine lowers that frame's columns
    and accepts nothing else; for the scalar
    :class:`~.pipeline.TestPipeline`, any other sequence of Processors
    works too.
    """

    spec: FleetSpec
    arch_counts: Dict[str, int]
    faulty: Sequence[Processor]

    @property
    def total(self) -> int:
        return sum(self.arch_counts.values())

    def faulty_by_arch(self) -> Dict[str, List[Processor]]:
        grouped: Dict[str, List[Processor]] = {name: [] for name in self.arch_counts}
        for processor in self.faulty:
            grouped[processor.arch.name].append(processor)
        return grouped

    def detectable_faulty(self) -> List[Processor]:
        return [
            p
            for p in self.faulty
            if not all(d.escapes_toolchain for d in p.defects)
        ]


#: Consistency feature combinations, indexed by the sampled combo code
#: (0.4 / 0.4 / 0.2 split over cache, TM, and both).
_CONSISTENCY_COMBOS: Tuple[Tuple[Feature, ...], ...] = (
    (Feature.CACHE,),
    (Feature.TRX_MEM,),
    (Feature.CACHE, Feature.TRX_MEM),
)
#: Computation primary features, indexed by the sampled combo code.
_PRIMARY_FEATURES: Tuple[Feature, ...] = (
    Feature.ALU,
    Feature.VECTOR,
    Feature.FPU,
)


def _sample_defect_params(
    arch: MicroArchitecture, rng: np.random.Generator
) -> Tuple[bool, int, int, int, float, float, float, float]:
    """Draw one defect's compact parameter tuple.

    Consumes *exactly* the draws the original inline sampler consumed,
    in the same order — this is the contract that keeps every fleet
    seed's population unchanged.  Everything else about a fleet defect
    (core multipliers, bitflip patterns, datatypes) is derived
    deterministically from these parameters plus the CPU name, so the
    tuple is the *complete* stochastic state of a faulty CPU.

    §4.1: of the 27 studied CPUs, 19 are computation-type and 8
    consistency-type — we keep that ~70/30 split fleet-wide.
    Observation 4: about half the faulty CPUs have a single defective
    core.

    Returns ``(consistency, combo, pool_index, core_id, tmin, log10_f0,
    slope, pattern_probability)`` where ``combo`` indexes
    ``_CONSISTENCY_COMBOS`` or ``_PRIMARY_FEATURES`` depending on
    ``consistency``, and ``core_id`` is ``-1`` for all-core defects.
    """
    consistency = bool(rng.random() < 8.0 / 27.0)
    tmin = float(rng.uniform(40.0, 72.0))
    log10_f0 = float(
        FIG9_INTERCEPT - FIG9_SLOPE * (tmin - 40.0) + rng.normal(0.0, FIG9_NOISE_SD)
    )
    slope = float(rng.uniform(0.08, 0.22))
    single = rng.random() < 0.5
    core_id = int(rng.integers(arch.physical_cores)) if single else -1
    if consistency:
        kind = rng.random()
        combo = 0 if kind < 0.4 else (1 if kind < 0.8 else 2)
        pool_index = 0
    else:
        # Floating-point-heavy features dominate (Observation 6: "many
        # different vulnerable features are related to floating-point
        # calculation").
        combo = int(rng.choice(3, p=[0.30, 0.30, 0.40]))
        pool = _GENERATED_POOLS[_PRIMARY_FEATURES[combo]]
        pool_index = int(rng.integers(len(pool)))
    pattern_probability = float(rng.uniform(0.35, 0.9))
    return (
        consistency, combo, pool_index, core_id,
        tmin, log10_f0, slope, pattern_probability,
    )


#: The trigger-profile fields no fleet column samples: every fleet
#: defect keeps :class:`TriggerProfile`'s defaults for its per-setting
#: jitters and its stress exponent.
FLEET_TRIGGER_DEFAULTS: Dict[str, float] = {
    spec.name: spec.default
    for spec in dataclass_fields(TriggerProfile)
    if spec.default is not MISSING
}


def fleet_cpu_name(arch_name: str, arch_index: int) -> str:
    """A faulty CPU's id: its architecture and per-architecture index."""
    return f"{arch_name}-F{arch_index:04d}"


def fleet_defect_id(cpu_name: str) -> str:
    """The id of a faulty CPU's one defect, which keys its trigger
    substreams."""
    return f"{cpu_name}-defect"


def fleet_signature_shape(
    consistency: bool, combo: int, pool_index: int
) -> Tuple[Tuple[Feature, ...], Tuple[str, ...]]:
    """A defect's ``(features, instructions)`` from its match signature.

    ``combo`` indexes ``_CONSISTENCY_COMBOS`` or ``_PRIMARY_FEATURES``
    as ``consistency`` says; a consistency defect names no
    instructions.
    """
    if consistency:
        return _CONSISTENCY_COMBOS[combo], ()
    primary = _PRIMARY_FEATURES[combo]
    instructions = _GENERATED_POOLS[primary][pool_index]
    features = tuple(
        dict.fromkeys(
            (primary,)
            + tuple(
                f
                for m in instructions
                for f in DEFAULT_ISA[m].features
                if f in (Feature.ALU, Feature.VECTOR, Feature.FPU)
            )
        )
    )
    return features, instructions


def fleet_multiplier_sums(
    arch_names: Sequence[str],
    core_ids: Sequence[int],
    cpu_names: Sequence[str],
) -> List[float]:
    """Each row's ``sum`` of per-core multipliers, as the scalar
    pipeline adds them, without building its defect.

    A single-core defect's one core weighs 1.0; an all-core defect
    weighs its cores by the catalog's name-keyed multipliers, replayed
    in bulk.  Every row's first affected core weighs 1.0, so its
    reference multiplier is 1.0.
    """
    counts = [
        1 if core >= 0 else ARCHITECTURES[arch].physical_cores
        for arch, core in zip(arch_names, core_ids)
    ]
    return _core_multiplier_sums(counts, cpu_names)


def _build_fleet_defect(
    name: str,
    arch: MicroArchitecture,
    params: Tuple[bool, int, int, int, float, float, float, float],
    onset_days: float,
    escapes: bool,
) -> Defect:
    """Deterministically rebuild a defect from its sampled parameters.

    Consumes no randomness: core multipliers and bitflip patterns come
    from name-keyed substreams in the catalog, so the same
    ``(name, params)`` always yields an equal frozen
    :class:`~repro.cpu.defects.Defect`, whichever access rebuilds it.
    """
    (
        consistency, combo, pool_index, core_id,
        tmin, log10_f0, slope, pattern_probability,
    ) = params
    features, instructions = fleet_signature_shape(
        consistency, combo, pool_index
    )
    if core_id >= 0:
        scope = DefectScope.SINGLE_CORE
        core_ids: Tuple[int, ...] = (core_id,)
        multipliers = {core_id: 1.0}
    else:
        scope = DefectScope.ALL_CORES
        core_ids = tuple(range(arch.physical_cores))
        multipliers = _core_multipliers(arch.physical_cores, name)
    datatypes = tuple(
        dict.fromkeys(DEFAULT_ISA[m].dtype for m in instructions)
    )
    return Defect(
        defect_id=fleet_defect_id(name),
        features=features,
        scope=scope,
        core_ids=core_ids,
        instructions=instructions,
        datatypes=datatypes,
        trigger=TriggerProfile(
            tmin=tmin,
            log10_freq_at_tmin=log10_f0,
            temp_slope=slope,
            **FLEET_TRIGGER_DEFAULTS,
        ),
        bitflip=(
            None
            if consistency
            else _computation_bitflip(name, datatypes, pattern_probability)
        ),
        core_multipliers=multipliers,
        multithread_only=consistency,
        escapes_toolchain=escapes,
        onset_days=onset_days,
    )


def fleet_arch_counts(spec: FleetSpec) -> Dict[str, int]:
    """Per-architecture processor counts (deterministic, no RNG).

    Shares are rounded per arch; the last (sorted) arch absorbs the
    rounding remainder — exactly the accounting eager generation uses.
    """
    shares = spec.resolved_shares()
    arch_counts: Dict[str, int] = {}
    remaining = spec.total_processors
    names = sorted(shares)
    for name in names[:-1]:
        count = int(round(spec.total_processors * shares[name]))
        arch_counts[name] = count
        remaining -= count
    arch_counts[names[-1]] = remaining
    return arch_counts


def draw_fleet_columns(spec: FleetSpec) -> Dict[str, np.ndarray]:
    """Draw every faulty CPU's row into :data:`ROW_SCHEMA` columns.

    Consumes the single ``substream(seed, "fleet")`` generator in one
    fixed order — per sorted architecture, one binomial count, then per
    CPU: onset, escape, defect parameters.  ``arch_code`` indexes the
    sorted architecture names; a fleet with no faulty CPU gets typed
    zero-length columns.
    """
    rng = substream(spec.seed, "fleet")
    arch_counts = fleet_arch_counts(spec)
    rows: List[Tuple] = []
    for code, name in enumerate(sorted(arch_counts)):
        arch = ARCHITECTURES[name]
        # Table 2 rates are *detected* failure rates; true incidence is
        # higher by the escape fraction.
        detected_rate = from_permyriad(PAPER_ARCH_FAILURE_RATES_PERMYRIAD[name])
        incidence = min(
            detected_rate / (1.0 - spec.escape_fraction)
            * spec.failure_rate_scale,
            1.0,
        )
        count = int(rng.binomial(arch_counts[name], incidence))
        for index in range(count):
            onset = spec.onset.sample(rng)
            escapes = bool(rng.random() < spec.escape_fraction)
            rows.append(
                (code, index, onset, escapes)
                + _sample_defect_params(arch, rng)
            )
    values = list(zip(*rows)) or [()] * len(ROW_SCHEMA)
    return {
        name: np.array(column, dtype=dtype)
        for (name, dtype), column in zip(ROW_SCHEMA.items(), values)
    }
