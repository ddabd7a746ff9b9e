"""Fleet population generation.

The study covers "over one million CPUs from hundreds of clusters in 28
data centers across 14 countries" (§1).  Healthy processors are only
*counted* (there are ~999,640 of them and they never do anything
interesting); faulty processors are fully instantiated with defects so
the test pipeline can exercise them.

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

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

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
    _defect,
)
from ..cpu.defects import Defect, DefectScope
from ..cpu.features import Feature
from ..cpu.isa import DEFAULT_ISA
from ..cpu.processor import MicroArchitecture, Processor

__all__ = [
    "OnsetMixture",
    "FleetSpec",
    "FleetPopulation",
    "FleetChunk",
    "fleet_arch_counts",
    "iter_fleet_chunks",
    "generate_fleet",
]

#: Streamed generation emits faulty CPUs in struct-of-arrays chunks of
#: this many rows by default — large enough to amortize per-chunk
#: overhead, small enough that a chunk is always cache-friendly.
DEFAULT_CHUNK_SIZE = 8192


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
    """The generated fleet: healthy counts plus instantiated faulty CPUs."""

    spec: FleetSpec
    arch_counts: Dict[str, int]
    faulty: List[Processor]

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
    in the same order — this is the contract that keeps chunked
    streamed generation bit-identical to the materialized path.
    Everything else about a fleet defect (core multipliers, bitflip
    patterns, datatypes) is derived deterministically from these
    parameters plus the CPU name, so the tuple is the *complete*
    stochastic state of a faulty CPU.

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


def _build_fleet_defect(
    name: str,
    arch: MicroArchitecture,
    params: Tuple[bool, int, int, int, float, float, float, float],
    onset_days: float,
    escapes: bool,
) -> Defect:
    """Deterministically rebuild a defect from its sampled parameters.

    Consumes no randomness: core multipliers and bitflip patterns come
    from name-keyed substreams inside the catalog builder, so the same
    ``(name, params)`` always yields the identical frozen
    :class:`~repro.cpu.defects.Defect`, whether built during streamed
    chunk materialization or eager generation.
    """
    (
        consistency, combo, pool_index, core_id,
        tmin, log10_f0, slope, pattern_probability,
    ) = params
    if consistency:
        features: Tuple[Feature, ...] = _CONSISTENCY_COMBOS[combo]
        instructions: Tuple[str, ...] = ()
    else:
        primary = _PRIMARY_FEATURES[combo]
        pool = _GENERATED_POOLS[primary]
        instructions = pool[pool_index]
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
    scope = DefectScope.SINGLE_CORE if core_id >= 0 else DefectScope.ALL_CORES
    cores = (core_id,) if core_id >= 0 else None
    defect = _defect(
        name, features, arch, scope, instructions,
        tmin=tmin, log10_f0=log10_f0, slope=slope,
        pattern_probability=pattern_probability,
        cores=cores,
    )
    # Dataclass is frozen; rebuild with onset/escape attributes set.
    return Defect(
        defect_id=defect.defect_id,
        features=defect.features,
        scope=defect.scope,
        core_ids=defect.core_ids,
        instructions=defect.instructions,
        datatypes=defect.datatypes,
        trigger=defect.trigger,
        bitflip=defect.bitflip,
        core_multipliers=defect.core_multipliers,
        multithread_only=defect.multithread_only,
        escapes_toolchain=escapes,
        onset_days=onset_days,
    )


@dataclass
class FleetChunk:
    """A contiguous run of faulty CPUs in struct-of-arrays form.

    Each row is one faulty CPU's complete stochastic state (the output
    of :func:`_sample_defect_params` plus onset/escape draws) — about
    45 bytes instead of the kilobytes a materialized
    :class:`~repro.cpu.processor.Processor` costs — so a million-CPU
    fleet streams through memory a chunk at a time.
    :meth:`materialize` deterministically rebuilds the exact Processor
    objects eager generation would have produced for the same rows.
    """

    #: Global faulty-CPU index of this chunk's first row.
    start: int
    #: Architecture name table ``arch_code`` indexes into.
    arch_names: Tuple[str, ...]
    arch_code: np.ndarray
    #: Per-architecture faulty index (the ``F%04d`` in the CPU name).
    arch_index: np.ndarray
    onset_days: np.ndarray
    escapes: np.ndarray
    consistency: np.ndarray
    combo: np.ndarray
    pool_index: np.ndarray
    #: Defective physical core, or -1 for all-core defects.
    core_id: np.ndarray
    tmin: np.ndarray
    log10_f0: np.ndarray
    slope: np.ndarray
    pattern_prob: np.ndarray

    def __len__(self) -> int:
        return len(self.arch_code)

    def materialize_row(self, row: int) -> Processor:
        """Rebuild one row's Processor, bit-identical to eager output."""
        name = self.arch_names[int(self.arch_code[row])]
        arch = ARCHITECTURES[name]
        cpu_name = f"{name}-F{int(self.arch_index[row]):04d}"
        params = (
            bool(self.consistency[row]),
            int(self.combo[row]),
            int(self.pool_index[row]),
            int(self.core_id[row]),
            float(self.tmin[row]),
            float(self.log10_f0[row]),
            float(self.slope[row]),
            float(self.pattern_prob[row]),
        )
        defect = _build_fleet_defect(
            cpu_name, arch, params,
            float(self.onset_days[row]), bool(self.escapes[row]),
        )
        return Processor(
            processor_id=cpu_name,
            arch=arch,
            defects=(defect,),
            age_years=0.0,
        )

    def materialize(self) -> List[Processor]:
        return [self.materialize_row(row) for row in range(len(self))]


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


def iter_fleet_chunks(
    spec: Optional[FleetSpec] = None,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
) -> Iterator[FleetChunk]:
    """Stream the fleet's faulty CPUs as struct-of-arrays chunks.

    Consumes the single ``substream(seed, "fleet")`` generator in
    exactly the order eager generation does — per sorted architecture,
    one binomial count, then per CPU: onset, escape, defect parameters
    — so concatenating every chunk's :meth:`~FleetChunk.materialize`
    output reproduces :func:`generate_fleet`'s faulty list bit for bit
    (:func:`generate_fleet` is literally implemented that way).  Peak
    memory is one chunk (~45 bytes/row), never the whole fleet.

    Chunks may span architecture boundaries; rows carry their arch code
    and per-arch index so any chunking yields the same global sequence.
    """
    spec = spec or FleetSpec()
    if chunk_size <= 0:
        raise ConfigurationError("chunk_size must be positive")
    rng = substream(spec.seed, "fleet")
    arch_counts = fleet_arch_counts(spec)
    names = sorted(arch_counts)
    arch_names = tuple(names)
    arch_code_of = {name: code for code, name in enumerate(arch_names)}

    rows: List[Tuple] = []
    start = 0

    def flush() -> FleetChunk:
        nonlocal rows, start
        columns = list(zip(*rows)) if rows else [[] for _ in range(12)]
        chunk = FleetChunk(
            start=start,
            arch_names=arch_names,
            arch_code=np.asarray(columns[0], dtype=np.int16),
            arch_index=np.asarray(columns[1], dtype=np.int32),
            onset_days=np.asarray(columns[2], dtype=np.float64),
            escapes=np.asarray(columns[3], dtype=np.bool_),
            consistency=np.asarray(columns[4], dtype=np.bool_),
            combo=np.asarray(columns[5], dtype=np.int8),
            pool_index=np.asarray(columns[6], dtype=np.int32),
            core_id=np.asarray(columns[7], dtype=np.int32),
            tmin=np.asarray(columns[8], dtype=np.float64),
            log10_f0=np.asarray(columns[9], dtype=np.float64),
            slope=np.asarray(columns[10], dtype=np.float64),
            pattern_prob=np.asarray(columns[11], dtype=np.float64),
        )
        start += len(rows)
        rows = []
        return chunk

    for name in names:
        arch = ARCHITECTURES[name]
        code = arch_code_of[name]
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
            (
                consistency, combo, pool_index, core_id,
                tmin, log10_f0, slope, pattern_probability,
            ) = _sample_defect_params(arch, rng)
            rows.append((
                code, index, onset, escapes, consistency, combo,
                pool_index, core_id, tmin, log10_f0, slope,
                pattern_probability,
            ))
            if len(rows) >= chunk_size:
                yield flush()
    if rows:
        yield flush()


def generate_fleet(spec: Optional[FleetSpec] = None) -> FleetPopulation:
    """Generate the fleet: arch counts plus instantiated faulty CPUs.

    Implemented over :func:`iter_fleet_chunks`, so the eager and
    streamed paths share one sampler and parity between them holds by
    construction.
    """
    spec = spec or FleetSpec()
    faulty: List[Processor] = []
    for chunk in iter_fleet_chunks(spec):
        faulty.extend(chunk.materialize())
    return FleetPopulation(
        spec=spec, arch_counts=fleet_arch_counts(spec), faulty=faulty
    )
