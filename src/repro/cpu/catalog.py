"""The study's micro-architectures and the 27 extensively-studied CPUs.

Table 2 lists nine micro-architectures M1-M9; Table 3 details ten of
the 27 faulty processors kept for in-depth analysis (the rest were
returned to the manufacturer before detailed characterization — here we
*generate* the remaining 17 with the same statistical properties, so
that §4-§5 analyses run over the full 27: 19 computation + 8
consistency, per §4.1).

All trigger parameters are calibrated against the paper:

* Figure 8's per-setting fits (MIX1/C: ~0.001-0.1 err/min over
  66-76 °C; MIX2/C: ~0.01-1 over 56-68 °C; FPU2/L: ~0.4-4 over
  48-56 °C) pin the named CPUs' tmin / frequency / slope values;
* Figure 9's anti-correlation between minimum triggering temperature
  and frequency-at-tmin (r ≈ −0.83) generates the 17 unnamed CPUs:
  ``log10 f0 = FIG9_INTERCEPT − FIG9_SLOPE · (tmin − 40 °C) + noise``;
* the MIX1/C 59 °C threshold quoted in §5's text falls out of MIX1's
  tmin plus the per-setting jitter.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ..errors import ConfigurationError
from ..faults.bitflip import PatternBitflip, PositionBiasedBitflip
from ..perf.exact_rng import VectorPCG64, derive_seed_batch
from ..rng import substream
from .defects import Defect, DefectScope, TriggerProfile
from .features import DataType, Feature
from .isa import DEFAULT_ISA
from .processor import MicroArchitecture, Processor

__all__ = [
    "ARCHITECTURES",
    "PAPER_ARCH_FAILURE_RATES_PERMYRIAD",
    "FIG9_INTERCEPT",
    "FIG9_SLOPE",
    "FIG9_NOISE_SD",
    "named_catalog",
    "generated_catalog",
    "full_catalog",
    "catalog_processor",
    "STUDY_SIZE",
    "COMPUTATION_STUDY_COUNT",
    "CONSISTENCY_STUDY_COUNT",
]

#: The nine micro-architectures of Table 2.  Generation numbers order
#: them oldest→newest; Observation 3 notes the failure rate does *not*
#: decrease with newer generations.
ARCHITECTURES: Dict[str, MicroArchitecture] = {
    "M1": MicroArchitecture("M1", 1, physical_cores=8, tdp_watts=105.0),
    "M2": MicroArchitecture("M2", 2, physical_cores=16, tdp_watts=150.0),
    "M3": MicroArchitecture("M3", 3, physical_cores=24, tdp_watts=165.0),
    "M4": MicroArchitecture("M4", 4, physical_cores=10, tdp_watts=120.0),
    "M5": MicroArchitecture("M5", 5, physical_cores=12, tdp_watts=135.0),
    "M6": MicroArchitecture("M6", 6, physical_cores=20, tdp_watts=160.0),
    "M7": MicroArchitecture("M7", 7, physical_cores=16, tdp_watts=155.0),
    "M8": MicroArchitecture("M8", 8, physical_cores=28, tdp_watts=185.0),
    "M9": MicroArchitecture("M9", 9, physical_cores=32, tdp_watts=205.0),
}

#: Table 2's per-architecture failure rates (permyriad).  These seed the
#: fleet generator's incidence; the benchmark then *measures* rates back
#: out of the simulated pipeline.
PAPER_ARCH_FAILURE_RATES_PERMYRIAD: Dict[str, float] = {
    "M1": 4.619,
    "M2": 0.352,
    "M3": 2.649,
    "M4": 0.082,
    "M5": 0.759,
    "M6": 3.251,
    "M7": 1.599,
    "M8": 9.29,
    "M9": 4.646,
}

#: Figure 9 calibration: occurrence frequency (log10, err/min) at the
#: minimum triggering temperature vs that temperature.  The intercept is
#: the log-frequency at 40 °C; slope/noise give Pearson r ≈ −0.83 over
#: tmin ∈ [40, 75] °C.
FIG9_INTERCEPT = 1.6
FIG9_SLOPE = 0.13
FIG9_NOISE_SD = 0.45

STUDY_SIZE = 27
COMPUTATION_STUDY_COUNT = 19  # §4.1
CONSISTENCY_STUDY_COUNT = 8


def _patterns_for(
    defect_name: str,
    datatypes: Tuple[DataType, ...],
    per_dtype: int = 2,
) -> Dict[DataType, List[Tuple[int, float]]]:
    """Deterministic fixed bitflip patterns for a defect (Observation 8).

    Masks are sampled from the positional model so pattern positions
    share the mid-representation / fraction-biased statistics of
    non-pattern flips.
    """
    sampler = PositionBiasedBitflip()
    patterns: Dict[DataType, List[Tuple[int, float]]] = {}
    for dtype in datatypes:
        rng = substream(0, "patterns", defect_name, dtype.value)
        masks: List[int] = []
        # Narrow types cannot host many distinct masks (BIT has one).
        target = min(per_dtype, (1 << dtype.width) - 1)
        while len(masks) < target:
            mask = sampler.sample_mask(dtype, rng)
            if mask not in masks:
                masks.append(mask)
        # First pattern dominates, matching Figure 6's single-pattern-
        # heavy settings.
        weights = [1.0] + [0.35] * (len(masks) - 1)
        patterns[dtype] = list(zip(masks, weights))
    return patterns


def _computation_bitflip(
    defect_name: str,
    datatypes: Tuple[DataType, ...],
    pattern_probability: float,
) -> PatternBitflip:
    numeric = PositionBiasedBitflip()
    return PatternBitflip(
        patterns=_patterns_for(defect_name, datatypes),
        pattern_probability=pattern_probability,
        fallback=numeric,
    )


#: Substream name of an all-core defect's per-core multipliers, and
#: the log10 range each core past core 0 draws its multiplier from.
_MULTIPLIER_STREAM = "core-multipliers"
_MULTIPLIER_LOG10 = (-3.0, 0.0)


def _core_multipliers(n_cores: int, name: str) -> Dict[int, float]:
    """Per-core frequency multipliers spanning orders of magnitude.

    Observation 4: all-core defects hit every core "but at a different
    frequency ... up to several orders of magnitude under the same test
    setting, making some of the defective cores difficult to be
    detected".
    """
    rng = substream(0, _MULTIPLIER_STREAM, name)
    low, high = _MULTIPLIER_LOG10
    multipliers = {0: 1.0}
    for core in range(1, n_cores):
        multipliers[core] = float(10.0 ** rng.uniform(low, high))
    return multipliers


def _core_multiplier_sums(
    n_cores: Sequence[int], names: Sequence[str]
) -> List[float]:
    """``sum(_core_multipliers(n, name).values())`` for each pair.

    Every name's substream is replayed lane-parallel through
    :mod:`repro.perf.exact_rng`, all of its draws at once by
    closed-form jump-ahead.  ``10.0 ** x`` stays Python's float
    pow (libm; NumPy's vectorised power may differ in the last ulp) and
    the sum stays Python's ``sum()`` over ``[1.0, m1, ...]``, which is
    compensated from Python 3.12 on, so each total equals the scalar
    one bit for bit.
    """
    sums = [1.0] * len(n_cores)
    lanes = [lane for lane, count in enumerate(n_cores) if count > 1]
    if not lanes:
        return sums
    streams = VectorPCG64.from_seeds(derive_seed_batch(
        0, (_MULTIPLIER_STREAM,), [names[lane] for lane in lanes]
    ))
    low, high = _MULTIPLIER_LOG10
    width = max(n_cores) - 1
    draws = streams.uniform_block(low, high, width).tolist()
    pow10 = (10.0).__pow__
    for lane, row in zip(lanes, draws):
        sums[lane] = sum([1.0, *map(pow10, row[:n_cores[lane] - 1])])
    return sums


def _defect(
    name: str,
    features: Tuple[Feature, ...],
    arch: MicroArchitecture,
    scope: DefectScope,
    instructions: Tuple[str, ...],
    tmin: float,
    log10_f0: float,
    slope: float,
    pattern_probability: float = 0.6,
    cores: Optional[Tuple[int, ...]] = None,
    multithread_only: bool = False,
) -> Defect:
    if scope is DefectScope.ALL_CORES:
        core_ids = tuple(range(arch.physical_cores))
        multipliers = _core_multipliers(arch.physical_cores, name)
    else:
        core_ids = cores if cores is not None else (0,)
        multipliers = {core: 1.0 for core in core_ids}
    datatypes = tuple(
        dict.fromkeys(DEFAULT_ISA[m].dtype for m in instructions)
    )
    is_consistency = all(
        f in (Feature.CACHE, Feature.TRX_MEM) for f in features
    )
    bitflip = (
        None
        if is_consistency
        else _computation_bitflip(name, datatypes, pattern_probability)
    )
    return Defect(
        defect_id=f"{name}-defect",
        features=features,
        scope=scope,
        core_ids=core_ids,
        instructions=() if is_consistency else instructions,
        datatypes=() if is_consistency else datatypes,
        trigger=TriggerProfile(
            tmin=tmin,
            log10_freq_at_tmin=log10_f0,
            temp_slope=slope,
        ),
        bitflip=bitflip,
        core_multipliers=multipliers,
        multithread_only=multithread_only or is_consistency,
    )


def named_catalog() -> Dict[str, Processor]:
    """The ten Table-3 processors, parameterized from the paper."""
    catalog: Dict[str, Processor] = {}

    def add(name: str, arch: str, age: float, defect: Defect) -> None:
        catalog[name] = Processor(
            processor_id=name,
            arch=ARCHITECTURES[arch],
            defects=(defect,),
            age_years=age,
        )

    # MIX1/MIX2: every core affected (16 pcores), mixed computation
    # features (FPU functionality fused with vector units, plus scalar
    # integer paths), moderate-to-low reproducibility, high tmin region
    # of Figure 8(a).
    add("MIX1", "M2", 1.75, _defect(
        "MIX1", (Feature.ALU, Feature.VECTOR, Feature.FPU),
        ARCHITECTURES["M2"], DefectScope.ALL_CORES,
        # Instruction set spans Table 3's impacted workloads: matrix
        # calculation (FMA/MUL), checksum (CRC32), string manipulation
        # (shuffle/pack), large integer arithmetic (ADC).
        ("ADD_I32", "MUL_U32", "VFMA_F32", "VMUL_F64", "POPCNT_B64",
         "PACK_B16", "CRC32_B32", "ADC_B64", "VSHUF_B32"),
        tmin=56.0, log10_f0=-2.6, slope=0.20, pattern_probability=0.45,
    ))
    add("MIX2", "M2", 0.92, _defect(
        "MIX2", (Feature.ALU, Feature.VECTOR, Feature.FPU),
        ARCHITECTURES["M2"], DefectScope.ALL_CORES,
        # Table 3: matrix calculation, checksum, bit operations, and
        # hashing (the §2.2 metadata-service case) are MIX2's victims.
        ("MUL_I16", "ADD_I32", "MUL_U32", "VADD_F32", "FMUL_F64",
         "CMP_BIT", "POPCNT_B64", "PACK_B16", "ROTL_B32", "SHAROUND_B64"),
        tmin=52.0, log10_f0=-1.6, slope=0.17, pattern_probability=0.55,
    ))
    # SIMD1: the single-core defect whose suspect is the fused
    # multiply-add vector instruction (§4.1); apparent (low tmin, high
    # frequency).
    add("SIMD1", "M2", 2.33, _defect(
        "SIMD1", (Feature.VECTOR, Feature.FPU),
        ARCHITECTURES["M2"], DefectScope.SINGLE_CORE,
        ("VFMA_F32",),
        tmin=42.0, log10_f0=1.3, slope=0.12, pattern_probability=0.85,
        cores=(3,),
    ))
    add("SIMD2", "M5", 0.50, _defect(
        "SIMD2", (Feature.VECTOR, Feature.FPU),
        ARCHITECTURES["M5"], DefectScope.SINGLE_CORE,
        ("VMUL_F64",),
        tmin=44.0, log10_f0=0.9, slope=0.10, pattern_probability=0.8,
        cores=(5,),
    ))
    # FPU1/FPU2: extended-precision arctangent suspect (§4.1), used by
    # "a library widely used in HPC applications".
    add("FPU1", "M5", 0.58, _defect(
        "FPU1", (Feature.FPU,),
        ARCHITECTURES["M5"], DefectScope.SINGLE_CORE,
        ("FATAN_F64X", "FSIN_F64"),
        tmin=45.0, log10_f0=0.7, slope=0.13, pattern_probability=0.8,
        cores=(2,),
    ))
    add("FPU2", "M5", 1.83, _defect(
        "FPU2", (Feature.FPU,),
        ARCHITECTURES["M5"], DefectScope.SINGLE_CORE,
        ("FATAN_F64X", "FLOG_F64X", "FSIN_F64"),
        tmin=46.0, log10_f0=-0.3, slope=0.125, pattern_probability=0.75,
        cores=(8,),  # Figure 8(c) plots FPU2, pcore8
    ))
    add("FPU3", "M3", 3.08, _defect(
        "FPU3", (Feature.FPU,),
        ARCHITECTURES["M3"], DefectScope.SINGLE_CORE,
        ("FMUL_F64", "FSQRT_F64"),
        tmin=50.0, log10_f0=0.3, slope=0.15, cores=(11,),
    ))
    add("FPU4", "M6", 1.62, _defect(
        "FPU4", (Feature.FPU,),
        ARCHITECTURES["M6"], DefectScope.SINGLE_CORE,
        ("FADD_F64",),
        tmin=62.0, log10_f0=-1.4, slope=0.18, cores=(7,),
    ))
    # CNST1 "fails to guarantee the consistency in both cache and
    # transactional memory"; CNST2 is TM-only across all 24 cores.
    add("CNST1", "M2", 0.92, _defect(
        "CNST1", (Feature.CACHE, Feature.TRX_MEM),
        ARCHITECTURES["M2"], DefectScope.SINGLE_CORE,
        (),
        tmin=47.0, log10_f0=0.6, slope=0.14, cores=(9,),
    ))
    add("CNST2", "M3", 1.08, _defect(
        "CNST2", (Feature.TRX_MEM,),
        ARCHITECTURES["M3"], DefectScope.ALL_CORES,
        (),
        tmin=55.0, log10_f0=-0.9, slope=0.16,
    ))
    return catalog


#: Instruction pools the generator draws computation defects from, per
#: primary feature.
_GENERATED_POOLS: Dict[Feature, Tuple[Tuple[str, ...], ...]] = {
    Feature.ALU: (
        ("ADD_I32", "SUB_I32"),
        ("MUL_I16",),
        ("MUL_U32", "SHL_U32"),
        ("ADC_B64", "XOR_B64"),
        ("CRC8_B8", "PACK_B16"),
    ),
    Feature.VECTOR: (
        ("VADD_I32",),
        ("VMULL_U32", "VSHUF_B32"),
        ("VXOR_B64", "VGF2P8_B64"),
        ("VADD_F32", "VMUL_F64"),
        ("VFMA_F64",),
    ),
    Feature.FPU: (
        ("FDIV_F32",),
        ("FEXP_F64",),
        ("F2XM1_F64X", "FLOG_F64X"),
        ("FSQRT_F64", "FMUL_F64"),
    ),
}


def generated_catalog(seed: int = 2021) -> Dict[str, Processor]:
    """The 17 unnamed study CPUs (11 computation + 6 consistency).

    Trigger parameters follow the Figure 9 line; features, scopes, and
    architectures are drawn to keep §4.1's aggregate proportions
    (roughly half single-core, computation:consistency = 19:8 overall
    once combined with the named ten).
    """
    rng = substream(seed, "generated-catalog")
    catalog: Dict[str, Processor] = {}
    arch_names = list(ARCHITECTURES)
    computation_features = [Feature.ALU, Feature.VECTOR, Feature.FPU]

    def trigger_params() -> Tuple[float, float, float]:
        tmin = float(rng.uniform(40.0, 72.0))
        log10_f0 = float(
            FIG9_INTERCEPT
            - FIG9_SLOPE * (tmin - 40.0)
            + rng.normal(0.0, FIG9_NOISE_SD)
        )
        slope = float(rng.uniform(0.08, 0.22))
        return tmin, log10_f0, slope

    for index in range(11):
        name = f"COMP{index + 1}"
        arch = ARCHITECTURES[arch_names[int(rng.integers(len(arch_names)))]]
        primary = computation_features[int(rng.integers(3))]
        pool = _GENERATED_POOLS[primary]
        instructions = pool[int(rng.integers(len(pool)))]
        features = tuple(
            dict.fromkeys(
                (primary,)
                + tuple(
                    f
                    for m in instructions
                    for f in DEFAULT_ISA[m].features
                    if f in computation_features
                )
            )
        )
        single = rng.random() < 0.55
        scope = DefectScope.SINGLE_CORE if single else DefectScope.ALL_CORES
        cores = (int(rng.integers(arch.physical_cores)),) if single else None
        tmin, log10_f0, slope = trigger_params()
        catalog[name] = Processor(
            processor_id=name,
            arch=arch,
            defects=(
                _defect(
                    name, features, arch, scope, instructions,
                    tmin=tmin, log10_f0=log10_f0, slope=slope,
                    pattern_probability=float(rng.uniform(0.35, 0.9)),
                    cores=cores,
                ),
            ),
            age_years=float(rng.uniform(0.3, 3.5)),
        )

    for index in range(6):
        name = f"CNSTG{index + 1}"
        arch = ARCHITECTURES[arch_names[int(rng.integers(len(arch_names)))]]
        kind = rng.random()
        if kind < 0.4:
            features: Tuple[Feature, ...] = (Feature.CACHE,)
        elif kind < 0.8:
            features = (Feature.TRX_MEM,)
        else:
            features = (Feature.CACHE, Feature.TRX_MEM)
        single = rng.random() < 0.5
        scope = DefectScope.SINGLE_CORE if single else DefectScope.ALL_CORES
        cores = (int(rng.integers(arch.physical_cores)),) if single else None
        tmin, log10_f0, slope = trigger_params()
        catalog[name] = Processor(
            processor_id=name,
            arch=arch,
            defects=(
                _defect(
                    name, features, arch, scope, (),
                    tmin=tmin, log10_f0=log10_f0, slope=slope, cores=cores,
                ),
            ),
            age_years=float(rng.uniform(0.3, 3.5)),
        )
    return catalog


def full_catalog(seed: int = 2021) -> Dict[str, Processor]:
    """All 27 extensively-studied faulty processors."""
    catalog = named_catalog()
    catalog.update(generated_catalog(seed))
    if len(catalog) != STUDY_SIZE:
        raise ConfigurationError(
            f"catalog has {len(catalog)} CPUs, expected {STUDY_SIZE}"
        )
    return catalog


def catalog_processor(name: str, seed: int = 2021) -> Processor:
    """Look up one study CPU by name (e.g. ``"MIX1"``)."""
    catalog = full_catalog(seed)
    try:
        return catalog[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown catalog processor {name!r}; known: {sorted(catalog)}"
        ) from None
