"""Columnar SDC-record analytics: struct-of-arrays frames + kernels.

The §4-§5 figures are aggregate statistics over record populations —
ten thousand records in the paper, hundreds of thousands in the
synthetic fleet corpora — and the scalar analysis modules
(:mod:`repro.analysis.bitflips`, :mod:`repro.analysis.precision`) pay a
Python-level loop per record, per bit, per setting.  This module is the
columnar fast path: a :class:`RecordFrame` reads a
:class:`~repro.testing.records.RecordStore`'s record columns as the
runner emitted them (expected/actual words, one context row per burst)
without building a record object, and every figure kernel becomes a
handful of whole-column operations.

Every kernel is **bit-identical** to its scalar counterpart under the
same corpus:

* flip-position histograms accumulate the same integer counts into the
  same :class:`~repro.analysis.bitflips.BitflipHistogram` shape;
* Observation-8 pattern mining (``np.unique`` over XOR masks grouped by
  setting) reports the same pattern sets and the same matching
  proportions — integer count ratios divide to the same doubles;
* flip-count distributions bucket the same popcounts;
* precision columns replicate the scalar decode semantics exactly —
  float32/float64 bit patterns reinterpret via views, int16/int32 sign-
  extend, and the 80-bit x87 format decodes through the same
  correctly-rounded uint64→double conversion and ``ldexp`` scaling the
  scalar codec uses, so CDFs, quantiles, and threshold fractions match
  to the last ulp.

Records wider than 64 bits (``float64x``) split across a low/high word
pair; masks compare and sort as (high, low) lexicographic pairs, which
is exactly integer order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from ..errors import ConfigurationError
from ..cpu.features import DataType
from ..perf.bitops import popcount_u64
from ..testing.records import RecordStore, SettingKey
from .bitflips import PATTERN_THRESHOLD, BitflipHistogram
from .precision import PrecisionSummary

__all__ = [
    "RecordFrame",
    "DetectionFrame",
    "popcount_u64",
    "bitflip_histogram_frame",
    "flip_direction_fraction_frame",
    "setting_patterns_frame",
    "patterns_by_setting_frame",
    "pattern_proportions_by_setting_frame",
    "flip_count_distribution_frame",
    "precision_losses_frame",
    "empirical_cdf_frame",
    "summarize_precision_frame",
]

#: Stable dtype→code mapping shared by every frame.
_DTYPE_ORDER: Tuple[DataType, ...] = tuple(DataType)
_DTYPE_CODE: Dict[DataType, int] = {
    dtype: code for code, dtype in enumerate(_DTYPE_ORDER)
}


# -- vectorized decode / precision loss ---------------------------------------

_F64X_BIAS = 16383


def _decode_float_column(lo: np.ndarray, hi: np.ndarray, dtype: DataType) -> np.ndarray:
    """Decode float bit patterns into float64 values, column-at-a-time.

    Bit-identical to :func:`repro.cpu.datatypes.decode`: float32 widens
    exactly, float64 reinterprets, and float64x replays the scalar
    codec's ``float(significand)`` rounding and ``ldexp`` scaling.
    """
    if dtype is DataType.FLOAT32:
        return lo.astype(np.uint32).view(np.float32).astype(np.float64)
    if dtype is DataType.FLOAT64:
        return lo.view(np.float64)
    # float64x: sign(1) | exponent(15, bias 16383) | significand(64).
    sign = np.where(hi >> np.uint64(15) & np.uint64(1), -1.0, 1.0)
    biased = (hi & np.uint64(0x7FFF)).astype(np.int64)
    significand = lo
    frac63 = significand & np.uint64((1 << 63) - 1)
    # uint64 → float64 is the same correctly-rounded conversion as
    # CPython's float(int); ldexp is exact power-of-two scaling.
    magnitude = np.ldexp(
        significand.astype(np.float64), (biased - _F64X_BIAS - 63).astype(np.int64)
    )
    value = sign * magnitude
    special = biased == 0x7FFF
    value = np.where(special & (frac63 != 0), np.nan, value)
    value = np.where(special & (frac63 == 0), sign * np.inf, value)
    value = np.where((biased == 0) & (significand == 0), sign * 0.0, value)
    return value


def _decode_int_column(lo: np.ndarray, dtype: DataType) -> np.ndarray:
    """Decode integer bit patterns into exact float64 values."""
    width = dtype.width
    values = lo.astype(np.int64)
    if dtype.is_signed:
        sign_bit = np.int64(1) << np.int64(width - 1)
        values = np.where(values & sign_bit, values - (np.int64(1) << np.int64(width)), values)
    return values.astype(np.float64)


def _precision_loss_column(
    expected_lo: np.ndarray,
    expected_hi: np.ndarray,
    actual_lo: np.ndarray,
    actual_hi: np.ndarray,
    dtype_code: np.ndarray,
) -> np.ndarray:
    """Relative precision loss per row; NaN for non-numeric rows.

    Replicates :func:`repro.cpu.datatypes.relative_precision_loss` for
    every numeric dtype: corrupted inf/nan actuals → inf, zero expected
    with nonzero actual → inf, zero/zero → 0, else
    ``|actual - expected| / |expected|`` in IEEE double.
    """
    losses = np.full(len(dtype_code), np.nan)
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        for dtype in _DTYPE_ORDER:
            if not dtype.is_numeric:
                continue
            rows = np.flatnonzero(dtype_code == _DTYPE_CODE[dtype])
            if rows.size == 0:
                continue
            e_lo, e_hi = expected_lo[rows], expected_hi[rows]
            a_lo, a_hi = actual_lo[rows], actual_hi[rows]
            if dtype.is_float:
                expected = _decode_float_column(e_lo, e_hi, dtype)
                actual = _decode_float_column(a_lo, a_hi, dtype)
            else:
                expected = _decode_int_column(e_lo, dtype)
                actual = _decode_int_column(a_lo, dtype)
            loss = np.abs(actual - expected) / np.abs(expected)
            loss = np.where(np.isnan(actual) | np.isinf(actual), np.inf, loss)
            zero_expected = expected == 0.0
            loss = np.where(zero_expected & (actual == 0.0), 0.0, loss)
            loss = np.where(zero_expected & (actual != 0.0), np.inf, loss)
            losses[rows] = loss
    return losses


# -- the frame -----------------------------------------------------------------


@dataclass
class RecordFrame:
    """Struct-of-arrays view of a computation-SDC record corpus.

    Columns are aligned with the store's record order.  Words wider
    than 64 bits split into ``*_lo`` (bits 0-63) and ``*_hi``
    (bits 64+, only nonzero for ``float64x``).
    """

    expected_lo: np.ndarray
    expected_hi: np.ndarray
    actual_lo: np.ndarray
    actual_hi: np.ndarray
    mask_lo: np.ndarray
    mask_hi: np.ndarray
    dtype_code: np.ndarray
    setting_code: np.ndarray
    processor_code: np.ndarray
    testcase_code: np.ndarray
    precision_loss: np.ndarray
    #: Setting keys in first-appearance order (scalar ``by_setting``'s
    #: dict order), so grouped results iterate identically.
    settings: Tuple[SettingKey, ...]
    processors: Tuple[str, ...]
    testcases: Tuple[str, ...]

    def __len__(self) -> int:
        return len(self.mask_lo)

    @classmethod
    def from_store(cls, store: RecordStore) -> "RecordFrame":
        """The frame over a store's record columns, taken as they are.

        Codes are assigned per burst (one context row per burst of
        records) in first-appearance order, then repeated over the
        burst's rows.
        """
        columns = store.records.columns()
        n_bursts = len(columns.bursts)
        burst_dtype = np.empty(n_bursts, np.int16)
        burst_setting = np.empty(n_bursts, np.int32)
        burst_processor = np.empty(n_bursts, np.int32)
        burst_testcase = np.empty(n_bursts, np.int32)
        settings: Dict[SettingKey, int] = {}
        processors: Dict[str, int] = {}
        testcases: Dict[str, int] = {}
        dtype_codes = _DTYPE_CODE
        for index, burst in enumerate(columns.bursts):
            processor_id, testcase_id = burst[0], burst[1]
            burst_dtype[index] = dtype_codes[burst[5]]
            burst_setting[index] = settings.setdefault(
                (processor_id, testcase_id), len(settings)
            )
            burst_processor[index] = processors.setdefault(
                processor_id, len(processors)
            )
            burst_testcase[index] = testcases.setdefault(
                testcase_id, len(testcases)
            )
        counts = columns.counts
        expected_lo, expected_hi = columns.expected_lo, columns.expected_hi
        actual_lo, actual_hi = columns.actual_lo, columns.actual_hi
        dtype_code = np.repeat(burst_dtype, counts)
        return cls(
            expected_lo=expected_lo,
            expected_hi=expected_hi,
            actual_lo=actual_lo,
            actual_hi=actual_hi,
            mask_lo=expected_lo ^ actual_lo,
            mask_hi=expected_hi ^ actual_hi,
            dtype_code=dtype_code,
            setting_code=np.repeat(burst_setting, counts),
            processor_code=np.repeat(burst_processor, counts),
            testcase_code=np.repeat(burst_testcase, counts),
            precision_loss=_precision_loss_column(
                expected_lo, expected_hi, actual_lo, actual_hi, dtype_code
            ),
            settings=tuple(settings),
            processors=tuple(processors),
            testcases=tuple(testcases),
        )

    # -- row selections -------------------------------------------------------

    def rows_for_dtype(self, dtype: DataType) -> np.ndarray:
        return np.flatnonzero(self.dtype_code == _DTYPE_CODE[dtype])


# -- Figure 4/5 histograms -----------------------------------------------------


def bitflip_histogram_frame(
    frame: RecordFrame, dtype: DataType
) -> BitflipHistogram:
    """Columnar :func:`repro.analysis.bitflips.bitflip_histogram`."""
    rows = frame.rows_for_dtype(dtype)
    histogram = BitflipHistogram(dtype=dtype)
    histogram.total_records = int(rows.size)
    if rows.size == 0:
        return histogram
    width = dtype.width
    masks_lo = frame.mask_lo[rows]
    expected_lo = frame.expected_lo[rows]
    one = np.uint64(1)
    for position in range(min(width, 64)):
        shift = np.uint64(position)
        flipped = (masks_lo >> shift) & one
        ones = (expected_lo >> shift) & one
        one_to_zero = int(np.count_nonzero(flipped & ones))
        histogram.one_to_zero[position] = one_to_zero
        histogram.zero_to_one[position] = int(np.count_nonzero(flipped)) - one_to_zero
    if width > 64:
        masks_hi = frame.mask_hi[rows]
        expected_hi = frame.expected_hi[rows]
        for position in range(width - 64):
            shift = np.uint64(position)
            flipped = (masks_hi >> shift) & one
            ones = (expected_hi >> shift) & one
            one_to_zero = int(np.count_nonzero(flipped & ones))
            histogram.one_to_zero[64 + position] = one_to_zero
            histogram.zero_to_one[64 + position] = (
                int(np.count_nonzero(flipped)) - one_to_zero
            )
    return histogram


def flip_direction_fraction_frame(frame: RecordFrame) -> float:
    """Columnar :func:`repro.analysis.bitflips.flip_direction_fraction`."""
    total = int(popcount_u64(frame.mask_lo).sum()) + int(
        popcount_u64(frame.mask_hi).sum()
    )
    if total == 0:
        return 0.0
    zero_to_one = int(
        popcount_u64(frame.mask_lo & ~frame.expected_lo).sum()
    ) + int(popcount_u64(frame.mask_hi & ~frame.expected_hi).sum())
    return zero_to_one / total


# -- Observation 8: pattern mining ---------------------------------------------


def _setting_groups(frame: RecordFrame) -> List[np.ndarray]:
    """Row indices per setting code, in first-appearance order.

    A stable argsort keeps rows inside each group in record order, so
    derived integer counts match the scalar grouping exactly.
    """
    order = np.argsort(frame.setting_code, kind="stable")
    if order.size == 0:
        return []
    sorted_codes = frame.setting_code[order]
    boundaries = np.flatnonzero(np.diff(sorted_codes)) + 1
    return np.split(order, boundaries)


def _unique_masks(
    frame: RecordFrame, rows: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Unique (hi, lo) mask pairs and their multiplicities."""
    pairs = np.stack((frame.mask_hi[rows], frame.mask_lo[rows]), axis=1)
    return np.unique(pairs, axis=0, return_counts=True)


def _mask_runs(
    codes: np.ndarray, mask_hi: np.ndarray, mask_lo: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Run-length encode (setting, mask) pairs across the whole corpus.

    One lexsort replaces a per-setting ``np.unique`` loop: rows sort by
    (setting code, mask hi, mask lo), so equal masks within a setting
    become contiguous runs.  Returns ``(run_start_rows, run_lengths,
    run_setting_codes)`` where ``run_start_rows`` indexes the *sorted*
    order's first row of each run.  Run multiplicities are exactly the
    per-setting mask counts the scalar dict accumulation produces.
    """
    order = np.lexsort((mask_lo, mask_hi, codes))
    s = codes[order]
    h = mask_hi[order]
    l = mask_lo[order]
    new_run = np.empty(len(order), dtype=bool)
    new_run[0] = True
    new_run[1:] = (s[1:] != s[:-1]) | (h[1:] != h[:-1]) | (l[1:] != l[:-1])
    starts = np.flatnonzero(new_run)
    lengths = np.diff(np.append(starts, len(order)))
    return order[starts], lengths, s[starts]


def setting_patterns_frame(
    frame: RecordFrame,
    rows: np.ndarray,
    threshold: float = PATTERN_THRESHOLD,
) -> List[int]:
    """Columnar :func:`repro.analysis.bitflips.setting_patterns` over a
    row selection (one setting's records)."""
    if rows.size == 0:
        return []
    if not 0.0 < threshold < 1.0:
        raise ConfigurationError("threshold must be in (0, 1)")
    pairs, counts = _unique_masks(frame, rows)
    cutoff = threshold * rows.size
    qualifying = pairs[counts > cutoff]
    # (hi, lo) rows of np.unique are already lexicographically sorted,
    # which is integer order.
    return [(int(hi) << 64) | int(lo) for hi, lo in qualifying]


def patterns_by_setting_frame(
    frame: RecordFrame, threshold: float = PATTERN_THRESHOLD
) -> Dict[SettingKey, List[int]]:
    """Observation-8 pattern sets for every setting in the frame."""
    return {
        frame.settings[int(frame.setting_code[rows[0]])]: setting_patterns_frame(
            frame, rows, threshold
        )
        for rows in _setting_groups(frame)
    }


def pattern_proportions_by_setting_frame(
    frame: RecordFrame,
    threshold: float = PATTERN_THRESHOLD,
    min_records: int = 5,
) -> Dict[SettingKey, float]:
    """Columnar
    :func:`repro.analysis.bitflips.pattern_proportions_by_setting`."""
    if not 0.0 < threshold < 1.0:
        raise ConfigurationError("threshold must be in (0, 1)")
    if len(frame) == 0:
        return {}
    n_settings = len(frame.settings)
    sizes = np.bincount(frame.setting_code, minlength=n_settings)
    _, lengths, run_settings = _mask_runs(
        frame.setting_code, frame.mask_hi, frame.mask_lo
    )
    # Scalar cutoff comparison: count > threshold * group_size, in the
    # same double arithmetic.
    qualifying = lengths > threshold * sizes[run_settings]
    matched = np.zeros(n_settings, dtype=np.int64)
    np.add.at(matched, run_settings[qualifying], lengths[qualifying])
    proportions: Dict[SettingKey, float] = {}
    for code in range(n_settings):
        size = int(sizes[code])
        if size < min_records:
            continue
        matching = int(matched[code])
        proportions[frame.settings[code]] = (
            matching / size if matching else 0.0
        )
    return proportions


def flip_count_distribution_frame(
    frame: RecordFrame,
    dtype: DataType,
    threshold: float = PATTERN_THRESHOLD,
    pattern_only: bool = True,
) -> Dict[str, float]:
    """Columnar :func:`repro.analysis.bitflips.flip_count_distribution`."""
    typed = frame.rows_for_dtype(dtype)
    if typed.size == 0:
        return {"1": 0.0, "2": 0.0, ">2": 0.0}
    codes = frame.setting_code[typed]
    mask_hi = frame.mask_hi[typed]
    mask_lo = frame.mask_lo[typed]
    start_rows, lengths, run_settings = _mask_runs(codes, mask_hi, mask_lo)
    if pattern_only:
        # Group size is the setting's count *of this dtype's rows* —
        # the scalar path filters by dtype before mining patterns.
        sizes = np.bincount(codes, minlength=int(codes.max()) + 1)
        keep = lengths > threshold * sizes[run_settings]
        start_rows = start_rows[keep]
        lengths = lengths[keep]
    total = int(lengths.sum())
    if total == 0:
        return {"1": 0.0, "2": 0.0, ">2": 0.0}
    bits = popcount_u64(mask_hi[start_rows]).astype(np.int64) + popcount_u64(
        mask_lo[start_rows]
    ).astype(np.int64)
    counts = {
        "1": int(lengths[bits == 1].sum()),
        "2": int(lengths[bits == 2].sum()),
        ">2": int(lengths[bits > 2].sum()),
    }
    return {key: value / total for key, value in counts.items()}


# -- precision ----------------------------------------------------------------


def precision_losses_frame(frame: RecordFrame, dtype: DataType) -> np.ndarray:
    """Columnar :func:`repro.analysis.precision.precision_losses`.

    Returns the loss column for rows of ``dtype`` in record order; the
    doubles are bit-identical to the scalar per-record computation.
    """
    if not dtype.is_numeric:
        raise ConfigurationError(f"{dtype} has no precision-loss semantics")
    return frame.precision_loss[frame.rows_for_dtype(dtype)]


def empirical_cdf_frame(losses: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Columnar :func:`repro.analysis.precision.empirical_cdf`:
    (sorted values, cumulative fractions) as arrays."""
    if losses.size == 0:
        return np.empty(0), np.empty(0)
    ordered = np.sort(losses)
    return ordered, np.arange(1, losses.size + 1) / losses.size


def summarize_precision_frame(
    frame: RecordFrame, dtype: DataType
) -> PrecisionSummary:
    """Columnar :func:`repro.analysis.precision.summarize_precision`."""
    losses = precision_losses_frame(frame, dtype)
    if losses.size == 0:
        return PrecisionSummary(dtype, 0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
    ordered = np.sort(losses)
    n = int(losses.size)

    def quantile(q: float) -> float:
        return float(ordered[min(int(q * n), n - 1)])

    def below(threshold: float) -> float:
        return int(np.count_nonzero(losses < threshold)) / n

    return PrecisionSummary(
        dtype=dtype,
        count=n,
        median=quantile(0.5),
        p999=quantile(0.999),
        max=float(ordered[-1]),
        below_0002pct=below(0.002 / 100.0),
        below_002pct=below(0.02 / 100.0),
        below_5pct=below(5.0 / 100.0),
        above_100pct=int(np.count_nonzero(losses > 100.0 / 100.0)) / n,
    )


# -- detection analytics (Tables 1-2 over campaign results) -------------------


@dataclass
class DetectionFrame:
    """Struct-of-arrays view of a campaign's detections.

    A :class:`~repro.fleet.pipeline.FleetStudyResult` holds one
    :class:`~repro.fleet.pipeline.Detection` object per caught CPU; at
    paper scale that is hundreds of thousands of frozen dataclasses.
    This frame lowers them to a few integer/float columns plus string
    code tables (first-appearance order, matching the result's grouped
    dict orders), spills through :mod:`repro.colstore`, and reproduces
    the :mod:`repro.fleet.stats` Table 1/2 rates bit-identically —
    integer count ratios divide to the same doubles.
    """

    population_total: int
    arch_counts: Dict[str, int]
    stage_code: np.ndarray
    arch_code: np.ndarray
    processor_code: np.ndarray
    day: np.ndarray
    #: Ragged failing-testcase lists: row ``i`` owns
    #: ``tc_code[tc_offsets[i]:tc_offsets[i+1]]``.
    tc_offsets: np.ndarray
    tc_code: np.ndarray
    stage_names: Tuple[str, ...]
    arch_names: Tuple[str, ...]
    processor_ids: Tuple[str, ...]
    testcase_ids: Tuple[str, ...]
    undetected_ids: Tuple[str, ...]

    def __len__(self) -> int:
        return len(self.stage_code)

    @classmethod
    def from_result(cls, result) -> "DetectionFrame":
        n = len(result.detections)
        stage_code = np.empty(n, np.int16)
        arch_code = np.empty(n, np.int16)
        processor_code = np.empty(n, np.int32)
        day = np.empty(n, np.float64)
        tc_offsets = np.empty(n + 1, np.int64)
        tc_flat: List[int] = []
        stages: Dict[str, int] = {}
        archs: Dict[str, int] = {}
        processors: Dict[str, int] = {}
        testcases: Dict[str, int] = {}

        def code_of(table: Dict[str, int], name: str) -> int:
            code = table.get(name)
            if code is None:
                code = len(table)
                table[name] = code
            return code

        tc_offsets[0] = 0
        for row, detection in enumerate(result.detections):
            stage_code[row] = code_of(stages, detection.stage_name)
            arch_code[row] = code_of(archs, detection.arch_name)
            processor_code[row] = code_of(processors, detection.processor_id)
            day[row] = detection.day
            tc_flat.extend(
                code_of(testcases, tc)
                for tc in detection.failing_testcase_ids
            )
            tc_offsets[row + 1] = len(tc_flat)
        return cls(
            population_total=result.population_total,
            arch_counts=dict(result.arch_counts),
            stage_code=stage_code,
            arch_code=arch_code,
            processor_code=processor_code,
            day=day,
            tc_offsets=tc_offsets,
            tc_code=np.asarray(tc_flat, dtype=np.int32),
            stage_names=tuple(stages),
            arch_names=tuple(archs),
            processor_ids=tuple(processors),
            testcase_ids=tuple(testcases),
            undetected_ids=tuple(result.undetected_ids),
        )

    def to_result(self):
        """Rebuild the exact :class:`~repro.fleet.pipeline.FleetStudyResult`.

        Round-trip identity (``from_result(r).to_result() == r``) is
        what lets a campaign spill its detections and still hand later
        stages objects indistinguishable from the in-memory run's.
        """
        from ..fleet.pipeline import Detection, FleetStudyResult

        result = FleetStudyResult(
            population_total=self.population_total,
            arch_counts=dict(self.arch_counts),
            undetected_ids=list(self.undetected_ids),
        )
        for row in range(len(self)):
            lo = int(self.tc_offsets[row])
            hi = int(self.tc_offsets[row + 1])
            result.detections.append(
                Detection(
                    processor_id=self.processor_ids[
                        int(self.processor_code[row])
                    ],
                    arch_name=self.arch_names[int(self.arch_code[row])],
                    stage_name=self.stage_names[int(self.stage_code[row])],
                    day=float(self.day[row]),
                    failing_testcase_ids=tuple(
                        self.testcase_ids[int(code)]
                        for code in self.tc_code[lo:hi]
                    ),
                )
            )
        return result

    # -- Table 1/2 kernels (bit-parity with repro.fleet.stats) ---------------

    def overall_failure_rate(self) -> float:
        return len(self) / self.population_total

    def timing_failure_rates(self) -> Dict[str, float]:
        """Columnar :func:`repro.fleet.stats.timing_failure_rates`."""
        counts = np.bincount(self.stage_code, minlength=len(self.stage_names))
        rates = {
            stage: int(counts[code]) / self.population_total
            for code, stage in enumerate(self.stage_names)
        }
        rates["total"] = self.overall_failure_rate()
        return rates

    def arch_failure_rates(self) -> Dict[str, float]:
        """Columnar :func:`repro.fleet.stats.arch_failure_rates`."""
        counts = np.bincount(self.arch_code, minlength=len(self.arch_names))
        by_arch = {
            arch: int(counts[code])
            for code, arch in enumerate(self.arch_names)
        }
        return {
            arch: by_arch.get(arch, 0) / count
            for arch, count in self.arch_counts.items()
            if count > 0
        }

    def failing_testcases(self) -> set:
        """Columnar :meth:`FleetStudyResult.failing_testcases`."""
        return {self.testcase_ids[int(code)] for code in np.unique(self.tc_code)}

    # -- persistence ---------------------------------------------------------

    def save(self, directory, obs=None) -> int:
        from ..colstore import write_columns

        meta = {
            "kind": "detection-frame",
            "population_total": self.population_total,
            "arch_counts": dict(self.arch_counts),
            "stage_names": list(self.stage_names),
            "arch_names": list(self.arch_names),
            "processor_ids": list(self.processor_ids),
            "testcase_ids": list(self.testcase_ids),
            "undetected_ids": list(self.undetected_ids),
        }
        columns = {
            "stage_code": self.stage_code,
            "arch_code": self.arch_code,
            "processor_code": self.processor_code,
            "day": self.day,
            "tc_offsets": self.tc_offsets,
            "tc_code": self.tc_code,
        }
        return write_columns(directory, columns, meta=meta, obs=obs)

    @classmethod
    def load(
        cls, directory, mmap: bool = True, verify: bool = False
    ) -> "DetectionFrame":
        from ..colstore import read_columns

        columns, meta = read_columns(directory, mmap=mmap, verify=verify)
        return cls(
            population_total=int(meta["population_total"]),
            arch_counts={k: int(v) for k, v in meta["arch_counts"].items()},
            stage_code=columns["stage_code"],
            arch_code=columns["arch_code"],
            processor_code=columns["processor_code"],
            day=columns["day"],
            tc_offsets=columns["tc_offsets"],
            tc_code=columns["tc_code"],
            stage_names=tuple(meta["stage_names"]),
            arch_names=tuple(meta["arch_names"]),
            processor_ids=tuple(meta["processor_ids"]),
            testcase_ids=tuple(meta["testcase_ids"]),
            undetected_ids=tuple(meta["undetected_ids"]),
        )
