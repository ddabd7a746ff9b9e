"""Bitflip analysis of computation-SDC records (§4.2).

Implements the paper's measurement machinery:

* per-bit-index flip histograms split by direction (Figures 4(a)-(d)
  and 5), computed from expected/actual bit patterns;
* the *bitflip pattern* rule: "If more than 5% of the SDC records of a
  setting have the same mask, we regard this mask as a bitflip pattern"
  (Observation 8), plus the per-setting proportion of records matching
  some pattern (Figure 6);
* the flipped-bit-count distribution among pattern-matching SDCs
  (Figure 7);
* flip-direction statistics ("51.08% of bitflips are changed from zero
  to one").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Sequence, Tuple

from ..errors import ConfigurationError
from ..cpu.datatypes import flipped_positions, popcount
from ..cpu.features import DataType
from ..testing.records import RecordStore, SDCRecord, SettingKey

__all__ = [
    "PATTERN_THRESHOLD",
    "BitflipHistogram",
    "bitflip_histogram",
    "flip_direction_fraction",
    "setting_patterns",
    "pattern_proportion",
    "pattern_proportions_by_setting",
    "flip_count_distribution",
]

#: Observation 8's pattern rule: a mask recurring in >5% of a setting's
#: records is a bitflip pattern.
PATTERN_THRESHOLD = 0.05


@dataclass
class BitflipHistogram:
    """Per-bit-index flip counts, split by direction."""

    dtype: DataType
    zero_to_one: List[int] = field(default_factory=list)
    one_to_zero: List[int] = field(default_factory=list)
    total_records: int = 0

    def __post_init__(self) -> None:
        width = self.dtype.width
        if not self.zero_to_one:
            self.zero_to_one = [0] * width
        if not self.one_to_zero:
            self.one_to_zero = [0] * width

    def proportions(self) -> Tuple[List[float], List[float]]:
        """Per-position flip proportions (fraction of records flipping
        that bit in each direction) — the y-axis of Figures 4/5."""
        if self.total_records == 0:
            zeros = [0.0] * self.dtype.width
            return zeros, list(zeros)
        zero_to_one = [c / self.total_records for c in self.zero_to_one]
        one_to_zero = [c / self.total_records for c in self.one_to_zero]
        return zero_to_one, one_to_zero

    def msb_flip_fraction(self, msb_count: int = 4) -> float:
        """Share of flips landing in the top ``msb_count`` positions.

        Observation 7: "it is rare that bitflips occur in the most
        significant bits" of numeric data.
        """
        total = sum(self.zero_to_one) + sum(self.one_to_zero)
        if total == 0:
            return 0.0
        top = sum(self.zero_to_one[-msb_count:]) + sum(
            self.one_to_zero[-msb_count:]
        )
        return top / total


def bitflip_histogram(
    records: Iterable[SDCRecord], dtype: DataType
) -> BitflipHistogram:
    """Build the Figure-4/5 histogram for one data type."""
    histogram = BitflipHistogram(dtype=dtype)
    for record in records:
        if record.dtype is not dtype:
            continue
        histogram.total_records += 1
        mask = record.mask
        expected = record.expected_bits
        for position in flipped_positions(mask):
            if expected & (1 << position):
                histogram.one_to_zero[position] += 1
            else:
                histogram.zero_to_one[position] += 1
    return histogram


def flip_direction_fraction(records: Iterable[SDCRecord]) -> float:
    """Fraction of individual bitflips going 0→1 (paper: 51.08%)."""
    zero_to_one = 0
    total = 0
    for record in records:
        expected = record.expected_bits
        for position in flipped_positions(record.mask):
            total += 1
            if not expected & (1 << position):
                zero_to_one += 1
    if total == 0:
        return 0.0
    return zero_to_one / total


def setting_patterns(
    records: Sequence[SDCRecord], threshold: float = PATTERN_THRESHOLD
) -> List[int]:
    """Masks that qualify as bitflip patterns for one setting's records."""
    if not records:
        return []
    if not 0.0 < threshold < 1.0:
        raise ConfigurationError("threshold must be in (0, 1)")
    counts: Dict[int, int] = {}
    for record in records:
        counts[record.mask] = counts.get(record.mask, 0) + 1
    cutoff = threshold * len(records)
    return sorted(
        mask for mask, count in counts.items() if count > cutoff
    )


def pattern_proportion(
    records: Sequence[SDCRecord], threshold: float = PATTERN_THRESHOLD
) -> float:
    """Share of a setting's records whose mask is some pattern (Fig. 6)."""
    if not records:
        return 0.0
    patterns = set(setting_patterns(records, threshold))
    if not patterns:
        return 0.0
    matching = sum(1 for record in records if record.mask in patterns)
    return matching / len(records)


def pattern_proportions_by_setting(
    store: RecordStore,
    threshold: float = PATTERN_THRESHOLD,
    min_records: int = 5,
) -> Dict[SettingKey, float]:
    """Figure 6's per-setting pattern proportions.

    Settings with fewer than ``min_records`` records are skipped — a
    pattern needs repetitions to be meaningful.
    """
    return {
        setting: pattern_proportion(records, threshold)
        for setting, records in store.by_setting().items()
        if len(records) >= min_records
    }


def flip_count_distribution(
    store: RecordStore,
    dtype: DataType,
    threshold: float = PATTERN_THRESHOLD,
    pattern_only: bool = True,
) -> Dict[str, float]:
    """Figure 7: proportion of 1 / 2 / >2 flipped bits.

    Computed over pattern-matching SDCs (the figure's caption: "in SDCs
    with bitflip patterns") unless ``pattern_only`` is False.
    """
    masks: List[int] = []
    for setting, records in store.by_setting().items():
        typed = [r for r in records if r.dtype is dtype]
        if not typed:
            continue
        if pattern_only:
            patterns = set(setting_patterns(typed, threshold))
            masks.extend(r.mask for r in typed if r.mask in patterns)
        else:
            masks.extend(r.mask for r in typed)
    if not masks:
        return {"1": 0.0, "2": 0.0, ">2": 0.0}
    counts = {"1": 0, "2": 0, ">2": 0}
    for mask in masks:
        bits = popcount(mask)
        if bits == 1:
            counts["1"] += 1
        elif bits == 2:
            counts["2"] += 1
        else:
            counts[">2"] += 1
    total = len(masks)
    return {key: value / total for key, value in counts.items()}
