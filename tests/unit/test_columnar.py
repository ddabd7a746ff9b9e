"""Columnar analytics: bit-exact parity with the scalar analysis path.

Every frame kernel, batched detector kernel, and batched Observation-12
experiment must produce *identical* results to its scalar counterpart —
same integers, same doubles, same dict shapes — on corpora covering
every dtype (including 80-bit float64x) and on degenerate inputs.
"""

import dataclasses
import time

import numpy as np
import pytest

from repro.analysis.bitflips import (
    bitflip_histogram,
    flip_count_distribution,
    flip_direction_fraction,
    pattern_proportions_by_setting,
    setting_patterns,
)
from repro.analysis.columnar import (
    RecordFrame,
    bitflip_histogram_frame,
    empirical_cdf_frame,
    flip_count_distribution_frame,
    flip_direction_fraction_frame,
    pattern_proportions_by_setting_frame,
    patterns_by_setting_frame,
    precision_losses_frame,
    setting_patterns_frame,
    summarize_precision_frame,
)
from repro.analysis.precision import (
    empirical_cdf,
    precision_losses,
    summarize_precision,
)
from repro.cpu import DataType, datatypes
from repro.detectors.batch import (
    Secded64Batch,
    checksum_timing_experiment_batch,
    ecc_multibit_experiment_batch,
    erasure_faulty_encoder_experiment_batch,
    erasure_propagation_experiment_batch,
)
from repro.detectors.crc import crc16, crc16_rows, crc32, crc32_rows
from repro.detectors.ecc import DecodeStatus, Secded64
from repro.detectors.erasure import ReedSolomon
from repro.detectors.evaluate import (
    checksum_timing_experiment,
    ecc_multibit_experiment,
    erasure_faulty_encoder_experiment,
    erasure_propagation_experiment,
)
from repro.detectors.gf256 import (
    GF_EXP_U8,
    GF_LOG_U8,
    gf_mul,
    gf_mul_array,
    gf_scale_array,
)
from repro.errors import ConfigurationError
from repro.faults.bitflip import PositionBiasedBitflip, UniformBitflip
from repro.perf.bitops import popcount_u64
from repro.rng import substream
from repro.testing import RecordStore
from repro.testing.records import SDCRecord

DTYPES = (
    DataType.INT16,
    DataType.INT32,
    DataType.UINT32,
    DataType.FLOAT32,
    DataType.FLOAT64,
    DataType.FLOAT64X,
    DataType.BIN8,
    DataType.BIN16,
    DataType.BIN32,
    DataType.BIN64,
)

NUMERIC = tuple(d for d in DTYPES if d.is_numeric)


def synthetic_store(records=3000, processors=8, testcases=6, seed=13):
    """A corpus with every dtype and per-setting recurring masks."""
    rng = substream(seed, "columnar-test-corpus")
    numeric_model = PositionBiasedBitflip()
    # The scalar x87 decoder refuses exponent flips that overflow a
    # double, so extended-precision masks stay in the fraction (which is
    # also what the paper observed).
    f64x_model = PositionBiasedBitflip(fraction_bias=1.0)
    binary_model = UniformBitflip()
    setting_state = {}
    store = RecordStore()
    for row in range(records):
        p = int(rng.integers(processors))
        t = int(rng.integers(testcases))
        key = (p, t)
        if key not in setting_state:
            dtype = DTYPES[int(rng.integers(len(DTYPES)))]
            if dtype is DataType.FLOAT64X:
                model = f64x_model
            elif dtype.is_numeric:
                model = numeric_model
            else:
                model = binary_model
            setting_state[key] = (
                dtype,
                model,
                [model.sample_mask(dtype, rng) for _ in range(2)],
            )
        dtype, model, masks = setting_state[key]
        if rng.random() < 0.7:
            mask = masks[int(rng.integers(len(masks)))]
        else:
            mask = model.sample_mask(dtype, rng)
        expected = datatypes.encode(datatypes.random_value(rng, dtype), dtype)
        store.add(
            SDCRecord(
                processor_id=f"CPU{p}",
                testcase_id=f"tc{t}",
                pcore_id=0,
                defect_id=f"d{p}",
                instruction="VFMADD_F64",
                dtype=dtype,
                expected_bits=expected,
                actual_bits=expected ^ mask,
                temperature_c=80.0,
                time_s=float(row),
            )
        )
    return store


@pytest.fixture(scope="module")
def store():
    return synthetic_store()


@pytest.fixture(scope="module")
def frame(store):
    return RecordFrame.from_store(store)


# -- the full figure-analysis suite ------------------------------------------


def scalar_suite(store):
    """Every §4-§5 figure analysis through the per-record modules."""
    records = store.records
    return (
        [bitflip_histogram(records, dtype) for dtype in DTYPES],
        [summarize_precision(records, dtype) for dtype in NUMERIC],
        pattern_proportions_by_setting(store, min_records=8),
        [flip_count_distribution(store, dtype) for dtype in DTYPES],
        flip_direction_fraction(records),
    )


def columnar_suite(frame):
    """The same analyses through the frame kernels."""
    return (
        [bitflip_histogram_frame(frame, dtype) for dtype in DTYPES],
        [summarize_precision_frame(frame, dtype) for dtype in NUMERIC],
        pattern_proportions_by_setting_frame(frame, min_records=8),
        [flip_count_distribution_frame(frame, dtype) for dtype in DTYPES],
        flip_direction_fraction_frame(frame),
    )


def _timed(suite, source):
    start = time.perf_counter()
    result = suite(source)
    return result, time.perf_counter() - start


def test_columnar_suite_floor_at_40k_records():
    """Over a 40k-record corpus the frame kernels return exactly what
    the per-record modules return, at least 5x faster.  The frame is
    built once per corpus, so its construction is not timed."""
    corpus = synthetic_store(
        records=40_000, processors=30, testcases=20, seed=5
    )
    frame = RecordFrame.from_store(corpus)
    scalar, scalar_s = _timed(scalar_suite, corpus)
    columnar, columnar_s = _timed(columnar_suite, frame)
    assert columnar == scalar
    assert scalar_s / columnar_s >= 5.0


# -- frame construction --------------------------------------------------------


def test_frame_columns_match_records(store, frame):
    assert len(frame) == len(store.records)
    for row, record in enumerate(store.records):
        mask = (int(frame.mask_hi[row]) << 64) | int(frame.mask_lo[row])
        assert mask == record.mask
        expected = (int(frame.expected_hi[row]) << 64) | int(
            frame.expected_lo[row]
        )
        assert expected == record.expected_bits
        setting = frame.settings[int(frame.setting_code[row])]
        assert setting == record.setting


def test_frame_setting_order_matches_scalar_grouping(store, frame):
    assert list(frame.settings) == list(store.by_setting())


def _frame_from_records(records):
    """The per-record frame builder that ``from_store`` replaced: every
    record taken apart field by field into the columns."""
    from repro.analysis.columnar import _DTYPE_CODE, _precision_loss_column

    n = len(records)
    expected_lo = np.empty(n, np.uint64)
    expected_hi = np.empty(n, np.uint64)
    actual_lo = np.empty(n, np.uint64)
    actual_hi = np.empty(n, np.uint64)
    dtype_code = np.empty(n, np.int16)
    setting_code = np.empty(n, np.int32)
    processor_code = np.empty(n, np.int32)
    testcase_code = np.empty(n, np.int32)
    settings, processors, testcases = {}, {}, {}
    mask64 = (1 << 64) - 1
    for row, record in enumerate(records):
        expected_lo[row] = record.expected_bits & mask64
        expected_hi[row] = record.expected_bits >> 64
        actual_lo[row] = record.actual_bits & mask64
        actual_hi[row] = record.actual_bits >> 64
        dtype_code[row] = _DTYPE_CODE[record.dtype]
        setting_code[row] = settings.setdefault(record.setting, len(settings))
        processor_code[row] = processors.setdefault(
            record.processor_id, len(processors)
        )
        testcase_code[row] = testcases.setdefault(
            record.testcase_id, len(testcases)
        )
    return RecordFrame(
        expected_lo=expected_lo,
        expected_hi=expected_hi,
        actual_lo=actual_lo,
        actual_hi=actual_hi,
        mask_lo=expected_lo ^ actual_lo,
        mask_hi=expected_hi ^ actual_hi,
        dtype_code=dtype_code,
        setting_code=setting_code,
        processor_code=processor_code,
        testcase_code=testcase_code,
        precision_loss=_precision_loss_column(
            expected_lo, expected_hi, actual_lo, actual_hi, dtype_code
        ),
        settings=tuple(settings),
        processors=tuple(processors),
        testcases=tuple(testcases),
    )


def _assert_frames_identical(frame, reference):
    for field in dataclasses.fields(RecordFrame):
        value, expected = getattr(frame, field.name), getattr(
            reference, field.name
        )
        if isinstance(expected, np.ndarray):
            assert value.dtype == expected.dtype, field.name
            assert value.tobytes() == expected.tobytes(), field.name
        else:
            assert value == expected, field.name


def test_from_store_matches_per_record_frame(store, frame):
    _assert_frames_identical(frame, _frame_from_records(list(store.records)))


def test_from_store_takes_runner_columns(catalog, library):
    """Column-emitted records (every computation dtype the catalog
    corrupts, float64x included) give the per-record frame bit for bit,
    through a store and stacked across screening reports alike."""
    from repro.testing import ToolchainRunner, screening_record_frame
    from repro.testing.framework import ToolchainReport

    reports = []
    for name in ("MIX1", "FPU1", "SIMD1", "CNST1"):
        runner = ToolchainRunner(catalog[name], seed=4)
        report = ToolchainReport(processor_id=name)
        for testcase in library:
            if runner.can_ever_fail(testcase):
                runner.run_at_fixed_temperature(
                    testcase, 78.0, 600.0, store=report.store
                )
        reports.append(report)
    records = [r for report in reports for r in report.store.records]
    assert DataType.FLOAT64X in {record.dtype for record in records}
    reference = _frame_from_records(records)
    _assert_frames_identical(screening_record_frame(reports), reference)
    stacked = RecordStore(records=records)
    _assert_frames_identical(RecordFrame.from_store(stacked), reference)


def test_empty_frame_kernels():
    frame = RecordFrame.from_store(RecordStore())
    assert len(frame) == 0
    assert flip_direction_fraction_frame(frame) == 0.0
    assert pattern_proportions_by_setting_frame(frame) == {}
    assert patterns_by_setting_frame(frame) == {}
    for dtype in DTYPES:
        histogram = bitflip_histogram_frame(frame, dtype)
        assert histogram.total_records == 0
        assert flip_count_distribution_frame(frame, dtype) == {
            "1": 0.0,
            "2": 0.0,
            ">2": 0.0,
        }


# -- figure-kernel parity ------------------------------------------------------


@pytest.mark.parametrize("dtype", DTYPES, ids=str)
def test_bitflip_histogram_parity(store, frame, dtype):
    assert bitflip_histogram_frame(frame, dtype) == bitflip_histogram(
        store.records, dtype
    )


def test_flip_direction_fraction_parity(store, frame):
    assert flip_direction_fraction_frame(frame) == flip_direction_fraction(
        store.records
    )


def test_setting_patterns_parity(store, frame):
    by_setting = store.by_setting()
    for code, setting in enumerate(frame.settings):
        rows = np.flatnonzero(frame.setting_code == code)
        assert setting_patterns_frame(frame, rows) == setting_patterns(
            by_setting[setting]
        )


def test_patterns_by_setting_frame_keys_and_values(store, frame):
    by_setting = store.by_setting()
    mined = patterns_by_setting_frame(frame)
    assert list(mined) == list(by_setting)
    for setting, patterns in mined.items():
        assert patterns == setting_patterns(by_setting[setting])


@pytest.mark.parametrize("min_records", (1, 5, 20))
def test_pattern_proportions_parity(store, frame, min_records):
    assert pattern_proportions_by_setting_frame(
        frame, min_records=min_records
    ) == pattern_proportions_by_setting(store, min_records=min_records)


@pytest.mark.parametrize("dtype", DTYPES, ids=str)
@pytest.mark.parametrize("pattern_only", (True, False))
def test_flip_count_distribution_parity(store, frame, dtype, pattern_only):
    assert flip_count_distribution_frame(
        frame, dtype, pattern_only=pattern_only
    ) == flip_count_distribution(store, dtype, pattern_only=pattern_only)


def test_threshold_validation_matches_scalar(frame):
    rows = np.arange(len(frame))
    with pytest.raises(ConfigurationError):
        setting_patterns_frame(frame, rows, threshold=0.0)
    with pytest.raises(ConfigurationError):
        pattern_proportions_by_setting_frame(frame, threshold=1.5)


# -- precision parity ----------------------------------------------------------


@pytest.mark.parametrize("dtype", NUMERIC, ids=str)
def test_precision_losses_parity(store, frame, dtype):
    scalar = precision_losses(store.records, dtype)
    columnar = precision_losses_frame(frame, dtype)
    assert columnar.tolist() == scalar


@pytest.mark.parametrize("dtype", NUMERIC, ids=str)
def test_summarize_precision_parity(store, frame, dtype):
    assert summarize_precision_frame(frame, dtype) == summarize_precision(
        store.records, dtype
    )


def test_precision_losses_rejects_non_numeric(frame):
    with pytest.raises(ConfigurationError):
        precision_losses_frame(frame, DataType.BIN32)


def test_empirical_cdf_parity(store, frame):
    losses = precision_losses_frame(frame, DataType.FLOAT64)
    values, fractions = empirical_cdf_frame(losses)
    scalar = empirical_cdf(precision_losses(store.records, DataType.FLOAT64))
    assert list(zip(values.tolist(), fractions.tolist())) == scalar
    empty_values, empty_fractions = empirical_cdf_frame(np.empty(0))
    assert empty_values.size == 0 and empty_fractions.size == 0


# -- bit primitives ------------------------------------------------------------


def test_popcount_u64_matches_int_bit_count():
    rng = np.random.default_rng(3)
    words = rng.integers(0, 1 << 63, size=300, dtype=np.uint64) | (
        rng.integers(0, 2, size=300, dtype=np.uint64) << np.uint64(63)
    )
    counts = popcount_u64(words)
    for word, count in zip(words, counts):
        assert int(count) == bin(int(word)).count("1")


def test_scalar_popcount_and_flipped_positions():
    for mask in (0, 1, 0b1010, (1 << 79) | 1, (1 << 64) - 1):
        assert datatypes.popcount(mask) == bin(mask).count("1")
        positions = datatypes.flipped_positions(mask)
        assert positions == [
            index for index in range(mask.bit_length()) if mask >> index & 1
        ]
        rebuilt = 0
        for position in positions:
            rebuilt |= 1 << position
        assert rebuilt == mask


# -- detector kernel parity ----------------------------------------------------


def test_crc_rows_parity():
    rng = np.random.default_rng(11)
    matrix = rng.integers(0, 256, size=(120, 53), dtype=np.uint8)
    digests32 = crc32_rows(matrix)
    digests16 = crc16_rows(matrix)
    for row in range(matrix.shape[0]):
        payload = bytes(matrix[row])
        assert int(digests32[row]) == crc32(payload)
        assert int(digests16[row]) == crc16(payload)


def test_crc_rows_requires_matrix():
    with pytest.raises(ValueError):
        crc32_rows(np.zeros(8, dtype=np.uint8))


def test_gf256_array_ops_match_scalar():
    assert GF_EXP_U8.shape == (512,) and GF_LOG_U8.shape == (256,)
    rng = np.random.default_rng(5)
    a = rng.integers(0, 256, size=500, dtype=np.uint8)
    b = rng.integers(0, 256, size=500, dtype=np.uint8)
    products = gf_mul_array(a, b)
    for x, y, p in zip(a, b, products):
        assert int(p) == gf_mul(int(x), int(y))
    for coefficient in (0, 1, 2, 91, 255):
        scaled = gf_scale_array(coefficient, a)
        for x, s in zip(a, scaled):
            assert int(s) == gf_mul(coefficient, int(x))


def test_secded_batch_parity_under_corruption():
    rng = np.random.default_rng(17)
    n = 400
    words = rng.integers(0, 1 << 63, size=n, dtype=np.uint64) | (
        rng.integers(0, 2, size=n, dtype=np.uint64) << np.uint64(63)
    )
    lo, hi = Secded64Batch.encode(words)
    for i in range(n):
        assert Secded64.encode(int(words[i])) == (int(hi[i]) << 64) | int(
            lo[i]
        )
    assert np.array_equal(Secded64Batch.extract_data(lo, hi), words)

    # Corrupt with 0-3 flips anywhere in the 72-bit codeword.
    flips = rng.integers(0, 4, size=n)
    for i in range(n):
        for _ in range(int(flips[i])):
            bit = int(rng.integers(72))
            if bit < 64:
                lo[i] ^= np.uint64(1 << bit)
            else:
                hi[i] ^= np.uint64(1 << (bit - 64))
    statuses, data = Secded64Batch.decode(lo, hi, true_data=words)
    statuses_blind, data_blind = Secded64Batch.decode(lo, hi)
    seen = set()
    for i in range(n):
        codeword = (int(hi[i]) << 64) | int(lo[i])
        result = Secded64.decode(codeword, true_data=int(words[i]))
        assert Secded64Batch.STATUSES[statuses[i]] is result.status
        assert int(data[i]) == result.data
        blind = Secded64.decode(codeword)
        assert Secded64Batch.STATUSES[statuses_blind[i]] is blind.status
        assert int(data_blind[i]) == blind.data
        seen.add(result.status)
    assert DecodeStatus.CLEAN in seen
    assert DecodeStatus.CORRECTED in seen


def test_reed_solomon_array_parity():
    rs = ReedSolomon(k=4, m=2)
    rng = np.random.default_rng(23)
    data = [bytes(rng.integers(0, 256, size=48, dtype=np.uint8)) for _ in range(4)]
    matrix = np.stack([np.frombuffer(d, dtype=np.uint8) for d in data])
    parity = rs.encode(data)
    parity_arr = rs.encode_array(matrix)
    assert [bytes(row) for row in parity_arr] == parity
    assert rs.verify_array(matrix, parity_arr)

    survivors = {0: data[0], 2: data[2], 4: parity[0], 5: parity[1]}
    rebuilt = rs.reconstruct(survivors, 48)
    rebuilt_arr = rs.reconstruct_array(
        {k: np.frombuffer(v, dtype=np.uint8) for k, v in survivors.items()},
        48,
    )
    assert [bytes(row) for row in rebuilt_arr] == rebuilt

    with pytest.raises(ConfigurationError):
        rs.encode_array(matrix[:2])
    with pytest.raises(ConfigurationError):
        rs.reconstruct_array({0: matrix[0]}, 48)


@pytest.mark.parametrize("seed", (0, 9))
def test_batched_experiments_match_scalar(seed):
    assert checksum_timing_experiment_batch(
        trials=150, seed=seed
    ) == checksum_timing_experiment(trials=150, seed=seed)
    for model in (None, UniformBitflip(), PositionBiasedBitflip()):
        assert ecc_multibit_experiment_batch(
            model, trials=250, seed=seed
        ) == ecc_multibit_experiment(model, trials=250, seed=seed)
    assert erasure_propagation_experiment_batch(
        trials=25, seed=seed
    ) == erasure_propagation_experiment(trials=25, seed=seed)
    assert erasure_faulty_encoder_experiment_batch(
        trials=30, seed=seed
    ) == erasure_faulty_encoder_experiment(trials=30, seed=seed)


def test_ecc_batch_outcomes_only_nonzero():
    report = ecc_multibit_experiment_batch(trials=200, seed=1)
    assert all(count > 0 for count in report.outcomes.values())
    assert sum(report.outcomes.values()) == report.trials
