"""Unit tests for SDC records and the record store."""

import pytest

from repro.cpu import DataType
from repro.cpu.datatypes import encode
from repro.testing import ConsistencyRecord, RecordStore, SDCRecord, SDCRecords


def make_record(
    processor_id="P1",
    testcase_id="TC-1",
    dtype=DataType.FLOAT64,
    expected=1.5,
    mask=1,
    pcore_id=0,
    temperature_c=55.0,
):
    expected_bits = encode(expected, dtype)
    return SDCRecord(
        processor_id=processor_id,
        testcase_id=testcase_id,
        pcore_id=pcore_id,
        defect_id="d",
        instruction="FADD_F64",
        dtype=dtype,
        expected_bits=expected_bits,
        actual_bits=expected_bits ^ mask,
        temperature_c=temperature_c,
        time_s=0.0,
    )


class TestSDCRecord:
    def test_mask_and_flips(self):
        record = make_record(mask=0b101)
        assert record.mask == 0b101
        assert record.flipped_bits == 2

    def test_decoded_values(self):
        record = make_record(expected=1.5, mask=0)
        assert record.expected == 1.5
        assert record.actual == 1.5

    def test_precision_loss_small_for_fraction_flip(self):
        record = make_record(expected=1.5, mask=1)
        assert 0 < record.precision_loss < 1e-12

    def test_setting_key(self):
        record = make_record()
        assert record.setting == ("P1", "TC-1")


class TestRecordStore:
    def test_add_and_len(self):
        store = RecordStore()
        store.add(make_record())
        store.add_consistency(
            ConsistencyRecord("P1", "TC-9", 0, "d", "coherence", 60.0, 0.0)
        )
        assert len(store) == 2

    def test_by_setting_groups(self):
        store = RecordStore()
        store.add(make_record(testcase_id="A"))
        store.add(make_record(testcase_id="A"))
        store.add(make_record(testcase_id="B"))
        grouped = store.by_setting()
        assert len(grouped[("P1", "A")]) == 2
        assert len(grouped[("P1", "B")]) == 1

    def test_pcore_ids_include_consistency(self):
        store = RecordStore()
        store.add(make_record(testcase_id="A", pcore_id=3))
        store.add_consistency(
            ConsistencyRecord("P1", "C", 5, "d", "txmem", 60.0, 0.0)
        )
        assert store.pcore_ids() == {3, 5}


# -- the column view -------------------------------------------------------------


@pytest.fixture()
def counted(monkeypatch):
    """Counts every SDCRecord the view's materializer builds."""
    from repro.testing import records as records_module

    built = []

    def counting(*args):
        record = SDCRecord(*args)
        built.append(record)
        return record

    monkeypatch.setattr(records_module, "SDCRecord", counting)
    return built


@pytest.fixture()
def emitted(catalog, library):
    """A runner's column-emitted runs and the store they fill."""
    from repro.testing import ToolchainRunner

    runner = ToolchainRunner(catalog["FPU1"], seed=2)
    store = RecordStore()
    runs = [
        runner.run_at_fixed_temperature(tc, 78.0, 900.0, store=store)
        for tc in library
        if runner.can_ever_fail(tc)
    ][:40]
    assert sum(len(run.records) for run in runs) > 100
    return runs, store


class TestSDCRecordsView:
    def test_len_and_bool_build_no_record(self, counted, emitted):
        runs, store = emitted
        assert sum(bool(run.records) for run in runs) > 0
        assert sum(run.error_count for run in runs) == len(store)
        assert any(run.detected for run in runs)
        assert len(store.records) == sum(len(run.records) for run in runs)
        assert bool(store.records)
        assert not SDCRecords()
        assert counted == []

    def test_records_built_once_per_store_state(self, counted, emitted):
        _, store = emitted
        first = list(store.records)
        assert len(counted) == len(first)
        assert list(store.records) == first
        assert store.records[0] is first[0]
        assert len(counted) == len(first)
        # Appending builds only the new rows.
        store.extend(SDCRecords(first[:3]))
        assert list(store.records) == first + first[:3]
        assert len(counted) == len(first)
        run = emitted[0][0]
        store.extend(run.records)
        assert len(list(store.records)) == len(first) + 3 + len(run.records)
        assert len(counted) == len(first) + len(run.records)

    def test_store_equals_its_runs(self, emitted):
        runs, store = emitted
        assert store.records == [r for run in runs for r in run.records]
        assert store.pcore_ids() == {
            r.pcore_id for run in runs for r in run.records
        }

    def test_object_and_column_rows_mix_in_order(self, emitted):
        run = next(run for run in emitted[0] if run.records)
        wide = make_record(dtype=DataType.FLOAT64X, expected=0.75, mask=1)
        narrow = make_record(dtype=DataType.INT32, expected=-7, mask=0b10)
        view = SDCRecords([wide])
        view.extend(run.records)
        view.append(narrow)
        records = [wide, *run.records, narrow]
        assert view == records
        assert list(SDCRecords(records)) == records
        columns = view.columns()
        assert len(columns.expected_lo) == len(records) == int(
            columns.counts.sum()
        )
        assert (int(columns.expected_hi[0]) << 64) | int(
            columns.expected_lo[0]
        ) == wide.expected_bits

    def test_copies_compare_equal_and_stay_independent(self, emitted):
        import copy
        import dataclasses

        runs, _ = emitted
        run = next(run for run in runs if run.records)
        clone = copy.deepcopy(run.records)
        assert clone == run.records
        assert dataclasses.asdict(run) == dataclasses.asdict(run)
        clone.append(make_record())
        assert len(clone) == len(run.records) + 1
        assert clone != run.records

    def test_store_takes_a_list(self):
        record = make_record()
        store = RecordStore(records=[record])
        assert isinstance(store.records, SDCRecords)
        assert store.records == [record] and len(store) == 1
