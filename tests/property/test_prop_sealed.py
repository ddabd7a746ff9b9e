"""Property: every sealed format survives truncation and bit rot alike.

Each test draws a payload (records, for the two logs), writes it
through the format's real writer, then truncates the file at every
offset and XORs every byte with a drawn non-zero mask.  One rule holds
for every mutation: the reader returns the written payload (for a log,
a prefix of the written records) or raises that format's
:class:`~repro.errors.ReproError`.  It never returns a different
payload or a record that was not written, and never raises anything
else.

The logs obey the torn-tail rule exactly: a file cut mid-line ends in a
torn tail, which lenient readers drop (and the journal reports), while
a flipped byte anywhere but the final newline is corruption.
"""

from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.colstore import MANIFEST_NAME, read_columns, write_columns
from repro.errors import (
    CheckpointError,
    JournalError,
    ObservabilityError,
    TraceCorruptError,
)
from repro.obs import (
    JsonlTraceSink,
    MetricsRegistry,
    read_trace,
)
from repro.obs.report import load_metrics
from repro.resilience import read_checkpoint, write_checkpoint
from repro.service import JournalWriter, ReplayReport, replay_journal

SETTINGS = settings(max_examples=6, deadline=None)

_keys = st.text(alphabet="abcdefgh", min_size=1, max_size=4)
_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**70), max_value=2**70),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=6),
)
_values = st.recursive(
    _scalars,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(_keys, inner, max_size=3),
    max_leaves=6,
)
_payloads = st.dictionaries(_keys, _values, min_size=1, max_size=3)
_masks = st.integers(min_value=1, max_value=255)


def _mutations(data: bytes, mask: int):
    """Every truncation, then every byte XORed with ``mask``."""
    for cut in range(len(data)):
        yield "cut", cut, data[:cut]
    for index in range(len(data)):
        flipped = bytearray(data)
        flipped[index] ^= mask
        yield "flip", index, bytes(flipped)


def _check_document(path: Path, mask: int, read, expected, error) -> None:
    """Every mutation of a sealed document loads ``expected`` (a flip
    that leaves the parsed value unchanged) or raises ``error``."""
    data = path.read_bytes()
    for kind, where, mutated in _mutations(data, mask):
        path.write_bytes(mutated)
        try:
            loaded = read(path)
        except error:
            continue
        assert loaded == expected, (kind, where)
    path.write_bytes(data)


@SETTINGS
@given(payload=_payloads, mask=_masks)
def test_checkpoint(tmp_path_factory, payload, mask):
    path = tmp_path_factory.mktemp("ckpt") / "campaign.ckpt"
    write_checkpoint(path, payload)
    assert read_checkpoint(path) == payload
    _check_document(path, mask, read_checkpoint, payload, CheckpointError)


@SETTINGS
@given(
    ints=st.lists(st.integers(-(2**63), 2**63 - 1), max_size=6),
    meta=_payloads,
    mask=_masks,
)
def test_column_store(tmp_path_factory, ints, meta, mask):
    directory = tmp_path_factory.mktemp("colstore")
    columns = {
        "ids": np.array(ints, dtype=np.int64),
        "halves": np.array(ints, dtype=np.float64) / 2,
    }
    write_columns(directory, columns, meta)

    def read(_path):
        loaded, loaded_meta = read_columns(directory, mmap=False, verify=True)
        return {k: v.tolist() for k, v in loaded.items()}, loaded_meta

    expected = ({k: v.tolist() for k, v in columns.items()}, meta)
    assert read(None) == expected
    _check_document(
        directory / MANIFEST_NAME, mask, read, expected, CheckpointError
    )
    # A column file has no JSON to survive a flip: its size and CRC-32
    # catch every cut and every flipped byte.
    _check_document(directory / "ids.npy", mask, read, None, CheckpointError)


@SETTINGS
@given(
    counters=st.dictionaries(
        st.text(max_size=4), st.floats(0, 1e12), min_size=1, max_size=3
    ),
    observations=st.lists(st.floats(0, 100), max_size=4),
    mask=_masks,
)
def test_metrics_document(tmp_path_factory, counters, observations, mask):
    path = tmp_path_factory.mktemp("metrics") / "metrics.json"
    registry = MetricsRegistry()
    family = registry.counter("repro_n_total", "n ✓", ("label",))
    for label, amount in counters.items():
        family.labels(label=label).inc(amount)
    histogram = registry.histogram("repro_h_seconds").labels()
    for seconds in observations:
        histogram.observe(seconds)
    registry.save(path)
    expected = registry.snapshot()

    def read(path):
        return load_metrics(path).snapshot()

    assert read(path) == expected
    _check_document(path, mask, read, expected, ObservabilityError)


# -- sealed logs -----------------------------------------------------------

_journal_entries = st.lists(
    st.tuples(
        st.sampled_from(["submit", "start", "verdict", "failed"]),
        st.one_of(st.none(), st.text(max_size=6)),
        st.dictionaries(_keys, _values, max_size=2),
    ),
    min_size=1,
    max_size=4,
)


def _cut_outcome(mutated: bytes):
    """Records a cut file still holds in full, and whether it is torn."""
    complete = max(mutated.count(b"\n") - 1, 0)
    return complete, not mutated.endswith(b"\n")


@SETTINGS
@given(entries=_journal_entries, mask=_masks)
def test_journal(tmp_path_factory, entries, mask):
    directory = tmp_path_factory.mktemp("journal")
    with JournalWriter(directory) as journal:
        for kind, job, data in entries:
            journal.append(kind, job=job, **data)
    written = [
        (seq, kind, job, data)
        for seq, (kind, job, data) in enumerate(entries, start=1)
    ]
    path = directory / "journal-000001.wal"
    original = path.read_bytes()

    def replay(salvage):
        report = ReplayReport()
        replayed = replay_journal(directory, salvage=salvage, report=report)
        rows = [(e.seq, e.kind, e.job, e.data) for e in replayed]
        return rows, report.problems

    torn_report = ["journal-000001.wal: torn tail dropped"]
    assert replay(False) == (written, [])
    for kind, where, mutated in _mutations(original, mask):
        path.write_bytes(mutated)
        if kind == "cut" or where == len(original) - 1:
            # A cut, or a flipped final newline: the torn-tail rule.
            complete, torn = _cut_outcome(mutated)
            if kind == "flip":
                complete, torn = len(written) - 1, True
            outcome = (written[:complete], torn_report if torn else [])
            assert replay(False) == outcome, (kind, where)
            assert replay(True) == outcome, (kind, where)
            continue
        # Any other damage: the default replay raises, salvage truncates
        # and reports.  Only a value-preserving flip reads clean.
        try:
            assert replay(False) == (written, []), (kind, where)
        except JournalError:
            pass
        try:
            rows, problems = replay(True)
        except JournalError:  # an intact header of another version
            continue
        if rows != written:
            assert rows == written[: len(rows)], (kind, where)
            assert len(problems) == 1 and "truncated" in problems[0]


@SETTINGS
@given(
    records=st.lists(
        st.dictionaries(_keys, _values, max_size=3), min_size=1, max_size=4
    ),
    mask=_masks,
)
def test_trace(tmp_path_factory, records, mask):
    path = tmp_path_factory.mktemp("trace") / "trace.jsonl"
    sink = JsonlTraceSink(path)
    for record in records:
        sink.emit(record)
    sink.close()
    original = path.read_bytes()
    assert read_trace(path, strict=True) == records
    for kind, where, mutated in _mutations(original, mask):
        path.write_bytes(mutated)
        if kind == "cut" or where == len(original) - 1:
            complete, torn = _cut_outcome(mutated)
            if kind == "flip":
                complete, torn = len(records) - 1, True
            assert read_trace(path) == records[:complete], (kind, where)
            if torn:
                with pytest.raises(TraceCorruptError):
                    read_trace(path, strict=True)
            else:
                assert read_trace(path, strict=True) == records[:complete]
            continue
        for strict in (False, True):
            try:
                assert read_trace(path, strict=strict) == records
            except TraceCorruptError:
                pass
