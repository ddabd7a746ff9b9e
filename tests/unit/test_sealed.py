"""On-disk compatibility of every sealed-storage format.

``tests/fixtures/sealed/`` holds one small file set per format, written
by the release before the formats shared one storage module: a
checkpoint, a column store, a journal segment whose last entry was torn
mid-append, rotated trace segments and a metrics JSON document.  Each
must still load to the payload recorded here, and the current writers
must reproduce each file byte for byte — except the metrics document,
whose outer key order and trailing newline changed (it must still
load).

The directory also keeps ``timeseries.json``, a time-series history as
the daemon stored it before that history was retired; no reader for it
is left, and ``tests/unit/test_service.py`` boots a daemon beside it.

The ``write_*`` helpers below are the recipe that produced the
fixtures; they use only the public writers.
"""

from pathlib import Path

import numpy as np

from repro.colstore import read_columns, write_columns
from repro.obs import (
    JsonlTraceSink,
    MetricsRegistry,
    read_trace_segments,
    trace_segment_paths,
)
from repro.obs.report import load_metrics
from repro.resilience import read_checkpoint, write_checkpoint
from repro.service import JournalWriter, ReplayReport, replay_journal

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures" / "sealed"

CHECKPOINT_PAYLOAD = {
    "cursor": 12,
    "draws": 345,
    "day": 1.9428902930940239e-05,
    "detections": [[3, "cpu-0007", 0.5], [9, "cpu-0011", 17.25]],
    "float64x_bits": 2**79 + 5,
    "note": "café ✓",
    "resumed": False,
    "parent": None,
}

COLUMNS = {
    "ids": np.arange(5, dtype=np.int64),
    "temps": np.array([41.5, 55.25, -3.0, 0.1, 99.875]),
    "flags": np.array([True, False, True, True, False]),
}
COLUMN_META = {"rows": 5, "source": "fixture"}

SPEC = {"total_processors": 300, "fleet_seed": 3, "pipeline_seed": 5}
JOURNAL_ENTRIES = [
    ("submit", "job-000001", {"spec": SPEC}),
    ("start", "job-000001", {"resume": False}),
    ("verdict", "job-000001", {"detections": 3, "finished_unix": 1.5e9}),
    ("submit", "job-000002", {"spec": SPEC}),
]
#: Bytes cut off the end of the journal segment: the final newline and
#: part of the last entry, the signature of a crash mid-append.
JOURNAL_TORN_BYTES = 9

TRACE_RECORDS = [
    {"kind": "event", "name": f"e{i}", "ts": i * 0.125, "pid": 7,
     "tid": 0, "attrs": {"i": i}}
    for i in range(24)
]


def write_checkpoint_fixture(directory: Path) -> None:
    write_checkpoint(directory / "campaign.ckpt", CHECKPOINT_PAYLOAD)


def write_colstore_fixture(directory: Path) -> None:
    write_columns(directory / "colstore", COLUMNS, COLUMN_META)


def write_journal_fixture(directory: Path, torn: bool = True) -> None:
    with JournalWriter(directory / "journal") as journal:
        for kind, job, data in JOURNAL_ENTRIES:
            journal.append(kind, job=job, **data)
    if torn:
        segment = directory / "journal" / "journal-000001.wal"
        segment.write_bytes(segment.read_bytes()[:-JOURNAL_TORN_BYTES])


def write_trace_fixture(directory: Path) -> None:
    (directory / "trace").mkdir(parents=True, exist_ok=True)
    sink = JsonlTraceSink(directory / "trace" / "trace.jsonl", max_bytes=1024)
    for record in TRACE_RECORDS:
        sink.emit(dict(record))
    sink.close()


def build_registry() -> MetricsRegistry:
    registry = MetricsRegistry()
    registry.counter(
        "repro_jobs_total", "jobs by outcome", ("outcome",)
    ).labels(outcome="done").inc(3.0)
    registry.gauge("repro_queue_depth", "queued jobs").labels().set(2.0)
    histogram = registry.histogram("repro_shard_seconds", "shard latency")
    for seconds in (0.0004, 0.02, 0.02, 1.5):
        histogram.labels().observe(seconds)
    return registry


def write_metrics_fixture(directory: Path) -> None:
    build_registry().save(directory / "metrics.json")


def _same_files(expected: Path, actual: Path) -> None:
    names = sorted(path.name for path in expected.iterdir())
    assert sorted(path.name for path in actual.iterdir()) == names
    for name in names:
        assert (actual / name).read_bytes() == (expected / name).read_bytes()


class TestFixturesLoad:
    def test_checkpoint(self):
        assert read_checkpoint(FIXTURES / "campaign.ckpt") == (
            CHECKPOINT_PAYLOAD
        )

    def test_column_store(self):
        columns, meta = read_columns(FIXTURES / "colstore", verify=True)
        assert meta == COLUMN_META
        assert sorted(columns) == sorted(COLUMNS)
        for name, expected in COLUMNS.items():
            assert columns[name].dtype == expected.dtype
            np.testing.assert_array_equal(columns[name], expected)

    def test_torn_journal_segment(self):
        report = ReplayReport()
        entries = replay_journal(FIXTURES / "journal", report=report)
        assert [(e.kind, e.job, e.data) for e in entries] == (
            JOURNAL_ENTRIES[:-1]
        )
        assert [e.seq for e in entries] == [1, 2, 3]
        assert report.problems == ["journal-000001.wal: torn tail dropped"]

    def test_rotated_trace_segments(self):
        base = FIXTURES / "trace" / "trace.jsonl"
        assert len(trace_segment_paths(base)) > 1
        assert read_trace_segments(base, strict=True) == TRACE_RECORDS

    def test_metrics_document(self):
        loaded = load_metrics(FIXTURES / "metrics.json")
        assert loaded.snapshot() == build_registry().snapshot()


class TestWritersReproduceFixtures:
    def test_checkpoint(self, tmp_path):
        write_checkpoint_fixture(tmp_path)
        assert (tmp_path / "campaign.ckpt").read_bytes() == (
            FIXTURES / "campaign.ckpt"
        ).read_bytes()

    def test_column_store(self, tmp_path):
        write_colstore_fixture(tmp_path)
        _same_files(FIXTURES / "colstore", tmp_path / "colstore")

    def test_journal_segment(self, tmp_path):
        write_journal_fixture(tmp_path, torn=False)
        whole = (tmp_path / "journal" / "journal-000001.wal").read_bytes()
        fixture = (FIXTURES / "journal" / "journal-000001.wal").read_bytes()
        assert whole[:-JOURNAL_TORN_BYTES] == fixture

    def test_trace_segments(self, tmp_path):
        write_trace_fixture(tmp_path)
        _same_files(FIXTURES / "trace", tmp_path / "trace")

    def test_metrics_document_loads_after_rewrite(self, tmp_path):
        # The one format whose bytes changed: the outer document's key
        # order and trailing newline.  The payload and its CRC did not.
        write_metrics_fixture(tmp_path)
        loaded = load_metrics(tmp_path / "metrics.json")
        assert loaded.snapshot() == load_metrics(
            FIXTURES / "metrics.json"
        ).snapshot()
