"""Durability audit: every atomic-replace site fsyncs the parent dir.

File-content atomicity (tmp + fsync + ``os.replace``) is necessary but
not sufficient: the renamed directory entry only survives power loss
after the *parent directory* is fsynced.  These tests shim
:mod:`repro.fsutil`'s ``os`` with a recording/fault-injecting double and
assert two things about every durable artifact writer in the tree
(checkpoints, column-store manifests and columns, metrics snapshots,
journal segments, service endpoint files):

1. the parent directory fsync happens, and happens **after** the
   rename (the ordering that makes the entry durable);
2. a directory that cannot be opened or fsynced degrades gracefully
   (helper reports ``False``) instead of failing the write — the
   documented behavior for platforms without directory fsync.
"""

import json
import os

import pytest

import repro.fsutil as fsutil
from repro.obs import MetricsRegistry
from repro.resilience.checkpoint import read_checkpoint, write_checkpoint
from repro.service import ServiceThread
from repro.service.journal import JournalWriter
from repro.service.server import ENDPOINT_FILE


class RecordingOs:
    """Pass-through ``os`` double that logs the durability-relevant
    calls and can inject faults at each of them."""

    def __init__(self, fail_dir_open=False, fail_dir_fsync=False):
        self.calls = []
        self.fail_dir_open = fail_dir_open
        self.fail_dir_fsync = fail_dir_fsync
        self._dir_fds = set()

    def __getattr__(self, name):
        return getattr(os, name)

    def replace(self, src, dst):
        self.calls.append(("replace", str(dst)))
        return os.replace(src, dst)

    def open(self, path, flags, *args, **kwargs):
        if flags & getattr(os, "O_DIRECTORY", 0):
            if self.fail_dir_open:
                raise OSError("injected: cannot open directory")
            fd = os.open(path, flags, *args, **kwargs)
            self._dir_fds.add(fd)
            self.calls.append(("dir_open", str(path)))
            return fd
        return os.open(path, flags, *args, **kwargs)

    def fsync(self, fd):
        if fd in self._dir_fds:
            if self.fail_dir_fsync:
                raise OSError("injected: directory fsync rejected")
            self.calls.append(("dir_fsync", fd))
        return os.fsync(fd)

    def close(self, fd):
        self._dir_fds.discard(fd)
        return os.close(fd)


@pytest.fixture()
def shim(monkeypatch):
    double = RecordingOs()
    monkeypatch.setattr(fsutil, "os", double)
    return double


def _assert_rename_then_dir_sync(shim, dst):
    kinds = [kind for kind, _ in shim.calls]
    assert ("replace", str(dst)) in shim.calls
    assert "dir_fsync" in kinds, "parent directory was never fsynced"
    assert kinds.index("dir_fsync") > kinds.index("replace"), (
        "directory fsync must follow the rename it makes durable"
    )


class TestHelper:
    def test_replace_then_parent_fsync_ordering(self, tmp_path, shim):
        src = tmp_path / "artifact.tmp"
        dst = tmp_path / "artifact"
        src.write_text("payload")
        fsutil.replace_and_sync_directory(src, dst)
        assert dst.read_text() == "payload"
        _assert_rename_then_dir_sync(shim, dst)
        synced_dir = shim.calls[
            [kind for kind, _ in shim.calls].index("dir_open")
        ][1]
        assert synced_dir == str(tmp_path)

    def test_unopenable_directory_degrades_gracefully(
        self, tmp_path, monkeypatch
    ):
        double = RecordingOs(fail_dir_open=True)
        monkeypatch.setattr(fsutil, "os", double)
        assert fsutil.fsync_directory(tmp_path) is False
        src, dst = tmp_path / "a.tmp", tmp_path / "a"
        src.write_text("x")
        fsutil.replace_and_sync_directory(src, dst)  # must not raise
        assert dst.read_text() == "x"

    def test_rejected_directory_fsync_degrades_gracefully(
        self, tmp_path, monkeypatch
    ):
        double = RecordingOs(fail_dir_fsync=True)
        monkeypatch.setattr(fsutil, "os", double)
        assert fsutil.fsync_directory(tmp_path) is False
        # The fd is still closed on the failure path.
        assert not double._dir_fds

    def test_non_posix_platform_skips(self, tmp_path, monkeypatch):
        double = RecordingOs()
        double.name = "nt"
        monkeypatch.setattr(fsutil, "os", double)
        assert fsutil.fsync_directory(tmp_path) is False
        assert double.calls == []


class TestWriters:
    """Every durable-artifact writer routes through the audited helper."""

    def test_checkpoint_writer(self, tmp_path, shim):
        path = tmp_path / "state.ckpt"
        write_checkpoint(path, {"cursor": 7})
        assert read_checkpoint(path)["cursor"] == 7
        _assert_rename_then_dir_sync(shim, path)

    def test_metrics_snapshot(self, tmp_path, shim):
        registry = MetricsRegistry()
        registry.counter("demo_total", "demo").labels().inc()
        path = tmp_path / "metrics.prom"
        registry.save(path)
        _assert_rename_then_dir_sync(shim, path)

    def test_colstore_manifest(self, tmp_path, shim):
        import numpy as np

        from repro.colstore import write_columns

        write_columns(
            tmp_path / "frame", {"xs": np.arange(4, dtype=np.int64)}
        )
        manifest_replaces = [
            dst for kind, dst in shim.calls if kind == "replace"
        ]
        assert manifest_replaces, "column store never atomically replaced"
        kinds = [kind for kind, _ in shim.calls]
        assert "dir_fsync" in kinds

    def test_journal_segment_creation_syncs_directory(
        self, tmp_path, shim
    ):
        with JournalWriter(tmp_path / "journal") as journal:
            journal.append("submit", job="a")
        kinds = [kind for kind, _ in shim.calls]
        assert "dir_fsync" in kinds, (
            "new journal segment's directory entry was never made durable"
        )

    def test_service_endpoint_file(self, tmp_path, shim, library):
        endpoint = tmp_path / ENDPOINT_FILE
        with ServiceThread(tmp_path, library=library):
            assert json.loads(endpoint.read_text())["pid"] == os.getpid()
        renamed = shim.calls.index(("replace", str(endpoint)))
        after = shim.calls[renamed + 1:]
        assert ("dir_open", str(tmp_path)) in after
        assert "dir_fsync" in [kind for kind, _ in after]
