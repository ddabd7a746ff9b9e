"""Crash-durability primitives shared by every on-disk artifact.

Every durable artifact is written by :mod:`repro.sealed` with one
recipe — write to a temp file, flush, ``fsync``, then ``os.replace``
into place — which makes the *file contents* atomic.
What that recipe alone does not guarantee is that the **rename itself**
survives a power loss: the new directory entry lives in the parent
directory's data, and POSIX only promises it is on disk after the
*directory* is fsynced.  A daemon that acknowledged a job, crashed, and
restarted to find the journal segment or checkpoint vanished would
violate the service's no-lost-acknowledged-work contract.

:func:`fsync_directory` closes that gap.  The sealed-storage module
calls it on the parent directory after ``os.replace`` (and after
creating a new append-only segment), so a post-crash restart can never
observe a missing artifact that a pre-crash acknowledgment depended on.

The helper is deliberately tolerant of platforms where directories
cannot be opened or fsynced (Windows, some network filesystems): it
reports whether the sync happened rather than raising, because the
caller's data-file fsync already happened and refusing to run on such
platforms would be strictly worse.  The durability regression test
(``tests/unit/test_durability.py``) shims this module's ``os`` to
assert the call ordering instead.
"""

from __future__ import annotations

import os

__all__ = ["fsync_directory", "replace_and_sync_directory"]


def fsync_directory(path: os.PathLike) -> bool:
    """Fsync the directory at ``path``; returns whether it succeeded.

    Needed after ``os.replace``/``os.link``/file creation so the new
    directory entry is durable, not just the file contents.  Platforms
    that cannot open a directory read-only (``os.name != "posix"``) or
    whose filesystem rejects the fsync are tolerated: the function
    returns ``False`` instead of raising, and the caller's artifact is
    still content-complete.
    """
    if os.name != "posix":
        return False
    flags = os.O_RDONLY | getattr(os, "O_DIRECTORY", 0)
    try:
        fd = os.open(path, flags)
    except OSError:
        return False
    try:
        os.fsync(fd)
    except OSError:
        return False
    finally:
        os.close(fd)
    return True


def replace_and_sync_directory(src: os.PathLike, dst: os.PathLike) -> None:
    """``os.replace`` + parent-directory fsync, as one durable step.

    Raises whatever ``os.replace`` raises; the directory sync itself is
    best-effort per :func:`fsync_directory`.
    """
    os.replace(src, dst)
    fsync_directory(os.path.dirname(os.path.abspath(dst)))
