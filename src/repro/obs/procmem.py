"""Process-resource sampling for bounded-RSS campaigns.

The out-of-core substrate's whole promise is a resident-set bound; that
bound has to be *measured*, not assumed.  This module reads the two
numbers that matter — current RSS (``/proc/self/statm`` where procfs
exists) and peak RSS (``getrusage``'s high-water mark, which no later
free ever lowers) — and mirrors them into the telemetry registry, where
``/metrics`` and ``obs-report`` show them.  The paper-scale peak-RSS
bound is a test (``tests/unit/test_out_of_core.py``) that reads
:func:`peak_rss_bytes` at the end of a run in a fresh interpreter.

Everything degrades gracefully: platforms without procfs fall back to
``getrusage`` for current RSS too, and platforms without ``resource``
(not a target, but cheap to tolerate) report 0 rather than raising.
"""

from __future__ import annotations

import os
import sys

try:  # pragma: no cover - stdlib on POSIX, absent on some platforms
    import resource
except ImportError:  # pragma: no cover
    resource = None

__all__ = [
    "current_rss_bytes",
    "peak_rss_bytes",
    "record_memory",
]

_PAGE_SIZE = os.sysconf("SC_PAGE_SIZE") if hasattr(os, "sysconf") else 4096


def _ru_maxrss_bytes() -> int:
    if resource is None:  # pragma: no cover
        return 0
    maxrss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # ru_maxrss is KiB on Linux, bytes on macOS.
    return maxrss * (1 if sys.platform == "darwin" else 1024)


def current_rss_bytes() -> int:
    """This process's resident set size right now, in bytes."""
    try:
        with open("/proc/self/statm", "rb") as handle:
            fields = handle.read().split()
        return int(fields[1]) * _PAGE_SIZE
    except (OSError, IndexError, ValueError):
        # No procfs (macOS): the high-water mark is the best available
        # stand-in for "now".
        return _ru_maxrss_bytes()


def peak_rss_bytes() -> int:
    """This process's peak resident set size, in bytes."""
    return _ru_maxrss_bytes()


def record_memory(obs) -> int:
    """Sample both RSS gauges into ``obs``; returns the peak in bytes.

    Safe to call with ``obs=None`` (still returns the measurement), so
    callers can share the sampling path without telemetry enabled.
    """
    peak = peak_rss_bytes()
    if obs is not None:
        obs.set_gauge("repro_rss_bytes", current_rss_bytes())
        obs.set_gauge("repro_peak_rss_bytes", peak)
    return peak
