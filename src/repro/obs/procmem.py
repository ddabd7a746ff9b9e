"""Process-resource sampling for bounded-RSS campaigns and benchmarks.

The out-of-core substrate's whole promise is a resident-set bound; that
bound has to be *measured*, not assumed.  This module reads the two
numbers that matter — current RSS (``/proc/self/statm`` where procfs
exists) and peak RSS (``getrusage``'s high-water mark, which no later
free ever lowers) — and mirrors them into the telemetry registry so
``obs-report --check`` and the scale benchmark can gate on them.

It also reports the CPU budget a benchmark ran under
(:func:`effective_cores`), which benchmark reports record beside their
RSS readings as provenance.

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
    "effective_cores",
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


def effective_cores() -> int:
    """The CPUs this process may run on.

    ``os.cpu_count()`` reports the machine, not the process:
    containerized CI commonly pins a job to a CPU subset (cpuset).  The
    scheduler affinity mask is the honest budget where the platform
    exposes it (Linux); elsewhere fall back to the CPU count.
    """
    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:  # macOS/Windows: no affinity API
        cores = os.cpu_count() or 1
    return max(1, cores)


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
    benchmarks can share the sampling path without telemetry enabled.
    """
    peak = peak_rss_bytes()
    if obs is not None:
        obs.set_gauge("repro_rss_bytes", current_rss_bytes())
        obs.set_gauge("repro_peak_rss_bytes", peak)
    return peak
