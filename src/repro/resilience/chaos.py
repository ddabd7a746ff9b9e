"""Chaos self-injection: faults for the *harness itself*.

The paper's campaigns model unreliable silicon; production experience
(Meta's *Silent Data Corruptions at Scale*, Google's SiliFuzz) says the
test infrastructure is unreliable too.  One :class:`ChaosInjector`
injects that second kind of fault in two forms, both deterministic, so
the chaos suites can prove every injected fault is survived with a
bit-identical final result.

**Scheduled campaign faults**, keyed by shard index (the Python API and
a ``/submit`` job's ``chaos`` field):

* ``"exception"`` — the shard raises a transient error on its first
  attempt (a flaking worker); the campaign retries it with backoff.
* ``"delay"`` — the shard stalls briefly (a slow host); nothing should
  change but wall-clock time.
* ``"kill"`` — the campaign "dies" right after the shard (an
  OOM-killed scanner); the supervisor must resume from the last good
  checkpoint.
* ``"parity_trip"`` — the vectorized engine's parity self-check reports
  a mismatch; the campaign must degrade that shard to the scalar engine.
* ``"torn_checkpoint"`` — the snapshot written after the shard is
  truncated mid-file (power loss during write).
* ``"corrupt_byte"`` — one byte of that snapshot is flipped (bit rot).

Each scheduled fault fires **once**: a resumed campaign re-executing the
same shard must not re-die, exactly like a real crash that does not
reproduce.  The campaign asks :meth:`ChaosInjector.fires` at its own
hook points and records every fault that fires in its health report.

**Process deaths** from ``repro serve --chaos`` (:func:`parse_chaos_spec`),
actions bound to the *n*-th visit of a named hook point::

    kill:submit_pre_ack:2           die at the 2nd pre-ack hook
    kill:shard_done:5               die after the 5th completed shard
    tear_journal:journal_append:3   tear the journal tail at append 3
                                    (then die)

Death exits with status 137 (:data:`KILL_EXIT_CODE`) and skips atexit
handlers and flushes, so every consumer of the state directory sees
what SIGKILL leaves; that lets the chaos suite pin kill points an
external ``kill -9`` could only hit by luck.  Hook points:

* ``submit_pre_ack``   — job journaled? maybe; ack definitely not sent
* ``submit_post_ack``  — journal fsynced, ack about to be sent
* ``journal_append``   — after any journal append's fsync
* ``shard_done``       — between a campaign shard and the next
* ``checkpoint_done``  — right after a campaign checkpoint landed
* ``drain``            — inside graceful drain, before the final flush
"""

from __future__ import annotations

import os
import threading
from pathlib import Path
from typing import (
    Dict, Iterable, List, Mapping, Optional, Sequence, Set, Tuple,
)

from ..errors import ConfigurationError, ResilienceError
from ..rng import substream

__all__ = [
    "FAULT_KINDS",
    "HOOK_POINTS",
    "KILL_EXIT_CODE",
    "InjectedKillError",
    "ChaosInjector",
    "parse_chaos_spec",
    "parse_job_chaos",
]

FAULT_KINDS = (
    "exception",
    "delay",
    "kill",
    "parity_trip",
    "torn_checkpoint",
    "corrupt_byte",
)

HOOK_POINTS = (
    "submit_pre_ack",
    "submit_post_ack",
    "journal_append",
    "shard_done",
    "checkpoint_done",
    "drain",
)

_ACTIONS = ("kill", "tear_journal")

#: SIGKILL's wait-status exit code; keeps post-mortems honest about
#: what the simulated death is standing in for.
KILL_EXIT_CODE = 137


class InjectedKillError(ResilienceError):
    """The chaos schedule killed the campaign process (simulated)."""


def _known(name: object, known: Tuple[str, ...], what: str) -> str:
    """``name`` if it is one of ``known``; every chaos name is checked here."""
    if name not in known:
        raise ConfigurationError(
            f"unknown chaos {what} {name!r}; known: {known}"
        )
    return name  # type: ignore[return-value]


def _parse_schedule(
    schedule: Mapping[object, Sequence[str]],
) -> Dict[int, Tuple[str, ...]]:
    """``{shard: [kinds]}`` with shard keys as ints (JSON gives strings)."""
    parsed: Dict[int, Tuple[str, ...]] = {}
    for shard, kinds in schedule.items():
        key = str(shard)
        if not (key.isascii() and key.isdigit()):
            raise ConfigurationError(
                f"chaos shard {shard!r} is not a non-negative integer"
            )
        if not isinstance(kinds, (list, tuple)):
            raise ConfigurationError(
                f"chaos kinds for shard {shard!r} must be a list, "
                f"got {kinds!r}"
            )
        parsed[int(key)] = tuple(
            _known(kind, FAULT_KINDS, "fault") for kind in kinds
        )
    return parsed


def parse_job_chaos(doc: object) -> Tuple[Dict[int, Tuple[str, ...]], int]:
    """A job's ``chaos`` field, ``{"schedule": {shard: [kinds]}, "seed":
    n}``, as ``(schedule, seed)``.

    Admission and journal replay both parse through here, so a schedule
    the injector would refuse is a 400 at ``/submit``, never a crash in
    the job thread.
    """
    if not isinstance(doc, dict) or not isinstance(
        doc.get("schedule", {}), dict
    ):
        raise ConfigurationError(
            "chaos must be {'schedule': {shard: [kinds]}, 'seed': n}"
        )
    seed = doc.get("seed", 0)
    if not isinstance(seed, int) or isinstance(seed, bool):
        raise ConfigurationError(
            f"chaos seed must be an integer, got {seed!r}"
        )
    return _parse_schedule(doc.get("schedule", {})), seed


def parse_chaos_spec(spec: str) -> List[Tuple[str, str, int]]:
    """``"kill:shard_done:5,tear_journal:journal_append:3"`` →
    ``[(action, point, nth), ...]``; validates names eagerly so a typo
    fails daemon startup, not silently never-fires."""
    actions: List[Tuple[str, str, int]] = []
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        pieces = part.split(":")
        if len(pieces) != 3:
            raise ConfigurationError(
                f"chaos spec {part!r} is not action:point:nth"
            )
        action, point, nth_text = pieces
        _known(action, _ACTIONS, "action")
        _known(point, HOOK_POINTS, "hook point")
        try:
            nth = int(nth_text)
        except ValueError:
            raise ConfigurationError(
                f"chaos spec {part!r} has a non-integer occurrence count"
            )
        if nth < 1:
            raise ConfigurationError(
                f"chaos spec {part!r} occurrence count must be >= 1"
            )
        actions.append((action, point, nth))
    return actions


def _truncate(path: Path, keep: int) -> None:
    """Durably cut ``path`` to its first ``keep`` bytes (a torn write)."""
    data = path.read_bytes()
    with open(path, "wb") as handle:
        handle.write(data[:keep])
        handle.flush()
        os.fsync(handle.fileno())


class ChaosInjector:
    """Fires scheduled harness faults and process deaths at hook points.

    Keep one injector per supervised run: its fired set is what stops a
    resumed campaign from re-running a fault.  The injector only decides
    *whether* a fault fires; the campaign applies it and records it.
    """

    def __init__(
        self,
        schedule: Mapping[int, Sequence[str]],
        seed: int = 0,
        delay_s: float = 0.01,
    ):
        self.schedule = _parse_schedule(schedule)
        self.delay_s = delay_s
        self._rng = substream(seed, "chaos")
        self._fired: Set[Tuple[int, str]] = set()
        #: ``--chaos`` process deaths, ``(action, point, nth)``.
        self.exits: List[Tuple[str, str, int]] = []
        self._visits: Dict[str, int] = {}
        self._visits_lock = threading.Lock()

    @classmethod
    def seeded(
        cls,
        seed: int,
        shard_count: int,
        rate: float = 0.15,
        kinds: Iterable[str] = FAULT_KINDS,
    ) -> "ChaosInjector":
        """A random schedule: each (shard, kind) fires with ``rate``.

        Deterministic in ``seed`` — the same seed always builds the same
        schedule, which is what lets CI run a fixed seed matrix.
        """
        rng = substream(seed, "chaos", "schedule")
        schedule: Dict[int, List[str]] = {}
        for shard in range(shard_count):
            for kind in kinds:
                if rng.random() < rate:
                    schedule.setdefault(shard, []).append(kind)
        return cls(schedule, seed=seed)

    @classmethod
    def from_spec(cls, spec: Optional[str]) -> Optional["ChaosInjector"]:
        """The daemon's injector for a ``--chaos`` spec; None if empty."""
        if spec is None or not spec.strip():
            return None
        injector = cls({})
        injector.exits = parse_chaos_spec(spec)
        return injector

    def for_job(
        self, schedule: Mapping[int, Sequence[str]], seed: int = 0
    ) -> "ChaosInjector":
        """An injector for one job's ``schedule`` that also carries this
        injector's process deaths and counts visits in its counters, so
        ``kill:shard_done:5`` means the daemon's fifth shard."""
        job = ChaosInjector(schedule, seed=seed)
        job.exits = self.exits
        job._visits, job._visits_lock = self._visits, self._visits_lock
        return job

    # -- hook points --------------------------------------------------------

    def fires(self, shard: int, kind: str) -> bool:
        """True the first time ``kind`` is asked for on a shard that
        schedules it, False ever after."""
        if (
            kind not in self.schedule.get(shard, ())
            or (shard, kind) in self._fired
        ):
            return False
        self._fired.add((shard, kind))
        return True

    def visit(self, point: str, path: Optional[Path] = None) -> None:
        """Count a visit to ``point``; dies if a ``--chaos`` action is
        bound to this visit.  ``path`` is the journal segment a
        ``tear_journal`` action tears first."""
        with self._visits_lock:  # job threads share the counters
            count = self._visits[point] = self._visits.get(point, 0) + 1
        for action, at, nth in self.exits:
            if (at, nth) != (point, count):
                continue
            if action == "tear_journal" and path is not None and path.exists():
                # Tear mid-line: drop the final newline plus half the
                # last line, the signature of a crash mid-append.
                data = path.read_bytes()
                cut = data.rstrip(b"\n").rfind(b"\n")
                keep = max(cut + 1, len(data) - max(8, len(data) // 8))
                _truncate(path, max(keep, 1))
            os._exit(KILL_EXIT_CODE)

    def damage(self, path: Path, kind: str) -> None:
        """Apply ``torn_checkpoint`` or ``corrupt_byte`` to the snapshot
        at ``path``; both may hit one write, torn first."""
        if kind == "torn_checkpoint":
            share = float(self._rng.uniform(0.2, 0.8))
            _truncate(path, max(1, int(path.stat().st_size * share)))
            return
        data = bytearray(path.read_bytes())
        index = int(self._rng.integers(len(data)))
        data[index] ^= 1 << int(self._rng.integers(8))
        path.write_bytes(bytes(data))

    # -- bookkeeping --------------------------------------------------------

    @property
    def fired(self) -> Set[Tuple[int, str]]:
        return set(self._fired)

    def pending(self) -> Dict[int, Tuple[str, ...]]:
        """Scheduled faults that have not fired yet."""
        out: Dict[int, Tuple[str, ...]] = {}
        for shard, kinds in self.schedule.items():
            left = tuple(k for k in kinds if (shard, k) not in self._fired)
            if left:
                out[shard] = left
        return out
