"""Launch ``repro serve`` armed to die at exact points of its lifecycle.

The daemon carries no fault injection, so this launcher stages process
deaths from outside it.  It runs as a child process in place of
``python -m repro``::

    python tests/chaos/killpoints.py --kill kill:shard_done:2 \\
        serve --state-dir DIR --checkpoint-every 1

Before it hands everything after ``serve`` to :func:`repro.cli.main`,
it wraps product functions with *n*-th-visit counters that share one
lock, so the job threads' visits add up exactly.  An action bound to
a visit ends the process with ``os._exit(137)``: no atexit handlers
and no flushes, which is what SIGKILL leaves, but at a point an
external ``kill -9`` could only hit by luck.  Kill points:

* ``submit_pre_ack``  — before the ``submit`` journal append: the job
  is neither journaled nor acknowledged;
* ``submit_post_ack`` — after it: the entry is fsynced, the ack unsent;
* ``journal_append``  — after any journal append;
* ``shard_done``      — after a campaign step;
* ``checkpoint_done`` — right after a snapshot landed;
* ``drain``           — on entry to graceful drain.

Actions: ``kill`` dies; ``tear_journal`` first cuts the journal
segment's tail mid-line, the signature of a crash mid-append, then
dies.  ``--step-sleep SECONDS`` sleeps before every campaign step, so
a job stays in flight while a test signals the daemon.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.cli import main as repro_main
from repro.resilience import CheckpointStore, ResilientCampaign
from repro.service import JournalWriter
from repro.service.scheduler import CampaignScheduler

#: SIGKILL's wait-status exit code, which the kill tests expect.
KILL_EXIT_CODE = 137

POINTS = (
    "submit_pre_ack",
    "submit_post_ack",
    "journal_append",
    "shard_done",
    "checkpoint_done",
    "drain",
)
ACTIONS = ("kill", "tear_journal")

Action = Tuple[str, str, int]


def parse_kill_spec(spec: str) -> List[Action]:
    """``"kill:shard_done:5, tear_journal:journal_append:3"`` →
    ``[(action, point, nth), ...]``.  Every name is checked, so a typo
    fails the launch instead of silently never firing."""
    actions: List[Action] = []
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        pieces = part.split(":")
        if len(pieces) != 3:
            raise ValueError(f"kill spec {part!r} is not action:point:nth")
        action, point, nth_text = pieces
        if action not in ACTIONS:
            raise ValueError(f"unknown action {action!r}; known: {ACTIONS}")
        if point not in POINTS:
            raise ValueError(f"unknown kill point {point!r}; known: {POINTS}")
        try:
            nth = int(nth_text)
        except ValueError:
            raise ValueError(
                f"kill spec {part!r} has a non-integer visit count"
            ) from None
        if nth < 1:
            raise ValueError(f"kill spec {part!r} visit count must be >= 1")
        actions.append((action, point, nth))
    return actions


def tear_tail(path: Path) -> None:
    """Cut ``path`` mid-way through its last line, durably: the final
    newline goes with half the line, as a crash mid-append leaves it."""
    data = path.read_bytes()
    cut = data.rstrip(b"\n").rfind(b"\n")
    keep = max(1, cut + 1, len(data) - max(8, len(data) // 8))
    with open(path, "wb") as handle:
        handle.write(data[:keep])
        handle.flush()
        os.fsync(handle.fileno())


class KillPoints:
    """Visit counters shared by every thread of one daemon process."""

    def __init__(self, actions: List[Action]):
        self.actions = actions
        self.visits: Dict[str, int] = {}
        self._lock = threading.Lock()

    def visit(self, point: str, journal: Optional[Path] = None) -> None:
        """Count a visit to ``point``; die if an action is bound to it.
        ``journal`` is the segment a ``tear_journal`` action tears."""
        with self._lock:
            count = self.visits[point] = self.visits.get(point, 0) + 1
        for action, at, nth in self.actions:
            if (at, nth) != (point, count):
                continue
            if action == "tear_journal" and journal is not None:
                tear_tail(journal)
            os._exit(KILL_EXIT_CODE)


def install(points: KillPoints, step_sleep_s: float = 0.0) -> None:
    """Wrap the daemon's functions so that they visit ``points``."""
    append = JournalWriter.append
    save = CheckpointStore.save
    step = ResilientCampaign.step
    journal_append = CampaignScheduler._journal_append
    drain = CampaignScheduler.drain

    @functools.wraps(append)
    def counted_append(self, *args, **kwargs):
        seq = append(self, *args, **kwargs)
        points.visit("journal_append", journal=self.path)
        return seq

    @functools.wraps(save)
    def counted_save(self, payload):
        path = save(self, payload)
        points.visit("checkpoint_done")
        return path

    @functools.wraps(step)
    def counted_step(self):
        if step_sleep_s > 0:
            time.sleep(step_sleep_s)
        more = step(self)
        points.visit("shard_done")
        return more

    @functools.wraps(journal_append)
    def acked_append(self, kind, job_id, **data):
        if kind == "submit":
            points.visit("submit_pre_ack")
        seq = journal_append(self, kind, job_id, **data)
        if kind == "submit":
            points.visit("submit_post_ack")
        return seq

    @functools.wraps(drain)
    async def counted_drain(self):
        points.visit("drain")
        await drain(self)

    JournalWriter.append = counted_append
    CheckpointStore.save = counted_save
    ResilientCampaign.step = counted_step
    CampaignScheduler._journal_append = acked_append
    CampaignScheduler.drain = counted_drain


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--kill", default="", metavar="SPEC",
        help="comma-separated action:point:nth, e.g. kill:shard_done:2",
    )
    parser.add_argument(
        "--step-sleep", type=float, default=0.0, metavar="SECONDS",
        help="sleep before every campaign step (default 0)",
    )
    parser.add_argument(
        "command", nargs=argparse.REMAINDER,
        help="repro command line, starting with 'serve'",
    )
    args = parser.parse_args(argv)
    if args.command[:1] != ["serve"]:
        parser.error("the repro command line must start with 'serve'")
    install(KillPoints(parse_kill_spec(args.kill)), args.step_sleep)
    return repro_main(args.command)


if __name__ == "__main__":
    sys.exit(main())
