"""Deterministic, supervised process-parallel mapping.

Per-CPU toolchain campaigns and coverage experiments are embarrassingly
parallel: each task owns its processor, its runner, and its substream.
:func:`deterministic_map` fans such tasks out over a
``ProcessPoolExecutor`` while keeping the results bit-identical to a
serial run:

* results are collected **in submission order**, so downstream
  aggregation sees the same sequence regardless of worker scheduling;
* tasks never share RNG state — callers seed each task from its index
  (e.g. ``substream(seed, "sweep", str(i))``), so the draw sequence of
  task *i* is independent of how many workers ran it;
* ``workers <= 1`` (or an unavailable ``fork``/pool) falls back to a
  plain serial loop, which is also the cheapest path for small inputs.

On top of the deterministic mapping sits a **supervisor**, because at
fleet scale the harness itself fails: workers are OOM-killed, items
flake, hosts stall.  The supervision ladder is

1. a worker-side failure is re-raised as
   :class:`~repro.errors.TransientWorkerError` carrying the failing
   item's index and repr (never a bare, context-free exception);
2. failed items are retried up to ``retries`` times with
   :class:`~repro.core.backoff.ExponentialBackoff` delays;
3. a broken pool (killed worker) or a per-item timeout degrades the
   remaining work to serial execution in the parent instead of
   crashing the sweep;
4. every fault, retry, and degradation is recorded on the optional
   ``health`` report (:class:`repro.resilience.CampaignHealthReport`).

Retries and degradation never change results: tasks are pure functions
of their payload, so re-running one — in a worker or in the parent —
yields the identical value.

The function accepts a module-level ``fn`` plus picklable task payloads.
An optional ``initializer`` runs once per worker process to build
expensive shared context (testcase libraries, catalogs) instead of
pickling it per task.
"""

from __future__ import annotations

import os
import signal
import sys
from concurrent.futures import ProcessPoolExecutor, TimeoutError as FutureTimeout
from concurrent.futures.process import BrokenProcessPool
from typing import Any, Callable, Iterable, List, Optional, Sequence, Tuple, TypeVar

from ..core.backoff import ExponentialBackoff
from ..errors import TransientWorkerError
from ..obs.context import observed_sleep

__all__ = ["default_workers", "deterministic_map"]

_T = TypeVar("_T")
_R = TypeVar("_R")

#: Event kinds mirrored from repro.resilience.health (duck-typed here to
#: keep this low-level module import-light).
_KIND_FAULT = "fault"
_KIND_RETRY = "retry"
_KIND_DEGRADATION = "degradation"


def default_workers(task_count: int | None = None) -> int:
    """A sensible worker count: *usable* CPUs, capped by the task count.

    ``os.cpu_count()`` reports the machine, not the process:
    containerized CI commonly pins a job to a CPU subset (cpuset), and
    sizing the pool to the host oversubscribes that allowance into
    context-switch thrash.  The scheduler affinity mask is the honest
    budget where the platform exposes it (Linux); elsewhere fall back to
    the CPU count.
    """
    try:
        workers = len(os.sched_getaffinity(0))
    except AttributeError:  # macOS/Windows: no affinity API
        workers = os.cpu_count() or 1
    if task_count is not None:
        workers = min(workers, task_count)
    return max(1, workers)


def _pool_worker_init(initializer, initargs) -> None:
    """Runs first in every pool worker: sever the signal plumbing
    inherited from the forked parent, then build the caller's context.

    A forked worker inherits the parent's Python signal handlers and,
    when the parent runs an asyncio loop, its ``signal.set_wakeup_fd``
    socket.  Left in place, a SIGTERM aimed at the *worker* (the
    executor delivers exactly that while tearing down a broken pool) is
    swallowed by the inherited no-op handler — the worker refuses to
    die and the executor joins it forever — while the signal byte lands
    in the *parent's* wakeup pipe, telling a serving daemon to drain
    when nobody asked it to.  Workers must own their signal fate:
    default SIGTERM (so teardown kills them), ignore SIGINT (a Ctrl-C
    is the parent's drain decision, not 2·N tracebacks), no wakeup fd.
    """
    try:
        signal.set_wakeup_fd(-1)
    except (ValueError, OSError):  # non-main thread or closed fd
        pass
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    # Die with the parent.  A worker blocked on the call-queue pipe
    # never sees EOF when the parent is SIGKILLed — every worker holds
    # both pipe ends, so the read blocks forever and each killed daemon
    # would strand its whole pool as orphans on init.  Linux can deliver
    # the parent's death as a signal instead.
    if sys.platform == "linux":
        try:
            import ctypes

            libc = ctypes.CDLL(None, use_errno=True)
            libc.prctl(1, signal.SIGTERM, 0, 0, 0)  # PR_SET_PDEATHSIG
        except (OSError, AttributeError):
            pass
        if os.getppid() == 1:  # parent died before prctl took effect
            os._exit(0)
    if initializer is not None:
        initializer(*initargs)


def _record(health, kind: str, detail: str, item: int | None = None) -> None:
    if health is not None:
        health.record(kind, detail, item=item)


def _chunk_runner(payload: Tuple[Callable, int, Sequence]) -> Tuple:
    """Worker-side chunk loop.

    Failures come back as a value, not a raised exception: exception
    pickling drops ``__cause__`` chains, and a descriptor lets the
    parent pinpoint the failing item while keeping the already-computed
    prefix of the chunk.
    """
    fn, base_index, items = payload
    results: List[Any] = []
    for offset, item in enumerate(items):
        try:
            results.append(fn(item))
        except Exception as error:  # noqa: BLE001 — descriptor, re-raised in parent
            return (
                "err",
                results,
                base_index + offset,
                repr(item),
                f"{type(error).__name__}: {error}",
            )
    return ("ok", results)


def _run_item_supervised(
    fn: Callable[[_T], _R],
    item: _T,
    index: int,
    *,
    retries: int,
    backoff: ExponentialBackoff,
    health,
    failures: int = 0,
    last_error: str = "",
    obs=None,
) -> _R:
    """Run one item in the current process, retrying with backoff.

    ``failures`` counts attempts already burned elsewhere (e.g. in a
    worker process) so the retry budget is global per item.
    """
    while True:
        if failures > 0:
            if failures > retries:
                raise TransientWorkerError(
                    f"task {index} ({last_error}) failed "
                    f"{failures} time(s); retry budget is {retries}",
                    item_index=index,
                    item_repr=repr(item),
                    attempts=failures,
                )
            delay = backoff.delay_s(failures, f"item-{index}")
            _record(
                health,
                _KIND_RETRY,
                f"retry {failures}/{retries} after {last_error} "
                f"(backoff {delay:.3f}s)",
                item=index,
            )
            if obs is not None:
                obs.inc("repro_retry_total", scope="item")
            observed_sleep(obs, delay, "item_retry")
        try:
            return fn(item)
        except Exception as error:  # noqa: BLE001
            failures += 1
            last_error = f"{type(error).__name__}: {error}"
            _record(health, _KIND_FAULT, last_error, item=index)
            if failures > retries:
                raise TransientWorkerError(
                    f"task {index} failed {failures} time(s): {last_error} "
                    f"(item {item!r})",
                    item_index=index,
                    item_repr=repr(item),
                    attempts=failures,
                ) from error


def _serial_map(
    fn: Callable[[_T], _R],
    tasks: Sequence[_T],
    start: int,
    *,
    retries: int,
    backoff: ExponentialBackoff,
    health,
    out: List[_R],
    obs=None,
) -> List[_R]:
    for offset, item in enumerate(tasks):
        out.append(
            _run_item_supervised(
                fn, item, start + offset,
                retries=retries, backoff=backoff, health=health, obs=obs,
            )
        )
    return out


def deterministic_map(
    fn: Callable[[_T], _R],
    tasks: Sequence[_T],
    *,
    workers: int | None = None,
    initializer: Callable[..., Any] | None = None,
    initargs: Iterable[Any] = (),
    chunksize: int | None = None,
    retries: int = 0,
    timeout_s: float | None = None,
    backoff: Optional[ExponentialBackoff] = None,
    health=None,
    obs=None,
) -> list[_R]:
    """Map ``fn`` over ``tasks``, returning results in task order.

    The output is independent of ``workers``: parallelism changes only
    wall-clock time, never the result.  Falls back to a serial loop when
    ``workers`` resolves to 1, when there are at most 2 tasks, or when a
    process pool cannot be created (restricted environments).

    Supervision (all optional):

    * ``retries`` — per-item retry budget; a worker-side failure counts
      as the first attempt and remaining attempts run in the parent.
      When the budget is exhausted the failure is re-raised as
      :class:`TransientWorkerError` naming the item's index and repr.
    * ``timeout_s`` — per-item time allowance.  A chunk that exceeds
      ``timeout_s × len(chunk)`` is abandoned (its pool is shut down
      without waiting) and the remaining work degrades to serial
      execution; a wedged *function* will still hang the serial pass,
      which is what CI-level global timeouts are for.
    * ``backoff`` — delay schedule between retries (defaults to a
      deterministic ~50 ms-base exponential).
    * ``health`` — a ``CampaignHealthReport`` to receive fault/retry/
      degradation events.

    Any failure that makes the pool untrustworthy (creation error,
    broken pool, chunk timeout) degrades the rest of the map to serial
    execution in the parent: results stay identical, only wall-clock
    changes.
    """
    if retries < 0:
        raise ValueError("retries must be >= 0")
    if timeout_s is not None and timeout_s <= 0:
        raise ValueError("timeout_s must be positive")
    tasks = list(tasks)
    if workers is None:
        workers = default_workers(len(tasks))
    workers = max(1, min(workers, len(tasks))) if tasks else 1
    backoff = backoff or ExponentialBackoff(base_s=0.05, cap_s=2.0)
    initargs = tuple(initargs)
    parent_ready = False

    def ensure_parent_context() -> None:
        # Parent-side execution (serial mode, retries, degraded tails)
        # needs the worker context too; build it lazily, at most once.
        nonlocal parent_ready
        if not parent_ready and initializer is not None:
            initializer(*initargs)
        parent_ready = True

    def serial(chunk: Sequence[_T], start: int, out: List[_R]) -> List[_R]:
        ensure_parent_context()
        return _serial_map(
            fn, chunk, start,
            retries=retries, backoff=backoff, health=health,
            out=out, obs=obs,
        )

    if workers <= 1 or len(tasks) <= 2:
        return serial(tasks, 0, [])
    try:
        pool = ProcessPoolExecutor(
            max_workers=workers,
            initializer=_pool_worker_init,
            initargs=(initializer, initargs),
        )
    except (OSError, PermissionError, ValueError) as error:
        # Sandboxes without /dev/shm or fork support.
        _record(
            health, _KIND_DEGRADATION,
            f"process pool unavailable "
            f"({type(error).__name__}: {error}); running serially",
        )
        return serial(tasks, 0, [])
    if chunksize is None:
        chunksize = max(1, len(tasks) // (workers * 4))
    chunks: List[Tuple[int, List[_T]]] = [
        (start, tasks[start:start + chunksize])
        for start in range(0, len(tasks), chunksize)
    ]
    degraded = False

    def abandon_pool() -> None:
        # Outstanding futures are cancelled and the processes abandoned
        # without waiting; the rest of the map runs in the parent.
        nonlocal degraded
        degraded = True
        pool.shutdown(wait=False, cancel_futures=True)

    try:
        try:
            futures = [
                pool.submit(_chunk_runner, (fn, start, chunk))
                for start, chunk in chunks
            ]
        except RuntimeError:
            # Pool was closed underneath us (shutdown raced); degrade.
            abandon_pool()
            return serial(tasks, 0, [])

        results: List[_R] = []
        for future, (start, chunk) in zip(futures, chunks):
            if degraded:
                serial(chunk, start, results)
                continue
            chunk_timeout = (
                timeout_s * len(chunk) if timeout_s is not None else None
            )
            try:
                outcome = future.result(timeout=chunk_timeout)
            except FutureTimeout:
                reason = f"chunk at {start} exceeded {chunk_timeout:.1f}s"
                _record(health, _KIND_FAULT, f"timeout: {reason}", item=start)
                _record(
                    health, _KIND_DEGRADATION,
                    "pool abandoned after timeout; remaining tasks run "
                    "serially",
                )
                abandon_pool()
                serial(chunk, start, results)
                continue
            except BrokenProcessPool:
                _record(
                    health, _KIND_FAULT,
                    f"process pool broke (worker died) while waiting on "
                    f"chunk at {start}",
                    item=start,
                )
                _record(
                    health, _KIND_DEGRADATION,
                    "remaining tasks run serially in the parent",
                )
                abandon_pool()
                serial(chunk, start, results)
                continue
            if outcome[0] == "ok":
                results.extend(outcome[1])
                continue
            # Worker-side item failure: keep the chunk's computed
            # prefix, charge the failure against the item's retry
            # budget, and finish the chunk in the parent.
            _, prefix, fail_index, item_repr, cause = outcome
            results.extend(prefix)
            _record(
                health, _KIND_FAULT,
                f"worker failure on task {fail_index} ({item_repr}): {cause}",
                item=fail_index,
            )
            ensure_parent_context()
            results.append(
                _run_item_supervised(
                    fn, tasks[fail_index], fail_index,
                    retries=retries, backoff=backoff, health=health,
                    failures=1, last_error=cause, obs=obs,
                )
            )
            remainder_start = fail_index + 1
            serial(
                tasks[remainder_start:start + len(chunk)],
                remainder_start, results,
            )
        return results
    finally:
        if not degraded:
            pool.shutdown(wait=True, cancel_futures=True)
