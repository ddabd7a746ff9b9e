"""The always-on ``repro serve`` daemon.

:class:`ReproService` composes the journal-backed
:class:`~repro.service.scheduler.CampaignScheduler`, the
:class:`~repro.service.api.ServiceApi` router, and an asyncio stream
server into one process with a deliberate lifecycle:

1. **Recover** — replay the journal, verify verdicts, re-queue every
   unfinished job (all before the socket binds, so a ready daemon is a
   recovered daemon).
2. **Announce** — bind (``port=0`` picks a free port) and atomically
   write ``<state-dir>/endpoint.json`` with host/port/pid, the
   discovery file the chaos suite and operators poll.
3. **Serve** — keep-alive HTTP with per-request read timeouts; campaign
   shards execute on the scheduler's thread pool.
4. **Drain** — SIGTERM/SIGINT flip readiness to 503, stop admitting,
   finish or checkpoint in-flight shards, flush journal and metrics,
   then exit 0.  SIGKILL skips all of that by definition — which is
   fine, because step 1 exists.

A :class:`ServiceThread` wrapper runs the same daemon on a background
thread for in-process tests (no signals, same code paths).
"""

from __future__ import annotations

import asyncio
import json
import logging
import os
import signal
import threading
from pathlib import Path
from typing import Optional, Tuple

from ..errors import ServiceError
from ..obs import Observability, record_memory
from ..resilience.chaos import ChaosInjector
from ..sealed import atomic_write
from ..testing import build_library
from .api import ServiceApi, RequestError, read_request, render_response
from .scheduler import CampaignScheduler

__all__ = ["ENDPOINT_FILE", "ReproService", "ServiceThread"]

logger = logging.getLogger(__name__)

ENDPOINT_FILE = "endpoint.json"
METRICS_SNAPSHOT = "metrics.prom"


class ReproService:
    """One daemon instance bound to one state directory."""

    def __init__(
        self,
        state_dir,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        library=None,
        obs: Optional[Observability] = None,
        chaos: Optional[ChaosInjector] = None,
        max_queue: int = 64,
        max_active: int = 1,
        checkpoint_every: int = 2,
        job_timeout_s: Optional[float] = None,
        request_timeout_s: float = 10.0,
        max_body_bytes: int = 1 << 20,
        retry_after_s: float = 1.0,
        retain_verdicts=None,
    ):
        self.state_dir = Path(state_dir)
        self.state_dir.mkdir(parents=True, exist_ok=True)
        self.host = host
        self._requested_port = port
        self.obs = obs if obs is not None else Observability()
        self.chaos = chaos
        self.request_timeout_s = request_timeout_s
        self.max_body_bytes = max_body_bytes
        self.scheduler = CampaignScheduler(
            self.state_dir,
            library if library is not None else build_library(),
            max_queue=max_queue,
            max_active=max_active,
            checkpoint_every=checkpoint_every,
            job_timeout_s=job_timeout_s,
            retry_after_s=retry_after_s,
            retain_verdicts=retain_verdicts,
            obs=self.obs,
            chaos=chaos,
        )
        self.api = ServiceApi(self.scheduler, self, obs=self.obs)
        self._server: Optional[asyncio.base_events.Server] = None
        self._stop_requested: Optional[asyncio.Event] = None
        self._ready = False
        self._stopped = False

    # -- readiness -----------------------------------------------------------

    @property
    def port(self) -> int:
        if self._server is None:
            raise ServiceError("service is not started")
        return self._server.sockets[0].getsockname()[1]

    def readiness(self) -> Tuple[bool, str]:
        if not self._ready:
            return False, "recovering"
        if self.scheduler.draining:
            return False, "draining"
        return True, ""

    # -- lifecycle -----------------------------------------------------------

    async def start(self) -> None:
        """Recover, start workers, bind, and announce the endpoint."""
        self._stop_requested = asyncio.Event()
        self.obs.record_build_info()
        await self.scheduler.start()
        self._server = await asyncio.start_server(
            self._handle_connection,
            host=self.host,
            port=self._requested_port,
        )
        self._write_endpoint()
        self._ready = True
        logger.info(
            "repro serve listening on %s:%d (state %s, %d job(s) recovered)",
            self.host, self.port, self.state_dir,
            len(self.scheduler.pending_jobs()),
        )

    def _write_endpoint(self) -> None:
        doc = {"host": self.host, "port": self.port, "pid": os.getpid()}
        atomic_write(
            self.state_dir / ENDPOINT_FILE, (json.dumps(doc) + "\n").encode()
        )

    def request_stop(self) -> None:
        """Ask the daemon to drain and exit; safe from signal handlers."""
        if self._stop_requested is not None:
            self._stop_requested.set()

    async def wait_stop_requested(self) -> None:
        assert self._stop_requested is not None
        await self._stop_requested.wait()

    async def shutdown(self) -> None:
        """Graceful drain: scheduler first, then the listener, then
        telemetry.  Idempotent."""
        if self._stopped:
            return
        self._stopped = True
        self._ready = True  # liveness stays truthful; readiness says no
        await self.scheduler.drain()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        # Always leave a scrape-equivalent snapshot in the state dir so
        # post-mortems and CI have the final counters without a live
        # /metrics endpoint.
        record_memory(self.obs)
        self.obs.record_uptime()
        self.obs.metrics.save(self.state_dir / METRICS_SNAPSHOT)
        self.obs.close()
        try:
            (self.state_dir / ENDPOINT_FILE).unlink()
        except OSError:
            pass
        logger.info("repro serve drained cleanly")

    async def run(self, install_signal_handlers: bool = True) -> None:
        """``start()`` → wait for SIGTERM/SIGINT/``request_stop`` →
        ``shutdown()``.  The whole daemon, as one awaitable."""
        await self.start()
        if install_signal_handlers and threading.current_thread() is (
            threading.main_thread()
        ):
            loop = asyncio.get_running_loop()
            for signum in (signal.SIGTERM, signal.SIGINT):
                try:
                    loop.add_signal_handler(signum, self.request_stop)
                except (NotImplementedError, RuntimeError):
                    pass
        try:
            await self.wait_stop_requested()
        finally:
            await self.shutdown()

    # -- connection handling -------------------------------------------------

    async def _handle_connection(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        try:
            while True:
                try:
                    request = await asyncio.wait_for(
                        read_request(
                            reader, max_body_bytes=self.max_body_bytes
                        ),
                        timeout=self.request_timeout_s,
                    )
                except asyncio.TimeoutError:
                    # A stalled client gets a clean timeout if the
                    # socket is still writable, then the connection dies.
                    writer.write(render_response(
                        408, b"", keep_alive=False,
                    ))
                    break
                except RequestError as error:
                    writer.write(render_response(
                        error.status,
                        (json.dumps({"error": str(error)}) + "\n").encode(),
                        keep_alive=False,
                    ))
                    break
                if request is None:
                    break
                status, body, ctype, extra = await self.api.dispatch(request)
                keep_alive = request.keep_alive
                writer.write(render_response(
                    status, body,
                    content_type=ctype,
                    keep_alive=keep_alive,
                    extra_headers=extra,
                ))
                await writer.drain()
                if not keep_alive:
                    break
        except (ConnectionResetError, BrokenPipeError, asyncio.CancelledError):
            pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass


class ServiceThread:
    """Run a :class:`ReproService` on a daemon thread (test harness).

    Usage::

        with ServiceThread(tmp_path, library=library) as handle:
            client = ServiceClient("127.0.0.1", handle.port)
            ...

    ``stop()`` (or leaving the ``with`` block) performs the same
    graceful drain as SIGTERM on the standalone daemon.
    """

    def __init__(self, state_dir, **kwargs):
        self.service = ReproService(state_dir, **kwargs)
        self._thread = threading.Thread(
            target=self._main, name="repro-serve", daemon=True
        )
        self._started = threading.Event()
        self._error: Optional[BaseException] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None

    def _main(self) -> None:
        try:
            asyncio.run(self._amain())
        except BaseException as error:  # surfaced via start()
            self._error = error
            self._started.set()

    async def _amain(self) -> None:
        self._loop = asyncio.get_running_loop()
        await self.service.start()
        self._started.set()
        try:
            await self.service.wait_stop_requested()
        finally:
            await self.service.shutdown()

    def start(self) -> "ServiceThread":
        self._thread.start()
        if not self._started.wait(timeout=60):
            raise ServiceError("service thread did not start in time")
        if self._error is not None:
            raise ServiceError(
                f"service thread failed to start: {self._error}"
            ) from self._error
        return self

    @property
    def port(self) -> int:
        return self.service.port

    def stop(self, timeout: float = 60) -> None:
        if self._loop is not None and self._thread.is_alive():
            self._loop.call_soon_threadsafe(self.service.request_stop)
        self._thread.join(timeout=timeout)
        if self._thread.is_alive():
            raise ServiceError("service thread did not drain in time")

    def __enter__(self) -> "ServiceThread":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()
