"""Blocking HTTP client for the ``repro serve`` daemon.

Built on :mod:`http.client` so scripts, tests, and the CI chaos driver
can talk to the daemon without any dependency beyond the standard
library.  One :class:`ServiceClient` opens a fresh connection per call —
deliberately boring, so a daemon kill mid-request surfaces as an
ordinary :class:`ConnectionError` the caller retries, never a wedged
keep-alive socket.

:class:`Rejected` carries the 429/503 admission answers (including the
server's ``Retry-After``), keeping backpressure a typed outcome rather
than an exception-message string match.
"""

from __future__ import annotations

import http.client
import json
import socket
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Optional, Tuple

from ..errors import ServiceError
from .server import ENDPOINT_FILE

__all__ = ["Rejected", "ServiceClient", "read_endpoint"]


class Rejected(ServiceError):
    """The daemon refused admission (429 saturated / 503 draining)."""

    def __init__(self, status: int, message: str, retry_after_s: float):
        super().__init__(message)
        self.status = status
        self.retry_after_s = retry_after_s


@dataclass
class HttpReply:
    status: int
    headers: Dict[str, str]
    body: bytes

    def json(self) -> Dict[str, object]:
        return json.loads(self.body.decode("utf-8"))


def read_endpoint(state_dir) -> Tuple[str, int, int]:
    """(host, port, pid) from a state directory's discovery file."""
    path = Path(state_dir) / ENDPOINT_FILE
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as error:
        raise ServiceError(
            f"no usable endpoint file at {path}: {error}"
        ) from error
    return str(doc["host"]), int(doc["port"]), int(doc["pid"])


class ServiceClient:
    """Talk to one daemon at ``host:port``."""

    def __init__(self, host: str, port: int, *, timeout_s: float = 30.0):
        self.host = host
        self.port = port
        self.timeout_s = timeout_s

    @classmethod
    def from_state_dir(cls, state_dir, **kwargs) -> "ServiceClient":
        host, port, _pid = read_endpoint(state_dir)
        return cls(host, port, **kwargs)

    def _request(
        self,
        method: str,
        path: str,
        body: Optional[Dict[str, object]] = None,
    ) -> HttpReply:
        connection = http.client.HTTPConnection(
            self.host, self.port, timeout=self.timeout_s
        )
        try:
            payload = None
            headers = {}
            if body is not None:
                payload = json.dumps(body).encode("utf-8")
                headers["Content-Type"] = "application/json"
            connection.request(method, path, body=payload, headers=headers)
            response = connection.getresponse()
            return HttpReply(
                status=response.status,
                headers={
                    name.lower(): value
                    for name, value in response.getheaders()
                },
                body=response.read(),
            )
        finally:
            connection.close()

    # -- routes --------------------------------------------------------------

    def healthz(self) -> bool:
        try:
            return self._request("GET", "/healthz").status == 200
        except (ConnectionError, socket.timeout, OSError):
            return False

    def readyz(self) -> bool:
        try:
            return self._request("GET", "/readyz").status == 200
        except (ConnectionError, socket.timeout, OSError):
            return False

    def wait_ready(self, timeout_s: float = 30.0) -> None:
        deadline = time.monotonic() + timeout_s
        while time.monotonic() < deadline:
            if self.readyz():
                return
            time.sleep(0.05)
        raise ServiceError(
            f"daemon at {self.host}:{self.port} not ready "
            f"within {timeout_s:.0f}s"
        )

    def metrics_text(self) -> str:
        reply = self._request("GET", "/metrics")
        if reply.status != 200:
            raise ServiceError(f"/metrics answered {reply.status}")
        return reply.body.decode("utf-8")

    def submit(self, submission: Dict[str, object]) -> Dict[str, object]:
        """202 → ack dict ({job_id, state, seq}); 429/503 → Rejected;
        anything else → ServiceError."""
        reply = self._request("POST", "/submit", body=submission)
        if reply.status == 202:
            return reply.json()
        if reply.status in (429, 503):
            try:
                message = str(reply.json().get("error", ""))
            except ValueError:
                message = reply.body.decode("utf-8", "replace")
            raise Rejected(
                reply.status,
                message,
                float(reply.headers.get("retry-after", 1)),
            )
        raise ServiceError(
            f"/submit answered {reply.status}: "
            f"{reply.body.decode('utf-8', 'replace').strip()}"
        )

    def jobs(self) -> Dict[str, object]:
        reply = self._request("GET", "/jobs")
        if reply.status != 200:
            raise ServiceError(f"/jobs answered {reply.status}")
        return reply.json()

    def timeseries(
        self,
        name: Optional[str] = None,
        tier: Optional[str] = None,
        since: Optional[float] = None,
    ) -> Dict[str, object]:
        """Scrape history from ``/timeseries`` (name is a key prefix)."""
        params = []
        if name is not None:
            params.append(f"name={name}")
        if tier is not None:
            params.append(f"tier={tier}")
        if since is not None:
            params.append(f"since={since}")
        path = "/timeseries" + ("?" + "&".join(params) if params else "")
        reply = self._request("GET", path)
        if reply.status != 200:
            raise ServiceError(f"/timeseries answered {reply.status}")
        return reply.json()

    def alerts(self) -> Dict[str, object]:
        """Health-rule firing state from ``/alerts``."""
        reply = self._request("GET", "/alerts")
        if reply.status != 200:
            raise ServiceError(f"/alerts answered {reply.status}")
        return reply.json()

    def job(self, job_id: str) -> Optional[Dict[str, object]]:
        reply = self._request("GET", f"/jobs/{job_id}")
        if reply.status == 404:
            return None
        if reply.status != 200:
            raise ServiceError(f"/jobs/{job_id} answered {reply.status}")
        return reply.json()

    def verdict(self, job_id: str) -> Optional[Dict[str, object]]:
        """The verdict document once the job is done; None while pending.

        Raises :class:`ServiceError` for unknown jobs and failed jobs —
        a failed job will never produce a verdict, so polling on is
        pointless.
        """
        reply = self._request("GET", f"/verdicts/{job_id}")
        if reply.status == 404:
            raise ServiceError(f"job {job_id} is unknown to the daemon")
        if reply.status == 410:
            raise ServiceError(
                f"verdict for {job_id} was expired by the retention "
                f"policy; it will not come back"
            )
        if reply.status != 200:
            raise ServiceError(
                f"/verdicts/{job_id} answered {reply.status}"
            )
        doc = reply.json()
        status = doc.get("status")
        if status == "done":
            return doc
        if status == "failed":
            raise ServiceError(
                f"job {job_id} failed: {doc.get('error', 'unknown error')}"
            )
        return None

    def wait_verdict(
        self,
        job_id: str,
        *,
        timeout_s: float = 120.0,
        poll_s: float = 0.05,
    ) -> Dict[str, object]:
        """Poll until the verdict lands; tolerates the daemon dying and
        coming back mid-poll (connection errors are treated as
        not-yet)."""
        deadline = time.monotonic() + timeout_s
        while time.monotonic() < deadline:
            try:
                verdict = self.verdict(job_id)
            except (ConnectionError, socket.timeout, OSError):
                verdict = None
            if verdict is not None:
                return verdict
            time.sleep(poll_s)
        raise ServiceError(
            f"no verdict for {job_id} within {timeout_s:.0f}s"
        )
