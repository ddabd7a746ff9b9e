"""Minimal HTTP/1.1 surface of the ``repro serve`` daemon.

Hand-rolled on asyncio streams because the constraint set is narrow and
the dependency budget is zero: small JSON bodies, six routes, explicit
timeouts and size limits on everything a client controls.  The parser
rejects rather than guesses — an oversized body is 413, a malformed
request line 400, a slow or stalled client is cut off at the read
timeout.  Every response carries ``Connection`` handling honestly and
every request lands in the metrics registry as
``repro_service_http_requests_total{route,code}`` plus a latency
histogram, so the admission-control story is observable from the
``/metrics`` endpoint it also serves.

Routes::

    POST /submit          admit a campaign job (202 / 400 / 409 / 429 / 503)
    GET  /jobs            job table overview
    GET  /jobs/<id>       one job's state
    GET  /verdicts/<id>   poll for a finished job's verdict
    GET  /healthz         liveness (always 200 while the loop runs)
    GET  /readyz          readiness (503 while draining/booting)
    GET  /metrics         Prometheus exposition text
"""

from __future__ import annotations

import asyncio
import json
import time
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from ..errors import AdmissionError, CheckpointError, ConfigurationError
from ..obs import record_memory
from .scheduler import JOB_DONE, JOB_EXPIRED, JOB_FAILED, CampaignScheduler

__all__ = [
    "HttpRequest",
    "RequestError",
    "ServiceApi",
    "read_request",
    "render_response",
]

_MAX_REQUEST_LINE = 8 * 1024
_MAX_HEADER_BYTES = 32 * 1024

#: Exact-path routes, each its own metrics ``route`` label.
_ROUTES = frozenset(("/submit", "/jobs", "/healthz", "/readyz", "/metrics"))

_REASONS = {
    200: "OK",
    202: "Accepted",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    409: "Conflict",
    410: "Gone",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


@dataclass
class HttpRequest:
    method: str
    path: str
    headers: Dict[str, str] = field(default_factory=dict)
    body: bytes = b""

    @property
    def keep_alive(self) -> bool:
        return self.headers.get("connection", "").lower() != "close"


class RequestError(Exception):
    """A malformed/over-limit request, carrying the HTTP status to answer."""

    def __init__(self, status: int, message: str):
        super().__init__(message)
        self.status = status


async def _read_line(reader: asyncio.StreamReader, limit: int) -> bytes:
    line = await reader.readline()
    if len(line) > limit:
        raise RequestError(400, "header line too long")
    return line


async def read_request(
    reader: asyncio.StreamReader,
    *,
    max_body_bytes: int,
) -> Optional[HttpRequest]:
    """Parse one request; None on clean EOF (client closed keep-alive).

    Raises :class:`RequestError` with the HTTP status to answer for
    anything malformed or over limits.
    """
    request_line = await _read_line(reader, _MAX_REQUEST_LINE)
    if not request_line:
        return None
    try:
        method, target, version = (
            request_line.decode("ascii").strip().split(" ", 2)
        )
    except (UnicodeDecodeError, ValueError):
        raise RequestError(400, "malformed request line")
    if not version.startswith("HTTP/1."):
        raise RequestError(400, f"unsupported protocol {version!r}")
    headers: Dict[str, str] = {}
    header_bytes = 0
    while True:
        line = await _read_line(reader, _MAX_REQUEST_LINE)
        if line in (b"\r\n", b"\n", b""):
            break
        header_bytes += len(line)
        if header_bytes > _MAX_HEADER_BYTES:
            raise RequestError(400, "headers too large")
        try:
            name, _, value = line.decode("latin-1").partition(":")
        except UnicodeDecodeError:
            raise RequestError(400, "malformed header")
        headers[name.strip().lower()] = value.strip()
    body = b""
    length_text = headers.get("content-length")
    if length_text is not None:
        try:
            length = int(length_text)
        except ValueError:
            raise RequestError(400, "malformed Content-Length")
        if length < 0:
            raise RequestError(400, "negative Content-Length")
        if length > max_body_bytes:
            raise RequestError(
                413, f"body exceeds {max_body_bytes} byte limit"
            )
        if length:
            try:
                body = await reader.readexactly(length)
            except asyncio.IncompleteReadError:
                raise RequestError(400, "body shorter than Content-Length")
    elif headers.get("transfer-encoding"):
        raise RequestError(400, "chunked bodies are not supported")
    # No route reads a query string; it is dropped, not an error.
    path = target.partition("?")[0]
    return HttpRequest(method=method, path=path, headers=headers, body=body)


def render_response(
    status: int,
    body: bytes,
    *,
    content_type: str = "application/json",
    keep_alive: bool = True,
    extra_headers: Optional[Dict[str, str]] = None,
) -> bytes:
    reason = _REASONS.get(status, "Unknown")
    lines = [
        f"HTTP/1.1 {status} {reason}",
        f"Content-Type: {content_type}",
        f"Content-Length: {len(body)}",
        f"Connection: {'keep-alive' if keep_alive else 'close'}",
    ]
    for name, value in (extra_headers or {}).items():
        lines.append(f"{name}: {value}")
    return ("\r\n".join(lines) + "\r\n\r\n").encode("ascii") + body


def _json_body(obj: Dict[str, object]) -> bytes:
    return (json.dumps(obj, sort_keys=True) + "\n").encode("utf-8")


class ServiceApi:
    """Routes verified requests into the scheduler; pure of I/O."""

    def __init__(self, scheduler: CampaignScheduler, service, obs=None):
        self.scheduler = scheduler
        self.service = service
        self.obs = obs

    async def dispatch(
        self, request: HttpRequest
    ) -> Tuple[int, bytes, str, Dict[str, str]]:
        """(status, body, content_type, extra_headers) for one request."""
        started = time.monotonic()
        route = self._route_label(request.path)
        try:
            status, body, ctype, extra = await self._dispatch(request)
        except AdmissionError as error:
            extra = {}
            if error.retry_after_s is not None:
                extra["Retry-After"] = str(
                    max(1, int(round(error.retry_after_s)))
                )
            status, body, ctype = (
                error.status,
                _json_body({"error": str(error)}),
                "application/json",
            )
        except ConfigurationError as error:
            status, body, ctype, extra = (
                400, _json_body({"error": str(error)}), "application/json",
                {},
            )
        except CheckpointError as error:
            status, body, ctype, extra = (
                500, _json_body({"error": str(error)}), "application/json",
                {},
            )
        if self.obs is not None:
            self.obs.inc(
                "repro_service_http_requests_total",
                route=route, code=str(status),
            )
            self.obs.observe(
                "repro_service_http_request_seconds",
                time.monotonic() - started,
                route=route,
            )
        return status, body, ctype, extra

    @staticmethod
    def _route_label(path: str) -> str:
        # One label per route, per-job paths collapsed, and one label
        # for every path with no route, so label cardinality stays
        # bounded whatever clients request.
        if path in _ROUTES:
            return path
        for prefix in ("/jobs/", "/verdicts/"):
            if path.startswith(prefix):
                return prefix.rstrip("/")
        return "other"

    async def _dispatch(
        self, request: HttpRequest
    ) -> Tuple[int, bytes, str, Dict[str, str]]:
        method, path = request.method, request.path
        if path == "/healthz":
            if method != "GET":
                return self._method_not_allowed("GET")
            return 200, _json_body({"status": "ok"}), "application/json", {}
        if path == "/readyz":
            if method != "GET":
                return self._method_not_allowed("GET")
            ready, reason = self.service.readiness()
            doc = {"ready": ready}
            if not ready:
                doc["reason"] = reason
            return (
                200 if ready else 503, _json_body(doc),
                "application/json", {},
            )
        if path == "/metrics":
            if method != "GET":
                return self._method_not_allowed("GET")
            if self.obs is None:
                return 200, b"", "text/plain; version=0.0.4", {}
            # The process gauges are sampled per read, so they are as
            # fresh as the scraper asks for.
            record_memory(self.obs)
            self.obs.record_uptime()
            text = self.obs.metrics.to_prometheus_text()
            return (
                200, text.encode("utf-8"),
                "text/plain; version=0.0.4", {},
            )
        if path == "/submit":
            if method != "POST":
                return self._method_not_allowed("POST")
            try:
                body = json.loads(request.body.decode("utf-8"))
            except (ValueError, UnicodeDecodeError):
                raise ConfigurationError(
                    "submission body is not valid JSON"
                )
            record = await self.scheduler.submit(body)
            return (
                202,
                _json_body({
                    "job_id": record.job_id,
                    "state": record.state,
                    "seq": record.submitted_seq,
                }),
                "application/json",
                {},
            )
        if path == "/jobs":
            if method != "GET":
                return self._method_not_allowed("GET")
            return (
                200, _json_body(self.scheduler.jobs_overview()),
                "application/json", {},
            )
        if path.startswith("/jobs/"):
            if method != "GET":
                return self._method_not_allowed("GET")
            record = self.scheduler.job(path[len("/jobs/"):])
            if record is None:
                return self._not_found("no such job")
            return (
                200, _json_body(record.status_dict()),
                "application/json", {},
            )
        if path.startswith("/verdicts/"):
            if method != "GET":
                return self._method_not_allowed("GET")
            job_id = path[len("/verdicts/"):]
            record = self.scheduler.job(job_id)
            if record is None:
                return self._not_found("no such job")
            if record.state == JOB_DONE:
                verdict = self.scheduler.verdict(job_id)
                doc = {"status": JOB_DONE}
                doc.update(verdict or {})
                return 200, _json_body(doc), "application/json", {}
            if record.state == JOB_FAILED:
                return (
                    200,
                    _json_body({
                        "status": JOB_FAILED, "error": record.error,
                    }),
                    "application/json", {},
                )
            if record.state == JOB_EXPIRED:
                # The verdict existed and was garbage-collected by the
                # retention policy; 410 tells the client not to retry.
                return (
                    410,
                    _json_body({
                        "status": JOB_EXPIRED,
                        "error": "verdict expired by retention policy",
                    }),
                    "application/json", {},
                )
            return (
                200, _json_body({"status": record.state}),
                "application/json", {},
            )
        return self._not_found(f"no route for {path}")

    @staticmethod
    def _not_found(message: str):
        return (
            404, _json_body({"error": message}), "application/json", {},
        )

    @staticmethod
    def _method_not_allowed(allowed: str):
        return (
            405, _json_body({"error": f"use {allowed}"}),
            "application/json", {"Allow": allowed},
        )
