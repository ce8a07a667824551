"""Asyncio HTTP/JSON front end for the scheduler service.

A deliberately small HTTP/1.1 server on ``asyncio.start_server`` — no
third-party web framework, connection-per-request (``Connection: close``),
JSON in and out.  Routes (see ``docs/service.md`` for curl examples):

========  =====================  ==========================================
method    path                   action
========  =====================  ==========================================
POST      ``/jobs``              submit a job spec (an arrival cycle follows)
GET       ``/jobs``              list all job records
GET       ``/jobs/<id>``         one job's lifecycle record
DELETE    ``/jobs/<id>``         request cancellation
GET       ``/status``            service summary
GET       ``/cycles``            recent per-cycle stats records
POST      ``/cluster/events``    ``{"action": "remove"|"add", "node": n}``
POST      ``/drain``             graceful drain; responds with final stats
GET       ``/healthz``           liveness probe
========  =====================  ==========================================
"""

from __future__ import annotations

import asyncio
import json
from typing import Any, Awaitable, Callable

from repro.errors import ReproError, ServiceError
from repro.service.service import SchedulerService, run_cycle_loop

_MAX_HEADER = 64 * 1024
_MAX_BODY = 4 * 1024 * 1024


class _HttpError(Exception):
    def __init__(self, status: int, message: str) -> None:
        self.status = status
        self.message = message
        super().__init__(message)


_REASONS = {200: "OK", 201: "Created", 400: "Bad Request", 404: "Not Found",
            405: "Method Not Allowed", 409: "Conflict",
            500: "Internal Server Error"}


def _response(status: int, payload: Any) -> bytes:
    body = json.dumps(payload, default=str).encode()
    reason = _REASONS.get(status, "Unknown")
    head = (f"HTTP/1.1 {status} {reason}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: close\r\n\r\n")
    return head.encode() + body


async def _read_request(reader: asyncio.StreamReader
                        ) -> tuple[str, str, dict[str, str], bytes]:
    raw = await reader.readuntil(b"\r\n\r\n")
    if len(raw) > _MAX_HEADER:
        raise _HttpError(400, "headers too large")
    head = raw.decode("latin-1").split("\r\n")
    try:
        method, target, _version = head[0].split(" ", 2)
    except ValueError:
        raise _HttpError(400, "malformed request line") from None
    headers: dict[str, str] = {}
    for line in head[1:]:
        if not line:
            continue
        name, _, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()
    length = int(headers.get("content-length", "0") or "0")
    if length > _MAX_BODY:
        raise _HttpError(400, "body too large")
    body = await reader.readexactly(length) if length else b""
    return method.upper(), target.split("?", 1)[0], headers, body


def _json_body(body: bytes) -> Any:
    if not body:
        raise _HttpError(400, "request body required")
    try:
        return json.loads(body)
    except json.JSONDecodeError as exc:
        raise _HttpError(400, f"invalid JSON body: {exc}") from None


class ServiceServer:
    """The HTTP server plus the cycle-timer task, with a drain lifecycle."""

    def __init__(self, service: SchedulerService, host: str = "127.0.0.1",
                 port: int = 0, cycle_s: float | None = None) -> None:
        self.service = service
        self.host = host
        self.port = port
        self.cycle_s = cycle_s
        self._server: asyncio.AbstractServer | None = None
        self._stop = asyncio.Event()
        self._cycle_task: asyncio.Task | None = None
        self._drained = asyncio.Event()

    async def start(self) -> "ServiceServer":
        self._server = await asyncio.start_server(self._handle, self.host,
                                                  self.port)
        self.port = self._server.sockets[0].getsockname()[1]
        self._cycle_task = asyncio.ensure_future(
            run_cycle_loop(self.service, self._stop, self.cycle_s))
        return self

    async def drain(self) -> dict[str, Any]:
        """Stop the timer, drain the service, release the listener."""
        self._stop.set()
        if self._cycle_task is not None:
            await self._cycle_task
        loop = asyncio.get_running_loop()
        final = await loop.run_in_executor(None, self.service.drain)
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        self._drained.set()
        return final

    async def wait_drained(self) -> None:
        await self._drained.wait()

    # -- request handling ----------------------------------------------------
    async def _handle(self, reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter) -> None:
        after = None
        try:
            try:
                method, path, _headers, body = await _read_request(reader)
                status, payload, after = await self._route(
                    method, path, body)
            except _HttpError as exc:
                status, payload = exc.status, {"error": exc.message}
            except (asyncio.IncompleteReadError, asyncio.LimitOverrunError):
                return
            except ServiceError as exc:
                status, payload = 400, {"error": str(exc)}
            except ReproError as exc:
                status, payload = 500, {"error": str(exc)}
            writer.write(_response(status, payload))
            await writer.drain()
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass
        if after is not None:
            # Once the response is on the wire: the full drain (the caller
            # sees the final stats, not a reset connection), or the arrival
            # cycle of the job just acknowledged.
            await after()

    async def _arrival_cycle(self) -> None:
        """One off-period cycle for the submission just acknowledged."""
        if self._stop.is_set():
            return
        try:
            await asyncio.get_running_loop().run_in_executor(
                None, self.service.run_one_cycle, True)  # arrival=True
        except Exception as exc:  # nobody waits for this cycle: record it
            self.service.cycle_failed("arrival", exc)

    async def _route(self, method: str, path: str, body: bytes
                     ) -> tuple[int, Any, Callable[[], Awaitable] | None]:
        svc = self.service
        loop = asyncio.get_running_loop()
        if path == "/healthz" and method == "GET":
            return 200, {"ok": True}, None
        if path == "/status" and method == "GET":
            return 200, svc.status(), None
        if path == "/cycles" and method == "GET":
            return 200, {"cycles": svc.cycles()}, None
        if path == "/jobs" and method == "GET":
            return 200, {"jobs": [r.to_dict() for r in svc.jobs()]}, None
        if path == "/jobs" and method == "POST":
            spec = _json_body(body)
            # Submission takes the service lock; keep the loop responsive.
            rec = await loop.run_in_executor(None, svc.submit_spec, spec)
            return 201, rec.to_dict(), self._arrival_cycle
        if path.startswith("/jobs/"):
            job_id = path[len("/jobs/"):]
            try:
                if method == "GET":
                    return 200, svc.job(job_id).to_dict(), None
                if method == "DELETE":
                    return 200, svc.cancel(job_id).to_dict(), None
            except ServiceError as exc:
                return 404, {"error": str(exc)}, None
            return 405, {"error": f"{method} not allowed on {path}"}, None
        if path == "/cluster/events" and method == "POST":
            spec = _json_body(body)
            if not isinstance(spec, dict):
                raise _HttpError(400, "event must be a JSON object")
            out = await loop.run_in_executor(
                None, svc.cluster_event,
                str(spec.get("action", "")), str(spec.get("node", "")))
            return 200, out, None
        if path == "/drain" and method == "POST":
            # Settle state under the service lock for the response body;
            # the listener itself is torn down post-response.
            final = await loop.run_in_executor(None, svc.drain)
            return 200, final, self.drain
        return 404, {"error": f"no route for {method} {path}"}, None


async def serve(service: SchedulerService, host: str = "127.0.0.1",
                port: int = 0, cycle_s: float | None = None) -> ServiceServer:
    """Start the HTTP API + cycle timer; returns the running server."""
    return await ServiceServer(service, host, port, cycle_s).start()


__all__ = ["ServiceServer", "serve"]
