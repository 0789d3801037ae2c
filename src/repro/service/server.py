"""The HTTP/JSON surface of the valuation service (stdlib only).

Routes (see ``docs/service.md`` for the full reference with curl examples)::

    POST   /v1/jobs              submit a JobSpec            → 201 {job}
    GET    /v1/jobs              list jobs (?tenant=&status=) → 200 {jobs: [...]}
    GET    /v1/jobs/<id>         one job's status/result      → 200 {job}
    GET    /v1/jobs/<id>/stream  SSE of the job's events      → text/event-stream
    DELETE /v1/jobs/<id>         cancel                       → 200 {job_id, status}
    GET    /healthz              liveness + queue counts      → 200 {status: "ok"}
    GET    /metrics              Prometheus exposition        → 200 text/plain

Built on :class:`http.server.ThreadingHTTPServer`: one thread per in-flight
request, which the SSE endpoint relies on — a stream request parks its thread
in a replay+tail loop over the job's event log until the job is terminal (or
the client disconnects), while other requests proceed on their own threads.
Scheduling work never happens on request threads; they only read and write
the durable :class:`~repro.service.jobs.JobStore` through the
:class:`~repro.service.scheduler.ValuationService` facade.
"""

from __future__ import annotations

import json
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Tuple
from urllib.parse import parse_qs, urlparse

from repro.service.models import JobSpec
from repro.service.scheduler import ValuationService
from repro.service.stream import Heartbeat, follow_events, sse_frame
from repro.telemetry.names import SERVICE_HTTP_REQUESTS

#: SSE heartbeat cadence — frequent enough that a proxy or client can tell a
#: live-but-quiet stream from a dead one within a few seconds
STREAM_HEARTBEAT_SECONDS = 5.0


class ServiceHTTPServer(ThreadingHTTPServer):
    """ThreadingHTTPServer that carries the service facade for its handlers."""

    daemon_threads = True  # in-flight requests must not block process exit

    def __init__(self, address: Tuple[str, int], service: ValuationService) -> None:
        super().__init__(address, _Handler)
        self.service = service


class _Handler(BaseHTTPRequestHandler):
    """One HTTP request against the service facade.

    Handler instances are single-threaded and per-request; all shared state
    lives behind the facade's own synchronisation, so these methods hold no
    locks of their own.
    """

    protocol_version = "HTTP/1.1"
    server: ServiceHTTPServer

    # ------------------------------------------------------------------ #
    # Routing
    # ------------------------------------------------------------------ #
    def do_GET(self) -> None:  # noqa: N802 - BaseHTTPRequestHandler API
        service = self.server.service
        service.telemetry.count(SERVICE_HTTP_REQUESTS)
        url = urlparse(self.path)
        parts = [part for part in url.path.split("/") if part]
        if url.path == "/healthz":
            self._send_json(200, {"status": "ok", "jobs": service.counts()})
        elif url.path == "/metrics":
            self._send_text(200, service.metrics_text(), "text/plain; version=0.0.4")
        elif parts[:2] == ["v1", "jobs"] and len(parts) == 2:
            query = parse_qs(url.query)
            records = service.list_jobs(
                tenant=query.get("tenant", [None])[0],
                status=query.get("status", [None])[0],
            )
            self._send_json(
                200,
                {"jobs": [record.to_dict(include_result=False) for record in records]},
            )
        elif parts[:2] == ["v1", "jobs"] and len(parts) == 3:
            record = service.get(parts[2])
            if record is None:
                self._send_json(404, {"error": f"unknown job {parts[2]!r}"})
            else:
                self._send_json(200, record.to_dict())
        elif parts[:2] == ["v1", "jobs"] and len(parts) == 4 and parts[3] == "stream":
            self._stream_job(parts[2])
        else:
            self._send_json(404, {"error": f"no route for GET {url.path}"})

    def do_POST(self) -> None:  # noqa: N802 - BaseHTTPRequestHandler API
        service = self.server.service
        service.telemetry.count(SERVICE_HTTP_REQUESTS)
        parts = [part for part in urlparse(self.path).path.split("/") if part]
        if parts != ["v1", "jobs"]:
            self._send_json(404, {"error": f"no route for POST {self.path}"})
            return
        try:
            length = int(self.headers.get("Content-Length", 0))
            payload = json.loads(self.rfile.read(length) or b"{}")
            spec = JobSpec.from_dict(payload)
        except (ValueError, KeyError, TypeError) as error:
            # Anticipated client errors: malformed JSON, unknown fields, bad
            # algorithm/backend names.  Everything else is a server bug and
            # propagates to the 500 handler.
            self._send_json(400, {"error": str(error)})
            return
        try:
            record = service.submit(spec)
        except ValueError as error:  # a backend the service cannot run
            self._send_json(400, {"error": str(error)})
            return
        self._send_json(201, record.to_dict())

    def do_DELETE(self) -> None:  # noqa: N802 - BaseHTTPRequestHandler API
        service = self.server.service
        service.telemetry.count(SERVICE_HTTP_REQUESTS)
        parts = [part for part in urlparse(self.path).path.split("/") if part]
        if parts[:2] != ["v1", "jobs"] or len(parts) != 3:
            self._send_json(404, {"error": f"no route for DELETE {self.path}"})
            return
        status = service.cancel(parts[2])
        if status is None:
            self._send_json(404, {"error": f"unknown job {parts[2]!r}"})
        else:
            self._send_json(200, {"job_id": parts[2], "status": status})

    # ------------------------------------------------------------------ #
    # SSE streaming
    # ------------------------------------------------------------------ #
    def _stream_job(self, job_id: str) -> None:
        service = self.server.service
        record = service.get(job_id)
        if record is None:
            self._send_json(404, {"error": f"unknown job {job_id!r}"})
            return
        self.send_response(200)
        self.send_header("Content-Type", "text/event-stream")
        self.send_header("Cache-Control", "no-cache")
        # SSE has no content length; the stream ends when the job does.
        self.send_header("Connection", "close")
        self.end_headers()

        checker = _Terminal(service, job_id)
        heartbeat = Heartbeat(
            self._send_sse, STREAM_HEARTBEAT_SECONDS, extra={"job_id": job_id}
        )
        try:
            with heartbeat:
                for event in follow_events(
                    service.event_log_path(job_id), checker.check
                ):
                    heartbeat.touch()
                    self._send_sse(event)
        except (BrokenPipeError, ConnectionResetError):
            pass  # client went away; nothing to clean up beyond the socket

    def _send_sse(self, payload: dict) -> None:
        self.wfile.write(sse_frame(payload).encode("utf-8"))
        self.wfile.flush()

    # ------------------------------------------------------------------ #
    # Response helpers
    # ------------------------------------------------------------------ #
    def _send_json(self, code: int, payload: dict) -> None:
        self._send_text(code, json.dumps(payload, sort_keys=True), "application/json")

    def _send_text(self, code: int, body: str, content_type: str) -> None:
        data = body.encode("utf-8")
        self.send_response(code)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        try:
            self.wfile.write(data)
        except (BrokenPipeError, ConnectionResetError):
            pass  # client went away mid-response; the socket is torn down

    def log_message(self, format: str, *args: object) -> None:  # noqa: A002
        self.server.service.log(f"http: {self.address_string()} {format % args}")


class _Terminal:
    """Bound (service, job) terminality probe for the SSE tail loop."""

    def __init__(self, service: ValuationService, job_id: str) -> None:
        self._service = service
        self._job_id = job_id

    def check(self) -> bool:
        return self._service.job_finished(self._job_id)


def serve(
    service: ValuationService, host: str = "127.0.0.1", port: int = 8310
) -> ServiceHTTPServer:
    """Bind the HTTP server for *service* (call ``serve_forever`` yourself).

    Port 0 binds an ephemeral port; read it back from ``server_address``.
    """
    return ServiceHTTPServer((host, port), service)


__all__ = ["STREAM_HEARTBEAT_SECONDS", "ServiceHTTPServer", "serve"]
