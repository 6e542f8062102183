"""Stdlib-only threaded HTTP front end for the scheduler service.

One :class:`~http.server.ThreadingHTTPServer` (a thread per
connection, HTTP/1.1 keep-alive) translating JSON requests into
:class:`~repro.service.core.SchedulerService` calls.  The handler is
deliberately thin: parse, dispatch, serialize — every scheduling
decision and every consistency concern lives behind the service's
single-writer op queue, so handler threads never hold scheduler state.

Routes (all under ``/v1``; see docs/SERVICE.md for the full reference):

====== ==================== ==========================================
Method Path                 Meaning
====== ==================== ==========================================
GET    /v1/health           liveness + mode (answered off-engine)
GET    /v1/state            snapshotable cluster-state document
GET    /v1/metrics          latency percentiles + counters
GET    /v1/jobs             every job record the service knows
GET    /v1/jobs/<id>        one job record (execution + promise)
POST   /v1/submit           ``{"jobs": [spec, ...]}`` → records
POST   /v1/cancel           ``{"job_id": N}`` → outcome + record
POST   /v1/advise           one job spec → placement recommendation
POST   /v1/advance          ``{"to": T|null}`` (replay mode only)
====== ==================== ==========================================

Errors are ``{"error": {"code", "message"}}`` with a meaningful HTTP
status; unknown routes 404; malformed JSON 400.
"""

from __future__ import annotations

import json
import signal
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, Optional, Tuple

from .core import SchedulerService
from .protocol import ProtocolError, error_envelope

__all__ = ["ServiceDaemon", "make_server"]

_MAX_BODY = 8 * 1024 * 1024  # 8 MiB: a ~10k-job submit fits comfortably


class _Handler(BaseHTTPRequestHandler):
    """Request translator; ``server.service`` is the SchedulerService."""

    protocol_version = "HTTP/1.1"
    server_version = "repro-sched"
    sys_version = ""

    # ------------------------------------------------------------------
    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        if getattr(self.server, "verbose", False):  # pragma: no cover
            super().log_message(format, *args)

    @property
    def service(self) -> SchedulerService:
        return self.server.service  # type: ignore[attr-defined]

    # ------------------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 - http.server API
        try:
            self._reply(200, self._route_get(self.path))
        except ProtocolError as exc:
            self._reply(exc.status, exc.to_dict())
        except Exception as exc:  # noqa: BLE001 - handler must not die
            self._reply(500, error_envelope("internal", str(exc)))

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        try:
            body = self._read_json()
            self._reply(200, self._route_post(self.path, body))
        except ProtocolError as exc:
            self._reply(exc.status, exc.to_dict())
        except Exception as exc:  # noqa: BLE001 - handler must not die
            self._reply(500, error_envelope("internal", str(exc)))

    # ------------------------------------------------------------------
    def _route_get(self, path: str) -> Dict[str, Any]:
        if path == "/v1/health":
            return self.service.health()
        if path == "/v1/state":
            return self.service.state()
        if path == "/v1/metrics":
            return self.service.metrics()
        if path == "/v1/jobs":
            return self.service.jobs()
        if path.startswith("/v1/jobs/"):
            return self.service.query(self._job_id(path[len("/v1/jobs/"):]))
        raise ProtocolError(404, "no_route", f"no GET route {path!r}")

    def _route_post(self, path: str, body: Any) -> Any:
        if path == "/v1/submit":
            if not isinstance(body, dict) or "jobs" not in body:
                raise ProtocolError(
                    400, "invalid_request", 'submit body is {"jobs": [spec, ...]}'
                )
            return {
                "jobs": self.service.submit(
                    body["jobs"], body.get("idempotency_key")
                )
            }
        if path == "/v1/cancel":
            if not isinstance(body, dict) or "job_id" not in body:
                raise ProtocolError(
                    400, "invalid_request", 'cancel body is {"job_id": N}'
                )
            return self.service.cancel(
                self._job_id(body["job_id"]), body.get("idempotency_key")
            )
        if path == "/v1/advise":
            return self.service.advise(body)
        if path == "/v1/advance":
            if not isinstance(body, dict):
                raise ProtocolError(
                    400, "invalid_request", 'advance body is {"to": T | null}'
                )
            return self.service.advance(body.get("to"))
        raise ProtocolError(404, "no_route", f"no POST route {path!r}")

    # ------------------------------------------------------------------
    @staticmethod
    def _job_id(raw: Any) -> int:
        if isinstance(raw, bool):
            raise ProtocolError(400, "invalid_request", "job_id must be an integer")
        if isinstance(raw, int):
            return raw
        try:
            return int(str(raw))
        except ValueError:
            raise ProtocolError(
                400, "invalid_request", f"job_id must be an integer, got {raw!r}"
            ) from None

    def _read_json(self) -> Any:
        raw_length = self.headers.get("Content-Length", 0) or 0
        try:
            length = int(raw_length)
        except ValueError:
            length = -1
        if length < 0:
            # No way to frame the body: answer, then drop the
            # connection rather than read the body as the next request
            # (``rfile.read(-1)`` would block until the client hangs up).
            self.close_connection = True
            raise ProtocolError(
                400,
                "bad_request",
                f"Content-Length must be a non-negative integer, got {raw_length!r}",
            )
        if length > _MAX_BODY:
            self.close_connection = True
            raise ProtocolError(413, "too_large", "request body exceeds 8 MiB")
        raw = self.rfile.read(length) if length else b""
        if not raw:
            return {}
        try:
            return json.loads(raw)
        except json.JSONDecodeError as exc:
            raise ProtocolError(400, "bad_json", f"malformed JSON body: {exc}") from exc

    def _reply(self, status: int, payload: Any) -> None:
        body = json.dumps(payload).encode()
        try:
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)
        except (BrokenPipeError, ConnectionResetError):  # pragma: no cover
            pass  # client went away mid-reply; nothing to salvage


def make_server(
    service: SchedulerService, host: str = "127.0.0.1", port: int = 0
) -> ThreadingHTTPServer:
    """Bind (but do not serve) an HTTP server for ``service``.

    ``port=0`` binds an ephemeral port — read it back from
    ``server.server_address``; tests and the load harness use that to
    avoid port collisions.
    """
    server = ThreadingHTTPServer((host, port), _Handler)
    server.daemon_threads = True
    # Replies are one small JSON write; Nagle + delayed ACK would add
    # a ~40ms stall per round trip, demolishing submission throughput.
    server.RequestHandlerClass.disable_nagle_algorithm = True
    server.service = service  # type: ignore[attr-defined]
    server.verbose = False  # type: ignore[attr-defined]
    return server


class ServiceDaemon:
    """Service + HTTP server with one start/stop lifecycle.

    The composition root: builds nothing itself, just owns the two
    threads (engine, accept loop) and tears them down in the right
    order — HTTP first so no new ops arrive, then the engine so every
    in-flight op resolves.
    """

    def __init__(
        self,
        service: SchedulerService,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self.service = service
        self._server = make_server(service, host, port)
        self._http_thread: Optional[threading.Thread] = None

    @property
    def address(self) -> Tuple[str, int]:
        host, port = self._server.server_address[:2]
        return str(host), int(port)

    @property
    def port(self) -> int:
        return self.address[1]

    @property
    def url(self) -> str:
        host, port = self.address
        return f"http://{host}:{port}"

    def start(self) -> "ServiceDaemon":
        self.service.start()
        self._http_thread = threading.Thread(
            target=self._server.serve_forever,
            name="sched-http",
            daemon=True,
        )
        self._http_thread.start()
        return self

    def stop(self) -> None:
        self._server.shutdown()
        self._server.server_close()
        if self._http_thread is not None:
            self._http_thread.join(timeout=10.0)
        self.service.stop()

    def serve_until_interrupt(self) -> None:  # pragma: no cover - CLI path
        """Foreground mode for ``repro serve``: block until Ctrl-C or
        SIGTERM.

        Both signals trigger the same graceful drain: the HTTP server
        stops accepting, the in-flight engine batch completes, a final
        checkpoint is written (durable services), and the process exits
        0 — so an orchestrator's ordinary ``SIGTERM`` never loses
        acknowledged state.
        """
        stop = threading.Event()
        previous = None
        try:
            previous = signal.signal(
                signal.SIGTERM, lambda signum, frame: stop.set()
            )
        except ValueError:
            pass  # not the main thread; Ctrl-C handling still works
        try:
            while not stop.is_set():
                stop.wait(3600)
        except KeyboardInterrupt:
            pass
        finally:
            if previous is not None:
                signal.signal(signal.SIGTERM, previous)
            self.stop()

    def __enter__(self) -> "ServiceDaemon":
        return self.start()

    def __exit__(self, *exc: Any) -> None:
        self.stop()
