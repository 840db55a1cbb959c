"""HTTP serving tier: wire protocol v1 over plain asyncio sockets.

The ROADMAP's north star is a service millions of users can actually hit,
and until now the only long-lived surface was a JSONL stdin/stdout session.
:class:`HttpServer` is the network transport on top of
:class:`~repro.api.AsyncJuryService`: a small, dependency-free HTTP/1.1
server built on :func:`asyncio.start_server` that multiplexes every
connection into the existing coalescing drainer — concurrent HTTP clients
get exactly the batch-kernel throughput the async façade already provides,
and exactly the bit-identical answers (the transport changes nothing about
*what* runs, only how requests arrive).

Endpoints (all bodies are JSON; protocol shapes from :mod:`repro.api`):

``POST /v1/select``
    One :class:`~repro.api.SelectionRequest` wire object in, one
    :class:`~repro.api.SelectionResponse` wire object out.  Domain failures
    (infeasible budget, unknown pool, …) come back as HTTP 200 with a
    ``status: "error"`` envelope — the RPC itself succeeded; malformed
    payloads are HTTP 400 with a structured ``error`` body.
``POST /v1/select_many``
    ``{"requests": [...]}`` in, ``{"v": 1, "responses": [...]}`` out, input
    order preserved.  The batch rides the same coalescing queue.
``POST /v1/pool``
    One :class:`~repro.api.PoolCommand` wire object; answers the registry
    acknowledgement.  Unknown pools are 404, invalid commands 400.
``GET /v1/stats``
    The service's lock-free counter snapshot plus transport counters —
    never waits on the engine lock, so it stays answerable during a long
    exact-enumeration batch.  Surfaces in-pass profile reuse (``cache``),
    the planner's memoised choice, and the named pools' answer-frontier
    hit/miss/build counts (``frontier`` + ``engine.frontier_hits``).
``GET /healthz``
    Pure liveness: counters only, no engine, no locks, no threads.

**Backpressure.**  Two bounds, both returning structured HTTP 503
(``error.code == "overloaded"``) instead of queueing unboundedly: at most
``max_connections`` simultaneous connections are served, and a selection
arriving while the service's pending queue (``max_pending``) is full is
shed rather than suspended.

**Graceful shutdown.**  :meth:`HttpServer.aclose` (the SIGTERM path of the
``repro-select http`` CLI) stops accepting, closes idle keep-alive
connections, lets every in-flight request finish, and drains the service
through :meth:`AsyncJuryService.aclose` — no abandoned futures.
"""

from __future__ import annotations

import asyncio
import json
from collections.abc import Mapping

from repro.api.aio import AsyncJuryService
from repro.api.protocol import (
    ErrorInfo,
    PoolCommand,
    PROTOCOL_VERSION,
    SelectionRequest,
)
from repro.errors import (
    OverloadedError,
    PoolNotFoundError,
    ProtocolError,
    ReproError,
    ServiceClosedError,
)

__all__ = ["HttpServer", "http_call"]

#: Default bound on simultaneously served connections; further clients get
#: an immediate structured 503 instead of growing an unbounded accept queue.
DEFAULT_MAX_CONNECTIONS = 512

#: Default cap on one request body (a 1M-candidate inline pool is ~60 MB of
#: JSON; anything bigger belongs in the registry, not on every request).
DEFAULT_MAX_BODY_BYTES = 16 * 1024 * 1024

_MAX_HEADER_LINES = 100

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    431: "Request Header Fields Too Large",
    500: "Internal Server Error",
    501: "Not Implemented",
    503: "Service Unavailable",
}


class _HttpError(Exception):
    """A transport-level failure with its HTTP status and wire error body."""

    def __init__(self, status: int, info: ErrorInfo) -> None:
        super().__init__(info.message)
        self.status = status
        self.info = info


def _error_payload(info: ErrorInfo) -> dict:
    """The structured error envelope every failure body carries."""
    return {"v": PROTOCOL_VERSION, "status": "error", "error": info.to_dict()}


async def http_call(
    reader: asyncio.StreamReader,
    writer: asyncio.StreamWriter,
    method: str,
    path: str,
    payload: Mapping | None = None,
) -> tuple[int, dict]:
    """One HTTP/1.1 JSON request over an open client connection.

    The client half of the protocol, shared by the tests, the load
    benchmark and the quickstart example; the connection stays usable for
    the next call (keep-alive).  Returns ``(status, decoded_body)``.
    """
    body = b"" if payload is None else json.dumps(payload).encode("utf-8")
    head = (
        f"{method} {path} HTTP/1.1\r\n"
        "Host: repro\r\n"
        "Content-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n"
        "\r\n"
    )
    writer.write(head.encode("ascii") + body)
    await writer.drain()
    status_line = await reader.readline()
    if not status_line:
        raise ConnectionError("server closed the connection")
    status = int(status_line.split()[1])
    length = 0
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b"\n"):
            break
        if not line:
            raise ConnectionError("connection closed inside response headers")
        name, _, value = line.decode("latin-1").partition(":")
        if name.strip().lower() == "content-length":
            length = int(value.strip())
    raw = await reader.readexactly(length) if length else b""
    return status, (json.loads(raw) if raw else {})


class HttpServer:
    """Asyncio HTTP transport over an :class:`AsyncJuryService`.

    Parameters
    ----------
    service:
        The async service to serve; one is built from ``service_options``
        (forwarded to :class:`AsyncJuryService`) if omitted.
    host / port:
        Bind address.  ``port=0`` binds an ephemeral port; read it back
        from :attr:`port` after :meth:`start`.
    max_connections:
        Simultaneous-connection bound; beyond it new connections receive an
        immediate structured 503 and are closed.
    max_body_bytes:
        Largest accepted request body (413 beyond it).
    **service_options:
        Forwarded to :class:`AsyncJuryService` when no service is given —
        ``max_batch``, ``max_pending``, and :class:`JuryService`'s
        ``data_dir``.

    Examples
    --------
    >>> import asyncio
    >>> from repro.api.server import HttpServer, http_call
    >>> async def demo():
    ...     async with HttpServer(port=0) as server:
    ...         reader, writer = await asyncio.open_connection(
    ...             server.host, server.port)
    ...         status, body = await http_call(reader, writer, "GET", "/healthz")
    ...         writer.close()
    ...         return status, body["ok"]
    >>> asyncio.run(demo())
    (200, True)
    """

    def __init__(
        self,
        service: AsyncJuryService | None = None,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        max_connections: int = DEFAULT_MAX_CONNECTIONS,
        max_body_bytes: int = DEFAULT_MAX_BODY_BYTES,
        **service_options,
    ) -> None:
        if service is not None and service_options:
            raise ValueError("pass either a service or service options, not both")
        if max_connections < 1:
            raise ValueError(f"max_connections must be >= 1, got {max_connections}")
        self._service = (
            service if service is not None else AsyncJuryService(**service_options)
        )
        self._bind_host = host
        self._bind_port = port
        self._max_connections = max_connections
        self._max_body_bytes = max_body_bytes
        self._server: asyncio.Server | None = None
        self._host: str | None = None
        self._port: int | None = None
        self._closing = False
        self._closed = False
        #: Live connection records: handler task -> {"writer", "busy"}.
        self._connections: dict[asyncio.Task, dict] = {}
        self._requests_served = 0
        self._rejected = 0
        self._routes: dict[str, tuple[str, object]] = {
            "/v1/select": ("POST", self._route_select),
            "/v1/select_many": ("POST", self._route_select_many),
            "/v1/pool": ("POST", self._route_pool),
            "/v1/stats": ("GET", self._route_stats),
            "/healthz": ("GET", self._route_healthz),
        }

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> "HttpServer":
        """Bind and start accepting connections."""
        if self._server is not None:
            raise RuntimeError("server already started")
        self._server = await asyncio.start_server(
            self._serve_connection, self._bind_host, self._bind_port
        )
        sockname = self._server.sockets[0].getsockname()
        self._host, self._port = sockname[0], sockname[1]
        return self

    async def serve_forever(self) -> None:
        """Serve until :meth:`aclose` (or task cancellation) stops us."""
        assert self._server is not None, "call start() first"
        try:
            await self._server.serve_forever()
        except asyncio.CancelledError:
            if not self._closing:
                raise

    async def aclose(self) -> None:
        """Graceful shutdown: drain in-flight work, reap every resource.

        Stops accepting, closes idle keep-alive connections, waits for
        in-flight requests to answer, then drains and closes the wrapped
        service.  Idempotent.
        """
        if self._closed:
            return
        self._closing = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        # Idle keep-alive connections are parked on readline(); closing the
        # transport EOFs them out of the loop.  Busy ones finish their
        # in-flight response first — their handler exits because _closing.
        for record in list(self._connections.values()):
            if not record["busy"]:
                record["writer"].close()
        if self._connections:
            await asyncio.gather(
                *self._connections.keys(), return_exceptions=True
            )
        await self._service.aclose()
        self._closed = True

    async def __aenter__(self) -> "HttpServer":
        return await self.start()

    async def __aexit__(self, *exc_info) -> None:
        await self.aclose()

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def service(self) -> AsyncJuryService:
        """The wrapped async service."""
        return self._service

    @property
    def host(self) -> str:
        """Bound host (after :meth:`start`)."""
        assert self._host is not None, "call start() first"
        return self._host

    @property
    def port(self) -> int:
        """Bound port (after :meth:`start`; useful with ``port=0``)."""
        assert self._port is not None, "call start() first"
        return self._port

    @property
    def address(self) -> str:
        """``http://host:port`` of the bound listener."""
        return f"http://{self.host}:{self.port}"

    @property
    def connections(self) -> int:
        """Currently served connections."""
        return len(self._connections)

    # ------------------------------------------------------------------
    # connection handling
    # ------------------------------------------------------------------
    async def _serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        if self._closing or len(self._connections) >= self._max_connections:
            self._rejected += 1
            try:
                await self._write_response(
                    writer,
                    503,
                    _error_payload(
                        ErrorInfo(
                            code="overloaded",
                            message=(
                                "server draining"
                                if self._closing
                                else f"connection limit {self._max_connections} reached"
                            ),
                        )
                    ),
                    keep_alive=False,
                )
            except (ConnectionError, OSError):
                pass
            finally:
                writer.close()
            return
        task = asyncio.current_task()
        assert task is not None
        record = {"writer": writer, "busy": False}
        self._connections[task] = record
        try:
            while True:
                record["busy"] = False
                try:
                    request = await self._read_request(reader)
                except _HttpError as exc:
                    record["busy"] = True
                    await self._write_response(
                        writer, exc.status, _error_payload(exc.info), keep_alive=False
                    )
                    break
                if request is None:  # client EOF / disconnect
                    break
                record["busy"] = True
                method, path, headers, body = request
                status, payload = await self._dispatch(method, path, body)
                self._requests_served += 1
                keep_alive = (
                    headers.get("connection", "").lower() != "close"
                    and not self._closing
                )
                await self._write_response(
                    writer, status, payload, keep_alive=keep_alive
                )
                if not keep_alive:
                    break
        except (ConnectionError, OSError):
            pass  # client went away; nothing to answer
        finally:
            self._connections.pop(task, None)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> tuple[str, str, dict, bytes] | None:
        """Parse one request; ``None`` on clean disconnect, 4xx via _HttpError."""

        def bad(message: str, status: int = 400) -> _HttpError:
            return _HttpError(status, ErrorInfo(code="bad-request", message=message))

        try:
            line = await reader.readline()
        except (asyncio.LimitOverrunError, ValueError) as exc:
            raise bad("request line too long") from exc
        except (ConnectionError, asyncio.IncompleteReadError):
            return None
        if not line:
            return None
        parts = line.decode("latin-1").strip().split()
        if len(parts) != 3 or not parts[2].upper().startswith("HTTP/"):
            raise bad("malformed HTTP request line")
        method, target = parts[0].upper(), parts[1]
        headers: dict[str, str] = {}
        for _ in range(_MAX_HEADER_LINES):
            try:
                line = await reader.readline()
            except (asyncio.LimitOverrunError, ValueError) as exc:
                raise bad("header line too long", status=431) from exc
            if line in (b"\r\n", b"\n"):
                break
            if not line:
                return None  # disconnect inside headers
            name, sep, value = line.decode("latin-1").partition(":")
            # RFC 9112 §5.1: no whitespace in or around a field name, so a
            # proxy and this server cannot read different names.
            if not sep or name.split() != [name]:
                raise bad(f"malformed header line {line!r}")
            name = name.lower()
            # RFC 9112 §6.3: a second length could frame the body differently
            # for a proxy that reads the first one (request smuggling).
            if name == "content-length" and name in headers:
                raise bad("repeated Content-Length")
            headers[name] = value.strip()
        else:
            raise bad("too many header lines", status=431)
        if "transfer-encoding" in headers:
            raise bad("chunked request bodies are not supported", status=501)
        # ASCII digits only: int() would also take "-5", "+3" and "1_0".
        declared = headers.get("content-length", "0")
        if not (declared.isascii() and declared.isdigit()):
            raise bad("invalid Content-Length")
        length = int(declared)
        if length > self._max_body_bytes:
            raise bad(
                f"request body of {length} bytes exceeds the "
                f"{self._max_body_bytes}-byte limit",
                status=413,
            )
        try:
            body = await reader.readexactly(length) if length else b""
        except (asyncio.IncompleteReadError, ConnectionError):
            return None
        return method, target, headers, body

    async def _write_response(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        payload: Mapping | str,
        *,
        keep_alive: bool,
    ) -> None:
        """Write one response; ``payload`` is a JSON object or its text."""
        text = payload if isinstance(payload, str) else json.dumps(payload)
        body = text.encode("utf-8")
        head = (
            f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: {'keep-alive' if keep_alive else 'close'}\r\n"
            "\r\n"
        )
        writer.write(head.encode("ascii") + body)
        await writer.drain()

    # ------------------------------------------------------------------
    # dispatch + routes
    # ------------------------------------------------------------------
    async def _dispatch(
        self, method: str, path: str, body: bytes
    ) -> tuple[int, dict | str]:
        """Route one request; every failure becomes a structured error body."""
        route = self._routes.get(path.split("?", 1)[0])
        if route is None:
            return 404, _error_payload(
                ErrorInfo(code="not-found", message=f"no route {path!r}")
            )
        allowed, handler = route
        if method != allowed:
            return 405, _error_payload(
                ErrorInfo(
                    code="bad-request",
                    message=f"{path} expects {allowed}, got {method}",
                )
            )
        try:
            return await handler(body)
        except _HttpError as exc:
            return exc.status, _error_payload(exc.info)
        except (ServiceClosedError, OverloadedError) as exc:
            return 503, _error_payload(ErrorInfo.from_exception(exc))
        except PoolNotFoundError as exc:
            return 404, _error_payload(ErrorInfo.from_exception(exc))
        except (ProtocolError, ReproError, TypeError, ValueError) as exc:
            return 400, _error_payload(ErrorInfo.from_exception(exc))
        except Exception as exc:  # noqa: BLE001 — the 500 of last resort
            return 500, _error_payload(ErrorInfo.from_exception(exc))

    def _json_body(self, body: bytes, where: str) -> Mapping:
        if not body:
            raise ProtocolError(
                f"{where}: request needs a JSON object body",
                detail={"where": where},
            )
        try:
            obj = json.loads(body)
        except json.JSONDecodeError as exc:
            raise _HttpError(
                400,
                ErrorInfo(
                    code="invalid-json",
                    message=f"{where}: invalid JSON: {exc.msg}",
                    detail={"where": where},
                ),
            ) from exc
        if not isinstance(obj, Mapping):
            raise ProtocolError(
                f"{where}: request body must be a JSON object, "
                f"got {type(obj).__name__}",
                detail={"where": where},
            )
        return obj

    def _shed_if_saturated(self) -> None:
        """The pending-queue half of backpressure: shed instead of suspend."""
        if self._service.saturated:
            raise OverloadedError(
                "pending queue full "
                f"(max_pending={self._service._max_pending}); retry later"
            )

    async def _route_select(self, body: bytes) -> tuple[int, str]:
        obj = self._json_body(body, "POST /v1/select")
        request = SelectionRequest.from_dict(obj, where="POST /v1/select")
        self._shed_if_saturated()
        response = await self._service.select(request)
        return 200, response.to_json()

    async def _route_select_many(self, body: bytes) -> tuple[int, str]:
        where = "POST /v1/select_many"
        obj = self._json_body(body, where)
        rows = obj.get("requests")
        if not isinstance(rows, list) or not rows:
            raise ProtocolError(
                f"{where}: 'requests' must be a non-empty array",
                detail={"where": where, "field": "requests"},
            )
        requests = [
            SelectionRequest.from_dict(row, where=f"{where}[{position}]")
            for position, row in enumerate(rows)
        ]
        self._shed_if_saturated()
        responses = await self._service.select_many(requests)
        rows = ", ".join([response.to_json() for response in responses])
        return 200, f'{{"v": {PROTOCOL_VERSION}, "responses": [{rows}]}}'

    async def _route_pool(self, body: bytes) -> tuple[int, dict]:
        obj = self._json_body(body, "POST /v1/pool")
        command = PoolCommand.from_dict(obj, where="POST /v1/pool")
        return 200, await self._service.pool(command)

    async def _route_stats(self, body: bytes) -> tuple[int, dict]:
        snapshot = self._service.stats_snapshot()
        snapshot["server"] = {
            "connections": len(self._connections),
            "max_connections": self._max_connections,
            "requests_served": self._requests_served,
            "rejected": self._rejected,
            "draining": self._closing,
        }
        return 200, snapshot

    async def _route_healthz(self, body: bytes) -> tuple[int, dict]:
        # Counters only: no engine, no locks, no thread hops — a liveness
        # probe must answer even while a long batch owns the engine.
        return 200, {
            "v": PROTOCOL_VERSION,
            "ok": not self._closing,
            "status": "draining" if self._closing else "serving",
            "queued": self._service.queued,
            "connections": len(self._connections),
        }
