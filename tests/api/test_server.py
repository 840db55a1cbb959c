"""HttpServer: protocol round trips, backpressure, graceful lifecycle."""

from __future__ import annotations

import asyncio
import json
import re
import socket
import threading
import time

import numpy as np
import pytest

from repro.api import (
    AsyncJuryService,
    JuryService,
    PoolCommand,
    PROTOCOL_VERSION,
    SelectionRequest,
    SelectionResponse,
)
from repro.api.server import HttpServer, http_call
from repro.core.juror import Juror
from repro.plan import execute_plan, plan_query
from repro.service import PoolRegistry
from repro.testing import DEFAULT_SEED


def _make_candidates(rng: np.random.Generator, size: int, tag: str) -> tuple[Juror, ...]:
    eps = rng.uniform(0.05, 0.6, size=size)
    return tuple(
        Juror(float(e), float(rng.uniform(0.0, 1.0)), juror_id=f"{tag}-{i}")
        for i, e in enumerate(eps)
    )


def _mixed_wire_requests(count: int) -> list[dict]:
    """Deterministic mixed AltrM/PayM/exact requests, in wire form."""
    rng = np.random.default_rng(DEFAULT_SEED)
    rows = []
    for i in range(count):
        cands = _make_candidates(rng, 9, f"t{i}")
        if i % 5 == 3:
            request = SelectionRequest(
                task_id=f"t{i}", candidates=cands, model="pay", budget=2.0
            )
        elif i % 5 == 4:
            request = SelectionRequest(
                task_id=f"t{i}", candidates=cands, model="exact", budget=2.0
            )
        else:
            request = SelectionRequest(task_id=f"t{i}", candidates=cands)
        rows.append(request.to_dict())
    return rows


def _normalise(row: dict) -> dict:
    """Wire form minus timings (the only permitted dispatch-dependent field)."""
    row = dict(row)
    row.pop("timings", None)
    return row


async def _connect(server: HttpServer):
    return await asyncio.open_connection(server.host, server.port)


def _raw_exchange(request: bytes, *, timeout: float = 5.0) -> tuple[int | None, dict]:
    """Send raw bytes on a fresh connection and read until the server closes.

    Returns ``(status, body)`` of the one response, or ``(None, {})`` when
    the server hung up without answering or had not answered (and closed)
    within ``timeout`` seconds.  A blocking socket, so a reset that follows
    the answer (the server closed with request bytes unread) loses nothing
    already received.
    """

    def exchange(host: str, port: int) -> bytes:
        received = []
        with socket.create_connection((host, port), timeout=timeout) as sock:
            try:
                sock.sendall(request)
                while chunk := sock.recv(65536):
                    received.append(chunk)
            except (ConnectionResetError, BrokenPipeError):
                pass
            except TimeoutError:
                return b""
        return b"".join(received)

    async def run() -> bytes:
        async with HttpServer(port=0) as server:
            return await asyncio.to_thread(exchange, server.host, server.port)

    raw = asyncio.run(run())
    if not raw:
        return None, {}
    head, _, body = raw.partition(b"\r\n\r\n")
    return int(head.split()[1]), json.loads(body)


def _gate_select_many(service: JuryService):
    """Patch ``select_many`` to block on a gate the test controls.

    Returns ``(gate, calls)``: set the gate to release the engine; ``calls``
    records the task ids of every batch that actually reached it.
    """
    gate = threading.Event()
    calls: list[list[str]] = []
    real = service.select_many

    def gated(requests):
        calls.append([request.task_id for request in requests])
        assert gate.wait(10), "test gate never opened"
        return real(requests)

    service.select_many = gated
    return gate, calls


class TestEndpoints:
    def test_select_round_trip_matches_sequential_dispatch(self):
        """The HTTP transport changes nothing: responses over the socket are
        bit-identical to a sequential in-process loop."""
        wire_requests = _mixed_wire_requests(10)
        sequential_service = JuryService()
        try:
            sequential = [
                _normalise(
                    sequential_service.select(
                        SelectionRequest.from_dict(row)
                    ).to_dict()
                )
                for row in wire_requests
            ]
        finally:
            sequential_service.close()

        async def run():
            async with HttpServer(port=0) as server:
                reader, writer = await _connect(server)
                answers = []
                for row in wire_requests:
                    status, body = await http_call(
                        reader, writer, "POST", "/v1/select", row
                    )
                    assert status == 200
                    answers.append(_normalise(body))
                writer.close()
                return answers

        assert asyncio.run(run()) == sequential

    def test_concurrent_connections_match_sequential_dispatch(self):
        """Several keep-alive connections posting interleaved slices at once
        (so the drainer coalesces them) get the sequential loop's answers."""
        wire_requests = _mixed_wire_requests(16)
        clients = 4
        sequential_service = JuryService()
        try:
            sequential = [
                _normalise(
                    sequential_service.select(SelectionRequest.from_dict(row)).to_dict()
                )
                for row in wire_requests
            ]
        finally:
            sequential_service.close()

        async def client(server: HttpServer, worker: int) -> list[dict]:
            reader, writer = await _connect(server)
            answers = []
            for row in wire_requests[worker::clients]:
                status, body = await http_call(reader, writer, "POST", "/v1/select", row)
                assert status == 200
                answers.append(_normalise(body))
            writer.close()
            return answers

        async def run() -> list[dict]:
            async with HttpServer(port=0) as server:
                slices = await asyncio.gather(
                    *(client(server, worker) for worker in range(clients))
                )
            merged: list[dict | None] = [None] * len(wire_requests)
            for worker, answers in enumerate(slices):
                merged[worker::clients] = answers
            return merged

        assert asyncio.run(run()) == sequential

    def test_select_many_preserves_order_and_isolates_errors(self):
        wire_requests = _mixed_wire_requests(6)
        bad = SelectionRequest(task_id="bad", pool="ghost").to_dict()

        async def run():
            async with HttpServer(port=0) as server:
                reader, writer = await _connect(server)
                status, body = await http_call(
                    reader,
                    writer,
                    "POST",
                    "/v1/select_many",
                    {"v": 1, "requests": [*wire_requests, bad]},
                )
                writer.close()
                return status, body

        status, body = asyncio.run(run())
        assert status == 200 and body["v"] == PROTOCOL_VERSION
        rows = body["responses"]
        assert [row["task"] for row in rows[:-1]] == [
            row["task"] for row in wire_requests
        ]
        assert all(row["status"] == "ok" for row in rows[:-1])
        assert rows[-1]["status"] == "error"
        assert rows[-1]["error"]["code"] == "pool-not-found"

    def test_pool_lifecycle_over_the_wire(self):
        rng = np.random.default_rng(DEFAULT_SEED)
        candidates = [
            {"id": j.juror_id, "error_rate": j.error_rate, "requirement": j.requirement}
            for j in _make_candidates(rng, 7, "p")
        ]

        async def run():
            async with HttpServer(port=0) as server:
                reader, writer = await _connect(server)
                status, ack = await http_call(
                    reader,
                    writer,
                    "POST",
                    "/v1/pool",
                    {"cmd": "pool", "action": "create", "name": "P", "candidates": candidates},
                )
                assert status == 200 and ack["ok"] and ack["version"] == 0
                status, before = await http_call(
                    reader, writer, "POST", "/v1/select",
                    {"v": 1, "task": "b", "pool": "P"},
                )
                assert status == 200 and before["status"] == "ok"
                status, ack = await http_call(
                    reader,
                    writer,
                    "POST",
                    "/v1/pool",
                    {
                        "cmd": "pool",
                        "action": "update",
                        "name": "P",
                        "add": [{"id": "ace", "error_rate": 0.01}],
                    },
                )
                assert status == 200 and ack["version"] == 1
                status, after = await http_call(
                    reader, writer, "POST", "/v1/select",
                    {"v": 1, "task": "a", "pool": "P"},
                )
                writer.close()
                return before, after

        before, after = asyncio.run(run())
        assert before["pool_version"] == 0 and after["pool_version"] == 1
        assert after["jer"] < before["jer"]
        assert "ace" in [member["id"] for member in after["members"]]

    def test_unknown_pool_is_404_with_structured_body(self):
        async def run():
            async with HttpServer(port=0) as server:
                reader, writer = await _connect(server)
                status, body = await http_call(
                    reader, writer, "POST", "/v1/pool",
                    {"cmd": "pool", "action": "drop", "name": "ghost"},
                )
                writer.close()
                return status, body

        status, body = asyncio.run(run())
        assert status == 404
        assert body["status"] == "error"
        assert body["error"]["code"] == "pool-not-found"

    def test_stats_and_healthz_surface_counters(self):
        async def run():
            async with HttpServer(port=0, max_connections=17) as server:
                reader, writer = await _connect(server)
                for row in _mixed_wire_requests(3):
                    await http_call(reader, writer, "POST", "/v1/select", row)
                status, stats = await http_call(reader, writer, "GET", "/v1/stats")
                hstatus, health = await http_call(reader, writer, "GET", "/healthz")
                writer.close()
                return status, stats, hstatus, health

        status, stats, hstatus, health = asyncio.run(run())
        assert status == 200 and hstatus == 200
        assert stats["async"]["accepted"] == 3
        assert stats["async"]["answered"] == 3
        assert stats["server"]["requests_served"] == 3  # stats row not yet counted
        assert stats["server"]["max_connections"] == 17
        assert stats["server"]["connections"] == 1
        assert stats["server"]["draining"] is False
        # The full counter payload reaches the HTTP surface untouched:
        # in-pass profile reuse, planner memo, and the answer frontier's
        # hits and builds.
        assert {"hits", "misses"} == stats["cache"].keys()
        assert {"hits", "misses", "entries", "maxsize"} <= stats["planner"].keys()
        assert {"hits", "misses", "builds"} == stats["frontier"].keys()
        assert "frontier_hits" in stats["engine"]
        assert health == {
            "v": PROTOCOL_VERSION,
            "ok": True,
            "status": "serving",
            "queued": 0,
            "connections": 1,
        }

    def test_keep_alive_serves_many_requests_per_connection(self):
        async def run():
            async with HttpServer(port=0) as server:
                reader, writer = await _connect(server)
                statuses = [
                    (await http_call(reader, writer, "GET", "/healthz"))[0]
                    for _ in range(5)
                ]
                status, stats = await http_call(reader, writer, "GET", "/v1/stats")
                writer.close()
                return statuses, stats["server"]["requests_served"]

        statuses, served = asyncio.run(run())
        assert statuses == [200] * 5 and served == 5


class TestErrorBodies:
    """Every transport failure carries a structured, coded error body."""

    @staticmethod
    async def _call(path, payload=None, method="POST", **server_options):
        async with HttpServer(port=0, **server_options) as server:
            reader, writer = await _connect(server)
            status, body = await http_call(reader, writer, method, path, payload)
            writer.close()
            return status, body

    def _assert_error(self, body, code):
        assert body["v"] == PROTOCOL_VERSION and body["status"] == "error"
        assert body["error"]["code"] == code
        assert body["error"]["message"]

    def test_unknown_route_is_404(self):
        status, body = asyncio.run(self._call("/v2/nothing", {}))
        assert status == 404
        self._assert_error(body, "not-found")

    def test_wrong_method_is_405(self):
        status, body = asyncio.run(self._call("/v1/select", method="GET"))
        assert status == 405
        self._assert_error(body, "bad-request")

    def test_invalid_json_is_400(self):
        async def run():
            async with HttpServer(port=0) as server:
                reader, writer = await _connect(server)
                writer.write(
                    b"POST /v1/select HTTP/1.1\r\nContent-Length: 9\r\n\r\nnot json!"
                )
                await writer.drain()
                status_line = await reader.readline()
                length = 0
                while True:
                    line = await reader.readline()
                    if line in (b"\r\n", b"\n"):
                        break
                    if line.lower().startswith(b"content-length:"):
                        length = int(line.split(b":")[1])
                import json as json_module

                body = json_module.loads(await reader.readexactly(length))
                writer.close()
                return int(status_line.split()[1]), body

        status, body = asyncio.run(run())
        assert status == 400
        self._assert_error(body, "invalid-json")

    def test_empty_body_is_400(self):
        status, body = asyncio.run(self._call("/v1/select"))
        assert status == 400
        self._assert_error(body, "bad-request")

    def test_non_object_body_is_400(self):
        status, body = asyncio.run(self._call("/v1/select", ["not", "an", "object"]))
        assert status == 400
        self._assert_error(body, "bad-request")

    def test_malformed_request_is_400_with_where(self):
        status, body = asyncio.run(
            self._call("/v1/select", {"v": 1, "task": "t"})  # no candidates/pool
        )
        assert status == 400
        self._assert_error(body, "bad-request")
        assert body["error"]["detail"]["where"] == "POST /v1/select"

    def test_select_many_requires_request_array(self):
        status, body = asyncio.run(self._call("/v1/select_many", {"v": 1}))
        assert status == 400
        self._assert_error(body, "bad-request")
        assert body["error"]["detail"]["field"] == "requests"

    def test_oversized_body_is_413(self):
        big = {"v": 1, "task": "t", "padding": "x" * 4096}
        status, body = asyncio.run(
            self._call("/v1/select", big, max_body_bytes=1024)
        )
        assert status == 413
        self._assert_error(body, "bad-request")

    def test_malformed_request_line_is_400(self):
        async def run():
            async with HttpServer(port=0) as server:
                reader, writer = await _connect(server)
                writer.write(b"GARBAGE\r\n\r\n")
                await writer.drain()
                status_line = await reader.readline()
                writer.close()
                return int(status_line.split()[1])

        assert asyncio.run(run()) == 400

    @pytest.mark.parametrize("declared", [b"-5", b"1_0", b"+3"])
    def test_content_length_must_be_ascii_digits(self, declared):
        """``int()`` reads "-5", "1_0" and "+3"; the header must not: each
        gets a 400 and a closed connection, not a dropped or stalled one."""
        status, body = _raw_exchange(
            b"POST /v1/select HTTP/1.1\r\nContent-Length: " + declared + b"\r\n\r\n{}"
        )
        assert status == 400
        self._assert_error(body, "bad-request")
        assert body["error"]["message"] == "invalid Content-Length"

    #: A select the server answers 200 when its head is well framed (sent
    #: with ``Connection: close``, so even a 200 ends the exchange).
    SELECT = json.dumps(
        {"v": 1, "task": "t", "candidates": [{"id": "a", "error_rate": 0.1}]}
    ).encode()

    @pytest.mark.parametrize("first", [b"3", b"%d"])
    def test_repeated_content_length_is_400(self, first):
        """A proxy that reads the first length frames the stream differently
        from one that reads the last (RFC 9112 §6.3): no value may win, not
        even a repeat of the same one."""
        length = b"%d" % len(self.SELECT)
        status, reply = _raw_exchange(
            b"POST /v1/select HTTP/1.1\r\nConnection: close\r\nContent-Length: "
            + first.replace(b"%d", length)
            + b"\r\nContent-Length: "
            + length
            + b"\r\n\r\n"
            + self.SELECT
        )
        assert status == 400
        self._assert_error(reply, "bad-request")
        assert reply["error"]["message"] == "repeated Content-Length"

    @pytest.mark.parametrize(
        "name",
        [b"Content-Length ", b"Content-Length\t", b" Content-Length", b"Content Length", b""],
    )
    def test_field_name_with_whitespace_or_empty_is_400(self, name):
        """RFC 9112 §5.1: whitespace in or around a field name is refused,
        not trimmed into a name that another parser would not read."""
        status, reply = _raw_exchange(
            b"POST /v1/select HTTP/1.1\r\nConnection: close\r\n"
            + name
            + b": %d\r\nContent-Length: %d\r\n\r\n" % (len(self.SELECT), len(self.SELECT))
            + self.SELECT
        )
        assert status == 400
        self._assert_error(reply, "bad-request")
        assert reply["error"]["message"].startswith("malformed header line")

    def test_over_long_header_line_is_431(self):
        """A header line past the 64 KiB stream limit is answered, not
        dropped with an unhandled error in the connection task."""
        status, body = _raw_exchange(
            b"POST /v1/select HTTP/1.1\r\nX-Padding: "
            + b"a" * 70_000
            + b"\r\nContent-Length: 2\r\n\r\n{}"
        )
        assert status == 431
        self._assert_error(body, "bad-request")
        assert body["error"]["message"] == "header line too long"


class TestBackpressure:
    def test_connection_limit_sheds_with_structured_503(self):
        async def run():
            async with HttpServer(port=0, max_connections=1) as server:
                reader1, writer1 = await _connect(server)
                # Serve one request so the first connection is registered.
                assert (await http_call(reader1, writer1, "GET", "/healthz"))[0] == 200
                reader2, writer2 = await _connect(server)
                status, body = await http_call(reader2, writer2, "GET", "/healthz")
                writer2.close()
                # The first connection keeps working after the shed.
                again = (await http_call(reader1, writer1, "GET", "/healthz"))[0]
                status_row, stats = await http_call(
                    reader1, writer1, "GET", "/v1/stats"
                )
                writer1.close()
                return status, body, again, stats["server"]["rejected"]

        status, body, again, rejected = asyncio.run(run())
        assert status == 503
        assert body["error"]["code"] == "overloaded"
        assert again == 200 and rejected == 1

    def test_saturated_queue_sheds_selects_with_503(self):
        wire = _mixed_wire_requests(2)

        async def run():
            service = AsyncJuryService(max_batch=1, max_pending=1)
            gate, calls = _gate_select_many(service.service)
            async with HttpServer(service, port=0) as server:
                reader1, writer1 = await _connect(server)
                first = asyncio.create_task(
                    http_call(reader1, writer1, "POST", "/v1/select", wire[0])
                )
                await asyncio.sleep(0.05)  # first select now holds the queue
                reader2, writer2 = await _connect(server)
                status, body = await http_call(
                    reader2, writer2, "POST", "/v1/select", wire[1]
                )
                gate.set()
                first_status, first_body = await first
                writer1.close()
                writer2.close()
                shed = status, body["error"]["code"]
                return shed, first_status, first_body["status"], calls

        (status, code), first_status, first_outcome, calls = asyncio.run(run())
        assert (status, code) == (503, "overloaded")
        assert first_status == 200 and first_outcome == "ok"
        assert calls == [["t0"]]  # the shed request never reached the engine


class TestLifecycle:
    def test_aclose_drains_in_flight_request_over_the_socket(self):
        wire = _mixed_wire_requests(1)

        async def run():
            service = AsyncJuryService()
            gate, _ = _gate_select_many(service.service)
            server = await HttpServer(service, port=0).start()
            reader, writer = await _connect(server)
            in_flight = asyncio.create_task(
                http_call(reader, writer, "POST", "/v1/select", wire[0])
            )
            await asyncio.sleep(0.05)  # request is now inside the engine gate
            closer = asyncio.create_task(server.aclose())
            await asyncio.sleep(0.05)
            assert not closer.done()  # drain waits for the in-flight answer
            gate.set()
            status, body = await in_flight
            await closer
            writer.close()
            # The listener is gone: new connections are refused outright.
            with pytest.raises(OSError):
                await _connect(server)
            return status, body["status"], service.closed, service.queued

        status, outcome, closed, queued = asyncio.run(run())
        assert status == 200 and outcome == "ok"
        assert closed and queued == 0

    def test_aclose_closes_idle_keep_alive_connections(self):
        async def run():
            server = await HttpServer(port=0).start()
            reader, writer = await _connect(server)
            assert (await http_call(reader, writer, "GET", "/healthz"))[0] == 200
            # The connection now idles in keep-alive; aclose must not hang
            # on it (shield with a timeout so a regression fails, not hangs).
            await asyncio.wait_for(server.aclose(), timeout=10)
            assert await reader.read() == b""  # server closed its end
            writer.close()
            return server.connections

        assert asyncio.run(run()) == 0

    def test_draining_server_rejects_new_work_via_healthz(self):
        async def run():
            service = AsyncJuryService()
            gate, _ = _gate_select_many(service.service)
            server = await HttpServer(service, port=0).start()
            reader, writer = await _connect(server)
            in_flight = asyncio.create_task(
                http_call(
                    reader, writer, "POST", "/v1/select", _mixed_wire_requests(1)[0]
                )
            )
            await asyncio.sleep(0.05)
            closer = asyncio.create_task(server.aclose())
            await asyncio.sleep(0.05)
            gate.set()
            await in_flight
            await closer
            writer.close()
            return True

        assert asyncio.run(run())

    def test_aclose_is_idempotent(self):
        async def run():
            server = await HttpServer(port=0).start()
            await server.aclose()
            await server.aclose()
            return True

        assert asyncio.run(run())

    def test_rejects_service_plus_options_and_bad_bounds(self):
        with pytest.raises(ValueError, match="not both"):
            HttpServer(AsyncJuryService(), max_batch=4)
        with pytest.raises(ValueError, match="max_connections"):
            HttpServer(max_connections=0)


async def _post_raw(reader, writer, path: str, payload: dict) -> tuple[int, bytes]:
    """One POST over an open keep-alive connection: status and body as sent."""
    body = json.dumps(payload).encode("utf-8")
    writer.write(
        f"POST {path} HTTP/1.1\r\nHost: repro\r\nContent-Length: {len(body)}\r\n\r\n"
        .encode("ascii") + body
    )
    await writer.drain()
    head = await reader.readuntil(b"\r\n\r\n")
    length = int(re.search(rb"Content-Length: (\d+)", head).group(1))
    return int(head.split()[1]), await reader.readexactly(length)


def _pool_wire(name: str, size: int) -> dict:
    rng = np.random.default_rng(DEFAULT_SEED)
    return {
        "cmd": "pool",
        "action": "create",
        "name": name,
        "candidates": [
            {"id": j.juror_id, "error_rate": j.error_rate, "requirement": j.requirement}
            for j in _make_candidates(rng, size, name)
        ],
    }


class TestNamedPoolTraffic:
    def test_repeat_selects_with_interleaved_updates_match_sequential_loop(self):
        """Four connections repeat capped and uncapped selects on named pools
        while a fifth updates them.  Each answer equals what a sequential
        loop answers at the pool version the response echoes."""
        names = ("P0", "P1", "P2")
        caps = (None, 3, 9)
        creates = [_pool_wire(name, 25) for name in names]
        updates = []
        for name in names:
            updates.append(
                {"cmd": "pool", "action": "update", "name": name,
                 "set": [{"id": f"{name}-3", "error_rate": 0.02}]}
            )
            updates.append(
                {"cmd": "pool", "action": "update", "name": name,
                 "remove": [f"{name}-5"],
                 "add": [{"id": f"{name}-new", "error_rate": 0.04, "requirement": 0.5}]}
            )
        updates = updates[::2] + updates[1::2]  # round-robin over the pools
        selects = []
        for i in range(96):
            row = {"v": 1, "task": f"s{i}", "pool": names[i % 3]}
            if caps[i % 4 % 3] is not None:
                row["max_size"] = caps[i % 4 % 3]
            selects.append(row)
        clients = 4

        # The sequential reference: plan and execute over a snapshot of each
        # version the updates produce.
        oracle = JuryService(registry=PoolRegistry())
        expected: dict[tuple, dict] = {}
        for create in creates:
            name = create["name"]
            oracle.pool(PoolCommand.from_dict(create))
            for update in [None] + [u for u in updates if u["name"] == name]:
                if update is not None:
                    oracle.pool(PoolCommand.from_dict(update))
                live = oracle.registry.get(name)
                for cap in caps:
                    plan = plan_query(pool=live.snapshot(), max_size=cap, task_id="x")
                    answer = SelectionResponse.from_result(
                        "x", execute_plan(plan), pool_version=live.version
                    ).to_dict()
                    expected[name, answer["pool_version"], cap] = _normalise(answer)

        async def select_client(server, worker):
            reader, writer = await _connect(server)
            answers = []
            for row in selects[worker::clients]:
                status, raw = await _post_raw(reader, writer, "/v1/select", row)
                assert status == 200
                answers.append((row, raw.decode("ascii")))
            writer.close()
            return answers

        async def update_client(server):
            reader, writer = await _connect(server)
            for update in updates:
                await asyncio.sleep(0.002)
                status, ack = await http_call(reader, writer, "POST", "/v1/pool", update)
                assert status == 200 and ack["ok"]
            writer.close()

        async def run():
            async with HttpServer(port=0) as server:
                reader, writer = await _connect(server)
                for create in creates:
                    status, _ = await http_call(reader, writer, "POST", "/v1/pool", create)
                    assert status == 200
                writer.close()
                results = await asyncio.gather(
                    update_client(server),
                    *(select_client(server, worker) for worker in range(clients)),
                )
            return [pair for answers in results[1:] for pair in answers]

        answered = asyncio.run(run())
        assert len(answered) == len(selects)
        for row, text in answered:
            body = json.loads(text)
            assert body["status"] == "ok", body
            key = (row["pool"], body["pool_version"], row.get("max_size"))
            # Byte for byte, up to the timings block that ends every answer.
            sent = text[: text.rfind(', "timings": {')] + "}"
            assert sent == json.dumps({**expected[key], "task": row["task"]})


class TestStatsNeverBlock:
    def test_stats_and_healthz_answer_while_catalog_lock_is_held(self, tmp_path):
        """A worker holding the catalog lock (a cold pool's recovery, a
        create's fsync, a drop) must not stall the event loop: ``/v1/stats``
        and a ``/healthz`` on a second connection both answer at once."""
        hold_seconds = 1.5
        held = threading.Event()
        release = threading.Event()

        async def run():
            async with HttpServer(port=0, data_dir=tmp_path / "cat") as server:
                reader, writer = await _connect(server)
                status, _ = await http_call(
                    reader, writer, "POST", "/v1/pool", _pool_wire("P", 7)
                )
                assert status == 200
                catalog = server.service.service.catalog

                def hold():
                    with catalog._lock:
                        held.set()
                        release.wait(hold_seconds)

                holder = threading.Thread(target=hold)
                holder.start()
                assert held.wait(5)
                second_reader, second_writer = await _connect(server)
                start = time.perf_counter()
                (stats_status, stats), (health_status, _) = await asyncio.gather(
                    http_call(reader, writer, "GET", "/v1/stats"),
                    http_call(second_reader, second_writer, "GET", "/healthz"),
                )
                elapsed = time.perf_counter() - start
                release.set()
                holder.join()
                writer.close()
                second_writer.close()
                return stats_status, stats, health_status, elapsed

        stats_status, stats, health_status, elapsed = asyncio.run(run())
        assert stats_status == 200 and health_status == 200
        assert stats["pools"]["P"] == {"version": 0, "size": 7}
        assert elapsed < 0.5
