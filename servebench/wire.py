"""The serving process and the closed-loop load generator that drives it.

:class:`Server` launches ``python -m repro.cli http --port 0`` with the CLI's
own defaults (in-process engine, frontier on, kernel backend ``auto``) and
reads the ``/proc`` counters the end-to-end metrics need: CPU ticks, peak
RSS.  :func:`drive` is the load generator: one thread, non-blocking sockets,
one keep-alive connection per closed-loop client.  Each connection sends the
next operation of one shared pre-encoded sequence as soon as its previous
answer is read, so the operation mix is fixed whatever the interleaving.

The generator allocates nothing per request while timing beyond the bytes it
reads: latencies and completion times go into preallocated ``array``
buffers, and the caller freezes the garbage collector around the loop.
"""

from __future__ import annotations

import gc
import json
import os
import select
import selectors
import signal
import socket
import subprocess
import sys
import time
from array import array
from dataclasses import dataclass
from pathlib import Path

#: Environment knobs the CLI reads; cleared so the server runs on defaults.
_PROGRAM_KNOBS = (
    "REPRO_WORKERS",
    "REPRO_SCHEDULER",
    "REPRO_DATA_DIR",
    "REPRO_FRONTIER_CACHE",
    "REPRO_KERNEL_BACKEND",
)

_CLK_TCK = os.sysconf("SC_CLK_TCK") if hasattr(os, "sysconf") else 100

#: An operation unanswered this long counts as a transport failure.
STALL_SECONDS = 60

#: The calibration server's request: 24 jurors and an odd one out, as JSON.
_CALIBRATION_BODY = json.dumps(
    [{"id": f"r-{i}", "error_rate": 0.05 + 0.01 * i, "requirement": 1.0 / (i + 1)}
     for i in range(24)]
    + [{"id": "other", "error_rate": 0.5, "requirement": 0.0}]
).encode("ascii")


def program_env(src: Path, work: Path) -> dict:
    """Environment for the server and for in-process calls into ``repro``.

    The compiled-kernel cache and every temporary file (the C compiler's
    included) live under ``work``, inside the checkout, so the benchmark
    writes nowhere else.
    """
    env = {k: v for k, v in os.environ.items() if k not in _PROGRAM_KNOBS}
    env["PYTHONPATH"] = str(src)
    env["REPRO_KERNEL_CACHE_DIR"] = str(work / "kernels")
    env["TMPDIR"] = str(work / "tmp")
    (work / "tmp").mkdir(parents=True, exist_ok=True)
    return env


def choose_cpu(allowed: set[int] | None = None) -> int | None:
    """The one CPU the server and load generator share.

    The highest-numbered allowed CPU, away from CPU 0's interrupt load.
    ``None`` where affinity is not supported (pinning is then skipped).
    """
    if allowed is None:
        if not hasattr(os, "sched_getaffinity"):
            return None
        allowed = os.sched_getaffinity(0)
    return max(allowed) if allowed else None


def pin(cpu: int | None) -> int | None:
    """Pin this process (and every child it spawns later) to ``cpu``."""
    if cpu is None or not hasattr(os, "sched_setaffinity"):
        return None
    os.sched_setaffinity(0, {cpu})
    return cpu


def steal_ticks(cpu: int | None) -> int:
    """Cumulative steal ticks of ``cpu`` (all CPUs when ``None``)."""
    label = "cpu" if cpu is None else f"cpu{cpu}"
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            for line in fh:
                fields = line.split()
                if fields and fields[0] == label:
                    return int(fields[8]) if len(fields) > 8 else 0
    except OSError:
        pass
    return 0


def self_cpu_seconds() -> float:
    """User + system CPU seconds of this process so far."""
    t = os.times()
    return t.user + t.system


class Server:
    """One ``repro.cli http`` process bound to an ephemeral port.

    ``argv`` runs another server that announces itself the same way (the
    calibration server) instead.
    """

    def __init__(
        self,
        env: dict,
        log_path: Path,
        data_dir: Path | None = None,
        argv: list[str] | None = None,
    ):
        cmd = argv or [sys.executable, "-m", "repro.cli", "http", "--port", "0"]
        if data_dir is not None:
            cmd += ["--data-dir", str(data_dir)]
        self._log = open(log_path, "ab")
        self.proc = subprocess.Popen(
            cmd, env=env, stdout=subprocess.PIPE, stderr=self._log
        )
        line = self.proc.stdout.readline().decode("utf-8", "replace").strip()
        if not line.startswith("serving on http://"):
            self.stop()
            raise RuntimeError(f"server did not start (said {line!r}); see {log_path}")
        host, _, port = line.rsplit("/", 1)[1].partition(":")
        self.host, self.port = host, int(port)

    @property
    def pid(self) -> int:
        return self.proc.pid

    def cpu_seconds(self) -> float:
        """Server user + system CPU seconds, from ``/proc/<pid>/stat``."""
        with open(f"/proc/{self.pid}/stat", encoding="ascii") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / _CLK_TCK

    def peak_rss_mb(self) -> float:
        """Server peak resident set (``VmHWM``) in MiB."""
        with open(f"/proc/{self.pid}/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM missing from /proc status")

    def stop(self) -> None:
        """SIGTERM (graceful drain), then SIGKILL if it hangs; always reaped."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self._log.close()

    def __enter__(self) -> "Server":
        return self

    def __exit__(self, *exc) -> None:
        self.stop()


def http_request(path: str, body: bytes) -> bytes:
    """A complete keep-alive HTTP/1.1 POST, ready to write."""
    head = (
        f"POST {path} HTTP/1.1\r\nHost: bench\r\n"
        f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n\r\n"
    )
    return head.encode("ascii") + body


def request_body(request: bytes) -> bytes:
    """The JSON body of an encoded request."""
    return request[request.index(b"\r\n\r\n") + 4:]


def http_get(host: str, port: int, path: str) -> bytes:
    """One blocking GET on a fresh connection; returns the response body."""
    with socket.create_connection((host, port), timeout=30) as sock:
        sock.sendall(f"GET {path} HTTP/1.1\r\nHost: bench\r\n\r\n".encode("ascii"))
        return _read_response(sock)[1]


def _read_response(sock: socket.socket) -> tuple[int, bytes]:
    buf = b""
    while b"\r\n\r\n" not in buf:
        chunk = sock.recv(65536)
        if not chunk:
            raise ConnectionError("server closed the connection")
        buf += chunk
    head, _, body = buf.partition(b"\r\n\r\n")
    status, length = _parse_head(head)
    while len(body) < length:
        chunk = sock.recv(65536)
        if not chunk:
            raise ConnectionError("server closed the connection")
        body += chunk
    return status, body


def _parse_head(head: bytes) -> tuple[int, int]:
    lines = head.split(b"\r\n")
    status = int(lines[0].split()[1])
    for line in lines[1:]:
        name, _, value = line.partition(b":")
        if name.strip().lower() == b"content-length":
            return status, int(value)
    return status, 0


def call_all(host: str, port: int, requests: list[bytes]) -> list[tuple[int, bytes]]:
    """Send requests one at a time on one connection (set-up and warm-up)."""
    answers = []
    with socket.create_connection((host, port), timeout=120) as sock:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        for request in requests:
            sock.sendall(request)
            answers.append(_read_response(sock))
    return answers


def calibration_requests(count: int) -> list[bytes]:
    """``count`` copies of the calibration server's request."""
    return [http_request("/calibrate", _CALIBRATION_BODY)] * count


@dataclass
class Drive:
    """Everything one closed-loop pass observed, indexed by operation."""

    sent: int  # operations issued: the first ``sent`` of the sequence
    completed: int  # of those, answered
    started: float
    finished: float
    sent_at: array  # perf_counter() when the first request byte was written
    done_at: array  # perf_counter() when the last response byte was read
    status: array  # HTTP status; -1 for a transport failure
    bodies: list  # raw response bodies, or None for an operation not answered
    exhausted: bool  # the pre-built sequence ran out before the deadline

    @property
    def seconds(self) -> float:
        return self.finished - self.started

    def latency(self, index: int) -> float:
        return self.done_at[index] - self.sent_at[index]


def drive(
    host: str,
    port: int,
    requests: list[bytes],
    *,
    connections: int,
    seconds: float,
    on_done=None,
) -> Drive:
    """Closed loop: each connection sends the next shared operation on answer.

    Stops issuing at ``seconds`` after the first send and waits for the
    operations in flight.  A connection that fails, or stays silent for
    ``STALL_SECONDS``, marks its operation's status -1 and is not reused.
    ``on_done(index, sent, done)``, when given, is called as each answer
    completes (the traced pass records its wire spans this way).  The
    garbage collector is frozen around the loop, unless the caller has
    already disabled it (and collected) around several passes.
    """
    total = len(requests)
    sent_at = array("d", bytes(8 * total))
    done_at = array("d", bytes(8 * total))
    status = array("i", bytes(4 * total))
    bodies: list = [None] * total
    socks = []
    for _ in range(connections):
        sock = socket.create_connection((host, port), timeout=30)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        sock.setblocking(False)
        socks.append(sock)
    sel = selectors.DefaultSelector()
    current = [-1] * connections
    pending = [b""] * connections
    next_op = 0
    completed = 0
    perf = time.perf_counter

    def send(conn: int) -> bool:
        nonlocal next_op
        index = next_op
        next_op += 1
        current[conn] = index
        pending[conn] = b""
        sent_at[index] = perf()
        try:
            view = memoryview(requests[index])
            while view:
                try:
                    view = view[socks[conn].send(view):]
                except BlockingIOError:
                    select.select([], [socks[conn]], [], 30)
        except OSError:
            status[index] = -1
            return False
        return True

    gc_was_enabled = gc.isenabled()
    if gc_was_enabled:
        gc.collect()
        gc.freeze()
        gc.disable()
    try:
        started = perf()
        deadline = started + seconds
        live = 0
        for conn in range(min(connections, total)):
            if send(conn):
                sel.register(socks[conn], selectors.EVENT_READ, conn)
                live += 1
        while live:
            events = sel.select(timeout=STALL_SECONDS)
            if not events:
                for key in list(sel.get_map().values()):
                    status[current[key.data]] = -1
                    sel.unregister(key.fileobj)
                break
            for key, _ in events:
                conn = key.data
                sock = socks[conn]
                try:
                    chunk = sock.recv(1 << 20)
                except BlockingIOError:
                    continue
                except OSError:
                    chunk = b""
                index = current[conn]
                if not chunk:
                    status[index] = -1
                    sel.unregister(sock)
                    live -= 1
                    continue
                buf = pending[conn] + chunk if pending[conn] else chunk
                split = buf.find(b"\r\n\r\n")
                if split < 0:
                    pending[conn] = buf
                    continue
                code, length = _parse_head(buf[:split])
                if len(buf) - split - 4 < length:
                    pending[conn] = buf
                    continue
                done_at[index] = perf()
                status[index] = code
                bodies[index] = buf[split + 4:]
                completed += 1
                if on_done is not None:
                    on_done(index, sent_at[index], done_at[index])
                if done_at[index] < deadline and next_op < total and send(conn):
                    continue
                sel.unregister(sock)
                live -= 1
        finished = max(done_at) if completed else perf()
    finally:
        if gc_was_enabled:
            gc.enable()
            gc.unfreeze()
        sel.close()
        for sock in socks:
            sock.close()
    return Drive(
        sent=next_op,
        completed=completed,
        started=started,
        finished=finished,
        sent_at=sent_at,
        done_at=done_at,
        status=status,
        bodies=bodies,
        exhausted=next_op >= total and finished < deadline,
    )
