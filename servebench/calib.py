#!/usr/bin/env python3
"""A fixed HTTP server the benchmark runs beside the program to gauge the host.

Run as ``python3 servebench/calib.py``: it prints ``serving on
http://HOST:PORT`` as its first line, as ``repro.cli http`` does, and answers
every ``POST`` until SIGTERM.  A request takes the path a ``repro.cli http``
select takes: the event loop reads and decodes it, a worker thread does the
work, and the loop encodes and writes the answer on the keep-alive
connection.  The work never changes, so this server's speed moves only with
the host's.  The benchmark alternates its load between the program and this
server, and reports the program's timings relative to this server's.
"""

from __future__ import annotations

import asyncio
import json
import re
import signal
from dataclasses import dataclass

_ID = re.compile(r"r-(\d+)$")


@dataclass
class _Row:
    juror_id: str
    error_rate: float
    requirement: float

    def cost(self) -> float:
        return self.error_rate * (1.0 - self.requirement)


def work(rows: list[dict]) -> dict:
    """Build objects, sort by a key method, index, match: fixed interpreter work."""
    jurors = [_Row(r["id"], r["error_rate"], r["requirement"]) for r in rows]
    jurors.sort(key=_Row.cost)
    by_id = {juror.juror_id: juror for juror in jurors}
    picked = []
    for juror in jurors:
        try:
            picked.append(int(_ID.match(juror.juror_id).group(1)))
        except AttributeError:
            continue
    total = sum(juror.error_rate for juror in by_id.values() if juror.error_rate > 0.1)
    return {"picked": picked, "total": total}


async def _serve(reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
    try:
        while True:
            head = await reader.readuntil(b"\r\n\r\n")
            length = 0
            for line in head.split(b"\r\n")[1:]:
                name, _, value = line.partition(b":")
                if name.strip().lower() == b"content-length":
                    length = int(value)
            body = await reader.readexactly(length)
            answer = await asyncio.to_thread(work, json.loads(body))
            payload = json.dumps(answer).encode("ascii")
            writer.write(
                b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n"
                b"Content-Length: %d\r\n\r\n%s" % (len(payload), payload)
            )
            await writer.drain()
    except (asyncio.IncompleteReadError, ConnectionError):
        pass
    finally:
        writer.close()


async def main() -> None:
    server = await asyncio.start_server(_serve, "127.0.0.1", 0)
    host, port = server.sockets[0].getsockname()[:2]
    print(f"serving on http://{host}:{port}", flush=True)
    stop = asyncio.Event()
    asyncio.get_running_loop().add_signal_handler(signal.SIGTERM, stop.set)
    async with server:
        await stop.wait()


if __name__ == "__main__":
    asyncio.run(main())
