#!/usr/bin/env python3
"""Quickstart for the network serving tier: ``HttpServer`` end to end.

Walks the HTTP transport over wire protocol v1:

1. start an :class:`repro.api.HttpServer` on an ephemeral port (the same
   server ``repro-select http`` runs);
2. register the paper's Figure 1 candidates as a live pool with
   ``POST /v1/pool``;
3. answer selections over a persistent keep-alive connection
   (``POST /v1/select``, then a coalesced ``POST /v1/select_many``);
4. read the live counters from ``GET /v1/stats`` and ``GET /healthz``;
5. shut down gracefully with ``aclose()`` — in-flight work drains and the
   service closes.

Everything uses :func:`repro.api.http_call`, a tiny stdlib client helper —
any HTTP client (curl, requests, a browser) speaks the same protocol.

Run:  PYTHONPATH=src python examples/http_quickstart.py
"""

from __future__ import annotations

import asyncio
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.api import HttpServer, http_call  # noqa: E402

FIGURE1 = [
    ("A", 0.1, 0.20), ("B", 0.2, 0.20), ("C", 0.2, 0.20),
    ("D", 0.3, 0.40), ("E", 0.3, 0.65), ("F", 0.4, 0.10), ("G", 0.4, 0.10),
]


async def main() -> None:
    # -- 1. start the server on an ephemeral port --------------------------
    async with HttpServer(port=0) as server:
        print(f"server up on {server.address}")
        reader, writer = await asyncio.open_connection(server.host, server.port)

        # -- 2. register a live pool over the wire -------------------------
        status, ack = await http_call(
            reader, writer, "POST", "/v1/pool",
            {
                "cmd": "pool",
                "action": "create",
                "name": "figure1",
                "candidates": [
                    {"id": cid, "error_rate": eps, "requirement": req}
                    for cid, eps, req in FIGURE1
                ],
            },
        )
        print(f"pool created: HTTP {status}, version {ack['version']}, "
              f"size {ack['size']}")

        # -- 3a. one selection: the AltrM optimum over the pool ------------
        status, answer = await http_call(
            reader, writer, "POST", "/v1/select",
            {"v": 1, "task": "who-to-ask", "pool": "figure1"},
        )
        members = ", ".join(member["id"] for member in answer["members"])
        print(f"AltrM optimum: HTTP {status}, jury [{members}], "
              f"JER {answer['jer']:.6f}")

        # -- 3b. a coalesced batch, mixed with a budgeted (PayM) request ---
        status, batch = await http_call(
            reader, writer, "POST", "/v1/select_many",
            {
                "v": 1,
                "requests": [
                    {"v": 1, "task": "plain", "pool": "figure1"},
                    {"v": 1, "task": "budgeted", "pool": "figure1",
                     "model": "pay", "budget": 1.0},
                    {"v": 1, "task": "impossible", "pool": "figure1",
                     "model": "pay", "budget": 0.01},
                ],
            },
        )
        for row in batch["responses"]:
            if row["status"] == "ok":
                print(f"  {row['task']}: size {row['size']}, "
                      f"JER {row['jer']:.6f}")
            else:  # domain errors stay structured, per request
                print(f"  {row['task']}: error [{row['error']['code']}] "
                      f"{row['error']['message']}")

        # -- 4. live counters ----------------------------------------------
        _, stats = await http_call(reader, writer, "GET", "/v1/stats")
        _, health = await http_call(reader, writer, "GET", "/healthz")
        print(f"stats: {stats['async']['answered']} answered in "
              f"{stats['async']['batches']} coalesced batches; "
              f"healthz says {health['status']!r}")

        writer.close()

    # -- 5. the async-with exit already drained and closed everything -----
    print("server drained and closed")


if __name__ == "__main__":
    asyncio.run(main())
