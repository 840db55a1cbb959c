#!/usr/bin/env python3
"""Quickstart for the public API: ``JuryService`` and wire protocol v1.

Walks the typed request/response protocol end to end:

1. build a :class:`repro.api.JuryService` and register a live pool with a
   :class:`repro.api.PoolCommand`;
2. answer requests — selections, an EXPLAIN, and a structured error —
   through one dispatch path;
3. round-trip a request/response pair through its canonical wire form
   (``to_dict`` / ``from_dict``, the ``"v": 1`` protocol);
4. multiplex concurrent clients onto the same engine with
   :class:`repro.api.AsyncJuryService` and watch the batches coalesce.

Run:  PYTHONPATH=src python examples/service_quickstart.py
"""

from __future__ import annotations

import asyncio
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.api import (  # noqa: E402
    AsyncJuryService,
    JuryService,
    PoolCommand,
    SelectionRequest,
    SelectionResponse,
)
from repro.core.juror import Juror  # noqa: E402

FIGURE1 = [
    ("A", 0.1, 0.20), ("B", 0.2, 0.20), ("C", 0.2, 0.20),
    ("D", 0.3, 0.40), ("E", 0.3, 0.65), ("F", 0.4, 0.10), ("G", 0.4, 0.10),
]


def main() -> None:
    service = JuryService()

    # -- 1. register the paper's Figure 1 candidates as a live pool --------
    ack = service.pool(
        PoolCommand(
            action="create",
            name="figure1",
            candidates=tuple(
                Juror(eps, req, juror_id=cid) for cid, eps, req in FIGURE1
            ),
        )
    )
    print(f"pool created: {ack['name']} v{ack['version']}, {ack['size']} candidates")

    # -- 2. one dispatch path for selections, explains, and errors ---------
    altr = service.select(SelectionRequest(task_id="altr", pool="figure1"))
    print(f"AltrM: {altr.summary()}")

    pay = service.select(
        SelectionRequest(task_id="pay", pool="figure1", model="pay", budget=1.0)
    )
    print(f"PayM : {pay.summary()}")

    plan = service.explain(
        SelectionRequest(task_id="why", pool="figure1", model="pay", budget=1.0)
    )
    print(f"plan : operator={plan.plan['operator']}, "
          f"jer_backend={plan.plan['jer_backend']}")

    broken = service.select(SelectionRequest(task_id="oops", pool="nonexistent"))
    print(f"error: code={broken.error.code!r} message={broken.error.message!r}")

    # -- 3. the canonical wire form (protocol v1) --------------------------
    request = SelectionRequest(task_id="wire", pool="figure1", model="AltrM")
    wire = json.dumps(request.to_dict())
    print(f"wire request : {wire}")
    echoed = SelectionRequest.from_dict(json.loads(wire), where="<example>")
    assert echoed == request  # lossless round trip, aliases canonicalised
    response = service.select(echoed)
    rewired = SelectionResponse.from_dict(json.loads(json.dumps(response.to_dict())))
    assert rewired == response
    print(f"wire response: v={response.to_dict()['v']}, "
          f"status={rewired.status}, jer={rewired.jer:.4f}")

    # -- 4. concurrent clients coalesce into engine batches ----------------
    async def serve_concurrently() -> None:
        async_service = AsyncJuryService(service)

        async def client(name: str, budget: float | None):
            req = (
                SelectionRequest(task_id=name, pool="figure1")
                if budget is None
                else SelectionRequest(
                    task_id=name, pool="figure1", model="pay", budget=budget
                )
            )
            resp = await async_service.select(req)
            return f"{name}: size={resp.size}, jer={resp.jer:.4f}"

        answers = await asyncio.gather(
            *(client(f"task-{i}", None if i % 2 else 1.0) for i in range(6))
        )
        for line in answers:
            print(f"  {line}")

    print("6 concurrent clients, one engine:")
    asyncio.run(serve_concurrently())
    stats = service.stats()
    print(f"stats: {stats['queries_run']} queries, "
          f"frontier hits={stats['frontier']['hits']}")


if __name__ == "__main__":
    main()
