"""Named-pool and inline answers, byte for byte against the sequential
reference.

A seeded stream shaped like servebench's ``pool-repeat`` and ``pool-churn``
(four 201-candidate pools with a strong head over a weak tail, selects of
random pools under size caps, valid and invalid budgets, a task id
with non-ASCII characters and quotes, re-estimates and remove + add
updates) is answered three ways: one request at a time through
``AsyncJuryService.select`` (ready hits on the spot), in pairs through
``JuryService.select_many``, and over ``HttpServer`` on two connections.
Every select, minus its ``timings``, must equal the sequential reference
byte for byte: ``plan_query`` over the version's snapshot, executed, and
encoded by ``json.dumps(to_dict())``, which shares no code with the text a
live pool keeps for its answers.  Every pool acknowledgement must equal
the reference's too.

An inline stream (121-candidate AltrM and PayM pools and small exact ones;
caps of 1, 3 and 7, one above the pool size, and none; valid, negative and
non-finite budgets; duplicate ids; error-rate ties with the ids on both
sides; ``-0.0`` requirements; error rates near 5e-324; requirements whose
sum overflows) is answered the same three ways against ``plan_query`` over
the request's candidates, executed.  Its answers are text made from sorted
columns and numbers printed natively, so the reference shares none of
their code either.  Every HTTP response must be JSON without ``Infinity``
or ``NaN``.
"""

from __future__ import annotations

import asyncio
import json
import math
import re

import numpy as np

from repro.api import (
    AsyncJuryService,
    ErrorInfo,
    JuryService,
    PoolCommand,
    SelectionRequest,
    SelectionResponse,
)
from repro.api.server import HttpServer
from repro.core.juror import Juror, JurorColumns
from repro.errors import InvalidRequirementError
from repro.plan import execute_plan, plan_query
from repro.service import PoolRegistry
from repro.testing import DEFAULT_SEED

POOLS, SIZE, HEAD = 4, 201, 41
CAPS = (1, 3, 7, 11, 15, 21, None)
ODD_TASK = 'vote "ja" é日本 \\ ☃'
UPDATE_EVERY = 6
OPS = 240
INLINE_OPS = 60


def _stream(seed: int = DEFAULT_SEED):
    """The pool creates and the operation stream, as protocol objects."""
    rng = np.random.default_rng(seed)
    creates, pools = [], []
    for k in range(POOLS):
        eps = np.concatenate([
            np.linspace(0.05, 0.35, HEAD) + rng.uniform(-0.004, 0.004, HEAD),
            rng.uniform(0.47, 0.499, SIZE - HEAD),
        ])
        reqs = rng.uniform(0.0, 1.0, SIZE)
        ids = [f"p{k}-{j}" for j in range(SIZE)]
        creates.append(PoolCommand(action="create", name=f"pool-{k}", candidates=tuple(
            Juror(float(e), float(r), juror_id=i) for i, e, r in zip(ids, eps, reqs)
        )))
        pools.append({"ids": ids, "removable": ids[HEAD:], "added": 0})
    ops = []
    for i in range(OPS):
        k = int(rng.integers(POOLS))
        name, pool = f"pool-{k}", pools[k]
        if i % UPDATE_EVERY == UPDATE_EVERY - 1:
            if rng.random() < 0.25:
                new = Juror(float(rng.uniform(0.02, 0.499)), float(rng.uniform(0, 1)),
                            juror_id=f"{name}-n{pool['added']}")
                command = PoolCommand(action="update", name=name, add=(new,),
                                      remove=(pool["removable"][pool["added"]],))
                pool["added"] += 1
            else:
                target = pool["ids"][int(rng.integers(HEAD)) if i % 4 else -1]
                command = PoolCommand(action="update", name=name, updates=(
                    (target, float(rng.uniform(0.02, 0.499)), None),
                ))
            ops.append(("update", command))
            continue
        budget = 2.5 if i % 5 == 0 else -1.0 if i % 13 == 0 else None
        ops.append(("select", SelectionRequest(
            task_id=ODD_TASK if i % 9 == 0 else f"r{i}", pool=name,
            budget=budget, max_size=CAPS[int(rng.integers(len(CAPS)))],
        )))
    return creates, ops


def _strip(text: str) -> str:
    """A select's wire text without its trailing ``timings`` block."""
    cut = text.rfind(', "timings": {')
    return text if cut < 0 else text[:cut]


def _inline_stream(seed: int = DEFAULT_SEED) -> list[SelectionRequest]:
    """Inline selects of every model and every edge the column path checks."""
    rng = np.random.default_rng([seed, 1])
    requests = []
    for i in range(INLINE_OPS):
        model = {7: "pay", 9: "exact"}.get(i % 10, "altr")
        size = 9 if model == "exact" else 121
        eps = rng.uniform(0.05, 0.6, size)
        reqs = rng.uniform(0.0, 1.0, size)
        ids = [f"c{i}-{j}" for j in range(size)]
        if i % 4 == 1:  # ties, the larger id first in the input
            eps[1], eps[4], eps[5] = eps[0], eps[3], eps[3]
            ids[0], ids[1] = f"c{i}-z", f"c{i}-a"
        if i % 6 == 2:
            reqs[::3] = -0.0
        if i % 8 == 3:
            eps[2], eps[7] = 5e-324, 1e-323
        if i % 11 == 5:
            ids[8] = ids[3]
        if i % 13 == 4:
            reqs[:] = 1e308  # any two members' sum overflows
        if model == "altr":
            budget = {0: 2.0, 3: -1.0, 6: math.inf, 8: math.nan}.get(i % 10)
        elif model == "pay":
            budget = 2.0 if i % 20 < 10 else -1.0
        else:
            budget = 1.5 if i % 20 < 10 else None
        caps = (1, 3, 7, size + 1, None)
        requests.append(SelectionRequest(
            task_id=ODD_TASK if i % 9 == 0 else f"i{i}",
            candidates=JurorColumns(tuple(ids), eps, reqs),
            model=model,
            budget=budget,
            max_size=None if model == "pay" else caps[int(rng.integers(len(caps)))],
        ))
    return requests


def _overflow_checked(result):
    """The result, unless its total cost does not fit a float (JSON has no
    ``Infinity``): then the service's ``invalid-requirement`` error."""
    with np.errstate(over="ignore"):
        total = result.total_cost
    if math.isinf(total):
        raise InvalidRequirementError(
            f"total_cost overflows: the requirements of the {result.size} "
            "selected members sum past the largest finite float"
        )
    return result


def _inline_reference(requests) -> list[str]:
    expected = []
    for obj in requests:
        try:
            plan = plan_query(candidates=obj.candidates, model=obj.model, budget=obj.budget,
                              max_size=obj.max_size, task_id=obj.task_id)
            response = SelectionResponse.from_result(
                obj.task_id, _overflow_checked(execute_plan(plan))
            )
        except Exception as exc:
            response = SelectionResponse.from_error(obj.task_id, ErrorInfo.from_exception(exc))
        expected.append(_strip(json.dumps(response.to_dict())))
    return expected


def _refuse_constant(name: str):
    raise AssertionError(f"{name} is not JSON")


def _reference(creates, ops) -> list[str]:
    """Each operation's expected text, computed one at a time."""
    service = JuryService(registry=PoolRegistry())
    for command in creates:
        service.pool(command)
    expected = []
    for kind, obj in ops:
        if kind == "update":
            expected.append(json.dumps(service.pool(obj)))
            continue
        live = service.registry.get(obj.pool)
        try:
            plan = plan_query(pool=live.snapshot(), budget=obj.budget,
                              max_size=obj.max_size, task_id=obj.task_id)
            response = SelectionResponse.from_result(
                obj.task_id, execute_plan(plan), pool_version=live.version
            )
        except Exception as exc:
            response = SelectionResponse.from_error(obj.task_id, ErrorInfo.from_exception(exc))
        expected.append(_strip(json.dumps(response.to_dict())))
    return expected


CREATES, OPS_STREAM = _stream()
EXPECTED = _reference(CREATES, OPS_STREAM)
INLINE = _inline_stream()
EXPECTED_INLINE = _inline_reference(INLINE)


def test_the_stream_covers_every_case():
    texts = [text for (kind, _), text in zip(OPS_STREAM, EXPECTED) if kind == "select"]
    assert sum('"status": "error"' in text for text in texts) >= 3  # invalid budgets
    assert any("\\u65e5" in text and '\\"ja\\"' in text for text in texts)
    sizes = {json.loads(text + "}").get("size") for text in texts} - {None}
    assert {1, 3, 7, 11, 15, 21} <= sizes and max(sizes) > 21
    commands = [obj for kind, obj in OPS_STREAM if kind == "update"]
    assert any(c.remove and c.add for c in commands) and any(c.updates for c in commands)


def test_alone_through_the_async_service(monkeypatch):
    kicks = []
    real_kick = AsyncJuryService._kick
    monkeypatch.setattr(
        AsyncJuryService, "_kick", lambda self: (kicks.append(1), real_kick(self))
    )

    async def run():
        front = AsyncJuryService(JuryService(registry=PoolRegistry()))
        for command in CREATES:
            await front.pool(command)
        got = []
        for kind, obj in OPS_STREAM:
            if kind == "update":
                got.append(json.dumps(await front.pool(obj)))
            else:
                got.append(_strip((await front.select(obj)).to_json()))
        counters = front.stats_snapshot()["async"]
        await front.aclose()
        return got, counters

    got, counters = asyncio.run(run())
    assert got == EXPECTED
    selects = sum(kind == "select" for kind, _ in OPS_STREAM)
    # Only the first select of each new pool version queues.
    assert 0 < len(kicks) < selects // 2
    assert counters["accepted"] == counters["answered"] == counters["batches"] == selects


def test_in_pairs_through_select_many():
    service = JuryService(registry=PoolRegistry())
    for command in CREATES:
        service.pool(command)
    got, pending = [], []

    def flush():
        got.extend(_strip(r.to_json()) for r in service.select_many(pending))
        pending.clear()

    for kind, obj in OPS_STREAM:
        if kind == "update":
            flush()
            got.append(json.dumps(service.pool(obj)))
            continue
        pending.append(obj)
        if len(pending) == 2:
            flush()
    flush()
    assert got == EXPECTED


def test_the_inline_stream_covers_every_case():
    texts = [json.loads(text + "}") for text in EXPECTED_INLINE]
    codes = {t["error"]["code"] for t in texts if t["status"] == "error"}
    assert {"invalid-budget", "invalid-jury", "invalid-requirement"} <= codes
    answers = [t for t in texts if t["status"] == "ok"]
    assert {a["model"] for a in answers} == {"AltrM", "PayM"}
    assert any(a["algorithm"].startswith("OPT") for a in answers)
    assert {1, 3, 7} <= {a["size"] for a in answers} and max(a["size"] for a in answers) > 21
    joined = "\n".join(EXPECTED_INLINE)
    assert '"requirement": -0.0' in joined and '"error_rate": 5e-324' in joined
    assert "\\u65e5" in joined
    # A tie straddled by an answer: the smaller id first, as Lemma 3 sorts.
    ties = [[m["id"][-2:] for m in a["members"] if m["id"][-2:] in ("-a", "-z")]
            for a in answers]
    assert ["-a", "-z"] in ties


def test_inline_alone_through_the_async_service():
    async def run():
        front = AsyncJuryService(JuryService(registry=PoolRegistry()))
        got = [_strip((await front.select(obj)).to_json()) for obj in INLINE]
        await front.aclose()
        return got

    assert asyncio.run(run()) == EXPECTED_INLINE


def test_inline_in_pairs_through_select_many():
    service = JuryService(registry=PoolRegistry())
    got = []
    for i in range(0, len(INLINE), 2):
        got.extend(_strip(r.to_json()) for r in service.select_many(INLINE[i:i + 2]))
    assert got == EXPECTED_INLINE


def test_inline_over_http_on_two_connections():
    """Every response is JSON with no ``Infinity`` or ``NaN``: the overflow
    answers are errors."""

    async def run():
        service = AsyncJuryService(JuryService(registry=PoolRegistry()))
        async with HttpServer(service, port=0) as server:
            connections = [
                await asyncio.open_connection(server.host, server.port) for _ in range(2)
            ]
            got: dict[int, str] = {}

            async def client(connection, side):
                for index in range(side, len(INLINE), 2):
                    got[index] = await _post(*connection, "/v1/select", INLINE[index].to_dict())

            await asyncio.gather(*(client(c, side) for side, c in enumerate(connections)))
            for _, writer in connections:
                writer.close()
            return [got[index] for index in range(len(INLINE))]

    texts = asyncio.run(run())
    for text in texts:
        json.loads(text, parse_constant=_refuse_constant)
    assert [_strip(text) for text in texts] == EXPECTED_INLINE


async def _post(reader, writer, path: str, payload: dict) -> str:
    body = json.dumps(payload).encode("utf-8")
    writer.write(
        f"POST {path} HTTP/1.1\r\nHost: repro\r\nContent-Length: {len(body)}\r\n\r\n"
        .encode("ascii") + body
    )
    await writer.drain()
    head = await reader.readuntil(b"\r\n\r\n")
    assert head.split()[1] == b"200", head
    length = int(re.search(rb"Content-Length: (\d+)", head).group(1))
    return (await reader.readexactly(length)).decode("ascii")


def test_over_http_on_two_connections():
    """Selects between two updates go out on both connections at once."""

    async def run():
        service = AsyncJuryService(JuryService(registry=PoolRegistry()))
        async with HttpServer(service, port=0) as server:
            connections = [
                await asyncio.open_connection(server.host, server.port) for _ in range(2)
            ]
            for command in CREATES:
                await _post(*connections[0], "/v1/pool", command.to_dict())
            got: dict[int, str] = {}

            async def client(connection, indices):
                for index in indices:
                    text = await _post(*connection, "/v1/select", OPS_STREAM[index][1].to_dict())
                    raw.append(text)
                    got[index] = _strip(text)

            segment: list[int] = []
            for index, (kind, obj) in enumerate(OPS_STREAM + [("end", None)]):
                if kind == "select":
                    segment.append(index)
                    continue
                await asyncio.gather(*(
                    client(connection, segment[side::2])
                    for side, connection in enumerate(connections)
                ))
                segment = []
                if kind == "update":
                    got[index] = await _post(*connections[0], "/v1/pool", obj.to_dict())
            for _, writer in connections:
                writer.close()
            return [got[index] for index in range(len(OPS_STREAM))], raw

    raw: list[str] = []
    got, raw = asyncio.run(run())
    assert got == EXPECTED
    for text in raw:
        json.loads(text, parse_constant=_refuse_constant)
