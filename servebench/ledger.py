"""The per-layer ledger behind ``--trace 1``.

The traced run replays the first operations of the workload once through
each layer's public entry point, every pass starting from the same state
(fresh server or service, the workload's pools created, warm-up done):

* the HTTP wire, untraced and then traced (``trace.overhead``);
* ``AsyncJuryService`` with two concurrent callers;
* ``JuryService.select_many`` and ``BatchSelectionEngine.run``, on pairs of
  consecutive selects, the batch shape two concurrent callers produce;
* the public calls the engine makes for each query: ``CandidatePool``,
  ``.fingerprint``, ``plan_query``, ``execute_plan``, ``AnswerFrontier``,
  ``batch_prefix_jer_sweep``, and the ``LivePool`` mutations and repairs;
* the same mutations on a ``PoolCatalog``-bound pool, for ``storage``.

Each call leaves one :class:`Span` (name, start, end, parent, operation) in
memory; the spans are written out when the run ends.  A layer's self time
is its spans' busy time minus that of the layers it calls, per select.
Counters come from the server's ``GET /v1/stats`` read before and after the
traced wire pass.  A layer the stream never reaches on this workload (pay
and exact on the pool workloads, mutations on the read-only ones) is timed
on seeded probe inputs of the same shape, recorded as ``probe.<name>``
spans with no parent, so every timing is measured on every workload.
"""

from __future__ import annotations

import asyncio
import gc
import json
import shutil
import time
import tracemalloc
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.api import AsyncJuryService, JuryService, PoolCommand, SelectionRequest
from repro.core.jer import batch_prefix_jer_sweep
from repro.plan import AnswerFrontier, execute_plan, frontier_eligible, plan_query
from repro.service import CandidatePool, PoolRegistry, SelectionQuery
from repro.storage import PoolCatalog
from wire import request_body
from workloads import inline_request

#: Most operations one traced run replays per pass.
TRACE_OPS = {"inline-mix": 1000, "pool-repeat": 6000, "pool-churn": 1500}
#: Probe re-estimates applied where the stream has no updates.
PROBE_UPDATES = 64

UNITS = {
    "api.server.self_us": "us",
    "api.aio.select_us": "us",
    "api.aio.self_us": "us",
    "api.aio.batch_size": "count",
    "api.protocol.decode_us": "us",
    "api.protocol.encode_us": "us",
    "api.protocol.request_bytes": "bytes",
    "api.protocol.response_bytes": "bytes",
    "api.service.self_us": "us",
    "api.service.pool_us": "us",
    "service.batch.self_us": "us",
    "service.batch.frontier_hit_ratio": "ratio",
    "service.batch.sweep_cache_hit_ratio": "ratio",
    "service.pool.build_us": "us",
    "service.pool.fingerprint_us": "us",
    "plan.plan_us": "us",
    "plan.execute_us.altr": "us",
    "plan.execute_us.pay": "us",
    "plan.execute_us.exact": "us",
    "plan.frontier.select_us": "us",
    "plan.frontier.builds_per_req": "count",
    "core.kernels.sweep_us": "us",
    "core.kernels.calls_per_req": "count",
    "service.registry.mutate_us": "us",
    "service.registry.repair_us": "us",
    "service.registry.rebuild_ratio": "ratio",
    "service.registry.state_mb": "MB",
    "storage.append_us": "us",
    "storage.wal_appends_per_update": "count",
    "storage.fsyncs_per_update": "count",
    "storage.bytes_per_update": "bytes",
    "trace.overhead": "ratio",
}


# ----------------------------------------------------------------------
# spans and self time
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Span:
    sid: int
    name: str
    start: float
    end: float
    parent: int | None
    op: int


class Tracer:
    """Spans in memory; a span's parent is the named layer's span of its op."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._by_op: dict[tuple[str, int], int] = {}

    def add(self, name: str, start: float, end: float, ops, parent: str | None = None) -> None:
        sid = len(self.spans)
        parent_sid = self._by_op.get((parent, ops[0])) if parent else None
        self.spans.append(Span(sid, name, start, end, parent_sid, ops[0]))
        for op in ops:
            self._by_op.setdefault((name, op), sid)

    def call(self, name: str, op: int, parent: str | None, fn, *args, **kwargs):
        start = time.perf_counter()
        result = fn(*args, **kwargs)
        self.add(name, start, time.perf_counter(), (op,), parent)
        return result

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps([s.sid, s.name, s.start, s.end, s.parent, s.op]) + "\n")


def busy(spans: list[Span]) -> float:
    """Length of the union of the spans' intervals (overlaps count once)."""
    total, reach = 0.0, float("-inf")
    for s in sorted(spans, key=lambda s: s.start):
        if s.end > reach:
            total += s.end - max(s.start, reach)
            reach = s.end
    return total


def self_times(spans: list[Span]) -> dict[str, float]:
    """Per span name: its busy time minus the busy time of its children."""
    by_name: dict[str, list[Span]] = {}
    children: dict[str, list[Span]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)
        if s.parent is not None:
            children.setdefault(spans[s.parent].name, []).append(s)
    return {
        name: busy(group) - busy(children.get(name, []))
        for name, group in by_name.items()
    }


def per_call_us(spans: list[Span], name: str) -> float:
    """Mean µs per span named ``name``, else per probe span of that name."""
    for label in (name, f"probe.{name}", f"probe.req.{name}"):
        group = [s for s in spans if s.name == label]
        if group:
            return sum(s.end - s.start for s in group) / len(group) * 1e6
    return 0.0


# ----------------------------------------------------------------------
# inputs
# ----------------------------------------------------------------------


@dataclass
class Replay:
    """The decoded operations one traced run replays in every pass."""

    creates: list[PoolCommand]
    warmup: list[SelectionRequest]
    ops: list[tuple[str, object]]  # ("select", SelectionRequest) | ("update", PoolCommand)

    @property
    def selects(self) -> int:
        return sum(kind == "select" for kind, _ in self.ops)

    def batches(self):
        """Updates alone; consecutive selects in pairs."""
        pair: list[int] = []
        for i, (kind, _) in enumerate(self.ops):
            if kind == "update":
                if pair:
                    yield pair
                    pair = []
                yield [i]
                continue
            pair.append(i)
            if len(pair) == 2:
                yield pair
                pair = []
        if pair:
            yield pair


def decode(workload, count: int) -> Replay:
    ops: list[tuple[str, object]] = []
    for i in range(count):
        obj = json.loads(workload.body(i))
        if workload.is_update[i]:
            ops.append(("update", PoolCommand.from_dict(obj)))
        else:
            ops.append(("select", SelectionRequest.from_dict(obj)))
    return Replay(
        creates=[PoolCommand.from_dict(json.loads(request_body(r))) for r in workload.setup],
        warmup=[SelectionRequest.from_dict(json.loads(request_body(r))) for r in workload.warmup],
        ops=ops,
    )


def _probe_updates(pool_candidates, seed: int) -> list[tuple[str, float]]:
    """Seeded re-estimates of one pool's jurors (where the stream has none)."""
    rng = np.random.default_rng([seed, 7])
    members = list(pool_candidates)
    picks = rng.integers(len(members), size=PROBE_UPDATES)
    return [
        (members[k].juror_id,
         float(min(0.499, max(0.02, members[k].error_rate + rng.uniform(-0.03, 0.03)))))
        for k in picks
    ]


def _probe_requests(seed: int) -> list[SelectionRequest]:
    """Inline requests of every model, for layers the stream never calls."""
    rng = np.random.default_rng([seed, 8])
    return [
        SelectionRequest.from_dict(json.loads(request_body(inline_request(rng, f"probe{i}", m))))
        for i, m in enumerate(["altr", "pay", "exact"] * 8)
    ]


def _probe_pool(replay: Replay) -> PoolCommand:
    """The workload's first pool, or one over the first inline candidates."""
    if replay.creates:
        return replay.creates[0]
    candidates = next(obj.candidates for kind, obj in replay.ops if kind == "select")
    return PoolCommand(action="create", name="probe", candidates=candidates)


def _query(request: SelectionRequest) -> SelectionQuery:
    return SelectionQuery(
        task_id=request.task_id,
        candidates=request.candidates,
        pool_name=request.pool,
        model=request.model,
        budget=request.budget,
        max_size=request.max_size,
        variant=request.variant,
        method=request.method,
    )


# ----------------------------------------------------------------------
# in-process passes
# ----------------------------------------------------------------------


def _fresh_service(replay: Replay, workload, workdir: Path) -> JuryService:
    data_dir = None
    if workload.durable:
        data_dir = workdir / "catalog"
        shutil.rmtree(data_dir, ignore_errors=True)
    service = JuryService(data_dir=data_dir)
    for command in replay.creates:
        service.pool(command)
    service.select_many(replay.warmup)
    return service


def _aio_pass(service: JuryService, replay: Replay, tracer: Tracer) -> None:
    async def run() -> None:
        aio = AsyncJuryService(service)
        order = iter(range(len(replay.ops)))

        async def caller() -> None:
            for i in order:
                kind, obj = replay.ops[i]
                start = time.perf_counter()
                await (aio.select(obj) if kind == "select" else aio.pool(obj))
                tracer.add("api.aio", start, time.perf_counter(), (i,), "api.server")

        await asyncio.gather(caller(), caller())
        await aio.aclose()

    asyncio.run(run())


def _service_pass(service: JuryService, replay: Replay, tracer: Tracer) -> None:
    """``JuryService`` calls, plus the protocol encode of what they return."""
    for batch in replay.batches():
        kind, obj = replay.ops[batch[0]]
        if kind == "update":
            ack = tracer.call("api.service", batch[0], "api.aio", service.pool, obj)
            tracer.call("api.protocol.encode", batch[0], None, json.dumps, ack)
            continue
        start = time.perf_counter()
        responses = service.select_many([replay.ops[i][1] for i in batch])
        tracer.add("api.service", start, time.perf_counter(), batch, "api.aio")
        for i, response in zip(batch, responses):
            start = time.perf_counter()
            json.dumps(response.to_dict()).encode("utf-8")
            tracer.add("api.protocol.encode", start, time.perf_counter(), (i,))


def _engine_pass(service: JuryService, replay: Replay, tracer: Tracer) -> None:
    for batch in replay.batches():
        kind, obj = replay.ops[batch[0]]
        if kind == "update":
            service.pool(obj)
            continue
        queries = [_query(replay.ops[i][1]) for i in batch]
        start = time.perf_counter()
        service.engine.run(queries)
        tracer.add("service.batch", start, time.perf_counter(), batch, "api.service")


class _Pipeline:
    """The public calls ``BatchSelectionEngine.run`` makes, one at a time."""

    def __init__(self, tracer: Tracer, registry: PoolRegistry, prefix: str = "") -> None:
        self.tracer = tracer
        self.registry = registry
        self.prefix = prefix
        self.parent = None if prefix else "service.batch"
        self.frontiers: dict[str, AnswerFrontier] = {}

    def _call(self, name, op, fn, *args, **kwargs):
        return self.tracer.call(self.prefix + name, op, self.parent, fn, *args, **kwargs)

    def select(self, op: int, request: SelectionRequest) -> None:
        live = None if request.pool is None else self.registry.get(request.pool)
        if live is None:
            pool = self._call("service.pool.build", op, CandidatePool, request.candidates)
        else:
            pool = self._call("service.pool.build", op, live.snapshot)
        altr = request.model == "altr" and frontier_eligible("altr", pool.size)
        if altr:
            fingerprint = self._call("service.pool.fingerprint", op, getattr, pool, "fingerprint")
            frontier = self.frontiers.get(fingerprint)
            if frontier is not None:
                self._call("plan.frontier.select", op, frontier.select, pool.ordered,
                           max_size=request.max_size)
                return
        plan = self._call(
            "plan.plan", op, plan_query, pool=pool, model=request.model,
            budget=request.budget, max_size=request.max_size, variant=request.variant,
            method=request.method, task_id=request.task_id,
        )
        profile = None
        if altr and live is None:
            ns, jers = self._call("core.kernels.sweep", op, batch_prefix_jer_sweep,
                                  pool.error_rates[None, :])
            profile = (ns, jers[0])
            self.frontiers[fingerprint] = self._call(
                "plan.frontier.build", op, AnswerFrontier.build, ns, jers[0],
                fingerprint=fingerprint)
        elif altr:
            profile = self._call("service.registry.repair", op, _repair, live)
            self.frontiers[fingerprint] = live.answer_frontier()[0]
        self._call(f"plan.execute.{request.model}", op, execute_plan, plan, profile=profile)

    def update(self, op: int, command: PoolCommand) -> None:
        self.tracer.call("service.registry.mutate", op, "api.service", _mutate,
                         self.registry.get(command.name), command)


def _repair(live):
    """The first sweep after a mutation, with its answer frontier."""
    profile = live.sweep_profile()
    live.answer_frontier()
    return profile


def _mutate(live, command: PoolCommand) -> None:
    """What ``JuryService.pool`` applies, in its remove -> add -> set order."""
    for juror_id in command.remove:
        live.remove_juror(juror_id)
    for juror in command.add:
        live.add_juror(juror)
    for juror_id, eps, req in command.updates:
        live.update_juror(juror_id, error_rate=eps, requirement=req)


def _inner_pass(replay: Replay, tracer: Tracer, seed: int) -> dict:
    registry = PoolRegistry()
    for command in replay.creates:
        registry.create(command.name, command.candidates)
    tracemalloc.start()
    base = tracemalloc.get_traced_memory()[0]
    for name in registry.names():
        registry.get(name).sweep_profile()
    state_bytes = tracemalloc.get_traced_memory()[0] - base
    tracemalloc.stop()
    warm = _Pipeline(Tracer(), registry)
    for request in replay.warmup:
        warm.select(-1, request)
    pipeline = _Pipeline(tracer, registry)
    pipeline.frontiers = warm.frontiers
    before = {name: _counts(registry.get(name)) for name in registry.names()}
    for i, (kind, obj) in enumerate(replay.ops):
        if kind == "select":
            pipeline.select(i, obj)
        else:
            pipeline.update(i, obj)
    repairs = rebuilds = 0
    for name in registry.names():
        after = _counts(registry.get(name))
        repairs += after[0] - before[name][0]
        rebuilds += after[1] - before[name][1]
    if not registry.names():
        state_bytes, repairs, rebuilds = _probe_registry(replay, tracer, seed)
    elif not any(kind == "update" for kind, _ in replay.ops):
        _probe_mutations(registry.get(_probe_pool(replay).name), tracer, seed)
    return {
        "service.registry.rebuild_ratio": rebuilds / repairs if repairs else 0.0,
        "service.registry.state_mb": state_bytes / 2**20,
    }


def _counts(live) -> tuple[int, int]:
    return live.stats.repairs, live.stats.full_rebuilds


def _probe_registry(replay: Replay, tracer: Tracer, seed: int) -> tuple[int, int, int]:
    """Inline workloads: a live pool over the first request's candidates."""
    live = PoolRegistry().create("probe", _probe_pool(replay).candidates)
    tracemalloc.start()
    base = tracemalloc.get_traced_memory()[0]
    live.sweep_profile()
    state_bytes = tracemalloc.get_traced_memory()[0] - base
    tracemalloc.stop()
    before = _counts(live)
    _probe_mutations(live, tracer, seed)
    after = _counts(live)
    return state_bytes, after[0] - before[0], after[1] - before[1]


def _probe_mutations(live, tracer: Tracer, seed: int) -> None:
    for k, (juror_id, eps) in enumerate(_probe_updates(live.ordered, seed)):
        tracer.call("probe.service.registry.mutate", k, None, live.update_juror,
                    juror_id, error_rate=eps)
        tracer.call("probe.service.registry.repair", k, None, _repair, live)


def _probe_calls(replay: Replay, tracer: Tracer, seed: int) -> None:
    """Per-call timings for the public calls this stream never makes."""
    names = {s.name for s in tracer.spans}
    pipeline = _Pipeline(tracer, PoolRegistry(), prefix="probe.req.")
    for k, request in enumerate(_probe_requests(seed)):
        pipeline.select(k, request)
        if "plan.frontier.select" not in names and request.model == "altr":
            pool = CandidatePool(request.candidates)
            frontier = pipeline.frontiers[pool.fingerprint]
            tracer.call("probe.plan.frontier.select", k, None, frontier.select,
                        pool.ordered, max_size=request.max_size)
    if "core.kernels.sweep" not in names:
        for k, command in enumerate(replay.creates):
            eps = np.sort(np.array([j.error_rate for j in command.candidates]))
            tracer.call("probe.core.kernels.sweep", k, None, batch_prefix_jer_sweep,
                        eps[None, :])


def _service_pool_probe(replay: Replay, tracer: Tracer, seed: int) -> None:
    """``JuryService.pool`` on probe re-estimates, for read-only streams."""
    service = JuryService()
    try:
        command = _probe_pool(replay)
        service.pool(command)
        for k, (juror_id, eps) in enumerate(_probe_updates(command.candidates, seed)):
            update = PoolCommand(action="update", name=command.name,
                                 updates=((juror_id, eps, None),))
            tracer.call("probe.api.service.pool", k, None, service.pool, update)
    finally:
        service.close()


def _storage(replay: Replay, workdir: Path, seed: int) -> dict:
    """The same mutations on in-memory and on catalog-bound pools."""
    updates = [(i, obj) for i, (kind, obj) in enumerate(replay.ops) if kind == "update"]
    creates = {c.name: c for c in replay.creates}
    if not updates:
        base = _probe_pool(replay)
        creates = {base.name: base}
        updates = [
            (k, PoolCommand(action="update", name=base.name, updates=((jid, eps, None),)))
            for k, (jid, eps) in enumerate(_probe_updates(base.candidates, seed))
        ]
    names = sorted({command.name for _, command in updates})
    data_dir = workdir / "storage"
    shutil.rmtree(data_dir, ignore_errors=True)
    memory = PoolRegistry()
    catalog = PoolCatalog(data_dir)
    try:
        for name in names:
            memory.create(name, creates[name].candidates)
            catalog.create(name, creates[name].candidates)
        stats0, bytes0 = catalog.stats_snapshot(), _tree_bytes(data_dir)
        in_memory = on_disk = 0.0
        for _, command in updates:
            start = time.perf_counter()
            _mutate(memory.get(command.name), command)
            middle = time.perf_counter()
            _mutate(catalog.open(command.name), command)
            in_memory += middle - start
            on_disk += time.perf_counter() - middle
        stats1, bytes1 = catalog.stats_snapshot(), _tree_bytes(data_dir)
    finally:
        catalog.close()
        shutil.rmtree(data_dir, ignore_errors=True)
    n = len(updates)
    return {
        "storage.append_us": (on_disk - in_memory) / n * 1e6,
        "storage.wal_appends_per_update": (stats1["wal_appends"] - stats0["wal_appends"]) / n,
        "storage.fsyncs_per_update": (stats1["fsyncs"] - stats0["fsyncs"]) / n,
        "storage.bytes_per_update": (bytes1 - bytes0) / n,
    }


def _tree_bytes(root: Path) -> int:
    return sum(p.stat().st_size for p in root.rglob("*") if p.is_file())


# ----------------------------------------------------------------------
# the traced run
# ----------------------------------------------------------------------


def _delta(after: dict, before: dict, *path) -> float:
    for key in path:
        after, before = after[key], before[key]
    return after - before


def _dispatches(stats: dict) -> int:
    return sum(sum(backends.values()) for backends in stats["kernels"]["dispatch"].values())


def traced_run(workload, env: dict, seconds: float, start_server, workdir: Path):
    """Run every pass; returns (per-layer metrics, wire runs, tracer)."""
    from wire import drive, http_get

    requests = workload.ops[: TRACE_OPS[workload.name]]
    server, _ = start_server(workload, env, "untraced")
    try:
        untraced = drive(server.host, server.port, requests, connections=2, seconds=seconds)
    finally:
        server.stop()
    requests = requests[: untraced.sent]
    tracer = Tracer()
    server, _ = start_server(workload, env, "traced")
    try:
        before = json.loads(http_get(server.host, server.port, "/v1/stats"))
        traced = drive(
            server.host, server.port, requests, connections=2, seconds=float("inf"),
            on_done=lambda i, start, end: tracer.add("api.server", start, end, (i,)),
        )
        after = json.loads(http_get(server.host, server.port, "/v1/stats"))
    finally:
        server.stop()

    replay = decode(workload, len(requests))
    for i in range(len(requests)):
        parse = PoolCommand.from_dict if workload.is_update[i] else SelectionRequest.from_dict
        start = time.perf_counter()
        parse(json.loads(workload.body(i)))
        tracer.add("api.protocol.decode", start, time.perf_counter(), (i,))

    for run_pass in (_aio_pass, _service_pass, _engine_pass):
        service = _fresh_service(replay, workload, workdir)
        try:
            run_pass(service, replay, tracer)
        finally:
            service.close()
            del service
            gc.collect()
    registry_metrics = _inner_pass(replay, tracer, workload.seed)
    gc.collect()
    _probe_calls(replay, tracer, workload.seed)
    if not any(kind == "update" for kind, _ in replay.ops):
        _service_pool_probe(replay, tracer, workload.seed)
    storage = _storage(replay, workdir, workload.seed)

    spans = tracer.spans
    selects = max(replay.selects, 1)
    ops = len(replay.ops)
    pool_calls = [
        s for s in spans if s.name == "api.service" and replay.ops[s.op][0] == "update"
    ]
    own = self_times(spans)
    by_name = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)
    cache_hits = _delta(after, before, "cache", "hits")
    cache_calls = cache_hits + _delta(after, before, "cache", "misses")
    batches = _delta(after, before, "async", "batches")
    answered_ops = _delta(after, before, "async", "answered")
    answered = [body for body in traced.bodies if body is not None]
    values = {
        "api.server.self_us": own.get("api.server", 0.0) / ops * 1e6,
        "api.aio.select_us": busy(by_name.get("api.aio", [])) / ops * 1e6,
        "api.aio.self_us": own.get("api.aio", 0.0) / ops * 1e6,
        "api.aio.batch_size": answered_ops / batches if batches else 0.0,
        "api.protocol.decode_us": per_call_us(spans, "api.protocol.decode"),
        "api.protocol.encode_us": per_call_us(spans, "api.protocol.encode"),
        "api.protocol.request_bytes": sum(map(len, map(workload.body, range(ops)))) / ops,
        "api.protocol.response_bytes": sum(map(len, answered)) / max(len(answered), 1),
        "api.service.self_us": own.get("api.service", 0.0) / ops * 1e6,
        "api.service.pool_us": (
            sum(s.end - s.start for s in pool_calls) / len(pool_calls) * 1e6
            if pool_calls else per_call_us(spans, "api.service.pool")
        ),
        "service.batch.self_us": own.get("service.batch", 0.0) / selects * 1e6,
        "service.batch.frontier_hit_ratio":
            _delta(after, before, "engine", "frontier_hits") / selects,
        "service.batch.sweep_cache_hit_ratio": cache_hits / cache_calls if cache_calls else 0.0,
        "service.pool.build_us": per_call_us(spans, "service.pool.build"),
        "service.pool.fingerprint_us": per_call_us(spans, "service.pool.fingerprint"),
        "plan.plan_us": per_call_us(spans, "plan.plan"),
        "plan.execute_us.altr": per_call_us(spans, "plan.execute.altr"),
        "plan.execute_us.pay": per_call_us(spans, "plan.execute.pay"),
        "plan.execute_us.exact": per_call_us(spans, "plan.execute.exact"),
        "plan.frontier.select_us": per_call_us(spans, "plan.frontier.select"),
        "plan.frontier.builds_per_req": _delta(after, before, "frontier", "builds") / selects,
        "core.kernels.sweep_us": per_call_us(spans, "core.kernels.sweep"),
        "core.kernels.calls_per_req": (_dispatches(after) - _dispatches(before)) / selects,
        "service.registry.mutate_us": per_call_us(spans, "service.registry.mutate"),
        "service.registry.repair_us": per_call_us(spans, "service.registry.repair"),
        **registry_metrics,
        **storage,
        "trace.overhead": (untraced.completed / untraced.seconds)
        / (traced.completed / traced.seconds) - 1.0,
    }
    metrics = {name: {"value": values[name], "unit": UNITS[name]} for name in UNITS}
    return metrics, (untraced, traced), tracer
