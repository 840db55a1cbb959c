"""Ready frontier hits: requests the async tier answers on the event loop.

A ready hit is an AltrM select of a resident pool whose current version's
answer frontier is built.  ``AsyncJuryService.select`` answers one on the
spot when nothing is queued or in flight and the engine lock is free; a
batch in which every request is a ready hit runs ``select_many`` on the
event loop; every other batch keeps the ``asyncio.to_thread`` hop.  These
tests pin which requests take which path, that the readiness check has no
side effects, and that the answers stay the sequential reference's.
"""

from __future__ import annotations

import asyncio
import dataclasses
import threading

import numpy as np
import pytest

from repro.api import (
    AsyncJuryService,
    JuryService,
    PoolCommand,
    SelectionRequest,
    SelectionResponse,
)
from repro.api import aio
from repro.core.juror import Juror
from repro.errors import ServiceClosedError
from repro.plan import execute_plan, plan_query
from repro.plan import pool as pool_module
from repro.service import PoolRegistry, registry as registry_module
from repro.storage import PoolCatalog
from repro.testing import DEFAULT_SEED


def _candidates(tag: str, size: int = 21) -> tuple[Juror, ...]:
    rng = np.random.default_rng(DEFAULT_SEED)
    return tuple(
        Juror(float(e), float(r), juror_id=f"{tag}-{i}")
        for i, (e, r) in enumerate(
            zip(rng.uniform(0.05, 0.45, size), rng.uniform(0.0, 1.0, size))
        )
    )


def _create(name: str) -> PoolCommand:
    return PoolCommand(action="create", name=name, candidates=_candidates(name))


def _service(**options) -> JuryService:
    """A service over an in-memory registry, unless given a catalog."""
    if "catalog" not in options:
        options.setdefault("registry", PoolRegistry())
    return JuryService(**options)


def _warm(service: JuryService, *names: str) -> None:
    """Create each pool and answer one select, which builds its frontier."""
    for name in names:
        service.pool(_create(name))
        assert service.select(SelectionRequest(task_id="warm", pool=name)).ok


def _hit(task: str, pool: str = "P", **fields) -> SelectionRequest:
    return SelectionRequest(task_id=task, pool=pool, **fields)


@pytest.fixture
def thread_hops(monkeypatch):
    """The ``select_many`` batches that went through ``asyncio.to_thread``."""
    batches: list[list[str]] = []
    real = asyncio.to_thread

    async def counting(fn, *args, **kwargs):
        if getattr(fn, "__name__", "") == "select_many":
            batches.append([request.task_id for request in args[0]])
        return await real(fn, *args, **kwargs)

    monkeypatch.setattr(aio.asyncio, "to_thread", counting)
    return batches


def _answer(service: JuryService, requests: list[SelectionRequest]):
    async def run():
        front = AsyncJuryService(service)
        # gather enqueues every request before the drainer first runs, so
        # they form one batch.
        responses = await front.select_many(requests)
        await front.aclose()
        return responses

    return asyncio.run(run())


def _without_timings(response) -> dict:
    row = response.to_dict()
    row.pop("timings")
    return row


def _reference(service: JuryService, request: SelectionRequest) -> dict:
    """The sequential reference: plan and execute over this version's snapshot."""
    live = service.registry.get(request.pool)
    plan = plan_query(
        pool=live.snapshot(), model=request.model, budget=request.budget,
        max_size=request.max_size, task_id=request.task_id,
    )
    return _without_timings(
        SelectionResponse.from_result(
            request.task_id, execute_plan(plan), pool_version=live.version
        )
    )


@pytest.fixture
def fingerprints(monkeypatch):
    """Every content hash of a live pool or of a pool snapshot."""
    calls: list[int] = []
    real = registry_module.columns_fingerprint

    def counting(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(registry_module, "columns_fingerprint", counting)
    monkeypatch.setattr(pool_module, "columns_fingerprint", counting)
    return calls


class TestReadiness:
    def test_warm_named_altr_select_is_ready(self):
        service = _service()
        _warm(service, "P")
        assert service.ready_frontier_hit(_hit("t"))
        assert service.ready_frontier_hit(_hit("t", max_size=5, budget=2.0))

    @pytest.mark.parametrize(
        "request_",
        [
            _hit("explain", explain=True),
            _hit("pay", model="pay", budget=2.0),
            _hit("exact", model="exact"),
            SelectionRequest(task_id="inline", candidates=_candidates("inline")),
            _hit("unknown", pool="ghost"),
        ],
        ids=lambda request: request.task_id,
    )
    def test_other_requests_are_not_ready(self, request_):
        service = _service()
        _warm(service, "P")
        assert not service.ready_frontier_hit(request_)

    def test_new_pool_version_is_not_ready_until_answered(self):
        service = _service()
        _warm(service, "P")
        service.pool(
            PoolCommand(action="update", name="P", add=(Juror(0.01, juror_id="ace"),))
        )
        assert not service.ready_frontier_hit(_hit("t"))
        service.select(_hit("t"))
        assert service.ready_frontier_hit(_hit("t"))

    def test_answered_version_is_ready_without_a_fingerprint(self, fingerprints):
        service = _service()
        _warm(service, "P")
        service.pool(
            PoolCommand(action="update", name="P", add=(Juror(0.01, juror_id="ace"),))
        )
        assert service.select(_hit("t")).ok
        assert service.ready_frontier_hit(_hit("t"))
        assert fingerprints == []

    def test_cold_catalog_pool_is_not_ready(self, tmp_path):
        catalog = PoolCatalog(tmp_path / "cat", max_resident=1)
        service = _service(catalog=catalog)
        _warm(service, "P", "Q")  # creating Q evicts P
        assert catalog.resident_pool("P") is None
        assert not service.ready_frontier_hit(_hit("t", pool="P"))
        assert service.ready_frontier_hit(_hit("t", pool="Q"))
        catalog.close()

    def test_check_has_no_side_effects(self, tmp_path, fingerprints):
        catalog = PoolCatalog(tmp_path / "cat", max_resident=2)
        service = _service(catalog=catalog)
        _warm(service, "P", "Q", "R")  # P is cold, Q and R resident
        resident = [catalog.resident_pool(name) for name in ("Q", "R")]

        def state():
            return (
                catalog.stats.lazy_loads,
                dataclasses.asdict(service.engine.stats),
                [
                    (
                        pool._frontier,
                        pool._answers,
                        dict(pool._answers._kept),
                        pool._answers._members,
                        dataclasses.asdict(pool.stats),
                    )
                    for pool in resident
                ],
                list(catalog._resident),
                len(fingerprints),
            )

        before = state()
        for pool in ("P", "Q", "R", "ghost"):
            service.ready_frontier_hit(_hit("t", pool=pool))
        assert state() == before
        catalog.close()


class TestLoopPath:
    def test_batch_of_ready_hits_never_hops(self, thread_hops):
        service = _service()
        _warm(service, "P", "Q")
        requests = [
            _hit(f"t{i}", pool="PQ"[i % 2], max_size=None if i % 3 else 7)
            for i in range(12)
        ]
        responses = _answer(service, requests)
        assert thread_hops == []
        assert [_without_timings(r) for r in responses] == [
            _reference(service, request) for request in requests
        ]

    @pytest.mark.parametrize(
        "odd_one",
        [
            _hit("explain", explain=True),
            _hit("pay", model="pay", budget=2.0),
            _hit("exact", model="exact", budget=2.0),
            SelectionRequest(task_id="inline", candidates=_candidates("inline")),
            _hit("unknown", pool="ghost"),
        ],
        ids=lambda request: request.task_id,
    )
    def test_one_unready_request_sends_the_batch_to_a_thread(
        self, thread_hops, odd_one
    ):
        service = _service()
        _warm(service, "P")
        _answer(service, [_hit("a"), odd_one, _hit("b")])
        assert thread_hops == [["a", odd_one.task_id, "b"]]

    def test_new_pool_version_sends_the_batch_to_a_thread(self, thread_hops):
        service = _service()
        _warm(service, "P", "Q")
        service.pool(PoolCommand(action="update", name="Q", remove=("Q-0",)))
        _answer(service, [_hit("a"), _hit("b", pool="Q")])
        assert thread_hops == [["a", "b"]]

    def test_cold_catalog_pool_sends_the_batch_to_a_thread(
        self, thread_hops, tmp_path
    ):
        catalog = PoolCatalog(tmp_path / "cat", max_resident=1)
        service = _service(catalog=catalog)
        _warm(service, "P", "Q")  # P is cold now
        responses = _answer(service, [_hit("a", pool="Q"), _hit("b", pool="P")])
        assert thread_hops == [["a", "b"]]
        assert all(response.ok for response in responses)
        catalog.close()

    def test_loop_runs_other_tasks_between_inline_batches(self):
        """A backlog of ready hits does not hold the loop for more than one
        batch: other tasks run between consecutive inline batches."""
        service = _service()
        _warm(service, "P")
        events: list[str] = []
        real = service.select_many

        def recording(requests):
            events.append("batch")
            return real(requests)

        service.select_many = recording

        async def run():
            front = AsyncJuryService(service, max_batch=2)

            async def ticker():
                for _ in range(4):
                    events.append("tick")
                    await asyncio.sleep(0)

            await asyncio.gather(
                front.select_many([_hit(f"t{i}") for i in range(6)]), ticker()
            )
            await front.aclose()

        asyncio.run(run())
        first, last = events.index("batch"), len(events) - events[::-1].index("batch")
        assert events.count("batch") == 3
        assert "tick" in events[first:last]


class TestOnTheSpot:
    """``select()`` answers a lone ready hit synchronously, as a batch of one."""

    def test_lone_ready_hit_takes_no_thread_and_no_drainer(self, thread_hops, monkeypatch):
        service = _service()
        _warm(service, "P")
        futures: list[int] = []

        async def run():
            front = AsyncJuryService(service)
            loop = asyncio.get_running_loop()
            real = loop.create_future
            monkeypatch.setattr(loop, "create_future", lambda: (futures.append(1), real())[1])
            responses = [await front.select(_hit(f"t{i}", max_size=i or None))
                         for i in range(4)]
            drainer, counters = front._drainer, front.stats_snapshot()["async"]
            created = len(futures)
            await front.aclose()
            return responses, drainer, counters, created

        responses, drainer, counters, created = asyncio.run(run())
        assert thread_hops == [] and created == 0 and drainer is None
        assert (counters["accepted"], counters["answered"], counters["batches"]) == (4, 4, 4)
        assert [_without_timings(r) for r in responses] == [
            _reference(service, _hit(f"t{i}", max_size=i or None)) for i in range(4)
        ]

    def test_queued_behind_a_pool_command_then_answered_in_order(self):
        service = _service()
        _warm(service, "P", "Q")
        gate = threading.Event()
        real_pool = service.pool
        service.pool = lambda command: (gate.wait(5), real_pool(command))[1]
        answered: list[str] = []

        async def run():
            front = AsyncJuryService(service)

            async def select(task):
                response = await front.select(_hit(task))
                answered.append(task)
                return response

            command = asyncio.create_task(front.pool(
                PoolCommand(action="update", name="Q", remove=("Q-0",))
            ))
            await asyncio.sleep(0)  # the command now holds the engine lock
            tasks = [asyncio.create_task(select(f"t{i}")) for i in range(3)]
            await asyncio.sleep(0.01)
            # The drainer took them and waits on the lock; none is answered.
            waiting = front.queued + front.stats_snapshot()["async"]["in_flight"]
            assert answered == []
            gate.set()
            await command
            # Issued once the command is done: answered after the three
            # that waited on it.
            late = asyncio.create_task(select("late"))
            await asyncio.gather(*tasks, late)
            counters = front.stats_snapshot()["async"]
            await front.aclose()
            return waiting, counters

        waiting, counters = asyncio.run(run())
        assert waiting == 3
        assert answered == ["t0", "t1", "t2", "late"]
        assert counters["accepted"] == counters["answered"] == 4

    def test_queued_behind_a_pending_request(self, thread_hops):
        service = _service()
        _warm(service, "P")
        inline = SelectionRequest(task_id="inline", candidates=_candidates("inline"))

        async def run():
            front = AsyncJuryService(service)
            first = asyncio.create_task(front.select(inline))
            hit = asyncio.create_task(front.select(_hit("hit")))
            await asyncio.sleep(0)  # both have run; the drainer has not
            queued = front.queued
            await asyncio.gather(first, hit)
            await front.aclose()
            return queued

        assert asyncio.run(run()) == 2
        assert thread_hops == [["inline", "hit"]]

    def test_closed_service_refuses_a_ready_hit(self):
        service = _service()
        _warm(service, "P")

        async def run():
            front = AsyncJuryService(service)
            await front.aclose()
            with pytest.raises(ServiceClosedError):
                await front.select(_hit("t"))

        asyncio.run(run())

    def test_select_many_still_forms_one_batch(self, thread_hops):
        service = _service()
        _warm(service, "P")

        async def run():
            front = AsyncJuryService(service)
            responses = await front.select_many([_hit(f"t{i}") for i in range(5)])
            counters = front.stats_snapshot()["async"]
            await front.aclose()
            return responses, counters

        responses, counters = asyncio.run(run())
        assert counters["batches"] == 1 and counters["answered"] == 5
        assert thread_hops == []
        assert all(response.ok for response in responses)
