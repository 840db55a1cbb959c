"""AsyncJuryService: interleaved concurrent clients, bit-identical answers."""

from __future__ import annotations

import asyncio
import threading

import numpy as np
import pytest

from repro.api import (
    AsyncJuryService,
    JuryService,
    PoolCommand,
    SelectionRequest,
)
from repro.core.juror import Juror
from repro.errors import ServiceClosedError
from repro.testing import DEFAULT_SEED


def _make_candidates(rng: np.random.Generator, size: int, tag: str) -> tuple[Juror, ...]:
    eps = rng.uniform(0.05, 0.6, size=size)
    return tuple(
        Juror(float(e), float(rng.uniform(0.0, 1.0)), juror_id=f"{tag}-{i}")
        for i, e in enumerate(eps)
    )


def _mixed_stream(count: int) -> list[SelectionRequest]:
    """A deterministic mixed AltrM/PayM/exact request stream."""
    rng = np.random.default_rng(DEFAULT_SEED)
    requests: list[SelectionRequest] = []
    for i in range(count):
        cands = _make_candidates(rng, 9, f"t{i}")
        if i % 5 == 3:
            requests.append(
                SelectionRequest(
                    task_id=f"t{i}", candidates=cands, model="pay", budget=2.0
                )
            )
        elif i % 5 == 4:
            requests.append(
                SelectionRequest(
                    task_id=f"t{i}", candidates=cands, model="exact", budget=2.0
                )
            )
        else:
            requests.append(SelectionRequest(task_id=f"t{i}", candidates=cands))
    return requests


def _normalise(response) -> dict:
    """Wire form minus timings (the only permitted dispatch-dependent field)."""
    row = response.to_dict()
    row.pop("timings")
    return row


class TestConcurrencyBitIdentity:
    def test_interleaved_clients_match_sequential_dispatch(self):
        """Many interleaved async clients get byte-for-byte the answers a
        sequential loop produces for the same requests."""
        requests = _mixed_stream(60)

        sequential = [
            _normalise(response)
            for response in (JuryService().select(r) for r in requests)
        ]

        async def run_concurrent():
            service = AsyncJuryService(max_batch=16, max_pending=32)

            async def client(worker: int):
                # Each client owns an interleaved slice and answers it
                # request by request (closed loop, like a real session).
                answers = []
                for request in requests[worker::6]:
                    answers.append(await service.select(request))
                return worker, answers

            results = await asyncio.gather(*(client(w) for w in range(6)))
            merged: dict[str, dict] = {}
            for worker, answers in results:
                for request, response in zip(requests[worker::6], answers):
                    assert response.task_id == request.task_id
                    merged[request.task_id] = _normalise(response)
            return [merged[r.task_id] for r in requests]

        concurrent = asyncio.run(run_concurrent())
        assert concurrent == sequential

    def test_batches_actually_coalesce(self):
        """Concurrent submission must produce fewer engine passes than
        requests (the whole point of the multiplexer)."""
        requests = _mixed_stream(40)

        async def run():
            service = AsyncJuryService(max_batch=64, max_pending=64)
            await service.select_many(requests)
            return service.service.engine.stats

        stats = asyncio.run(run())
        assert stats.queries_run == 40
        # 40 queries of 8 distinct sizes... batched sweeps count engine
        # passes indirectly: a sequential loop would run >= 24 altr sweeps,
        # the coalesced path stacks same-sized pools into a handful.
        assert stats.batch_sweeps < 24

    def test_select_many_preserves_order(self):
        requests = _mixed_stream(12)

        async def run():
            service = AsyncJuryService(max_batch=4)
            return await service.select_many(requests)

        responses = asyncio.run(run())
        assert [r.task_id for r in responses] == [r.task_id for r in requests]

    def test_errors_stay_per_request(self):
        async def run():
            service = AsyncJuryService()
            good = _mixed_stream(3)
            bad = SelectionRequest(task_id="bad", pool="ghost")
            return await service.select_many([*good, bad])

        responses = asyncio.run(run())
        assert [r.status for r in responses] == ["ok", "ok", "ok", "error"]
        assert responses[-1].error.code == "pool-not-found"

    def test_unrecoverable_pool_fails_only_its_own_request(self, tmp_path):
        """A pool whose lazy recovery raises shares one coalesced batch with
        an inline select: only the request naming it gets an error."""
        setup = JuryService(data_dir=tmp_path)
        rng = np.random.default_rng(DEFAULT_SEED)
        setup.pool(
            PoolCommand(
                action="create", name="broken",
                candidates=_make_candidates(rng, 9, "b"),
            )
        )
        setup.close()
        # Still indexed, but with no snapshot and no WAL to recover from.
        [pool_dir] = (tmp_path / "pools").iterdir()
        (pool_dir / "wal.log").write_bytes(b"")
        inline = _mixed_stream(1)[0]

        async def run():
            service = AsyncJuryService(JuryService(data_dir=tmp_path))
            try:
                responses = await service.select_many(
                    [inline, SelectionRequest(task_id="broken", pool="broken")]
                )
                return responses, service.stats_snapshot()["async"]["batches"]
            finally:
                await service.aclose()

        (good, broken), batches = asyncio.run(run())
        assert batches == 1
        assert _normalise(good) == _normalise(JuryService().select(inline))
        assert broken.status == "error"
        assert broken.error.code == "storage-corrupt"


class TestPoolAndBackpressure:
    def test_pool_commands_and_selects_interleave(self):
        async def run():
            service = AsyncJuryService()
            rng = np.random.default_rng(DEFAULT_SEED)
            await service.pool(
                PoolCommand(
                    action="create",
                    name="P",
                    candidates=_make_candidates(rng, 7, "p"),
                )
            )
            before = await service.select(SelectionRequest(task_id="b", pool="P"))
            await service.pool(
                PoolCommand(
                    action="update",
                    name="P",
                    add=(Juror(0.01, juror_id="ace"),),
                )
            )
            after = await service.select(SelectionRequest(task_id="a", pool="P"))
            stats = await service.stats()
            return before, after, stats

        before, after, stats = asyncio.run(run())
        assert before.pool_version == 0 and after.pool_version == 1
        assert after.jer < before.jer
        assert stats["pools"]["P"]["version"] == 1

    def test_bounded_queue_applies_backpressure_without_deadlock(self):
        requests = _mixed_stream(30)

        async def run():
            service = AsyncJuryService(max_batch=4, max_pending=2)
            return await service.select_many(requests)

        responses = asyncio.run(run())
        assert all(r.status == "ok" for r in responses)

    def test_rejects_bad_bounds(self):
        with pytest.raises(ValueError, match="max_batch"):
            AsyncJuryService(max_batch=0)
        with pytest.raises(ValueError, match="max_pending"):
            AsyncJuryService(max_pending=0)

    def test_rejects_service_plus_options(self):
        with pytest.raises(ValueError, match="not both"):
            AsyncJuryService(JuryService(), data_dir="unused")


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


class TestLifecycle:
    def test_aclose_answers_queued_and_in_flight_requests(self):
        """aclose drains: everything accepted before the close is answered,
        nothing is dropped, and the wrapped service is closed after."""
        requests = _mixed_stream(8)

        async def run():
            service = AsyncJuryService(max_batch=2)
            tasks = [
                asyncio.create_task(service.select(request))
                for request in requests
            ]
            await asyncio.sleep(0)  # all eight enqueue; the drainer starts
            await service.aclose()
            responses = await asyncio.gather(*tasks)
            stats = service.stats_snapshot()
            return responses, stats

        responses, stats = asyncio.run(run())
        assert [r.task_id for r in responses] == [r.task_id for r in requests]
        assert all(r.status == "ok" for r in responses)
        assert stats["async"]["answered"] == 8
        assert stats["async"]["queued"] == 0
        assert stats["async"]["in_flight"] == 0
        assert stats["async"]["closed"] is True

    def test_select_after_aclose_raises_service_closed(self):
        async def run():
            service = AsyncJuryService()
            await service.aclose()
            with pytest.raises(ServiceClosedError):
                await service.select(_mixed_stream(1)[0])
            # aclose is idempotent.
            await service.aclose()
            return service.closed

        assert asyncio.run(run())

    def test_cancelled_while_queued_never_reaches_the_engine(self):
        """A caller that gives up while queued costs zero engine work: the
        drainer skips its entry when the next batch is assembled."""
        first, victim = _mixed_stream(2)

        async def run():
            service = AsyncJuryService(max_batch=1)
            gate, calls = _gate_select_many(service.service)
            first_task = asyncio.create_task(service.select(first))
            await asyncio.sleep(0.05)  # drainer now holds batch [t0] at the gate
            victim_task = asyncio.create_task(service.select(victim))
            await asyncio.sleep(0.05)  # victim is queued behind the gate
            victim_task.cancel()
            gate.set()
            response = await first_task
            with pytest.raises(asyncio.CancelledError):
                await victim_task
            await service.aclose()
            return response, calls, service.stats_snapshot()

        response, calls, stats = asyncio.run(run())
        assert response.status == "ok"
        assert calls == [["t0"]]  # the cancelled request was never executed
        assert stats["async"]["cancelled_in_queue"] == 1
        assert stats["async"]["answered"] == 1

    def test_stats_answer_while_engine_lock_is_held(self):
        """stats() reads lock-free counters: it must answer promptly while a
        long batch owns the engine lock (the healthz requirement)."""

        async def run():
            service = AsyncJuryService(max_batch=1)
            gate, _ = _gate_select_many(service.service)
            task = asyncio.create_task(service.select(_mixed_stream(1)[0]))
            await asyncio.sleep(0.05)
            assert service._engine_lock.locked()
            stats = await asyncio.wait_for(service.stats(), timeout=1.0)
            gate.set()
            await task
            await service.aclose()
            return stats

        stats = asyncio.run(run())
        assert stats["async"]["in_flight"] == 1
        assert stats["async"]["accepted"] == 1
        assert stats["async"]["answered"] == 0
