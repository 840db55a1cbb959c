"""``AsyncJuryService`` — multiplex many concurrent callers onto one engine.

The sync :class:`~repro.api.service.JuryService` answers one caller at a
time.  A serving process, however, sees many simultaneous clients (JSONL
sessions, sockets), each submitting single requests — and answering those
one by one forfeits the batch shape the engine is built for: the
vectorized 2-D sweep kernel stacks same-sized inline pools of one batch
into one call.  That pays on small pools: on native kernels on a 2-CPU
x86-64 host (AVX-512, five sittings, whose speed varied by 1.7x), a
121-candidate sweep took 22–38 µs alone, 13–21 µs per pool stacked two
deep and 5–8 µs per pool stacked eight deep, while a 1,001-candidate
sweep took 0.32–0.43 ms alone and about as long per pool stacked.

:class:`AsyncJuryService` recovers the batch shape from concurrent traffic:

* A ready frontier hit (:meth:`JuryService.ready_frontier_hit` — an AltrM
  select of a resident pool whose current version's answer frontier is
  built) that ``select()`` receives while nothing is queued or in flight
  and the engine lock is free is answered on the spot, synchronously: one
  probe of the frontier and one lookup of the answer text the live pool
  keeps for its version (``JuryService.select`` plus ``to_json()``: about
  6 µs on a 2-CPU x86-64 host).  It takes no capacity slot, future,
  drainer task or lock round trip, and counts as a batch of one.
* Every other ``select()`` call enqueues onto a shared pending queue and
  awaits its individual response, and so does every call behind it, which
  keeps the order first in, first out.  A single drainer task repeatedly
  takes up to ``max_batch`` queued requests and answers them with **one**
  :meth:`JuryService.select_many` call, off-loaded to a worker thread via
  :func:`asyncio.to_thread` so the event loop keeps accepting clients while
  the engine computes.  There the batch's inline AltrM requests share one
  engine pass that sweeps same-sized pools stacked and encodes each answer
  from its sorted columns, with its numbers printed natively; PayM and
  exact requests share one plan pass.  ``select_many()`` enqueues all its requests before
  the drainer runs, so they form batches, none answered on the spot.
* A queued batch in which every request is a ready frontier hit runs on
  the event loop itself: each answer is a probe and a lookup, cheaper than
  the thread hop, and the drainer holds the engine lock, so no worker
  thread is inside the engine or the registry.
* Requests arriving while a batch is in flight coalesce into the next
  batch — the busier the service, the bigger (and proportionally cheaper)
  the batches get.
* The queue is bounded (``max_pending``): callers beyond the bound suspend
  at a semaphore, giving natural backpressure instead of unbounded memory.
* An :class:`asyncio.Lock` serialises all engine access (batches, pool
  commands, explains), so the engine and registry are never entered
  concurrently with a registry mutation.

Responses are **bit-identical** to sequential dispatch: batching changes
only *when* queries run, and the engine itself guarantees batched and
scalar execution agree.

Lifecycle: :meth:`AsyncJuryService.aclose` is the graceful-termination
path — new ``select()`` calls are refused, the queued backlog drains
through the drainer, and the wrapped service is closed.  A request
cancelled *while queued* is skipped when the next batch is assembled, so
abandoned clients cost no engine work; ``stats()`` reads lock-free
counters and stays answerable while a long batch holds the engine lock.
"""

from __future__ import annotations

import asyncio
from collections import deque
from collections.abc import Iterable
from dataclasses import replace

from repro.api.protocol import PoolCommand, SelectionRequest, SelectionResponse
from repro.api.service import JuryService
from repro.errors import ServiceClosedError

__all__ = ["AsyncJuryService"]

#: Default cap on how many queued requests one engine pass answers.
DEFAULT_MAX_BATCH = 128

#: Default bound on in-flight requests before callers feel backpressure.
DEFAULT_MAX_PENDING = 1024


class AsyncJuryService:
    """Asyncio façade coalescing concurrent callers into engine batches.

    Parameters
    ----------
    service:
        The sync service to dispatch through; one is built from
        ``service_options`` (forwarded to :class:`JuryService`) if omitted.
    max_batch:
        Maximum queued requests answered by one ``select_many`` pass.
    max_pending:
        Bound on in-flight requests; further ``select()`` callers suspend
        until capacity frees up.
    **service_options:
        Forwarded to :class:`JuryService` when no service is given.

    Examples
    --------
    >>> import asyncio
    >>> from repro.api import AsyncJuryService, SelectionRequest
    >>> from repro.core.juror import jurors_from_arrays
    >>> async def demo():
    ...     service = AsyncJuryService()
    ...     cands = tuple(jurors_from_arrays([0.1, 0.2, 0.2, 0.3, 0.3]))
    ...     reqs = [SelectionRequest(task_id=f"t{i}", candidates=cands)
    ...             for i in range(3)]
    ...     responses = await asyncio.gather(*(service.select(r) for r in reqs))
    ...     return [r.size for r in responses]
    >>> asyncio.run(demo())
    [5, 5, 5]
    """

    def __init__(
        self,
        service: JuryService | None = None,
        *,
        max_batch: int = DEFAULT_MAX_BATCH,
        max_pending: int = DEFAULT_MAX_PENDING,
        **service_options,
    ) -> None:
        if service is not None and service_options:
            raise ValueError("pass either a service or service options, not both")
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        if max_pending < 1:
            raise ValueError(f"max_pending must be >= 1, got {max_pending}")
        self._service = service if service is not None else JuryService(**service_options)
        self._max_batch = max_batch
        self._max_pending = max_pending
        self._pending: deque[tuple[SelectionRequest, asyncio.Future]] = deque()
        self._capacity = asyncio.Semaphore(max_pending)
        self._engine_lock = asyncio.Lock()
        self._drainer: asyncio.Task | None = None
        self._closed = False
        # Lock-free liveness counters (read by stats()/healthz without ever
        # touching the engine lock): plain int mutations are atomic enough
        # under the event loop — they only ever change on the loop thread.
        self._accepted = 0
        self._answered = 0
        self._cancelled = 0
        self._batches = 0
        self._in_flight = 0

    @property
    def service(self) -> JuryService:
        """The wrapped synchronous service."""
        return self._service

    @property
    def closed(self) -> bool:
        """True once :meth:`aclose` has begun; new ``select()`` calls fail."""
        return self._closed

    @property
    def queued(self) -> int:
        """Requests waiting in the pending queue right now."""
        return len(self._pending)

    @property
    def saturated(self) -> bool:
        """True when the bounded pending queue is full.

        The next ``select()`` would suspend at the capacity semaphore; a
        transport that prefers shedding load over queueing (the HTTP
        server's 503 path) checks this first.
        """
        return self._capacity.locked()

    # ------------------------------------------------------------------
    # selection dispatch
    # ------------------------------------------------------------------
    async def select(self, request: SelectionRequest) -> SelectionResponse:
        """Answer one request; concurrent callers coalesce into batches.

        A ready frontier hit (:meth:`JuryService.ready_frontier_hit`) that
        arrives while nothing is queued or in flight and the engine lock is
        free is answered on the spot, as a batch of one: one probe and one
        lookup of the text its pool keeps, with no queue, future, drainer
        or lock round trip.  Every other request queues, and so does every
        request behind one that queued, which keeps the order first in,
        first out.

        Raises :class:`~repro.errors.ServiceClosedError` once
        :meth:`aclose` has begun — already-queued requests still drain, but
        no new ones are accepted.
        """
        if self._closed:
            raise ServiceClosedError("AsyncJuryService is closed")
        if (
            not self._pending
            and not self._in_flight
            and not self._engine_lock.locked()
            and self._service.ready_frontier_hit(request)
        ):
            self._accepted += 1
            self._batches += 1
            response = self._service.select(request)
            self._answered += 1
            return response
        return await self._enqueue(request)

    async def select_many(
        self, requests: Iterable[SelectionRequest]
    ) -> list[SelectionResponse]:
        """Answer many requests concurrently, in input order.

        Every request is queued before the drainer runs, so they are
        answered as batches, none on the spot.
        """
        return list(
            await asyncio.gather(*(self._enqueue(request) for request in requests))
        )

    async def explain(self, request: SelectionRequest) -> SelectionResponse:
        """Plan a request without executing it; rides the same batch queue."""
        if not request.explain:
            request = replace(request, explain=True)
        return await self.select(request)

    # ------------------------------------------------------------------
    # registry commands
    # ------------------------------------------------------------------
    async def pool(self, command: PoolCommand) -> dict:
        """Apply one registry mutation (serialised against in-flight batches)."""
        async with self._engine_lock:
            return await asyncio.to_thread(self._service.pool, command)

    async def stats(self) -> dict:
        """Lock-free counter snapshot — never waits on the engine lock.

        A health or stats probe must stay answerable while a long exact-
        enumeration batch holds the engine, so this reads counters directly
        instead of queueing behind :attr:`_engine_lock` like a command.
        """
        return self.stats_snapshot()

    def stats_snapshot(self) -> dict:
        """Synchronous form of :meth:`stats` (shared with ``/healthz``).

        Embeds the full :meth:`JuryService.stats` payload — in-pass profile
        reuse, planner and answer-frontier counters included — plus the
        transport block below.
        """
        snapshot = self._service.stats()
        snapshot["async"] = {
            "accepted": self._accepted,
            "answered": self._answered,
            "cancelled_in_queue": self._cancelled,
            "batches": self._batches,
            "queued": len(self._pending),
            "in_flight": self._in_flight,
            "max_batch": self._max_batch,
            "max_pending": self._max_pending,
            "closed": self._closed,
        }
        return snapshot

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def aclose(self) -> None:
        """Drain and shut down: the graceful-termination path.

        Stops accepting new ``select()`` calls (they raise
        :class:`~repro.errors.ServiceClosedError`), lets the in-flight
        batch finish and the drainer answer everything still queued, awaits
        the drainer task, then closes the wrapped service — flushing (and,
        when service-owned, closing) the durable pool catalog so every
        acknowledged mutation is on stable storage before the process
        exits.  Idempotent; safe to call with requests in every state.
        """
        self._closed = True
        drainer = self._drainer
        if drainer is not None and not drainer.done():
            # Wait without re-raising: a drainer cancelled by loop teardown
            # has already failed its waiters; aclose just needs it finished.
            await asyncio.wait({drainer})
        # The drainer exits only on an empty queue, so stragglers exist only
        # if it was cancelled mid-flight — fail them rather than hang them.
        while self._pending:
            _, future = self._pending.popleft()
            if not future.done():
                future.cancel()
        # Closing the catalog fsyncs; keep it off the event loop.
        await asyncio.to_thread(self._service.close)

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    async def _enqueue(self, request: SelectionRequest) -> SelectionResponse:
        """Queue one request for the drainer and await its answer."""
        if self._closed:
            raise ServiceClosedError("AsyncJuryService is closed")
        async with self._capacity:
            if self._closed:
                raise ServiceClosedError("AsyncJuryService is closed")
            self._accepted += 1
            future: asyncio.Future = asyncio.get_running_loop().create_future()
            self._pending.append((request, future))
            self._kick()
            return await future

    def _kick(self) -> None:
        """Ensure a drainer task is alive while requests are pending."""
        if self._drainer is None or self._drainer.done():
            self._drainer = asyncio.get_running_loop().create_task(self._drain())

    async def _drain(self) -> None:
        # One drainer at a time: it exits only after observing an empty
        # queue, and the check-and-exit runs without an await in between,
        # so a request appended afterwards always sees .done() and kicks a
        # fresh drainer — no lost wakeups.
        while self._pending:
            batch = []
            for _ in range(min(len(self._pending), self._max_batch)):
                entry = self._pending.popleft()
                if entry[1].done():
                    # Cancelled while queued: the caller is gone, so the
                    # request must never be planned or executed.
                    self._cancelled += 1
                    continue
                batch.append(entry)
            if not batch:
                continue
            requests = [request for request, _ in batch]
            self._in_flight += len(batch)
            self._batches += 1
            async with self._engine_lock:
                try:
                    # Probes of resident, fingerprinted pools: cheaper than
                    # the thread hop, and nothing in them blocks.
                    inline = all(map(self._service.ready_frontier_hit, requests))
                    if inline:
                        responses = self._service.select_many(requests)
                    else:
                        responses = await asyncio.to_thread(
                            self._service.select_many, requests
                        )
                except asyncio.CancelledError:
                    # Loop shutdown: cancel the in-flight waiters and honour
                    # the cancellation instead of draining the backlog.
                    self._in_flight -= len(batch)
                    for _, future in batch:
                        if not future.done():
                            future.cancel()
                    raise
                except Exception as exc:  # engine bug — fail the batch loudly
                    self._in_flight -= len(batch)
                    for _, future in batch:
                        if not future.done():
                            future.set_exception(exc)
                    continue
            self._in_flight -= len(batch)
            self._answered += len(batch)
            for (_, future), response in zip(batch, responses):
                if not future.done():
                    future.set_result(response)
            if inline and self._pending:
                # An inline batch never yielded: let its callers write their
                # answers before the next batch holds the loop.
                await asyncio.sleep(0)
