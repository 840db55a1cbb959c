"""``JuryService`` — the one dispatch path behind every surface.

The service owns a :class:`~repro.service.registry.PoolRegistry` of live
pools and a :class:`~repro.service.batch.BatchSelectionEngine`, and speaks
the typed protocol of :mod:`repro.api.protocol`: requests in, responses out,
pool commands validated in full before they change anything, so a rejected
command changes nothing.  The CLI modes (``single``/``explain``/
``batch``/``serve``), the examples, and library callers all dispatch through
it — there is no second parser and no second encoder anywhere in the repo.

Domain failures never escape :meth:`JuryService.select` /
:meth:`~JuryService.select_many`: they come back as ``status="error"``
responses carrying a structured :class:`~repro.api.protocol.ErrorInfo`
(stable code + message), which is what a service answering thousands of
independent tasks needs — one bad request must not poison its batch.  Pool
commands, being imperative registry mutations, raise instead.
"""

from __future__ import annotations

import os
import time
from collections.abc import Iterable

from repro.api.protocol import (
    AltrAnswers,
    ErrorInfo,
    PoolCommand,
    PROTOCOL_VERSION,
    SelectionRequest,
    SelectionResponse,
    wire_total_cost,
)
from repro.core import kernels
from repro.errors import InvalidRequirementError
from repro.plan import planner_cache_info
from repro.service.batch import BatchSelectionEngine, SelectionQuery
from repro.service.registry import PoolRegistry

__all__ = ["JuryService"]


def _data_dir_from_env() -> str | None:
    """Durable-catalog default from ``REPRO_DATA_DIR`` (unset/blank -> None)."""
    raw = os.environ.get("REPRO_DATA_DIR", "").strip()
    return raw or None


def _named_altr(request: SelectionRequest) -> bool:
    """Whether a request is a non-explain AltrM select of a named pool."""
    return not request.explain and request.model == "altr" and request.pool is not None


def _inline_altr(request: SelectionRequest) -> bool:
    """Whether a request is a non-explain AltrM select of inline candidates."""
    return not request.explain and request.model == "altr" and request.candidates is not None


class JuryService:
    """Typed request/response façade over the batch engine and registry.

    Parameters
    ----------
    registry:
        The live-pool namespace ``pool``-referencing requests resolve
        against.  A fresh one is created when omitted.
    engine:
        Advanced: adopt an existing :class:`BatchSelectionEngine`.  It must
        have been constructed with a registry (which becomes the service's
        registry).
    data_dir:
        Directory for a durable :class:`~repro.storage.PoolCatalog`.  The
        service builds (and **owns** — :meth:`close` closes it) a catalog
        there and binds a catalog-backed registry: every pool command is
        WAL-logged, pools are lazily recovered on first access, and
        ``stats()`` gains a ``catalog`` block.  When omitted — and no
        explicit ``registry``/``engine``/``catalog`` was passed — the
        ``REPRO_DATA_DIR`` environment variable supplies the default, which
        is how CI runs the whole suite durably.
    catalog:
        Advanced: adopt an existing :class:`~repro.storage.PoolCatalog`
        instead of building one from ``data_dir``.  The caller keeps
        ownership (:meth:`close` flushes but does not close it).

    Examples
    --------
    >>> from repro.api import JuryService, SelectionRequest
    >>> from repro.core.juror import jurors_from_arrays
    >>> service = JuryService()
    >>> cands = tuple(jurors_from_arrays([0.1, 0.2, 0.2, 0.3, 0.3]))
    >>> response = service.select(SelectionRequest(task_id="t1", candidates=cands))
    >>> response.status, response.size, round(response.jer, 4)
    ('ok', 5, 0.0704)
    """

    def __init__(
        self,
        *,
        registry: PoolRegistry | None = None,
        engine: BatchSelectionEngine | None = None,
        data_dir=None,
        catalog=None,
    ) -> None:
        if data_dir is not None and catalog is not None:
            raise ValueError("pass either data_dir or catalog, not both")
        if registry is not None and (data_dir is not None or catalog is not None):
            raise ValueError(
                "pass either a registry or data_dir/catalog, not both"
            )
        self._catalog = None
        self._owns_catalog = False
        if engine is not None:
            if data_dir is not None or catalog is not None:
                raise ValueError(
                    "pass either an engine or data_dir/catalog, not both"
                )
            if engine.registry is None:
                raise ValueError(
                    "JuryService requires an engine constructed with a registry"
                )
            if registry is not None and engine.registry is not registry:
                raise ValueError("engine and registry arguments disagree")
            self._registry = engine.registry
            self._catalog = getattr(self._registry, "catalog", None)
            self._engine = engine
        else:
            if (
                registry is None
                and catalog is None
                and data_dir is None
            ):
                data_dir = _data_dir_from_env()
            if data_dir is not None:
                from repro.storage import PoolCatalog

                catalog = PoolCatalog(data_dir)
                self._owns_catalog = True
            if registry is not None:
                self._registry = registry
                self._catalog = getattr(registry, "catalog", None)
            elif catalog is not None:
                self._registry = PoolRegistry(catalog=catalog)
                self._catalog = catalog
            else:
                self._registry = PoolRegistry()
            self._engine = BatchSelectionEngine(registry=self._registry)

    @property
    def engine(self) -> BatchSelectionEngine:
        """The underlying batch engine (inspectable in tests/ops)."""
        return self._engine

    @property
    def registry(self) -> PoolRegistry:
        """The live-pool namespace requests resolve against."""
        return self._registry

    @property
    def catalog(self):
        """The durable :class:`~repro.storage.PoolCatalog`, or ``None``."""
        return self._catalog

    def flush(self) -> None:
        """Fsync every resident pool's WAL, when catalog-backed.

        The drain path: the async tier and the HTTP server call this on
        graceful shutdown (``aclose()`` / SIGTERM) so every acknowledged
        mutation is on stable storage before the process exits.  A no-op
        without a catalog.
        """
        if self._catalog is not None and not self._catalog.closed:
            self._catalog.flush()

    def close(self) -> None:
        """Release the service's durable state.

        A service-owned catalog (built from ``data_dir``/``REPRO_DATA_DIR``)
        is flushed and closed; an adopted one is only flushed, since the
        caller may still hold pools from it.  The CLI modes close their
        service in ``try/finally``.  Idempotent; an in-memory service
        closes as a no-op.
        """
        if self._catalog is not None and not self._catalog.closed:
            if self._owns_catalog:
                self._catalog.close()
            else:
                self._catalog.flush()

    # ------------------------------------------------------------------
    # selection dispatch
    # ------------------------------------------------------------------
    @staticmethod
    def _to_query(request: SelectionRequest) -> SelectionQuery:
        """Lower a protocol request to the engine's native query type."""
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

    def _pool_version(self, request: SelectionRequest) -> int | None:
        """The referenced pool's version at dispatch time (echoed back)."""
        if request.pool is None or request.pool not in self._registry:
            return None
        return self._registry.get(request.pool).version

    def ready_frontier_hit(self, request: SelectionRequest) -> bool:
        """Whether the engine can answer ``request`` with a frontier probe alone.

        True for a non-explain AltrM select of a named pool that is resident
        in memory and whose current version's answer frontier is built: its
        answer is one probe and the text the pool keeps, so the
        async tier answers it on the event loop.  O(1) and side-effect
        free: it never loads a pool, computes a fingerprint, builds a
        frontier or its text, or waits on a lock.
        """
        if not _named_altr(request):
            return False
        pool = self._registry.resident(request.pool)
        return pool is not None and pool.frontier_ready

    def select(self, request: SelectionRequest) -> SelectionResponse:
        """Answer one request (honouring its ``explain`` flag); never raises
        for domain failures — they come back as error responses."""
        if _named_altr(request):
            return self._answer_named(request)
        return self.select_many([request])[0]

    def select_many(
        self, requests: Iterable[SelectionRequest]
    ) -> list[SelectionResponse]:
        """Answer a batch of requests, in input order.

        A non-explain AltrM select is answered from Lemma 3 columns alone,
        with no query, plan, jury, result or juror: over a named pool from
        its live pool (:meth:`BatchSelectionEngine.answer_named`: a probe
        of the version's answer frontier, built first if the version is new,
        and the answer's wire text, which the pool's encoder keeps for its
        version); over inline candidates from one
        :meth:`BatchSelectionEngine.answer_altr` pass for all of them, which
        sweeps same-sized pools together with the vectorized 2-D kernel and
        encodes each answer from its sorted columns.  PayM and exact
        requests run through one :meth:`BatchSelectionEngine.run` pass;
        explain requests are planned without executing.  Each response
        carries the referenced pool's version at dispatch time; a pool that
        cannot be resolved (say, one whose lazy recovery fails) fails only
        the requests that name it.  An answer whose ``total_cost``
        overflows to infinity, which JSON cannot carry, is an
        ``invalid-requirement`` error.
        """
        batch = list(requests)
        responses: list[SelectionResponse | None] = [None] * len(batch)
        versions: list[int | None] = [None] * len(batch)
        inline: list[int] = []
        queries: list[SelectionQuery] = []
        positions: list[int] = []
        for index, request in enumerate(batch):
            if request.explain:
                responses[index] = self._explain_one(request)
                continue
            if _named_altr(request):
                responses[index] = self._answer_named(request)
                continue
            if _inline_altr(request):
                inline.append(index)
                continue
            try:
                versions[index] = self._pool_version(request)
                queries.append(self._to_query(request))
            except Exception as exc:
                responses[index] = SelectionResponse.from_error(
                    request.task_id, ErrorInfo.from_exception(exc)
                )
                continue
            positions.append(index)
        if inline:
            answers = self._engine.answer_altr(
                [(batch[i].candidates, batch[i].budget, batch[i].max_size) for i in inline],
                encoder=AltrAnswers,
            )
            for index, answer in zip(inline, answers):
                task_id = batch[index].task_id
                if isinstance(answer, Exception):
                    responses[index] = SelectionResponse.from_error(
                        task_id, ErrorInfo.from_exception(answer)
                    )
                else:
                    responses[index] = SelectionResponse.from_answer(
                        task_id, answer.encoded, elapsed_seconds=answer.elapsed_seconds
                    )
        outcomes = self._engine.run(queries) if queries else []
        for index, outcome in zip(positions, outcomes):
            error = outcome.error_info
            if error is None:
                try:
                    wire_total_cost(outcome.result.jury.requirements)
                except InvalidRequirementError as exc:
                    error = ErrorInfo.from_exception(exc)
            if error is not None:
                responses[index] = SelectionResponse.from_error(
                    outcome.task_id, error, elapsed_seconds=outcome.elapsed_seconds
                )
                continue
            responses[index] = SelectionResponse.from_result(
                outcome.task_id,
                outcome.result,
                elapsed_seconds=outcome.elapsed_seconds,
                pool_version=versions[index],
            )
        return responses  # type: ignore[return-value]

    def _answer_named(self, request: SelectionRequest) -> SelectionResponse:
        try:
            answer = self._engine.answer_named(
                request.pool,
                budget=request.budget,
                max_size=request.max_size,
                encoder=AltrAnswers,
                task_id=request.task_id,
            )
        except Exception as exc:
            return SelectionResponse.from_error(
                request.task_id, ErrorInfo.from_exception(exc)
            )
        return SelectionResponse.from_answer(
            request.task_id,
            answer.encoded,
            pool_version=answer.version,
            elapsed_seconds=answer.elapsed_seconds,
        )

    def _explain_one(self, request: SelectionRequest) -> SelectionResponse:
        start = time.perf_counter()
        try:
            pool_version = self._pool_version(request)
            plan = self._engine.plan(self._to_query(request))
        except Exception as exc:
            return SelectionResponse.from_error(
                request.task_id, ErrorInfo.from_exception(exc)
            )
        return SelectionResponse.from_plan(
            request.task_id,
            plan.describe(),
            pool_version=pool_version,
            elapsed_seconds=time.perf_counter() - start,
        )

    def explain(self, request: SelectionRequest) -> SelectionResponse:
        """Plan a request without executing it (the EXPLAIN surface).

        The request's own ``explain`` flag is irrelevant here; the response
        embeds the physical plan under ``plan``.
        """
        return self._explain_one(request)

    # ------------------------------------------------------------------
    # pool commands
    # ------------------------------------------------------------------
    def pool(self, command: PoolCommand) -> dict:
        """Apply one registry mutation; returns the wire acknowledgement.

        An update is one :meth:`LivePool.apply
        <repro.service.registry.LivePool.apply>` call, so a rejected or
        failed command leaves the pool as it was.  Raises
        :class:`~repro.errors.ReproError` subclasses on failure.
        """
        if command.action == "create":
            pool = self._registry.create(
                command.name, command.candidates, replace=command.replace
            )
        elif command.action == "drop":
            pool = self._registry.drop(command.name)
        else:  # update
            pool = self._registry.get(command.name)
            pool.apply(command.remove, command.add, command.updates)
        return {
            "v": PROTOCOL_VERSION,
            "ok": True,
            "cmd": "pool",
            "action": command.action,
            "name": command.name,
            "version": pool.version,
            "size": pool.size,
        }

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """Registry, engine and cache counters (the serve ``stats`` payload).

        Safe to call concurrently with running batches and pool commands:
        everything here is a plain counter read, and the pool listing is a
        best-effort snapshot (a pool created or dropped mid-read may be
        missed — liveness probes must never block on the engine).  The
        blocks: ``cache``, inline and frozen-pool AltrM sweep rows reused by
        a later query holding the same pool object (``hits``) or swept
        (``misses``) within an engine pass; ``planner``, the planner's
        memoised operator choice (PayM, exact and explain requests);
        ``frontier``, named-pool AltrM selects answered from a frontier
        already built for their version (``hits``) or by building it
        (``builds``: each version's first select builds its frontier
        whole); and ``engine``, its work counters.  The ``kernels`` block
        reports the compiled-kernel registry
        (:func:`repro.core.kernels.stats_snapshot`): the active backend
        (every kernel call runs on it), per-kernel dispatch counters of
        served calls only, and availability (with the reason native is
        unavailable, if it is).

        The per-pool listing covers the pools **in memory**: everything for
        an in-memory registry, the LRU-resident subset for a catalog-backed
        one — a stats probe must never page thousands of cold pools off
        disk.  Catalog-backed services additionally report a ``catalog``
        block (WAL appends, fsyncs, snapshots, replays, truncated-tail
        recoveries, residency, recovery milliseconds) whose ``pools`` count
        spans the whole durable namespace.
        """
        registry = self._registry
        pools: dict[str, dict] = {}
        for _ in range(8):
            try:
                resident = registry.resident_pools()
                break
            except RuntimeError:  # registry dict resized under our feet
                continue
        else:  # pragma: no cover - needs pathological sustained churn
            resident = []
        for name, pool in resident:
            pools[name] = {"version": pool.version, "size": pool.size}
        planner_info = planner_cache_info()
        counters = self._engine.stats
        payload = {
            "v": PROTOCOL_VERSION,
            "ok": True,
            "cmd": "stats",
            "pools": pools,
            "queries_run": counters.queries_run,
            "cache": {
                "hits": counters.profiles_reused,
                "misses": counters.pools_swept,
            },
            "planner": {
                "hits": planner_info.hits,
                "misses": planner_info.misses,
                "entries": planner_info.currsize,
                "maxsize": planner_info.maxsize,
            },
            "frontier": {
                "hits": counters.frontier_hits,
                "builds": counters.frontier_builds,
            },
            "engine": {
                "queries_run": counters.queries_run,
                "batch_sweeps": counters.batch_sweeps,
                "pools_swept": counters.pools_swept,
                "frontier_hits": counters.frontier_hits,
                "kernel_backend": counters.kernel_backend,
            },
            "kernels": kernels.stats_snapshot(),
        }
        if self._catalog is not None:
            payload["catalog"] = self._catalog.stats_snapshot()
        return payload
