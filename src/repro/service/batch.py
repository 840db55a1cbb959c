"""Batch jury-selection engine.

The paper's workload is inherently batched: a crowdsourcing platform must
select juries for thousands of concurrent decision tasks, frequently drawing
on the same candidate pool.  :class:`BatchSelectionEngine` accepts many
:class:`SelectionQuery` objects at once — mixed AltrM / PayM / exact
strategies, shared or per-task pools — and answers each on one of three
paths:

* **AltrM over a named pool** is answered from the live pool's own answer
  frontier (:meth:`~repro.service.registry.LivePool.answer_frontier`).  By
  Lemma 3 every AltrM answer over a pool version is an odd prefix of its
  error-rate order, so the frontier, built whole by the version's first
  select, answers any size cap with one ``np.searchsorted``: no
  fingerprint, no ``plan_query``, no ``execute_plan``.  It runs
  :func:`~repro.core.jer.best_odd_prefix`'s comparison, so the answers are
  bit-identical to the plan pipeline, tie-break included.
  :meth:`BatchSelectionEngine.answer_named` is that one probe;
  :meth:`~BatchSelectionEngine.run` wraps it in a :class:`SelectionResult`,
  and the service in wire text its pool keeps, with no query or result.
* **AltrM over inline candidates or a frozen pool** is the same kind of
  answer, an odd prefix of the candidates in Lemma 3 order, and
  :meth:`BatchSelectionEngine.answer_altr` computes it from the columns
  alone: the duplicate-id and budget checks ``plan_query`` would make, the
  Lemma 3 sort, one stacked sweep per pool size
  (:func:`repro.core.jer.batch_prefix_jer_sweep`, the vectorized 2-D
  kernel), and :func:`~repro.core.jer.best_odd_prefix` over the pool's row.
  Queries of one pass that hold the same pool object share one row; pools
  that are merely equal are swept one row each.  The service has the rows
  encoded as wire text; :meth:`~BatchSelectionEngine.run` wraps each answer
  in a :class:`SelectionResult`.  Nothing is kept across passes.
* **PayM and exact** go through the plan layer: the engine resolves the
  query to a frozen :class:`CandidatePool`, calls
  :func:`repro.plan.plan_query` (the single front door that parses model
  strings and picks the physical operator) and executes the plan with
  :func:`repro.plan.execute_plan`, one query at a time: the columnar greedy
  operator for PayM, the enumeration / branch-and-bound operator the cost
  model picks for exact.

Everything runs in-process, one engine pass at a time.  Results are
**bit-identical** to the single-query selectors, which run the same
plan->operator pipeline over the same columnar arrays; the tests hold the
two AltrM paths to it.  :meth:`BatchSelectionEngine.plan` returns the plan
for a query *without* executing it (the ``repro-select explain`` surface).
"""

from __future__ import annotations

import threading
import time
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from repro._validation import validate_budget
from repro.core import kernels
from repro.core.jer import batch_prefix_jer_sweep, best_odd_prefix
from repro.core.juror import Juror, JurorColumns
from repro.core.selection.base import SelectionResult
from repro.errors import EmptyCandidateSetError
from repro.plan import (
    CandidatePool,
    SelectionPlan,
    as_pool,
    execute_plan,
    normalize_model,
    plan_query,
)
from repro.plan.frontier import altr_result
from repro.service.registry import LivePool, PoolRegistry

__all__ = [
    "SelectionQuery",
    "QueryOutcome",
    "FrontierAnswer",
    "PrefixAnswer",
    "BatchSelectionEngine",
]

#: Makes a pool's answer encoder from its Lemma 3 columns; the encoder
#: turns ``(size, jer)`` into whatever the caller serves.
Encoder = Callable[[JurorColumns], Callable[[int, float], object]]


@dataclass(frozen=True)
class SelectionQuery:
    """One jury-selection request inside a batch.

    Parameters
    ----------
    task_id:
        Caller-chosen identifier echoed back on the outcome.
    candidates:
        Inline candidate jurors, or the
        :class:`~repro.core.juror.JurorColumns` a decoded request carries;
        mutually exclusive with ``pool`` and ``pool_name``.
    pool:
        A shared :class:`CandidatePool`.  AltrM queries of one engine pass
        that reference the same pool object share one prefix sweep.
    pool_name:
        Name of a :class:`~repro.service.registry.LivePool` in the engine's
        registry.  The query runs against the pool's state at resolution
        time; an AltrM query is answered from the pool's answer frontier
        for that version.
    model:
        ``"altr"`` (AltrALG optimum), ``"pay"`` (PayALG greedy, requires
        ``budget``) or ``"exact"`` (enumeration / branch-and-bound optimum).
    budget:
        PayM budget; required for ``"pay"``, optional for ``"exact"``.
    max_size:
        Optional cap on the jury size (``"altr"`` / ``"exact"``).
    variant:
        PayALG variant: ``"paper"`` or ``"improved"``.
    method:
        Exact-solver method: ``"auto"``, ``"enumerate"`` or
        ``"branch-and-bound"``.
    """

    task_id: str
    candidates: JurorColumns | Sequence[Juror] | None = None
    pool: CandidatePool | None = None
    pool_name: str | None = None
    model: str = "altr"
    budget: float | None = None
    max_size: int | None = None
    variant: str = "paper"
    method: str = "auto"

    def __post_init__(self) -> None:
        # The plan layer owns model-string parsing; canonicalise once here
        # so every downstream comparison sees "altr"/"pay"/"exact".
        object.__setattr__(self, "model", normalize_model(self.model))
        sources = sum(
            source is not None
            for source in (self.candidates, self.pool, self.pool_name)
        )
        if sources != 1:
            raise ValueError(
                "exactly one of 'candidates', 'pool' and 'pool_name' must be "
                "provided"
            )
        if self.model == "pay" and self.budget is None:
            raise ValueError("model 'pay' requires a budget")

    def resolve_pool(self) -> CandidatePool:
        """The pool this query selects from (building one for inline candidates).

        ``pool_name`` queries cannot be resolved without a registry; the
        engine resolves those itself.
        """
        if self.pool_name is not None:
            raise ValueError(
                f"query {self.task_id!r} references registry pool "
                f"{self.pool_name!r}; run it through an engine with a registry"
            )
        if self.pool is not None:
            return self.pool
        return CandidatePool(self.candidates)


@dataclass
class QueryOutcome:
    """Result slot for one query of a batch: either a result or an error.

    ``exception`` carries the failure itself, so transports report a
    structured code + message (see :attr:`error_info`) instead of parsing
    strings.  (The legacy flat ``.error`` message string was removed after
    its one-release deprecation window; read ``error_info.message``.)
    """

    task_id: str
    result: SelectionResult | None = None
    elapsed_seconds: float = 0.0
    exception: BaseException | None = None

    @property
    def ok(self) -> bool:
        """True when the query produced a selection."""
        return self.result is not None

    @property
    def error_info(self):
        """Structured :class:`~repro.api.ErrorInfo` for the failure, if any.

        Built lazily from :attr:`exception`, so the engine itself never
        depends on the protocol layer.
        """
        if self.ok:
            return None
        # Local import: repro.api sits above the service layer.
        from repro.api.protocol import ErrorInfo

        if self.exception is not None:
            return ErrorInfo.from_exception(self.exception)
        return ErrorInfo(code="internal", message="query produced no result")


class FrontierAnswer(NamedTuple):
    """A named pool's AltrM answer: one probe of its version's frontier.

    The answer is the first ``size`` members of the pool at ``version``
    (Lemma 3); ``considered`` counts the odd prefixes the probe covered.
    ``encoded`` is what the pool version's ``encoder`` made of it (``None``
    when no encoder was given).
    """

    version: int
    size: int
    jer: float
    considered: int
    elapsed_seconds: float
    encoded: object = None


class PrefixAnswer(NamedTuple):
    """An AltrM answer over inline candidates or a frozen pool.

    The answer is the first ``size`` rows of ``columns``, the candidates in
    Lemma 3 order; ``considered`` counts the odd prefixes under the size
    cap.  ``elapsed_seconds`` covers this query's own engine work (its
    checks, sort, probe and encoding; the stacked sweep it shares is not
    split).  ``encoded`` is what the ``encoder`` made of it (``None`` when
    no encoder was given).
    """

    columns: JurorColumns
    size: int
    jer: float
    considered: int
    elapsed_seconds: float
    encoded: object = None


@dataclass
class EngineStats:
    """Counters describing the work an engine has performed (cumulative)."""

    queries_run: int = 0
    #: Inline and frozen-pool AltrM sweeps: one 2-D kernel call per distinct
    #: pool size in a pass, covering ``pools_swept`` distinct pool objects.
    batch_sweeps: int = 0
    pools_swept: int = 0
    #: Inline and frozen-pool AltrM queries that read the row an earlier
    #: query of the same pass had swept for the same pool object.
    profiles_reused: int = 0
    #: Named-pool AltrM queries answered from a frontier already built for
    #: their pool version: one binary search, no sweep.
    frontier_hits: int = 0
    #: Named-pool AltrM queries that had their live pool build the
    #: frontier: the first query of each version.
    frontier_builds: int = 0
    #: Kernel backend every kernel call dispatches to (``numpy``/``native``)
    #: — resolved at engine construction, compile and self-check included,
    #: so cc compile time never lands in query timings.
    kernel_backend: str = "numpy"


class BatchSelectionEngine:
    """Execute many jury-selection queries through shared, vectorized kernels.

    Parameters
    ----------
    registry:
        Optional :class:`~repro.service.registry.PoolRegistry` against which
        ``pool_name`` queries are resolved.  Their AltrM queries are answered
        from each live pool's per-version answer frontier.

    Examples
    --------
    >>> from repro.core.juror import jurors_from_arrays
    >>> engine = BatchSelectionEngine()
    >>> cands = tuple(jurors_from_arrays([0.1, 0.2, 0.2, 0.3, 0.3]))
    >>> out = engine.run([SelectionQuery(task_id="t1", candidates=cands)])
    >>> out[0].result.size, round(out[0].result.jer, 4)
    (5, 0.0704)
    """

    def __init__(self, *, registry: PoolRegistry | None = None) -> None:
        self._registry = registry
        # Serialises engine passes: the stats and the live pools' frontiers
        # are shared, unsynchronised state.
        self._lock = threading.Lock()
        # Activate (compile + bitwise-verify) the native kernel backend
        # up front: queries must never pay first-call compile cost,
        # and stats report the backend before the first query runs.
        self.stats = EngineStats(kernel_backend=kernels.ensure_ready())

    @property
    def registry(self) -> PoolRegistry | None:
        """The registry ``pool_name`` queries resolve against (if any)."""
        return self._registry

    def _live(self, pool_name: str, task_id: str) -> LivePool:
        """The registry pool a query names."""
        if self._registry is None:
            raise ValueError(
                f"query {task_id!r} references registry pool "
                f"{pool_name!r} but the engine has no registry"
            )
        return self._registry.get(pool_name)

    def _resolve(self, query: SelectionQuery) -> CandidatePool:
        """Resolve a query to a frozen pool."""
        if query.pool_name is None:
            return query.resolve_pool()
        return self._live(query.pool_name, query.task_id).snapshot()

    @staticmethod
    def _plan_for(query: SelectionQuery, pool: CandidatePool) -> SelectionPlan:
        """Plan one resolved query (the single front door for every model)."""
        return plan_query(
            pool=pool,
            model=query.model,
            budget=query.budget,
            max_size=query.max_size,
            variant=query.variant,
            method=query.method,
            task_id=query.task_id,
        )

    def plan(self, query: SelectionQuery) -> SelectionPlan:
        """Resolve and plan a query *without* executing it.

        This is the EXPLAIN surface: the returned
        :class:`~repro.plan.SelectionPlan` carries the chosen physical
        operator, the numeric backends, and the cost-model inputs; render it
        with :meth:`~repro.plan.SelectionPlan.describe`.
        """
        return self._plan_for(query, self._resolve(query))

    # ------------------------------------------------------------------
    def select(self, query: SelectionQuery) -> SelectionResult:
        """Run a single query, raising on failure (library-style API).

        The result's ``stats.elapsed_seconds`` covers the whole engine pass,
        matching what the scalar selectors historically reported.
        """
        start = time.perf_counter()
        outcome = self.run([query], raise_errors=True)[0]
        assert outcome.result is not None  # raise_errors guarantees this
        outcome.result.stats.elapsed_seconds = time.perf_counter() - start
        return outcome.result

    def run(
        self,
        queries: Iterable[SelectionQuery],
        *,
        raise_errors: bool = False,
    ) -> list[QueryOutcome]:
        """Execute a batch of queries, returning outcomes in input order.

        With ``raise_errors=False`` (the service default) a failing query —
        malformed pool, infeasible budget, … — yields an outcome carrying
        the error while the rest of the batch completes; with
        ``raise_errors=True`` the first failure propagates as an exception.

        Concurrent calls are safe: the engine lock serialises whole passes.
        """
        batch = list(queries)
        outcomes: list[QueryOutcome] = [
            QueryOutcome(task_id=q.task_id) for q in batch
        ]
        with self._lock:
            self.stats.queries_run += len(batch)
            frozen_altr: list[int] = []
            other: list[tuple[int, SelectionQuery, CandidatePool]] = []
            for index, query in enumerate(batch):
                try:
                    if query.model != "altr":
                        other.append((index, query, self._resolve(query)))
                    elif query.pool_name is not None:
                        self._named_altr(query, outcomes[index])
                    else:
                        frozen_altr.append(index)
                except Exception as exc:
                    if raise_errors:
                        raise
                    outcomes[index].exception = exc

            answers = self._answer_altr(
                [
                    (q.pool if q.pool is not None else q.candidates, q.budget, q.max_size)
                    for q in map(batch.__getitem__, frozen_altr)
                ],
                None,
            )
            for index, answer in zip(frozen_altr, answers):
                if isinstance(answer, Exception):
                    if raise_errors:
                        raise answer
                    outcomes[index].exception = answer
                    continue
                result = altr_result(
                    answer.columns[: answer.size], answer.jer, answer.considered
                )
                result.stats.elapsed_seconds = answer.elapsed_seconds
                outcomes[index].result = result
                outcomes[index].elapsed_seconds = answer.elapsed_seconds
            self._run_serial(other, outcomes, raise_errors)
        return outcomes

    # ------------------------------------------------------------------
    # AltrM over a named pool: the live pool's answer frontier
    # ------------------------------------------------------------------
    def answer_named(
        self,
        pool_name: str,
        *,
        budget: float | None = None,
        max_size: int | None = None,
        encoder: Encoder | None = None,
        task_id: str = "task",
    ) -> FrontierAnswer:
        """Answer one AltrM select of a named pool from its version's frontier.

        The one path for named-pool AltrM answers: :meth:`run` wraps its
        result in a :class:`SelectionResult`, and the service wraps it in
        wire text, which the pool version's ``encoder`` builds
        (:meth:`LivePool.answer`).  Everything runs under the engine lock
        and counts as one query, and as a frontier hit, or as a build when
        the pool built its version's frontier for it.  Failures raise
        what the plan pipeline raises: an empty pool the snapshot's
        :class:`~repro.errors.EmptyCandidateSetError`, a bad budget the
        error ``plan_query`` raises (AltrM ignores a valid one), and an
        unsatisfiable ``max_size`` the :class:`ValueError` of
        :func:`~repro.core.jer.best_odd_prefix`.
        """
        with self._lock:
            self.stats.queries_run += 1
            live = self._live(pool_name, task_id)
            return self._probe(live, budget, max_size, encoder)

    def _probe(
        self,
        live: LivePool,
        budget: float | None,
        max_size: int | None,
        encoder: Encoder | None,
    ) -> FrontierAnswer:
        start = time.perf_counter()
        if not live.size:
            raise EmptyCandidateSetError("cannot snapshot an empty live pool")
        frontier, mode = live.answer_frontier()
        if mode == "cached":
            self.stats.frontier_hits += 1
        else:
            self.stats.frontier_builds += 1
        if budget is not None:
            validate_budget(budget)
        size, jer, considered = frontier.probe(max_size)
        encoded = None if encoder is None else live.answer(size, jer, encoder)
        return FrontierAnswer(
            live.version, size, jer, considered, time.perf_counter() - start, encoded
        )

    def _named_altr(self, query: SelectionQuery, outcome: QueryOutcome) -> None:
        """:meth:`answer_named` for :meth:`run`, which holds the lock."""
        live = self._live(query.pool_name, query.task_id)
        answer = self._probe(live, query.budget, query.max_size, None)
        result = altr_result(live.columns[: answer.size], answer.jer, answer.considered)
        result.stats.elapsed_seconds = answer.elapsed_seconds
        outcome.result = result
        outcome.elapsed_seconds = answer.elapsed_seconds

    # ------------------------------------------------------------------
    # AltrM over inline candidates and frozen pools: stacked sweeps
    # ------------------------------------------------------------------
    def answer_altr(
        self,
        sources: Sequence[
            tuple[CandidatePool | JurorColumns | Sequence[Juror], float | None, int | None]
        ],
        *,
        encoder: Encoder | None = None,
    ) -> list[PrefixAnswer | Exception]:
        """Answer AltrM selects over inline candidates or frozen pools.

        Each source is ``(candidates, budget, max_size)``: a
        :class:`CandidatePool`, or columns or jurors in any order.  One
        engine pass, under the lock: each query counts once in
        ``queries_run``, its candidates get the checks ``plan_query`` makes
        for AltrM (duplicate ids, then the budget, with the same errors),
        and one stacked sweep per pool size feeds
        :func:`~repro.core.jer.best_odd_prefix` for every query.  No
        fingerprint, plan, :class:`SelectionResult` or jury is made; with an
        ``encoder``, each pool's encoder turns its answer into
        :attr:`PrefixAnswer.encoded`.  A query that fails gets its
        exception in its slot, and the others are answered.
        """
        batch = list(sources)
        with self._lock:
            self.stats.queries_run += len(batch)
            return self._answer_altr(batch, encoder)

    def _answer_altr(self, sources, encoder: Encoder | None) -> list[PrefixAnswer | Exception]:
        """:meth:`answer_altr` for callers holding the lock."""
        answers: list = [None] * len(sources)
        elapsed = [0.0] * len(sources)
        # Keyed by pool object: its Lemma 3 columns (or why it has none) and
        # its sweep row.  Equal pools that are distinct objects get a row each.
        pools: dict[int, JurorColumns | Exception] = {}
        profiles: dict[int, tuple[np.ndarray, np.ndarray] | None] = {}
        by_size: dict[int, list[int]] = {}
        for index, (candidates, budget, _) in enumerate(sources):
            start = time.perf_counter()
            key = id(candidates)
            columns = pools.get(key)
            if columns is None:
                try:
                    columns = as_pool(candidates).ordered
                except Exception as exc:
                    columns = exc
                pools[key] = columns
            try:
                if isinstance(columns, Exception):
                    raise columns
                if budget is not None:
                    validate_budget(budget)
            except Exception as exc:
                answers[index] = exc
                continue
            if key in profiles:
                self.stats.profiles_reused += 1
            else:
                profiles[key] = None
                by_size.setdefault(len(columns), []).append(key)
            elapsed[index] = time.perf_counter() - start

        for keys in by_size.values():
            ns, jer_matrix = batch_prefix_jer_sweep(np.stack([pools[key].eps for key in keys]))
            self.stats.batch_sweeps += 1
            self.stats.pools_swept += len(keys)
            for key, jers in zip(keys, jer_matrix):
                profiles[key] = (ns, jers)

        encoders: dict[int, Callable[[int, float], object]] = {}
        for index, (candidates, _, max_size) in enumerate(sources):
            if answers[index] is not None:
                continue
            start = time.perf_counter()
            key = id(candidates)
            ns, jers = profiles[key]
            try:
                size, jer = best_odd_prefix(ns, jers, max_size=max_size)
                considered = ns.size if max_size is None else int(
                    ns.searchsorted(max_size, side="right")
                )
                encoded = None
                if encoder is not None:
                    encode = encoders.get(key)
                    if encode is None:
                        encode = encoders[key] = encoder(pools[key])
                    encoded = encode(size, jer)
            except Exception as exc:
                answers[index] = exc
                continue
            answers[index] = PrefixAnswer(
                pools[key], size, jer, considered,
                elapsed[index] + time.perf_counter() - start, encoded,
            )
        return answers

    # ------------------------------------------------------------------
    # PayM / exact: per-query plan execution
    # ------------------------------------------------------------------
    def _run_serial(
        self,
        items: Sequence[tuple[int, SelectionQuery, CandidatePool]],
        outcomes: list[QueryOutcome],
        raise_errors: bool,
    ) -> None:
        for index, query, pool in items:
            start = time.perf_counter()
            try:
                plan = self._plan_for(query, pool)
                result = execute_plan(plan)
            except Exception as exc:
                if raise_errors:
                    raise
                outcomes[index].exception = exc
                continue
            elapsed = time.perf_counter() - start
            outcomes[index].result = result
            outcomes[index].elapsed_seconds = elapsed
