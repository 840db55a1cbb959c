"""Batch jury-selection engine.

The paper's workload is inherently batched: a crowdsourcing platform must
select juries for thousands of concurrent decision tasks, frequently drawing
on the same candidate pool.  :class:`BatchSelectionEngine` accepts many
:class:`SelectionQuery` objects at once — mixed AltrM / PayM / exact
strategies, shared or per-task pools.

Every query is answered through the plan layer: the engine resolves the
candidate source to a pool, calls :func:`repro.plan.plan_query` (the single
front door that parses model strings and picks the physical operator) and
executes the plan with :func:`repro.plan.execute_plan`.  On top of that one
path the engine adds the batch-shaped optimisations:

* **Repeat AltrM queries** are answered from the answer-frontier cache
  (:mod:`repro.plan.frontier`): the engine probes it during batch assembly,
  *before* planning, and a hit is one ``np.searchsorted`` — no
  ``plan_query``, no ``execute_plan``.  Registry pools adopt their live
  frontier (delta-repaired across churn) whenever their profile is
  resolved; a frozen pool gets a frontier on its second sighting, when its
  profile comes out of the sweep cache, so one-shot inline pools never pay
  for one.  Results are bit-identical to the plan pipeline, tie-break
  included.
* **AltrM queries** are answered from odd-prefix JER profiles.  Distinct
  pools of equal size are stacked into one matrix and swept together by the
  vectorized 2-D kernel (:func:`repro.core.jer.batch_prefix_jer_sweep`);
  profiles are cached per pool fingerprint (:class:`PrefixSweepCache`), so a
  pool shared by 1,000 tasks is swept exactly once, and the cached profile
  is handed to the plan's sweep operator.
* **PayM queries** execute the columnar greedy operator per query (the
  greedy is inherently sequential per instance, but its pair trials are
  scored block-wise — see :mod:`repro.core.selection.pay`).
* **Exact queries** execute the enumeration / branch-and-bound operator the
  cost model picks.

Everything runs in-process, one engine pass at a time.  Results are
**bit-identical** to the single-query selectors: both run the same
plan->operator pipeline over the same columnar arrays, so they cannot
diverge.  :meth:`BatchSelectionEngine.plan` returns the plan for a query
*without* executing it (the ``repro-select explain`` surface).
"""

from __future__ import annotations

import threading
import time
from collections.abc import Iterable, Sequence
from dataclasses import dataclass

import numpy as np

from repro._validation import validate_budget
from repro.core import kernels
from repro.core.jer import batch_prefix_jer_sweep
from repro.core.juror import Juror, JurorColumns
from repro.core.selection.base import SelectionResult
from repro.plan import (
    CandidatePool,
    SelectionPlan,
    execute_plan,
    normalize_model,
    plan_query,
)
from repro.plan.cost import frontier_eligible
from repro.plan.frontier import (
    AnswerFrontier,
    FrontierCache,
    frontier_cache_size_from_env,
)
from repro.service.cache import DEFAULT_CACHE_SIZE, PrefixSweepCache
from repro.service.registry import LivePool, PoolRegistry

__all__ = ["SelectionQuery", "QueryOutcome", "BatchSelectionEngine"]


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
        A shared :class:`CandidatePool`.  Queries referencing the same pool
        object (or pools with equal fingerprints) share one prefix sweep.
    pool_name:
        Name of a :class:`~repro.service.registry.LivePool` in the engine's
        registry.  The query runs against a snapshot of the pool's state at
        resolution time; its per-version sweep profile is reused on cache
        misses.
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


@dataclass
class EngineStats:
    """Counters describing the work an engine has performed (cumulative)."""

    queries_run: int = 0
    batch_sweeps: int = 0
    pools_swept: int = 0
    live_profiles: int = 0
    #: Queries answered from the answer frontier — no plan, no kernel.
    frontier_hits: int = 0
    #: Kernel backend every kernel call dispatches to (``numpy``/``native``)
    #: — resolved at engine construction, compile and self-check included,
    #: so cc compile time never lands in query timings.
    kernel_backend: str = "numpy"


class BatchSelectionEngine:
    """Execute many jury-selection queries through shared, vectorized kernels.

    Parameters
    ----------
    cache_size:
        Capacity of the per-engine prefix-sweep cache (profiles retained
        across :meth:`run` calls).  ``0`` disables cross-run caching;
        within one batch, pools are still deduplicated by fingerprint.
    frontier_size:
        Capacity of the answer-frontier cache
        (:class:`~repro.plan.frontier.FrontierCache`): one materialised
        budget→jury frontier per pool fingerprint, probed *before* planning
        so repeat AltrM queries are answered by binary search — no
        ``plan_query``, no ``execute_plan``.  ``0`` disables it (the oracle
        configuration); ``None`` (default) defers to the
        ``REPRO_FRONTIER_CACHE`` environment flag (enabled unless the flag
        is falsy).
    registry:
        Optional :class:`~repro.service.registry.PoolRegistry` against which
        ``pool_name`` queries are resolved.  Live pools contribute their
        per-version sweep profiles on cache misses, so every query against
        the same version shares the pool's one sweep.

    Examples
    --------
    >>> from repro.core.juror import jurors_from_arrays
    >>> engine = BatchSelectionEngine()
    >>> cands = tuple(jurors_from_arrays([0.1, 0.2, 0.2, 0.3, 0.3]))
    >>> out = engine.run([SelectionQuery(task_id="t1", candidates=cands)])
    >>> out[0].result.size, round(out[0].result.jer, 4)
    (5, 0.0704)
    """

    def __init__(
        self,
        *,
        cache_size: int = DEFAULT_CACHE_SIZE,
        frontier_size: int | None = None,
        registry: PoolRegistry | None = None,
    ) -> None:
        self._cache = PrefixSweepCache(maxsize=cache_size)
        if frontier_size is None:
            frontier_size = frontier_cache_size_from_env()
        self._frontier = FrontierCache(maxsize=frontier_size)
        self._registry = registry
        # Serialises engine passes and evictions: the caches, frontier and
        # stats are shared, unsynchronised state.
        self._lock = threading.Lock()
        # Activate (compile + bitwise-verify) the native kernel backend
        # up front: queries must never pay first-call compile cost,
        # and stats report the backend before the first query runs.
        self.stats = EngineStats(kernel_backend=kernels.ensure_ready())

    @property
    def cache(self) -> PrefixSweepCache:
        """The engine's prefix-sweep cache (inspectable in tests/ops)."""
        return self._cache

    @property
    def frontier(self) -> FrontierCache:
        """The engine's answer-frontier cache (inspectable in tests/ops)."""
        return self._frontier

    @property
    def registry(self) -> PoolRegistry | None:
        """The registry ``pool_name`` queries resolve against (if any)."""
        return self._registry

    def invalidate_profile(self, fingerprint: str) -> None:
        """Evict a pool's cached answers everywhere they may live.

        Symmetric by construction: *every* structure keyed by this
        fingerprint — the prefix-sweep cache and the answer-frontier cache —
        is cleared.
        """
        with self._lock:
            self._cache.invalidate(fingerprint)
            self._frontier.invalidate(fingerprint)

    def _resolve(self, query: SelectionQuery) -> tuple[CandidatePool, LivePool | None]:
        """Resolve a query to a frozen pool (plus its live pool, if any)."""
        if query.pool_name is None:
            return query.resolve_pool(), None
        if self._registry is None:
            raise ValueError(
                f"query {query.task_id!r} references registry pool "
                f"{query.pool_name!r} but the engine has no registry"
            )
        live = self._registry.get(query.pool_name)
        return live.snapshot(), live

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
        pool, _ = self._resolve(query)
        return self._plan_for(query, pool)

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
            resolved: list[
                tuple[int, SelectionQuery, CandidatePool, LivePool | None]
            ] = []
            for index, query in enumerate(batch):
                try:
                    pool, live = self._resolve(query)
                    resolved.append((index, query, pool, live))
                except Exception as exc:
                    if raise_errors:
                        raise
                    outcomes[index].exception = exc

            altr_items = [item for item in resolved if item[1].model == "altr"]
            other_items = [item for item in resolved if item[1].model != "altr"]
            self._run_altr(altr_items, outcomes, raise_errors)
            self._run_serial(other_items, outcomes, raise_errors)
        return outcomes

    # ------------------------------------------------------------------
    # answer frontier: O(log n) repeat queries, probed before planning
    # ------------------------------------------------------------------
    def _adopt_frontier(
        self,
        pool: CandidatePool,
        live: LivePool | None,
        profile: tuple[np.ndarray, np.ndarray],
    ) -> None:
        """Materialise the pool's answer frontier once its profile is known.

        Live pools hand over their own delta-maintained frontier (repaired,
        not rebuilt, across churn); frozen pools get a fresh build from the
        profile — an ``O(entries)`` running-argmin pass, which the cost
        model's break-even says amortises after a single repeat probe.  The
        caller offers frozen pools only on their second sighting.
        Ineligible shapes (non-AltrM is handled by the callers; pools below
        the build-vs-probe crossover here) are skipped.
        """
        if not self._frontier.enabled:
            return
        if not frontier_eligible("altr", pool.size):
            return
        if pool.fingerprint in self._frontier:
            return
        if live is not None:
            frontier, mode = live.answer_frontier()
        else:
            ns, jers = profile
            frontier = AnswerFrontier.build(ns, jers, fingerprint=pool.fingerprint)
            mode = "built"
        self._frontier.put(frontier, mode=mode)

    def _frontier_answer(
        self,
        query: SelectionQuery,
        pool: CandidatePool,
        outcome: QueryOutcome,
        raise_errors: bool,
    ) -> bool:
        """Try to answer one AltrM query from the frontier cache.

        Returns ``True`` when the outcome was filled (result *or* the same
        error the oracle path would have raised).  The hit path replicates
        the plan pipeline's observable behaviour exactly: the budget is
        validated the way ``plan_query`` would (AltrM ignores it otherwise),
        and an unsatisfiable ``max_size`` raises the identical
        :class:`ValueError` as :func:`~repro.core.jer.best_odd_prefix`.
        """
        if not self._frontier.enabled:
            return False
        if not frontier_eligible(query.model, pool.size):
            return False
        frontier = self._frontier.get(pool.fingerprint)
        if frontier is None:
            return False
        start = time.perf_counter()
        try:
            if query.budget is not None:
                validate_budget(query.budget)
            result = frontier.select(pool.ordered, max_size=query.max_size)
        except Exception as exc:
            if raise_errors:
                raise
            outcome.exception = exc
            self.stats.frontier_hits += 1
            return True
        elapsed = time.perf_counter() - start
        result.stats.elapsed_seconds = elapsed
        outcome.result = result
        outcome.elapsed_seconds = elapsed
        self.stats.frontier_hits += 1
        return True

    # ------------------------------------------------------------------
    # AltrM: shared vectorized sweeps
    # ------------------------------------------------------------------
    def _run_altr(
        self,
        items: Sequence[tuple[int, SelectionQuery, CandidatePool, LivePool | None]],
        outcomes: list[QueryOutcome],
        raise_errors: bool,
    ) -> None:
        if not items:
            return
        # Pass 0: frontier probes.  A hit answers the query right here —
        # no plan, no kernel — so only the misses go through profile
        # resolution below.
        items = [
            item
            for item in items
            if not self._frontier_answer(item[1], item[2], outcomes[item[0]], raise_errors)
        ]
        if not items:
            return
        profiles: dict[str, tuple[np.ndarray, np.ndarray]] = {}
        missing: dict[str, CandidatePool] = {}
        # Pools whose profile came out of the sweep cache: seen before.
        repeats: set[str] = set()
        for _, _, pool, live in items:
            fingerprint = pool.fingerprint
            if fingerprint in profiles or fingerprint in missing:
                continue
            cached = self._cache.get(fingerprint)
            if cached is not None:
                profiles[fingerprint] = cached
                repeats.add(fingerprint)
            elif live is not None:
                # The live pool caches its own profile per version: reuse
                # it instead of sweeping again here.
                profile = live.sweep_profile()
                profiles[fingerprint] = profile
                self._cache.put(fingerprint, *profile)
                self.stats.live_profiles += 1
            else:
                missing[fingerprint] = pool

        # One vectorized 2-D sweep per distinct pool size.
        by_size: dict[int, list[CandidatePool]] = {}
        for pool in missing.values():
            by_size.setdefault(pool.size, []).append(pool)
        for pools in by_size.values():
            matrix = np.stack([pool.error_rates for pool in pools])
            ns, jer_matrix = batch_prefix_jer_sweep(matrix)
            self.stats.batch_sweeps += 1
            self.stats.pools_swept += len(pools)
            for row, pool in enumerate(pools):
                # Copy the row out of the batch matrix: a view would pin the
                # whole (B, K) matrix in memory for as long as any one
                # profile stays cached.
                profile = (ns, jer_matrix[row].copy())
                profiles[pool.fingerprint] = profile
                self._cache.put(pool.fingerprint, *profile)

        # Materialise answer frontiers for the registry pools and the
        # repeat frozen pools touched this pass, so the *next* query probes
        # in O(log n) instead of re-planning.  A frozen pool seen once gets
        # none: most never come back, and the LRU would only evict it.
        if self._frontier.enabled:
            adopted: set[str] = set()
            for _, _, pool, live in items:
                fingerprint = pool.fingerprint
                if fingerprint in adopted:
                    continue
                adopted.add(fingerprint)
                if live is not None or fingerprint in repeats:
                    self._adopt_frontier(pool, live, profiles[fingerprint])

        for index, query, pool, _ in items:
            start = time.perf_counter()
            try:
                plan = self._plan_for(query, pool)
                result = execute_plan(plan, profile=profiles[pool.fingerprint])
            except Exception as exc:
                if raise_errors:
                    raise
                outcomes[index].exception = exc
                continue
            elapsed = time.perf_counter() - start
            result.stats.elapsed_seconds = elapsed
            outcomes[index].result = result
            outcomes[index].elapsed_seconds = elapsed

    # ------------------------------------------------------------------
    # PayM / exact: per-query plan execution
    # ------------------------------------------------------------------
    def _run_serial(
        self,
        items: Sequence[tuple[int, SelectionQuery, CandidatePool, LivePool | None]],
        outcomes: list[QueryOutcome],
        raise_errors: bool,
    ) -> None:
        for index, query, pool, _ in items:
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
