"""Plan-based execution core: one path from every entry point to the kernels.

This package separates the *logical* selection query from the *physical*
operators that answer it, database-style:

:func:`plan_query`
    The single front door.  Normalises the query (model strings are parsed
    once, here), coerces the candidates to a :class:`CandidatePool`, and
    asks the cost model to pick the physical operator and numeric backends.
:class:`SelectionPlan`
    The normalised query bound to its physical choice — executable via
    :func:`execute_plan`, or printable via ``repro-select explain`` without
    executing.
:class:`CandidatePool`
    The one frozen candidate pool: struct-of-arrays columns (error rates,
    requirements, id tie-break keys) in Lemma 3 order plus a lazy content
    fingerprint; what every physical operator consumes.
    :class:`~repro.core.juror.Juror` objects survive only at API
    boundaries.
:mod:`repro.plan.cost`
    The cost model: jer ``dp``/``cba`` and pmf ``dp``/``conv`` crossovers,
    ``enumerate`` vs ``branch-and-bound`` from pool size and budget
    tightness, and the ``frontier-probe`` estimate AltrM plans list.
:mod:`repro.plan.frontier`
    The answer frontier: a pool version's running argmin over the odd-prefix
    JER profile, probed by binary search.  Live pools own one per version,
    and the batch engine answers their AltrM selects from it without
    planning or touching the kernels.

The scalar selectors (:func:`repro.select_jury_altr`,
:func:`repro.select_jury_pay`, :func:`repro.select_jury_optimal`) and the
experiment runners execute through ``plan_query() -> execute_plan()``, as
the batch engine (:class:`repro.service.BatchSelectionEngine`) does for
PayM and exact queries.  The engine answers AltrM selects from Lemma 3
columns instead: a named pool's from its live pool's answer frontier, whose
scan is ``best_odd_prefix``'s loop checkpointed at every prefix, and inline
candidates' from one stacked sweep and ``best_odd_prefix``
(:meth:`~repro.service.BatchSelectionEngine.answer_altr`).  The tests hold
both to the plan pipeline's answers bit for bit, so no path can diverge.
"""

from repro.plan.cost import (
    ENUMERATION_CROSSOVER,
    FRONTIER_MIN_POOL,
    PlanCost,
    estimate_plan_cost,
    frontier_eligible,
)
from repro.plan.frontier import AnswerFrontier
from repro.plan.operators import execute_plan
from repro.plan.planner import (
    SelectionPlan,
    normalize_model,
    plan_query,
    planner_cache_info,
)
from repro.plan.pool import CandidatePool, as_pool

__all__ = [
    "ENUMERATION_CROSSOVER",
    "FRONTIER_MIN_POOL",
    "AnswerFrontier",
    "CandidatePool",
    "PlanCost",
    "SelectionPlan",
    "as_pool",
    "estimate_plan_cost",
    "execute_plan",
    "frontier_eligible",
    "normalize_model",
    "plan_query",
    "planner_cache_info",
]
