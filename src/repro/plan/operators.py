"""Physical operators: execute a :class:`~repro.plan.planner.SelectionPlan`.

Each operator consumes the plan's columnar
:class:`~repro.plan.pool.CandidatePool` and returns a
:class:`~repro.core.selection.base.SelectionResult`:

``altr-sweep``
    Odd-prefix JER profile via the vectorized sweep kernel
    (:func:`repro.core.jer.batch_prefix_jer_sweep`); accepts a precomputed
    or cached profile so the batch engine's shared sweeps and the live-pool
    profiles plug straight in.
``pay-greedy`` / ``pay-greedy-improved``
    The columnar PayALG greedy (:func:`repro.core.selection.pay.run_pay_greedy`),
    whose pair trials are scored block-wise with
    :func:`repro.core.jer.extend_pmf_block`.
``exact-enumerate``
    Blocked exhaustive enumeration (:func:`repro.core.selection.exact.enumerate_optimal`)
    over the *affordable* sub-pool — a candidate individually over budget can
    never join a feasible jury, so the cost model's budget-tightness input
    directly shrinks the frontier.
``exact-branch-and-bound``
    The pruned depth-first search
    (:func:`repro.core.selection.exact.branch_and_bound_optimal`).

Selections are bit-identical to the historical single-query selectors: the
operators *are* those selectors, re-hosted on the columnar layout.
"""

from __future__ import annotations

import time

import numpy as np

from repro.core.jer import best_odd_prefix, prefix_jer_profile
from repro.core.selection.altr import result_from_sweep_profile
from repro.core.selection.base import SelectionResult
from repro.core.selection.exact import branch_and_bound_optimal, enumerate_optimal
from repro.core.selection.pay import run_pay_greedy
from repro.errors import InfeasibleSelectionError
from repro.plan.planner import SelectionPlan
from repro.plan.pool import CandidatePool

__all__ = ["execute_plan"]


def _run_altr(
    plan: SelectionPlan, profile: tuple[np.ndarray, np.ndarray] | None
) -> SelectionResult:
    if profile is None:
        profile = prefix_jer_profile(plan.pool.eps)
    ns, jers = profile
    best = best_odd_prefix(ns, jers, max_size=plan.max_size)
    return result_from_sweep_profile(
        plan.pool.ordered[: best[0]], ns, jers, max_size=plan.max_size, best=best
    )


def _affordable_subpool(pool: CandidatePool, budget: float | None) -> CandidatePool:
    """Drop candidates that no feasible jury can contain."""
    if budget is None:
        return pool
    mask = pool.reqs <= budget
    if not mask.any():
        raise InfeasibleSelectionError(
            f"no odd-sized jury is affordable within budget {budget:g}"
        )
    if mask.all():
        return pool
    return pool.take(mask, suffix="affordable")


def execute_plan(
    plan: SelectionPlan,
    *,
    profile: tuple[np.ndarray, np.ndarray] | None = None,
) -> SelectionResult:
    """Run a plan's physical operator and return the selection.

    Parameters
    ----------
    plan:
        A plan from :func:`repro.plan.planner.plan_query`.
    profile:
        Optional precomputed ``(ns, jers)`` odd-prefix profile for the
        ``altr-sweep`` operator (cache hits, shared batch sweeps, live-pool
        profiles).  Ignored by the other operators.

    The result's ``stats.elapsed_seconds`` covers the operator execution,
    matching what the selectors historically reported.
    """
    start = time.perf_counter()
    if plan.operator == "altr-sweep":
        result = _run_altr(plan, profile)
    elif plan.operator in ("pay-greedy", "pay-greedy-improved"):
        result = run_pay_greedy(plan.pool, plan.budget, variant=plan.variant)
    elif plan.operator == "exact-enumerate":
        result = enumerate_optimal(
            _affordable_subpool(plan.pool, plan.budget),
            plan.budget,
            max_size=plan.max_size,
        )
    elif plan.operator == "exact-branch-and-bound":
        result = branch_and_bound_optimal(
            plan.pool, plan.budget, max_size=plan.max_size
        )
    else:  # pragma: no cover - the planner only emits the operators above
        raise ValueError(f"unknown physical operator {plan.operator!r}")
    result.stats.elapsed_seconds = time.perf_counter() - start
    return result
