"""``explain`` names the kernel backend the plan's hot kernel really runs on.

``SelectionPlan.kernel_backend`` is a prediction: execution resolves each
dispatch through the kernel registry again.  These tests hold the
prediction to the dispatch counters, with native active and with it
unavailable, on AltrM and PayM pools from 5 candidates up, on exact pools
at or below the enumeration crossover (which dispatch no kernel and
predict ``numpy``), and on exact pools past it, which branch and bound.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import JuryService, SelectionRequest
from repro.core import kernels
from repro.core.juror import Juror
from repro.plan import ENUMERATION_CROSSOVER, execute_plan, plan_query

HOT_KERNEL = {"altr": "sweep", "pay": "pay_scan", "exact": "bb_search"}

ENUMERATED_POOLS = (5, ENUMERATION_CROSSOVER)
BRANCHED_POOLS = (15, 18, 40)

cases = pytest.mark.parametrize(
    "model, pool_size",
    [(model, size) for model in ("altr", "pay") for size in (5, 7, 8, 121)]
    + [("exact", size) for size in ENUMERATED_POOLS + BRANCHED_POOLS],
)


@pytest.fixture(params=["native", "native_unavailable"])
def active_backend(request) -> str:
    """Run with native active, then as where it failed to activate."""
    request.getfixturevalue(request.param)
    return "native" if request.param == "native" else "numpy"


def _candidates(pool_size: int) -> tuple[Juror, ...]:
    rng = np.random.default_rng(pool_size)
    eps = rng.uniform(0.05, 0.45, size=pool_size)
    reqs = rng.uniform(0.1, 1.0, size=pool_size)
    return tuple(
        Juror(float(e), float(r), juror_id=f"c{i}")
        for i, (e, r) in enumerate(zip(eps, reqs))
    )


def _budget(model: str) -> float | None:
    return {"pay": 2.0, "exact": 1.5}.get(model)


def _dispatch(model: str, operator: str, backend: str) -> dict:
    """The registry dispatches one execution makes: one call of the hot
    kernel, or none for enumeration, which scores its blocks in NumPy."""
    if operator == "exact-enumerate":
        return {}
    return {HOT_KERNEL[model]: {backend: 1}}


def test_exact_pools_pick_their_operator():
    assert max(ENUMERATED_POOLS) <= ENUMERATION_CROSSOVER < min(BRANCHED_POOLS)
    for sizes, operator in (
        (ENUMERATED_POOLS, "exact-enumerate"),
        (BRANCHED_POOLS, "exact-branch-and-bound"),
    ):
        for size in sizes:
            plan = plan_query(_candidates(size), model="exact", budget=_budget("exact"))
            assert plan.operator == operator, size


@cases
def test_plan_names_the_backend_its_hot_kernel_runs_on(
    active_backend, model, pool_size
):
    plan = plan_query(_candidates(pool_size), model=model, budget=_budget(model))
    kernels.reset_dispatch_counters()
    execute_plan(plan)
    assert kernels.dispatch_counts() == _dispatch(model, plan.operator, plan.kernel_backend)
    enumerated = plan.operator == "exact-enumerate"
    assert plan.kernel_backend == ("numpy" if enumerated else active_backend)


@cases
def test_service_explain_matches_the_select_that_follows(
    active_backend, model, pool_size
):
    request = SelectionRequest(
        task_id="t", candidates=_candidates(pool_size), model=model, budget=_budget(model)
    )
    service = JuryService()
    try:
        plan = service.explain(request).plan
        kernels.reset_dispatch_counters()
        assert service.select(request).status == "ok"
    finally:
        service.close()
    assert kernels.dispatch_counts() == _dispatch(
        model, plan["operator"], plan["kernel_backend"]
    )
