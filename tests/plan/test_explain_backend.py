"""``explain`` names the kernel backend the plan's hot kernel really runs on.

``SelectionPlan.kernel_backend`` is a prediction: execution decides each
dispatch again from the input size it observes.  These tests hold the
prediction to the dispatch counters, with native active and with it
unavailable, on pool sizes on both sides of the pay-scan crossover, and
on exact pools past the enumeration crossover, which branch and bound.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import JuryService, SelectionRequest
from repro.core import kernels
from repro.core.juror import Juror
from repro.plan import ENUMERATION_CROSSOVER, execute_plan, plan_query

HOT_KERNEL = {"altr": "sweep", "pay": "pay_scan", "exact": "bb_search"}

EXACT_POOLS = (15, 18, 40)

cases = pytest.mark.parametrize(
    "model, pool_size",
    [(model, size) for model in ("altr", "pay") for size in (5, 7, 8, 121)]
    + [("exact", size) for size in EXACT_POOLS],
)


@pytest.fixture(params=["native", "native_unavailable"])
def large_input_backend(request) -> str:
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


def test_exact_pools_branch_and_bound():
    assert min(EXACT_POOLS) > ENUMERATION_CROSSOVER
    for size in EXACT_POOLS:
        plan = plan_query(_candidates(size), model="exact", budget=_budget("exact"))
        assert plan.operator == "exact-branch-and-bound"


@cases
def test_plan_names_the_backend_its_hot_kernel_runs_on(
    large_input_backend, model, pool_size
):
    plan = plan_query(_candidates(pool_size), model=model, budget=_budget(model))
    kernels.reset_dispatch_counters()
    execute_plan(plan)
    assert kernels.dispatch_counts()[HOT_KERNEL[model]] == {plan.kernel_backend: 1}
    crossed = model != "pay" or pool_size >= kernels.COMPILED_PAY_CROSSOVER
    assert plan.kernel_backend == (large_input_backend if crossed else "numpy")


@cases
def test_service_explain_matches_the_select_that_follows(
    large_input_backend, model, pool_size
):
    request = SelectionRequest(
        task_id="t", candidates=_candidates(pool_size), model=model, budget=_budget(model)
    )
    service = JuryService(frontier_size=0)
    try:
        planned = service.explain(request).plan["kernel_backend"]
        kernels.reset_dispatch_counters()
        assert service.select(request).status == "ok"
    finally:
        service.close()
    assert kernels.dispatch_counts()[HOT_KERNEL[model]] == {planned: 1}
