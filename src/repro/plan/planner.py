"""``plan_query`` — the single front door from queries to physical plans.

Every entry point (the scalar ``select_jury_*`` wrappers, the batch engine,
the ``repro-select`` CLI modes, the experiment runners) funnels through
:func:`plan_query`: the model string is parsed **once** here, the candidate
source is coerced to a :class:`~repro.plan.pool.CandidatePool`, and
the cost model (:mod:`repro.plan.cost`) picks the physical operator and
numeric backends.  The result is a :class:`SelectionPlan` that
:func:`repro.plan.operators.execute_plan` can run — or that
``repro-select explain`` can print without running.

Planning is deterministic and memoised: two queries with the same shape
(model, pool size, affordability, method, variant) share one cached
operator/backend choice, so planning the same query twice yields plans that
are equal field for field.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from repro._validation import validate_budget
from repro.core.jer import JER_IMPROVEMENT_EPS
from repro.plan.cost import (
    PlanCost,
    affordable_count,
    estimate_plan_cost,
    exact_operator_for,
    jer_backend_for,
    kernel_backend_for,
    pmf_backend_for,
)
from repro.plan.pool import CandidatePool, as_pool

__all__ = ["SelectionPlan", "normalize_model", "plan_query", "planner_cache_info"]

_MODELS = ("altr", "pay", "exact")

#: Accepted spellings of the three selection models.  ``plan_query`` is the
#: one place model strings are parsed; everything downstream sees the
#: canonical short form.
_MODEL_ALIASES = {
    "altr": "altr",
    "altrm": "altr",
    "altruism": "altr",
    "pay": "pay",
    "paym": "pay",
    "pay-as-you-go": "pay",
    "exact": "exact",
    "opt": "exact",
    "optimal": "exact",
}

_VARIANTS = ("paper", "improved")
_METHODS = ("auto", "enumerate", "branch-and-bound")


def normalize_model(model: object) -> str:
    """Parse a model string to its canonical form (``altr``/``pay``/``exact``).

    Case-insensitive and alias-tolerant (``AltrM``, ``PayM``, ``opt`` ...).
    This is the single model-string parser in the library; raises
    :class:`ValueError` with the canonical names on anything unrecognised.
    """
    if isinstance(model, str):
        canonical = _MODEL_ALIASES.get(model.strip().lower())
        if canonical is not None:
            return canonical
    raise ValueError(f"unknown model {model!r}; expected one of {_MODELS}")


@dataclass(frozen=True)
class SelectionPlan:
    """A normalised selection query bound to a physical execution choice.

    The *logical* half is the normalised query: ``model``, ``budget``,
    ``max_size``, ``variant``, ``method``, the ``pool`` it selects from and
    the tie-break tolerance.  The *physical* half is what the cost model
    chose: the ``operator`` to run, the ``jer``/``pmf`` backends the
    auto dispatchers resolve to at this pool size, the ``kernel_backend``
    the hot kernel will execute on (``numpy``/``native``, see
    :mod:`repro.core.kernels`), plus the
    :class:`~repro.plan.cost.PlanCost` estimates behind the choice.
    """

    task_id: str
    model: str
    pool: CandidatePool
    budget: float | None
    max_size: int | None
    variant: str
    method: str
    operator: str
    jer_backend: str
    pmf_backend: str
    cost: PlanCost
    #: Minimum JER improvement that counts as strictly better (the shared
    #: tie-break tolerance every operator applies).
    jer_tie_eps: float = JER_IMPROVEMENT_EPS
    #: Compiled-kernel backend the hot kernel dispatches to (defaulted for
    #: backward-compatible construction and payload inflation).
    kernel_backend: str = "numpy"

    def describe(self) -> dict:
        """JSON-friendly rendering for ``repro-select explain``."""
        return {
            "task": self.task_id,
            "model": self.model,
            "pool_size": self.pool.size,
            "pool_id": self.pool.pool_id,
            "budget": self.budget,
            "max_size": self.max_size,
            "variant": self.variant if self.model == "pay" else None,
            "method": self.method if self.model == "exact" else None,
            "operator": self.operator,
            "jer_backend": self.jer_backend,
            "pmf_backend": self.pmf_backend,
            "kernel_backend": self.kernel_backend,
            "jer_tie_eps": self.jer_tie_eps,
            "cost": {
                "pool_size": self.cost.pool_size,
                "affordable": self.cost.affordable,
                "budget_tightness": self.cost.budget_tightness,
                "estimates": [
                    {"operator": op, "ops": ops} for op, ops in self.cost.estimates
                ],
            },
        }


@lru_cache(maxsize=4096)
def _choose(
    model: str,
    pool_size: int,
    affordable: int,
    max_size: int | None,
    variant: str,
    method: str,
) -> tuple[str, str, str, PlanCost]:
    """Memoised (operator, jer/pmf backends, cost) for a query shape."""
    if model == "altr":
        operator = "altr-sweep"
    elif model == "pay":
        operator = "pay-greedy" if variant == "paper" else "pay-greedy-improved"
    elif method == "enumerate":
        operator = "exact-enumerate"
    elif method == "branch-and-bound":
        operator = "exact-branch-and-bound"
    else:
        operator = exact_operator_for(affordable)
    cost = estimate_plan_cost(
        model=model,
        pool_size=pool_size,
        affordable=affordable,
        max_size=max_size,
        variant=variant,
    )
    # The PayM operator maintains its pmfs by exact sequential convolution
    # at every jury size (it never dispatches through jury_error_rate), so
    # the jer backend it effectively uses is always the DP arithmetic.
    jer_backend = "dp" if model == "pay" else jer_backend_for(pool_size)
    return operator, jer_backend, pmf_backend_for(pool_size), cost


def planner_cache_info():
    """Hit/miss statistics of the memoised operator/backend choice."""
    return _choose.cache_info()


def plan_query(
    candidates=None,
    *,
    pool=None,
    model: str = "altr",
    budget: float | None = None,
    max_size: int | None = None,
    variant: str = "paper",
    method: str = "auto",
    task_id: str = "<query>",
) -> SelectionPlan:
    """Normalise a selection query and bind it to a physical plan.

    Parameters
    ----------
    candidates:
        Candidate jurors (any order; validated and sorted), mutually
        exclusive with ``pool``.
    pool:
        A :class:`~repro.plan.pool.CandidatePool`, used as it is (no
        re-sort, no re-hash).
    model:
        Selection model; parsed once here — accepts ``altr``/``pay``/
        ``exact`` and the common aliases (``AltrM``, ``PayM``, ``opt``).
    budget:
        PayM budget (required for ``pay``, optional for ``exact``).
    max_size:
        Optional cap on the jury size (``altr``/``exact``).
    variant:
        PayALG variant: ``paper`` or ``improved``.
    method:
        Exact-solver preference: ``auto`` (cost model decides),
        ``enumerate``, or ``branch-and-bound``.
    task_id:
        Caller label echoed on the plan and in explain output.

    Returns
    -------
    SelectionPlan
        Ready for :func:`repro.plan.operators.execute_plan`.
    """
    canonical = normalize_model(model)
    if (candidates is None) == (pool is None):
        raise ValueError("exactly one of 'candidates' and 'pool' must be provided")
    pool = as_pool(pool if pool is not None else candidates)
    if canonical == "pay":
        if budget is None:
            raise ValueError("model 'pay' requires a budget")
        if variant not in _VARIANTS:
            raise ValueError(
                f"unknown variant {variant!r}; expected 'paper' or 'improved'"
            )
    if canonical == "exact" and method not in _METHODS:
        raise ValueError(
            f"unknown method {method!r}; expected 'auto', 'enumerate' or "
            "'branch-and-bound'"
        )
    normalized_budget = None if budget is None else validate_budget(budget)
    affordable = affordable_count(pool.reqs, normalized_budget)
    operator, jer_backend, pmf_backend, cost = _choose(
        canonical, pool.size, affordable, max_size, variant, method
    )
    return SelectionPlan(
        task_id=task_id,
        model=canonical,
        pool=pool,
        budget=normalized_budget,
        max_size=max_size,
        variant=variant,
        method=method,
        operator=operator,
        jer_backend=jer_backend,
        pmf_backend=pmf_backend,
        # Outside the memo: it depends on whether native activated, which
        # is process state rather than query shape.
        kernel_backend=kernel_backend_for(operator),
        cost=cost,
    )
