"""Cost model: pick physical operators and numeric backends for a plan.

The choices mirror — and now centralise — the crossovers that used to live
scattered across the execution layer:

* ``jer`` backend (:func:`repro.core.jer.jury_error_rate` auto rule):
  the ``O(n^2)`` DP below :data:`~repro.core.jer.AUTO_CBA_THRESHOLD`
  jurors, the FFT-based CBA beyond.
* ``pmf`` backend (:class:`repro.core.poisson_binomial.PoissonBinomial`
  auto rule): sequential DP below :data:`~repro.core.poisson_binomial.FFT_CROSSOVER`,
  divide-and-conquer convolution beyond.
* exact operator: exhaustive enumeration up to
  :data:`ENUMERATION_CROSSOVER` *effective* candidates (those individually
  affordable under the budget — an unaffordable candidate can never join a
  feasible jury, so budget tightness shrinks the enumeration frontier),
  branch and bound beyond.
* ``kernel`` backend (:mod:`repro.core.kernels` registry): which
  implementation the operator's *hot* kernel dispatches to — the active
  backend (native wherever it activated) for the AltrM sweep, the PayALG
  pairing scan and the branch and bound's whole search; NumPy for the
  enumeration, which scores its blocks in NumPy and dispatches no kernel.
* answer frontier (:mod:`repro.plan.frontier`): :func:`frontier_eligible`
  admits AltrM queries over pools of at least :data:`FRONTIER_MIN_POOL`
  candidates, whose plans list the ``frontier-probe`` estimate
  (:func:`frontier_probe_ops`) next to the sweep.

Every function here except :func:`kernel_backend_for` (which asks whether
the native backend activated) is pure and deterministic;
:mod:`repro.plan.planner` memoises their combined choice, which is what
makes plans cheap to recompute and trivially cacheable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.core import kernels as _kernels
from repro.core.jer import AUTO_CBA_THRESHOLD
from repro.core.poisson_binomial import FFT_CROSSOVER

__all__ = [
    "ENUMERATION_CROSSOVER",
    "FRONTIER_MIN_POOL",
    "PlanCost",
    "jer_backend_for",
    "pmf_backend_for",
    "kernel_backend_for",
    "exact_operator_for",
    "affordable_count",
    "estimate_plan_cost",
    "frontier_probe_ops",
    "frontier_eligible",
]

#: Effective candidate count up to which exhaustive enumeration beats branch
#: and bound (the historical ``select_jury_optimal(method="auto")`` rule).
ENUMERATION_CROSSOVER = 14

#: Smallest pool for which the cost model prices the frontier probe.
#: Below this the profile has at most two odd prefixes, where a binary-search
#: probe (``frontier_probe_ops``, 2.0 at two entries) costs no less than the
#: linear ``best_odd_prefix`` scan it replaces (one step per entry).
FRONTIER_MIN_POOL = 5


@dataclass(frozen=True)
class PlanCost:
    """Cost-model inputs and per-operator work estimates for one query.

    Attributes
    ----------
    pool_size:
        Number of candidates ``N`` in the pool.
    affordable:
        Candidates whose individual requirement fits the budget (``N`` when
        the query has no budget).  Only these can appear in any feasible
        jury, so this is the *effective* pool size for exact search.
    budget_tightness:
        ``1 - affordable / pool_size`` — 0 when every candidate is
        individually affordable, approaching 1 as the budget excludes the
        pool.
    estimates:
        ``(operator, estimated kernel operations)`` pairs for the operators
        the model weighed, in preference order; the chosen operator is the
        plan's ``operator`` field.
    """

    pool_size: int
    affordable: int
    budget_tightness: float
    estimates: tuple[tuple[str, float], ...]


def jer_backend_for(pool_size: int) -> str:
    """JER backend ``jury_error_rate(..., method="auto")`` would use."""
    return "cba" if pool_size >= AUTO_CBA_THRESHOLD else "dp"


def pmf_backend_for(pool_size: int) -> str:
    """Pmf backend ``PoissonBinomial(..., method="auto")`` would use."""
    return "conv" if pool_size >= FFT_CROSSOVER else "dp"


def kernel_backend_for(operator: str) -> str:
    """Kernel backend the plan's *hot* kernel dispatches to.

    ``altr-sweep`` runs the ``sweep`` kernel, the PayALG operators the
    ``pay_scan`` kernel and ``exact-branch-and-bound`` the ``bb_search``
    kernel, each on the active backend.  ``exact-enumerate`` dispatches no
    kernel: its blocks are scored in NumPy.
    """
    if operator == "exact-enumerate":
        return "numpy"
    return _kernels.ensure_ready()


def exact_operator_for(n_effective: int) -> str:
    """Exact physical operator for ``n_effective`` affordable candidates."""
    if n_effective <= ENUMERATION_CROSSOVER:
        return "exact-enumerate"
    return "exact-branch-and-bound"


def affordable_count(reqs: np.ndarray, budget: float | None) -> int:
    """Candidates individually affordable under ``budget`` (all when None)."""
    if budget is None:
        return int(reqs.size)
    return int(np.count_nonzero(reqs <= budget))


def _frontier_entries(pool_size: int) -> int:
    """Odd prefixes of a pool — the length of profile and frontier alike."""
    return max(1, (pool_size + 1) // 2)


def frontier_probe_ops(pool_size: int) -> float:
    """Work to answer from a *built* frontier: one binary search."""
    return math.log2(_frontier_entries(pool_size)) + 1.0


def frontier_eligible(model: str, pool_size: int) -> bool:
    """Whether the cost model lists the frontier probe for this query shape.

    Only ``altr`` qualifies: the frontier reproduces ``best_odd_prefix``'s
    smaller-jury-wins tie-break exactly, whereas the exact solvers tie-break
    by size then lexicographic juror ids and label results differently —
    serving those from the frontier would break bit-identity with the oracle
    path.  Pools below :data:`FRONTIER_MIN_POOL` get no ``frontier-probe``
    estimate, since a probe costs no less than a scan there; the engine
    still answers them from their live pool's frontier, since the answers
    are the same.
    """
    return model == "altr" and pool_size >= FRONTIER_MIN_POOL


def _enumeration_ops(n: int, limit: int) -> float:
    """Multiply-adds to score every odd jury of <= ``limit`` members by
    enumeration: each size-``k`` combination costs ``O(k^2)`` pmf work."""
    total = 0.0
    for k in range(1, limit + 1, 2):
        total += float(math.comb(n, k)) * k * k
        if total > 1e18:  # saturate; beyond this the magnitude is the message
            return math.inf
    return total


def estimate_plan_cost(
    *,
    model: str,
    pool_size: int,
    affordable: int,
    max_size: int | None = None,
    variant: str = "paper",
) -> PlanCost:
    """Work estimates for the operators applicable to this query shape."""
    n = pool_size
    tightness = 0.0 if n == 0 else 1.0 - affordable / n
    limit = n if max_size is None else min(max_size, n)
    estimates: list[tuple[str, float]]
    if model == "altr":
        # One O(N^2) vectorized sweep of the odd prefixes.
        estimates = [("altr-sweep", n * (n + 2) / 2.0)]
        if frontier_eligible(model, n):
            # The repeat-query alternative: once a frontier is materialised
            # for this pool version, a probe answers in O(log n).  The sweep
            # stays first — it is what a cold query must run — but the engine
            # answers a named pool's select from its frontier without
            # planning at all.
            estimates.append(("frontier-probe", frontier_probe_ops(n)))
    elif model == "pay":
        if variant == "improved":
            # Steepest descent scores every affordable pair per admission
            # step: O(N^2) trials, each an O(|jury|) extension.
            estimates = [("pay-greedy-improved", float(n) * n * n)]
        else:
            # <= N pair trials, each an O(|jury|) pmf extension; |jury| <= N.
            estimates = [("pay-greedy", float(n) * n)]
    else:  # exact
        n_eff = affordable
        eff_limit = min(limit, n_eff)
        estimates = [
            ("exact-enumerate", _enumeration_ops(n_eff, eff_limit)),
            # Branch and bound visits at most the enumeration frontier; the
            # sound prunings typically cut it by orders of magnitude.
            ("exact-branch-and-bound", _enumeration_ops(n_eff, eff_limit)),
        ]
        if exact_operator_for(n_eff) != "exact-enumerate":
            estimates.reverse()
    return PlanCost(
        pool_size=n,
        affordable=affordable,
        budget_tightness=tightness,
        estimates=tuple(estimates),
    )
