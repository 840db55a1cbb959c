"""Exact (optimal) jury selection — the "OPT" baseline of paper Section 5.1.2.

JSP on PayM is NP-hard (paper Lemma 4), so the optimum is only computable for
small candidate sets.  The paper obtains ground truth "via enumerating all
possible combinations of jurors" at ``N = 22``; this module provides

``enumerate_optimal``
    A literal enumeration over all odd-sized, budget-feasible combinations.
    Exponential; guarded to ``N <= 20``.  Test oracle.  Since the plan-layer
    refactor the combinations are scored in *blocks*: candidate index blocks
    are gathered into ``(B, k)`` error-rate matrices and their JERs computed
    by the vectorized :func:`repro.core.jer.batch_jury_jer` kernel, which is
    bit-identical to the historical one-factor-at-a-time pmf extension.
``branch_and_bound_optimal``
    A depth-first search over the error-rate-sorted candidate list with three
    sound prunings that keep the search exact:

    * **count pruning** — the suffix cannot fill the remaining seats;
    * **cost pruning** — even the cheapest completion exceeds the budget;
    * **JER bound pruning** — by the monotonicity of JER in each individual
      error rate (paper Lemma 3's key step), completing the current partial
      jury with the *smallest-epsilon* remaining candidates lower-bounds the
      JER of every completion; subtrees whose bound cannot beat the incumbent
      are cut.  The completion pmf is one
      :func:`repro.core.jer.convolve_pmf` over the suffix candidate block.

    The whole search runs as one native ``bb_search`` kernel call
    (:mod:`repro.core.kernels`) wherever the compiled backend is active:
    the same visit order, prunings, tie-break, counters and pmf arithmetic,
    bit for bit.  The Python search below is the reference and the path
    taken without native.

Both return the same juries; the branch-and-bound answers the paper's
``N = 22`` workloads in well under a millisecond natively (a few
milliseconds in Python).  Either accepts a plain candidate sequence or a
:class:`~repro.plan.pool.CandidatePool` (the plan layer's pools).
"""

from __future__ import annotations

import itertools
import math
import time
from collections.abc import Sequence

import numpy as np

from repro._validation import validate_budget
from repro.core import kernels as _kernels
from repro.core.jer import batch_jury_jer, convolve_pmf, extend_pmf, majority_threshold
from repro.core.poisson_binomial import tail_probability
from repro.core.juror import Juror, Jury
from repro.core.selection.base import SelectionResult, SelectionStats
from repro.errors import EmptyCandidateSetError, InfeasibleSelectionError

__all__ = [
    "enumerate_optimal",
    "branch_and_bound_optimal",
    "select_jury_optimal",
]

_ENUMERATION_LIMIT = 20

#: Combination-block size for the vectorized enumeration: combos are scored
#: in ``(<= _ENUM_BLOCK, k)`` batches through :func:`batch_jury_jer`.
_ENUM_BLOCK = 512


def _pool(candidates):
    """The candidates as a :class:`~repro.plan.pool.CandidatePool`.

    Shares the PayM greedy's coercion, so plain sequences get the same
    up-front validation (Juror instances, unique ids, non-empty) on every
    operator.
    """
    # Local import: the plan layer imports this module for its operators.
    from repro.plan.pool import as_pool

    return as_pool(candidates)


def _result(
    members: Sequence[Juror],
    jer: float,
    algorithm: str,
    budget: float | None,
    stats: SelectionStats,
) -> SelectionResult:
    return SelectionResult(
        jury=Jury(list(members)),
        jer=jer,
        algorithm=algorithm,
        model="AltrM" if budget is None else "PayM",
        budget=budget,
        stats=stats,
    )


def enumerate_optimal(
    candidates,
    budget: float | None = None,
    *,
    max_size: int | None = None,
) -> SelectionResult:
    """Ground-truth JSP optimum by exhaustive enumeration (paper Section 5.1.2).

    Iterates every odd-sized combination of candidates, discards those whose
    total payment exceeds ``budget`` (when given), and returns the feasible
    jury with the smallest JER.  Ties break toward smaller juries, then
    lexicographic member ids, for determinism.

    Raises
    ------
    ValueError
        If the candidate count exceeds 20 (enumeration would be intractable).
    InfeasibleSelectionError
        If no odd-sized jury is affordable.
    """
    pool = _pool(candidates)
    eps, reqs, ids = pool.eps, pool.reqs, pool.ids
    n_total = int(eps.size)
    if n_total > _ENUMERATION_LIMIT:
        raise ValueError(
            f"enumerate_optimal is limited to N <= {_ENUMERATION_LIMIT} candidates "
            f"(got {n_total}); use branch_and_bound_optimal instead"
        )
    b = math.inf if budget is None else validate_budget(budget)
    limit = n_total if max_size is None else min(max_size, n_total)

    stats = SelectionStats()
    start = time.perf_counter()
    best_indices: tuple[int, ...] | None = None
    best_jer = math.inf
    for k in range(1, limit + 1, 2):
        combos = itertools.combinations(range(n_total), k)
        while True:
            block = list(itertools.islice(combos, _ENUM_BLOCK))
            if not block:
                break
            idx = np.array(block, dtype=np.intp)
            stats.juries_considered += idx.shape[0]
            # Sequential left-to-right accumulation, matching the scalar
            # ``sum(j.requirement for j in combo)`` rounding exactly.
            costs = np.zeros(idx.shape[0], dtype=np.float64)
            for col in range(k):
                costs += reqs[idx[:, col]]
            feasible = np.nonzero(costs <= b)[0]
            if feasible.size == 0:
                continue
            chosen = idx[feasible]
            jers = batch_jury_jer(eps[chosen])
            stats.jer_evaluations += chosen.shape[0]
            for row in range(chosen.shape[0]):
                combo_indices = tuple(int(i) for i in chosen[row])
                jer = float(jers[row])
                if _improves(jer, combo_indices, best_jer, best_indices, ids):
                    best_jer, best_indices = jer, combo_indices
    stats.elapsed_seconds = time.perf_counter() - start

    if best_indices is None:
        raise InfeasibleSelectionError(
            f"no odd-sized jury is affordable within budget {b:g}"
        )
    members = tuple(pool.ordered[i] for i in best_indices)
    return _result(members, best_jer, "OPT-enumerate", budget, stats)


def _improves(
    jer: float,
    indices: tuple[int, ...],
    best_jer: float,
    best_indices: tuple[int, ...] | None,
    ids: Sequence[str],
) -> bool:
    """Whether a jury beats the incumbent: lower JER, then on a tie within
    ``1e-15`` the smaller jury, then the lexicographically smaller ids."""
    if jer < best_jer - 1e-15:
        return True
    if abs(jer - best_jer) <= 1e-15 and best_indices is not None:
        if len(indices) != len(best_indices):
            return len(indices) < len(best_indices)
        return tuple(ids[i] for i in indices) < tuple(ids[i] for i in best_indices)
    return False


def branch_and_bound_optimal(
    candidates,
    budget: float | None = None,
    *,
    max_size: int | None = None,
    use_jer_bound: bool = True,
) -> SelectionResult:
    """Exact JSP optimum via depth-first branch and bound.

    Equivalent to :func:`enumerate_optimal` but with sound pruning, making the
    paper's ``N = 22`` ground-truth computation practical.  Set
    ``use_jer_bound=False`` to disable the monotonicity bound (cost and count
    pruning remain) — useful for ablation benchmarks.
    """
    pool = _pool(candidates)
    eps, reqs = pool.eps, pool.reqs
    b = math.inf if budget is None else validate_budget(budget)
    n_total = int(eps.size)
    limit = n_total if max_size is None else min(max_size, n_total)

    impl = _kernels.backend_for("bb_search")
    stats = SelectionStats()
    start = time.perf_counter()
    if impl.compiled:
        # The whole search in one call, node for node the Python search.
        best_indices, best_jer, counters = impl.bb_search(
            eps, reqs, _id_ranks(pool.ids), limit, b, use_jer_bound
        )
        (
            stats.nodes_visited,
            stats.jer_evaluations,
            stats.bound_checks,
            stats.pruned_by_bound,
        ) = counters
    else:
        best_indices, best_jer = _python_search(
            pool.ids, eps, reqs, limit, b, use_jer_bound, stats
        )
    stats.elapsed_seconds = time.perf_counter() - start

    if best_indices is None:
        raise InfeasibleSelectionError(
            f"no odd-sized jury is affordable within budget {b:g}"
        )
    return _result(
        tuple(pool.ordered[i] for i in best_indices),
        best_jer,
        "OPT-branch-and-bound",
        budget,
        stats,
    )


def _python_search(
    ids: Sequence[str],
    eps: np.ndarray,
    reqs: np.ndarray,
    limit: int,
    budget: float,
    use_jer_bound: bool,
    stats: SelectionStats,
) -> tuple[tuple[int, ...] | None, float]:
    """The reference search: one depth-first pass per odd size up to
    ``limit``, the incumbent carried across sizes.  Returns the incumbent's
    ``(indices | None, jer)``; the native ``bb_search`` kernel must
    reproduce it and the four search counters of ``stats`` exactly."""
    # cheapest_sum[i][m]: minimum total requirement of any m candidates taken
    # from the suffix starting at index i.  Used for cost pruning.
    cheapest_sum = _suffix_cheapest_sums(reqs)
    best: dict[str, object] = {"jer": math.inf, "indices": None}

    for k in range(1, limit + 1, 2):
        threshold = majority_threshold(k)
        _bb_search(
            ids,
            eps,
            reqs,
            cheapest_sum,
            k,
            threshold,
            budget,
            use_jer_bound,
            best,
            stats,
        )
    return best["indices"], float(best["jer"])  # type: ignore[return-value,arg-type]


def _id_ranks(ids: Sequence[str]) -> np.ndarray:
    """Each candidate's position in id order: the native search's
    tie-break key.  Ids are unique, so rank tuples order exactly as the
    id tuples :func:`_improves` compares."""
    ranks = np.empty(len(ids), dtype=np.int64)
    ranks[sorted(range(len(ids)), key=ids.__getitem__)] = np.arange(len(ids))
    return ranks


def _suffix_cheapest_sums(reqs: np.ndarray) -> list[np.ndarray]:
    """``cheapest[i][m]`` = cheapest way to buy ``m`` jurors from suffix ``i``."""
    n = reqs.size
    table: list[np.ndarray] = []
    for i in range(n + 1):
        suffix = np.sort(reqs[i:])
        sums = np.concatenate(([0.0], np.cumsum(suffix)))
        table.append(sums)
    return table


def _bb_search(
    ids: Sequence[str],
    eps: np.ndarray,
    reqs: np.ndarray,
    cheapest_sum: list[np.ndarray],
    k: int,
    threshold: int,
    budget: float,
    use_jer_bound: bool,
    best: dict[str, object],
    stats: SelectionStats,
) -> None:
    n_total = eps.size
    chosen: list[int] = []

    def dfs(index: int, cost: float, pmf: np.ndarray) -> None:
        stats.nodes_visited += 1
        picked = len(chosen)
        if picked == k:
            if cost > budget + 1e-12:
                return
            stats.jer_evaluations += 1
            jer = tail_probability(pmf, threshold)
            indices = tuple(chosen)
            if _improves(jer, indices, float(best["jer"]), best["indices"], ids):  # type: ignore[arg-type]
                best["jer"], best["indices"] = jer, indices
            return
        need = k - picked
        if index >= n_total or n_total - index < need:
            return
        # Cost pruning: even the cheapest completion busts the budget.
        if cost + cheapest_sum[index][need] > budget + 1e-12:
            return
        # JER bound pruning: completing with the smallest-epsilon remaining
        # candidates (the immediate suffix, since eps is sorted ascending)
        # lower-bounds every completion's JER by coordinate-wise monotonicity.
        # The whole completion block is folded in with one convolve_pmf.
        if use_jer_bound and best["indices"] is not None:
            stats.bound_checks += 1
            bound_pmf = convolve_pmf(pmf, eps[index : index + need])
            if tail_probability(bound_pmf, threshold) >= float(best["jer"]) - 1e-15:
                stats.pruned_by_bound += 1
                return
        # Branch 1: choose candidate ``index``.
        chosen.append(index)
        dfs(index + 1, cost + reqs[index], extend_pmf(pmf, eps[index]))
        chosen.pop()
        # Branch 2: skip candidate ``index``.
        dfs(index + 1, cost, pmf)

    dfs(0, 0.0, np.ones(1, dtype=np.float64))


def select_jury_optimal(
    candidates,
    budget: float | None = None,
    *,
    method: str = "auto",
    max_size: int | None = None,
) -> SelectionResult:
    """Exact JSP optimum through the planner's operator dispatch.

    Parameters
    ----------
    candidates:
        Candidate juror set (sequence or :class:`~repro.plan.pool.CandidatePool`).
    budget:
        PayM budget, or ``None`` for the AltrM (unconstrained) optimum.
    method:
        ``"enumerate"``, ``"branch-and-bound"``, or ``"auto"`` (default):
        the cost model enumerates while the budget-affordable candidate
        count stays within :data:`repro.plan.cost.ENUMERATION_CROSSOVER`
        and branches-and-bounds beyond.
    max_size:
        Optional cap on jury size.
    """
    # Local import: the plan layer imports this module for its operators.
    from repro.plan import execute_plan, plan_query

    # A pool or decoded columns are used as they are; anything else is
    # materialised once so a generator survives the emptiness check.
    source = candidates if hasattr(candidates, "eps") else tuple(candidates)
    if len(source) == 0:
        raise EmptyCandidateSetError("cannot optimise an empty candidate set")
    plan = plan_query(
        candidates=source,
        model="exact",
        budget=budget,
        method=method,
        max_size=max_size,
        task_id="<single>",
    )
    return execute_plan(plan)
