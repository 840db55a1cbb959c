"""JSP under the Altruism model — paper Algorithm 3 (AltrALG).

Lemma 3 proves that, for a fixed jury size ``n``, the minimum-JER jury
consists of the ``n`` candidates with the smallest individual error rates.
AltrALG therefore sorts the candidate set ascending by error rate and scans
the odd-sized prefixes, keeping the prefix with the smallest JER.

Two execution strategies are provided:

``strategy="per-jury"``
    The paper's formulation: each prefix jury's JER is computed independently
    (via DP, Algorithm 1, or CBA, Algorithm 2), optionally skipping juries
    whose Paley-Zygmund lower bound (Lemma 2) already exceeds the incumbent.
    This is the variant the efficiency experiments (Fig. 3(b), 3(g)) time.
``strategy="sweep"``
    Our incremental optimisation: a single ``O(N^2)`` pass over the
    Carelessness pmf.  Since the plan-layer refactor this path is a thin
    wrapper over ``repro.plan.plan_query() -> execute_plan()`` — the same
    plan->operator pipeline the batch engine and the CLI use — so
    single-query and batched selection share the same vectorized kernel
    (:func:`repro.core.jer.batch_prefix_jer_sweep`) and produce
    bit-identical juries.
"""

from __future__ import annotations

import time
from collections.abc import Sequence

import numpy as np

from repro.core.bounds import paley_zygmund_lower_bound
from repro.core.jer import (
    PrefixJERSweeper,
    best_odd_prefix,
    jer_cba,
    jer_dp,
)
from repro.core.juror import Juror, Jury
from repro.core.selection.base import SelectionResult, SelectionStats, sorted_candidates
from repro.errors import EmptyCandidateSetError

__all__ = ["select_jury_altr", "altr_sweep_profile", "result_from_sweep_profile"]

_JER_BACKENDS = {"dp": jer_dp, "cba": jer_cba}


def select_jury_altr(
    candidates: Sequence[Juror],
    *,
    strategy: str = "sweep",
    jer_method: str = "cba",
    use_bound: bool = False,
    max_size: int | None = None,
) -> SelectionResult:
    """Solve JSP under AltrM exactly (paper Algorithm 3).

    Parameters
    ----------
    candidates:
        Candidate juror set ``S``.  Payment requirements are ignored —
        altruistic jurors participate for free (Definition 7).
    strategy:
        ``"sweep"`` (default, incremental ``O(N^2)``) or ``"per-jury"``
        (paper-faithful, recomputes each prefix JER).
    jer_method:
        JER backend for ``strategy="per-jury"``: ``"dp"`` (Algorithm 1) or
        ``"cba"`` (Algorithm 2).  Ignored by the sweep strategy.
    use_bound:
        Enable Paley-Zygmund lower-bound pruning (the Line 5-6 guard of
        Algorithm 3).  Only meaningful for ``strategy="per-jury"``.
    max_size:
        Optional cap on the jury size to consider (odd sizes up to this
        value).  Defaults to all of ``S``.

    Returns
    -------
    SelectionResult
        The minimum-JER jury, which by Lemma 3 is a prefix of the
        error-rate-sorted candidate list.

    Raises
    ------
    EmptyCandidateSetError
        If ``candidates`` is empty.
    InvalidJuryError
        If two candidates share a juror id (since the batch-service
        refactor, duplicate ids are rejected up front rather than only
        when both duplicates land in the selected jury).

    Examples
    --------
    >>> from repro.core.juror import jurors_from_arrays
    >>> cands = jurors_from_arrays([0.1, 0.2, 0.2, 0.3, 0.3, 0.4, 0.4])
    >>> result = select_jury_altr(cands)
    >>> result.size, round(result.jer, 4)
    (5, 0.0704)
    """
    if len(candidates) == 0:
        raise EmptyCandidateSetError("AltrALG requires at least one candidate juror")
    if strategy not in ("sweep", "per-jury"):
        raise ValueError(f"unknown strategy {strategy!r}; expected 'sweep' or 'per-jury'")

    if strategy == "sweep":
        # Thin wrapper over the plan path: plan_query normalises the query
        # and execute_plan runs the sweep operator on the columnar pool —
        # the same path the batch engine and the CLI take, so single-query
        # and batched selection cannot drift apart.  A max_size cap
        # truncates the sorted pool *before* the sweep — with no pool
        # sharing here, sweeping beyond the cap would be wasted work.
        # Local import to avoid an import cycle (the plan layer's operator
        # table imports this module).
        from repro.plan import execute_plan, plan_query

        pool_members = candidates
        if max_size is not None:
            pool_members = sorted_candidates(candidates)[: max(max_size, 1)]

        plan = plan_query(
            candidates=tuple(pool_members),
            model="altr",
            max_size=max_size,
            task_id="<single>",
        )
        return execute_plan(plan)

    ordered = sorted_candidates(candidates)
    if max_size is not None:
        limit = min(max_size, len(ordered))
        ordered = ordered[:limit]
    eps = np.array([j.error_rate for j in ordered], dtype=np.float64)

    stats = SelectionStats()
    start = time.perf_counter()
    best_n, best_jer = _per_jury_best(eps, jer_method, use_bound, stats)
    stats.elapsed_seconds = time.perf_counter() - start

    jury = Jury(ordered[:best_n])
    return SelectionResult(
        jury=jury,
        jer=best_jer,
        algorithm="AltrALG" + ("+bound" if use_bound else ""),
        model="AltrM",
        budget=None,
        stats=stats,
    )


def result_from_sweep_profile(
    ordered: Sequence[Juror],
    ns: np.ndarray,
    jers: np.ndarray,
    *,
    max_size: int | None = None,
    elapsed_seconds: float = 0.0,
    best: tuple[int, float] | None = None,
) -> SelectionResult:
    """Build the AltrALG :class:`SelectionResult` from a sweep profile.

    ``ordered`` must be in Lemma 3 (ascending error-rate) order and
    ``(ns, jers)`` its odd-prefix JER profile as produced by
    :func:`repro.core.jer.prefix_jer_profile` or one row of
    :func:`repro.core.jer.batch_prefix_jer_sweep`.  The batch engine calls
    this for every query so cached profiles and freshly swept ones yield
    identical results.  ``best`` is the winning ``(size, jer)`` pair when
    the caller already ran :func:`~repro.core.jer.best_odd_prefix` (e.g. to
    materialise only the selected prefix); it must come from the same
    profile and ``max_size``.
    """
    best_n, best_jer = (
        best if best is not None else best_odd_prefix(ns, jers, max_size=max_size)
    )
    considered = int(np.sum(ns <= max_size)) if max_size is not None else int(ns.size)
    stats = SelectionStats(
        juries_considered=considered,
        jer_evaluations=considered,
        elapsed_seconds=elapsed_seconds,
    )
    return SelectionResult(
        jury=Jury(list(ordered[:best_n])),
        jer=best_jer,
        algorithm="AltrALG",
        model="AltrM",
        budget=None,
        stats=stats,
    )


def _per_jury_best(
    eps: np.ndarray,
    jer_method: str,
    use_bound: bool,
    stats: SelectionStats,
) -> tuple[int, float]:
    try:
        jer_func = _JER_BACKENDS[jer_method]
    except KeyError:
        raise ValueError(
            f"unknown jer_method {jer_method!r}; expected 'dp' or 'cba'"
        ) from None
    best_n, best_jer = -1, float("inf")
    for n in range(1, eps.size + 1, 2):
        stats.juries_considered += 1
        prefix = eps[:n]
        if use_bound and best_n > 0:
            stats.bound_checks += 1
            bound = paley_zygmund_lower_bound(prefix)
            if bound is not None and bound > best_jer:
                stats.pruned_by_bound += 1
                continue
        stats.jer_evaluations += 1
        value = jer_func(prefix)
        if value < best_jer - 1e-15:
            best_n, best_jer = n, value
    return best_n, best_jer


def altr_sweep_profile(candidates: Sequence[Juror]) -> list[tuple[int, float]]:
    """JER of every odd sorted-prefix jury — the full AltrALG search profile.

    Useful for plotting the "jury size vs JER" curve behind Figure 3(a): the
    returned list contains one ``(size, JER)`` pair per odd prefix of the
    error-rate-sorted candidates.
    """
    if len(candidates) == 0:
        raise EmptyCandidateSetError("cannot profile an empty candidate set")
    ordered = sorted_candidates(candidates)
    eps = [j.error_rate for j in ordered]
    return PrefixJERSweeper(eps).all_odd_prefixes()
