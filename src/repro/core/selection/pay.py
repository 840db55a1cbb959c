"""JSP under the Pay-as-you-go model — paper Algorithm 4 (PayALG).

JSP on PayM is NP-hard (paper Lemma 4, by reduction from the n-th order
Knapsack Problem), so the paper proposes a greedy heuristic:

1. sort candidates ascending by ``eps_i * r_i`` (cheap *and* reliable first);
2. seed the jury with the first affordable candidate;
3. scan the remaining candidates, buffering one as a *pair partner*; whenever
   a second affordable candidate is found, admit the pair only if the
   enlarged (still odd-sized) jury improves the JER.

Pairs keep the size odd, which Majority Voting requires.  This module
implements the paper's first-fit pairing faithfully (``variant="paper"``)
plus a steepest-descent variant used for ablations (``variant="improved"``)
that, at each step, admits the affordable pair with the best JER instead of
the first one that helps, and returns the first-fit jury instead when that
one is better.

Since the plan-layer refactor the greedy is *columnar*: it runs on the
struct-of-arrays :class:`~repro.plan.pool.CandidatePool` (error-rate and
requirement vectors in Lemma 3 order), maintains the incumbent jury's
Carelessness pmf incrementally, and scores whole blocks of candidate pair
enlargements at once with :func:`repro.core.jer.extend_pmf_block` — an
``O(|jury|)`` vectorized trial instead of the historical ``O(|jury|^2)``
per-trial dynamic program.  Decisions are made on exactly the values the
block kernel produces, so the scan admits the same pairs a scalar rerun of
the same arithmetic would.

.. note::
   Trial JERs are computed by exact sequential convolution at *every* jury
   size.  The pre-refactor loop dispatched each trial through
   ``jury_error_rate(..., method="auto")``, which switched to the FFT-based
   CBA backend once the trial jury reached 256 members; the sequential
   chain is the numerically tighter of the two (it is the ``pmf_dp``
   arithmetic), so in that large-jury regime a knife-edge ``trial <=
   incumbent`` admission can resolve differently than the seed's
   FFT-rounded value did.  Below the 256-juror crossover — which includes
   every oracle suite and the paper's workloads — decisions and selections
   match the pre-refactor path exactly.
"""

from __future__ import annotations

import time
from collections.abc import Sequence

import numpy as np

from repro._validation import validate_budget
from repro.core import kernels as _kernels
from repro.core.jer import JER_IMPROVEMENT_EPS, extend_pmf, extend_pmf_block
from repro.core.juror import Juror, Jury
from repro.core.selection.base import SelectionResult, SelectionStats
from repro.errors import EmptyCandidateSetError, InfeasibleSelectionError

__all__ = ["select_jury_pay", "run_pay_greedy"]

#: Candidate-block size for the vectorized pair trials.  Bounds the wasted
#: work past an admission (trials computed for candidates the scalar scan
#: would not have reached yet) while keeping the 2-D kernel busy.
TRIAL_BLOCK = 128


def select_jury_pay(
    candidates: Sequence[Juror],
    budget: float,
    *,
    variant: str = "paper",
) -> SelectionResult:
    """Greedy heuristic for JSP under PayM (paper Algorithm 4).

    Parameters
    ----------
    candidates:
        Candidate juror set ``S`` with error rates and payment requirements.
    budget:
        Total payment budget ``B >= 0`` (Definition 8).
    variant:
        ``"paper"`` reproduces Algorithm 4's first-fit pairing;
        ``"improved"`` is a steepest-descent ablation that evaluates every
        affordable pair at each enlargement step and admits the best one;
        it falls back to the first-fit jury when that one is better, so it
        is never worse than ``"paper"``.

    Returns
    -------
    SelectionResult
        An odd-sized jury whose total cost does not exceed ``budget``.

    Raises
    ------
    InfeasibleSelectionError
        When not even the single cheapest candidate fits in the budget.
    InvalidJuryError
        If two candidates share a juror id (since the batch-service
        refactor, duplicate ids are rejected up front).

    Examples
    --------
    The motivating example of Figure 1 / Table 2: with D and E too expensive,
    the greedy settles on the affordable {A, B, C} jury rather than padding
    with the unreliable F and G:

    >>> from repro.core.juror import Juror
    >>> cands = [Juror(0.1, 0.2, juror_id="A"), Juror(0.2, 0.2, juror_id="B"),
    ...          Juror(0.2, 0.2, juror_id="C"), Juror(0.3, 0.4, juror_id="D"),
    ...          Juror(0.3, 0.65, juror_id="E"), Juror(0.4, 0.1, juror_id="F"),
    ...          Juror(0.4, 0.1, juror_id="G")]
    >>> result = select_jury_pay(cands, budget=1.0)
    >>> sorted(result.juror_ids), round(result.jer, 3)
    (['A', 'B', 'C'], 0.072)
    """
    # Thin wrapper over the plan path: plan_query normalises the query and
    # the cost model picks the operator, which dispatches straight back to
    # :func:`run_pay_greedy` below.  Local import to avoid an import cycle
    # (the plan layer imports this module for its operator table).
    from repro.plan import execute_plan, plan_query

    if len(candidates) == 0:
        raise EmptyCandidateSetError("PayALG requires at least one candidate juror")
    plan = plan_query(
        candidates=tuple(candidates),
        model="pay",
        budget=budget,
        variant=variant,
        task_id="<single>",
    )
    return execute_plan(plan)


def run_pay_greedy(
    candidates,
    budget: float,
    *,
    variant: str = "paper",
) -> SelectionResult:
    """Execute the PayALG greedy on columnar candidate data.

    This is the physical operator behind every PayM query — scalar, batched
    and served.  ``candidates`` may be a
    :class:`~repro.plan.pool.CandidatePool` (the plan layer's columnar
    pools) or a plain sequence of :class:`Juror` objects (validated and decomposed
    here).  Wherever the native backend activated it runs the whole paper
    scan in one call, bit-identical to the blocked NumPy scan by the
    activation self-check.
    """
    # Local import: the plan layer imports this module for its operators.
    from repro.plan.pool import as_pool

    pool = as_pool(candidates)
    eps_sorted, reqs_sorted = pool.eps, pool.reqs
    b = validate_budget(budget)
    if variant not in ("paper", "improved"):
        raise ValueError(f"unknown variant {variant!r}; expected 'paper' or 'improved'")

    # Paper Algorithm 4, Line 1: ascending ``eps_i * r_i`` order.  The
    # columns arrive in Lemma 3 order (error rate, id), so a *stable* sort
    # on the product key reproduces the historical (eps*r, eps, id) tuple
    # sort exactly.
    order = np.argsort(eps_sorted * reqs_sorted, kind="stable")
    g_eps = eps_sorted[order]
    g_req = reqs_sorted[order]

    stats = SelectionStats()
    start = time.perf_counter()

    # Lines 3-6: seed with the first affordable candidate.
    affordable = np.nonzero(g_req <= b)[0]
    if affordable.size == 0:
        raise InfeasibleSelectionError(
            f"no candidate affordable within budget {b:g}; cheapest requirement is "
            f"{float(g_req.min()):g}"
        )
    seed_index = int(affordable[0])
    selected = [seed_index]
    accumulated = float(g_req[seed_index])
    pmf = extend_pmf(np.ones(1, dtype=np.float64), g_eps[seed_index])
    current_jer = _tail(pmf, 1)
    stats.jer_evaluations += 1

    seed = (list(selected), g_eps, g_req, seed_index + 1, accumulated, b, pmf, current_jer)
    paper = _paper_scan(*seed, stats)
    if variant == "paper":
        selected, accumulated, current_jer = paper
    else:
        selected, accumulated, current_jer = _improved_pairing(*seed, stats)
        # Steepest descent can strand itself where first-fit does not; the
        # ablation promises never to be worse, so the paper jury wins when
        # it is strictly better under the shared tie-break.
        if paper[2] < current_jer - JER_IMPROVEMENT_EPS:
            selected, accumulated, current_jer = paper

    stats.elapsed_seconds = time.perf_counter() - start
    jury = Jury([pool.ordered[order[pos]] for pos in selected])
    return SelectionResult(
        jury=jury,
        jer=float(current_jer),
        algorithm="PayALG" if variant == "paper" else "PayALG-improved",
        model="PayM",
        budget=b,
        stats=stats,
    )


def _paper_scan(
    selected: list[int],
    g_eps: np.ndarray,
    g_req: np.ndarray,
    scan_from: int,
    accumulated: float,
    budget: float,
    pmf: np.ndarray,
    current_jer: float,
    stats: SelectionStats,
) -> tuple[list[int], float, float]:
    """The paper's first-fit scan on the compiled backend or in NumPy."""
    impl = _kernels.backend_for("pay_scan")
    if not impl.compiled:
        return _paper_pairing(
            list(selected), g_eps, g_req, scan_from, accumulated, budget,
            pmf, current_jer, stats,
        )
    pairs, accumulated, current_jer, considered, evals = impl.pay_scan(
        g_eps, g_req, budget, scan_from, accumulated, pmf, current_jer
    )
    stats.juries_considered += considered
    stats.jer_evaluations += evals
    return selected + [int(p) for p in pairs], accumulated, current_jer


def _tail(pmf: np.ndarray, threshold: int) -> float:
    """``Pr(C >= threshold)`` of a full-width pmf, clipped into [0, 1]."""
    return min(max(float(np.sum(pmf[threshold:])), 0.0), 1.0)


def _block_trial_jers(
    base: np.ndarray, trial_eps: np.ndarray, threshold: int
) -> tuple[np.ndarray, np.ndarray]:
    """JER of ``base`` enlarged by each candidate in ``trial_eps``.

    Returns ``(jers, rows)``: the clipped tail probabilities and the
    extended pmf rows themselves (the admitted row becomes the next
    incumbent pmf, so trial and admission share one arithmetic).
    """
    rows = extend_pmf_block(base, trial_eps)
    tails = np.sum(rows[:, threshold:], axis=1)
    return np.clip(tails, 0.0, 1.0), rows


def _paper_pairing(
    selected: list[int],
    g_eps: np.ndarray,
    g_req: np.ndarray,
    scan_from: int,
    accumulated: float,
    budget: float,
    pmf: np.ndarray,
    current_jer: float,
    stats: SelectionStats,
) -> tuple[list[int], float, float]:
    """Lines 8-16 of paper Algorithm 4: first-fit pair admission.

    The scan is the paper's single forward pass; only the JER trials are
    restructured, from one ``O(|jury|^2)`` dynamic program per candidate to
    one ``O(block * |jury|)`` fan-out convolution per candidate block.
    """
    n = g_eps.size
    i = scan_from
    partner = -1
    while i < n:
        if partner < 0:
            # No pair partner buffered: the next affordable candidate
            # becomes it (unaffordable ones are passed over, as in the
            # scalar scan — the budget only ever tightens).
            if g_req[i] + accumulated <= budget:
                partner = i
            i += 1
            continue
        block = slice(i, min(n, i + TRIAL_BLOCK))
        enlarged_costs = g_req[block] + g_req[partner] + accumulated
        ok = np.nonzero(enlarged_costs <= budget)[0]
        if ok.size == 0:
            i = block.stop
            continue
        base2 = extend_pmf(pmf, g_eps[partner])
        threshold = (len(selected) + 3) // 2
        trial_jers, rows = _block_trial_jers(base2, g_eps[block][ok], threshold)
        admitted = -1
        for trial_pos in range(ok.size):
            stats.juries_considered += 1
            stats.jer_evaluations += 1
            if trial_jers[trial_pos] <= current_jer:
                admitted = trial_pos
                break
        if admitted < 0:
            i = block.stop
            continue
        q = i + int(ok[admitted])
        selected += [partner, q]
        accumulated = float(g_req[q] + g_req[partner] + accumulated)
        pmf = rows[admitted].copy()
        current_jer = float(trial_jers[admitted])
        partner = -1
        i = q + 1
    return selected, accumulated, current_jer


def _improved_pairing(
    selected: list[int],
    g_eps: np.ndarray,
    g_req: np.ndarray,
    scan_from: int,
    accumulated: float,
    budget: float,
    pmf: np.ndarray,
    current_jer: float,
    stats: SelectionStats,
) -> tuple[list[int], float, float]:
    """Steepest-descent ablation: repeatedly admit the best affordable pair.

    At every step, all affordable two-candidate enlargements of the current
    jury are scored (block-wise: one partner extension, then one fan-out
    convolution over the remaining candidates) and the one with the lowest
    JER is admitted, provided it improves on the incumbent.  Quadratic in
    the candidate count per step.  Greedy descent alone can end worse than
    the first-fit rule, so :func:`run_pay_greedy` keeps whichever of the
    two juries is better.
    """
    pool = list(range(scan_from, g_eps.size))
    improved = True
    while improved:
        improved = False
        best_pair: tuple[int, int] | None = None
        best_jer = current_jer
        best_pmf: np.ndarray | None = None
        threshold = (len(selected) + 3) // 2
        for a_idx, a in enumerate(pool):
            cost_a = g_req[a]
            if accumulated + cost_a > budget:
                continue
            rest = np.asarray(pool[a_idx + 1 :], dtype=np.intp)
            if rest.size == 0:
                continue
            costs = accumulated + cost_a + g_req[rest]
            ok = np.nonzero(costs <= budget)[0]
            if ok.size == 0:
                continue
            base_a = extend_pmf(pmf, g_eps[a])
            trial_jers, rows = _block_trial_jers(base_a, g_eps[rest[ok]], threshold)
            for trial_pos in range(ok.size):
                stats.juries_considered += 1
                stats.jer_evaluations += 1
                if trial_jers[trial_pos] < best_jer - JER_IMPROVEMENT_EPS:
                    best_jer = float(trial_jers[trial_pos])
                    best_pair = (a_idx, a_idx + 1 + int(ok[trial_pos]))
                    best_pmf = rows[trial_pos]
        if best_pair is not None:
            a_idx, b_idx = best_pair
            a, b_pos = pool[a_idx], pool[b_idx]
            selected += [a, b_pos]
            accumulated += float(g_req[a] + g_req[b_pos])
            current_jer = best_jer
            pmf = best_pmf.copy()
            # Remove the admitted pair from the pool (higher index first).
            pool.pop(b_idx)
            pool.pop(a_idx)
            improved = True
    return selected, accumulated, current_jer
