"""Planner/backend agreement: every cost-model choice matches the oracles.

Three layers of agreement are asserted:

* **Backend choices** — the backend the cost model *reports* for a pool
  size must be the one the auto dispatchers actually use, checked
  bit-for-bit across the pmf ``dp``/``conv`` and jer ``dp``/``cba``
  crossover sizes.
* **Operator choices** — whatever physical operator the planner picks, the
  selection must match the ``jer_naive`` + ``enumerate_optimal`` oracles
  (hypothesis property tests over random instances).
* **Vectorized operators** — the columnar PayALG greedy must admit exactly
  the pairs a scalar replay of the paper's Algorithm 4 admits.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.jer import (
    AUTO_CBA_THRESHOLD,
    batch_jury_jer,
    extend_pmf,
    jer_naive,
    jury_error_rate,
)
from repro.core.juror import Juror
from repro.core.poisson_binomial import (
    FFT_CROSSOVER,
    PoissonBinomial,
    tail_probability,
)
from repro.core.selection.exact import enumerate_optimal
from repro.errors import InfeasibleSelectionError
from repro.plan import execute_plan, plan_query
from repro.plan.cost import jer_backend_for, pmf_backend_for
from repro.testing import ORACLE_ATOL

instances = st.lists(
    st.tuples(
        st.floats(min_value=0.05, max_value=0.95),
        st.floats(min_value=0.0, max_value=1.0),
    ),
    min_size=1,
    max_size=9,
)
budgets = st.floats(min_value=0.1, max_value=3.0)


def make_candidates(pairs):
    return [Juror(eps, req, juror_id=f"c{i}") for i, (eps, req) in enumerate(pairs)]


class TestBackendChoiceMatchesDispatcher:
    @pytest.mark.parametrize(
        "n",
        [1, 5, AUTO_CBA_THRESHOLD - 1, AUTO_CBA_THRESHOLD, AUTO_CBA_THRESHOLD + 1],
    )
    def test_jer_backend_choice_is_bit_identical_to_auto(self, n, rng):
        """``jury_error_rate(..., "auto")`` must equal the backend the cost
        model reports for this size — exactly, not approximately."""
        size = n if n % 2 == 1 else n + 1  # JER needs an odd jury
        eps = rng.uniform(0.01, 0.99, size=size)
        chosen = jer_backend_for(size)
        assert jury_error_rate(eps, method="auto") == jury_error_rate(
            eps, method=chosen
        )

    @pytest.mark.parametrize(
        "n", [1, FFT_CROSSOVER - 1, FFT_CROSSOVER, FFT_CROSSOVER + 1]
    )
    def test_pmf_backend_choice_is_bit_identical_to_auto(self, n, rng):
        eps = rng.uniform(0.01, 0.99, size=n)
        chosen = pmf_backend_for(n)
        auto = PoissonBinomial(eps, method="auto").pmf()
        forced = PoissonBinomial(eps, method=chosen).pmf()
        assert np.array_equal(np.asarray(auto), np.asarray(forced))

    def test_jer_backend_agrees_with_naive_oracle(self, rng, oracle_atol):
        for size in (3, 7, 15):
            eps = rng.uniform(0.05, 0.95, size=size)
            chosen = jer_backend_for(size)
            assert jury_error_rate(eps, method=chosen) == pytest.approx(
                jer_naive(eps), abs=oracle_atol
            )


class TestBatchJuryJerKernel:
    def test_bit_identical_to_scalar_extension_chain(self, rng):
        """The enumeration operator's block kernel must reproduce the
        historical one-factor-at-a-time pmf extension exactly."""
        for k in (1, 3, 7, 13):
            matrix = rng.uniform(0.01, 0.99, size=(11, k))
            jers = batch_jury_jer(matrix)
            for row in range(matrix.shape[0]):
                pmf = np.ones(1, dtype=np.float64)
                for e in matrix[row]:
                    pmf = extend_pmf(pmf, e)
                assert jers[row] == tail_probability(pmf, (k + 1) // 2)

    def test_matches_naive_oracle(self, rng, oracle_atol):
        matrix = rng.uniform(0.05, 0.95, size=(5, 9))
        jers = batch_jury_jer(matrix)
        for row in range(5):
            assert jers[row] == pytest.approx(jer_naive(matrix[row]), abs=oracle_atol)


class TestPlannedExactMatchesEnumerationOracle:
    @given(instances, budgets)
    @settings(max_examples=60, deadline=None)
    def test_planned_exact_equals_enumerate_oracle(self, pairs, budget):
        """Whatever operator the cost model picks, the planned exact path
        must select the oracle's jury, bit for bit."""
        cands = make_candidates(pairs)
        try:
            oracle = enumerate_optimal(cands, budget=budget)
        except InfeasibleSelectionError:
            with pytest.raises(InfeasibleSelectionError):
                execute_plan(
                    plan_query(candidates=cands, model="exact", budget=budget)
                )
            return
        planned = execute_plan(
            plan_query(candidates=cands, model="exact", budget=budget)
        )
        assert planned.juror_ids == oracle.juror_ids
        assert planned.jer == oracle.jer

    @given(instances, budgets)
    @settings(max_examples=40, deadline=None)
    def test_forced_operators_agree_bit_for_bit(self, pairs, budget):
        """``enumerate`` and ``branch-and-bound`` are interchangeable
        physical operators for the same logical plan."""
        cands = make_candidates(pairs)
        try:
            enum = execute_plan(
                plan_query(
                    candidates=cands, model="exact", budget=budget,
                    method="enumerate",
                )
            )
        except InfeasibleSelectionError:
            return
        bb = execute_plan(
            plan_query(
                candidates=cands, model="exact", budget=budget,
                method="branch-and-bound",
            )
        )
        assert bb.juror_ids == enum.juror_ids
        assert bb.jer == enum.jer

    @given(instances)
    @settings(max_examples=30, deadline=None)
    def test_planned_altr_matches_unconstrained_oracle(self, pairs):
        cands = make_candidates(pairs)
        planned = execute_plan(plan_query(candidates=cands, model="altr"))
        oracle = enumerate_optimal(cands)
        assert planned.jer == pytest.approx(oracle.jer, abs=ORACLE_ATOL)
        assert planned.jer == pytest.approx(
            jer_naive([j.error_rate for j in planned.jury]), abs=ORACLE_ATOL
        )


def _scalar_paper_greedy(candidates, budget):
    """Literal replay of paper Algorithm 4, one pair trial at a time.

    Trials are scored the way the columnar greedy scores them: the
    incumbent pmf grows by :func:`extend_pmf`, and a trial's JER is the
    clipped tail sum of its pmf (:func:`tail_probability`, the expression
    of ``run_pay_greedy``'s ``_tail``).  A trial that ties the incumbent in
    exact arithmetic — JER({s, s, 0.5}) == s — is then decided by
    ``trial <= current`` on the same bits on both sides.  ``jury_error_rate``
    stays the value oracle: every trial must agree with it to
    ``ORACLE_ATOL``.
    """
    ordered = sorted(
        candidates,
        key=lambda j: (j.error_rate * j.requirement, j.error_rate, j.juror_id),
    )
    seed_index = next(
        (i for i, j in enumerate(ordered) if j.requirement <= budget), None
    )
    if seed_index is None:
        raise InfeasibleSelectionError("infeasible")
    selected = [ordered[seed_index]]
    accumulated = ordered[seed_index].requirement
    pmf = extend_pmf(np.ones(1), ordered[seed_index].error_rate)
    current = tail_probability(pmf, 1)
    assert current == pytest.approx(
        jury_error_rate([j.error_rate for j in selected]), abs=ORACLE_ATOL
    )
    partner = None
    for juror in ordered[seed_index + 1 :]:
        if partner is None:
            if juror.requirement + accumulated <= budget:
                partner = juror
            continue
        enlarged = juror.requirement + partner.requirement + accumulated
        if enlarged > budget:
            continue
        members = [j.error_rate for j in selected] + [
            partner.error_rate,
            juror.error_rate,
        ]
        trial_pmf = extend_pmf(extend_pmf(pmf, partner.error_rate), juror.error_rate)
        trial = tail_probability(trial_pmf, (len(members) + 1) // 2)
        assert trial == pytest.approx(jury_error_rate(members), abs=ORACLE_ATOL)
        if trial <= current:
            selected = selected + [partner, juror]
            accumulated = enlarged
            pmf = trial_pmf
            current = trial
            partner = None
    return tuple(j.juror_id for j in selected), current


class TestVectorizedPayMatchesScalarReplay:
    @given(instances, budgets)
    @settings(max_examples=60, deadline=None)
    def test_planned_pay_admits_the_same_pairs(self, pairs, budget):
        cands = make_candidates(pairs)
        try:
            ref_ids, ref_jer = _scalar_paper_greedy(cands, budget)
        except InfeasibleSelectionError:
            with pytest.raises(InfeasibleSelectionError):
                execute_plan(
                    plan_query(candidates=cands, model="pay", budget=budget)
                )
            return
        planned = execute_plan(
            plan_query(candidates=cands, model="pay", budget=budget)
        )
        assert planned.juror_ids == ref_ids
        assert planned.jer == pytest.approx(ref_jer, abs=ORACLE_ATOL)

    @pytest.mark.parametrize("s", [0.026, 0.094, 0.305, 0.321, 0.422])
    def test_exact_tie_is_decided_on_the_same_bits(self, s):
        """JER({s, s, 0.5}) == s exactly, so admitting the pair ties the
        seed's JER and rounding decides ``trial <= current``.  These s
        values are ones where a DP evaluation of the trial and the greedy's
        extended pmf round to opposite sides of the tie."""
        cands = make_candidates([(0.5, 0.0), (s, 0.0), (s, 0.0)])
        ref_ids, ref_jer = _scalar_paper_greedy(cands, 1.0)
        planned = execute_plan(plan_query(candidates=cands, model="pay", budget=1.0))
        assert planned.juror_ids == ref_ids
        assert planned.jer == ref_jer

    def test_block_boundary_admissions(self):
        """Pools larger than the trial block must scan identically across
        the block seam."""
        rng = np.random.default_rng(7)
        eps = rng.uniform(0.05, 0.6, size=300)
        reqs = rng.uniform(0.0, 0.1, size=300)
        cands = [
            Juror(float(e), float(r), juror_id=f"w{i}")
            for i, (e, r) in enumerate(zip(eps, reqs))
        ]
        ref_ids, ref_jer = _scalar_paper_greedy(cands, 3.0)
        planned = execute_plan(plan_query(candidates=cands, model="pay", budget=3.0))
        assert planned.juror_ids == ref_ids
        assert planned.jer == pytest.approx(ref_jer, abs=1e-10)
