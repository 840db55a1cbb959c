"""Tests for PayALG (paper Algorithm 4) and its improved variant."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.juror import Juror, jurors_from_arrays
from repro.core.selection.exact import enumerate_optimal
from repro.core.selection.pay import select_jury_pay
from repro.errors import (
    BudgetError,
    EmptyCandidateSetError,
    InfeasibleSelectionError,
)

paym_instances = st.lists(
    st.tuples(
        st.floats(min_value=0.05, max_value=0.95),
        st.floats(min_value=0.0, max_value=1.0),
    ),
    min_size=1,
    max_size=9,
)


def make_candidates(pairs):
    return [
        Juror(eps, req, juror_id=f"c{i}") for i, (eps, req) in enumerate(pairs)
    ]


class TestSelectJuryPay:
    def test_motivating_example(self, table2_jurors):
        """Figure 1 story: budget $1 forces {A,B,C} over {A,B,C,D,E}."""
        result = select_jury_pay(table2_jurors, budget=1.0)
        assert sorted(result.juror_ids) == ["A", "B", "C"]
        assert result.jer == pytest.approx(0.072)
        assert result.total_cost <= 1.0

    def test_generous_budget_paper_variant_stalls_at_abc(self, table2_jurors):
        """First-fit pairing locks F as the partner, so even with an unlimited
        budget the paper's greedy never tries the {D, E} pair and stays at
        {A, B, C} (JER 0.072) instead of {A..E} (JER 0.0704)."""
        result = select_jury_pay(table2_jurors, budget=100.0)
        assert sorted(result.juror_ids) == ["A", "B", "C"]
        assert result.jer == pytest.approx(0.072)

    def test_generous_budget_improved_variant_recovers_altr_optimum(
        self, table2_jurors
    ):
        result = select_jury_pay(table2_jurors, budget=100.0, variant="improved")
        assert sorted(result.juror_ids) == ["A", "B", "C", "D", "E"]
        assert result.jer == pytest.approx(0.07036)

    def test_empty_candidates_rejected(self):
        with pytest.raises(EmptyCandidateSetError):
            select_jury_pay([], budget=1.0)

    def test_negative_budget_rejected(self, table2_jurors):
        with pytest.raises(BudgetError):
            select_jury_pay(table2_jurors, budget=-1.0)

    def test_infeasible_budget_raises(self):
        cands = jurors_from_arrays([0.1, 0.2], [5.0, 6.0])
        with pytest.raises(InfeasibleSelectionError):
            select_jury_pay(cands, budget=1.0)

    def test_zero_budget_with_free_juror(self):
        cands = [Juror(0.3, 0.0, juror_id="free"), Juror(0.1, 1.0, juror_id="paid")]
        result = select_jury_pay(cands, budget=0.0)
        assert result.juror_ids == ("free",)

    def test_unknown_variant_rejected(self, table2_jurors):
        with pytest.raises(ValueError):
            select_jury_pay(table2_jurors, budget=1.0, variant="oracle")

    def test_result_metadata(self, table2_jurors):
        result = select_jury_pay(table2_jurors, budget=1.0)
        assert result.model == "PayM"
        assert result.budget == pytest.approx(1.0)
        assert result.algorithm == "PayALG"

    @given(paym_instances, st.floats(min_value=0.1, max_value=3.0))
    @settings(max_examples=80, deadline=None)
    def test_feasibility_invariants(self, pairs, budget):
        cands = make_candidates(pairs)
        try:
            result = select_jury_pay(cands, budget=budget)
        except InfeasibleSelectionError:
            assert all(j.requirement > budget for j in cands)
            return
        assert result.size % 2 == 1
        assert result.total_cost <= budget + 1e-9
        assert 0.0 <= result.jer <= 1.0

    @given(paym_instances, st.floats(min_value=0.1, max_value=3.0))
    @settings(max_examples=50, deadline=None)
    def test_never_beats_enumerated_optimum(self, pairs, budget):
        cands = make_candidates(pairs)
        try:
            greedy = select_jury_pay(cands, budget=budget)
        except InfeasibleSelectionError:
            return
        optimal = enumerate_optimal(cands, budget=budget)
        assert greedy.jer >= optimal.jer - 1e-10

    @given(paym_instances, st.floats(min_value=0.1, max_value=3.0))
    @settings(max_examples=40, deadline=None)
    def test_improved_variant_never_worse(self, pairs, budget):
        cands = make_candidates(pairs)
        try:
            paper = select_jury_pay(cands, budget=budget, variant="paper")
            improved = select_jury_pay(cands, budget=budget, variant="improved")
        except InfeasibleSelectionError:
            return
        assert improved.jer <= paper.jer + 1e-10

    def test_improved_keeps_the_paper_jury_when_descent_strands(self):
        """Steepest descent alone ends at {j2, j4, j3} (JER 0.07126) here,
        worse than first-fit's {j2, j1, j7, j6, j4} (JER 0.06785); the
        improved variant must return the better of the two."""
        rows = [
            ("j0", 0.43, 0.664), ("j1", 0.253, 0.095), ("j2", 0.184, 0.102),
            ("j3", 0.167, 0.98), ("j4", 0.14, 0.565), ("j5", 0.229, 0.664),
            ("j6", 0.21, 0.325), ("j7", 0.286, 0.22), ("j8", 0.593, 0.87),
        ]
        cands = [Juror(eps, req, juror_id=jid) for jid, eps, req in rows]
        paper = select_jury_pay(cands, budget=1.82, variant="paper")
        improved = select_jury_pay(cands, budget=1.82, variant="improved")
        assert paper.juror_ids == ("j2", "j1", "j7", "j6", "j4")
        assert round(paper.jer, 5) == 0.06785
        assert improved.juror_ids == paper.juror_ids
        assert improved.jer == paper.jer
        assert improved.algorithm == "PayALG-improved"

    def test_greedy_can_be_suboptimal(self):
        """A crafted instance where first-fit pairing misses the optimum.

        The cheap-but-noisy pair is scanned first (low eps*r) and accepted,
        exhausting budget that the optimum spends on the accurate pair.
        """
        cands = [
            Juror(0.30, 0.10, juror_id="seed"),
            Juror(0.45, 0.01, juror_id="noisy1"),
            Juror(0.45, 0.01, juror_id="noisy2"),
            Juror(0.05, 0.45, juror_id="sharp1"),
            Juror(0.05, 0.45, juror_id="sharp2"),
        ]
        budget = 1.0
        greedy = select_jury_pay(cands, budget=budget)
        optimal = enumerate_optimal(cands, budget=budget)
        assert optimal.jer <= greedy.jer
        # The point of the instance: strict gap.
        assert greedy.jer > optimal.jer + 1e-6

    def test_budget_monotonicity_of_greedy_quality(self, table2_jurors):
        """More budget never hurts the greedy on the paper's example family."""
        jers = [
            select_jury_pay(table2_jurors, budget=b).jer
            for b in (0.3, 0.6, 1.0, 1.5, 2.0)
        ]
        assert all(b <= a + 1e-12 for a, b in zip(jers, jers[1:]))

    def test_pair_admission_keeps_size_odd(self):
        rng = np.random.default_rng(23)
        eps = rng.uniform(0.1, 0.5, size=20)
        reqs = rng.uniform(0.0, 0.3, size=20)
        result = select_jury_pay(jurors_from_arrays(eps, reqs), budget=2.0)
        assert result.size % 2 == 1

    def test_stats_populated(self, table2_jurors):
        result = select_jury_pay(table2_jurors, budget=1.0)
        assert result.stats.jer_evaluations >= 1
        assert result.stats.elapsed_seconds >= 0.0

    def test_all_free_candidates_reduce_to_altr(self):
        from repro.core.selection.altr import select_jury_altr

        eps = [0.1, 0.2, 0.25, 0.3, 0.35, 0.4, 0.45]
        free = jurors_from_arrays(eps)  # all requirements zero
        pay = select_jury_pay(free, budget=0.0)
        altr = select_jury_altr(free)
        assert pay.jer == pytest.approx(altr.jer, abs=1e-12)
