"""Answer frontier unit tests: probe/build/repair vs ``best_odd_prefix``.

The frontier's one correctness obligation is *bit-identity with the oracle
tie-break*: for every profile and every ``max_size``, ``probe()`` must return
exactly what :func:`repro.core.jer.best_odd_prefix` returns — same winning
size, bitwise-equal JER, same ``ValueError`` when nothing fits — whether the
frontier was built fresh or delta-repaired from an older version.  The rest
is the cost model's build-vs-probe crossover.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.jer import best_odd_prefix, prefix_jer_profile
from repro.plan.cost import (
    FRONTIER_MIN_POOL,
    estimate_plan_cost,
    frontier_break_even,
    frontier_build_ops,
    frontier_eligible,
    frontier_probe_ops,
    frontier_scan_ops,
)
from repro.plan.frontier import AnswerFrontier

eps_lists = st.lists(
    st.floats(min_value=0.01, max_value=0.99), min_size=1, max_size=40
)


def _profile(eps_values):
    return prefix_jer_profile(np.sort(np.asarray(eps_values, dtype=np.float64)))


class TestProbeOracle:
    @given(eps=eps_lists)
    @settings(max_examples=80, deadline=None)
    def test_probe_matches_best_odd_prefix_at_every_cap(self, eps):
        ns, jers = _profile(eps)
        frontier = AnswerFrontier.build(ns, jers, fingerprint="fp")
        for cap in [None, *range(1, len(eps) + 3)]:
            n, jer, considered = frontier.probe(cap)
            oracle_n, oracle_jer = best_odd_prefix(ns, jers, max_size=cap)
            assert n == oracle_n
            assert jer == oracle_jer  # bitwise float equality, not approx
            expected = int(np.sum(ns <= cap)) if cap is not None else int(ns.size)
            assert considered == expected

    @given(eps=eps_lists, cap=st.integers(min_value=-3, max_value=0))
    @settings(max_examples=30, deadline=None)
    def test_unsatisfiable_cap_raises_the_oracle_error(self, eps, cap):
        ns, jers = _profile(eps)
        frontier = AnswerFrontier.build(ns, jers, fingerprint="fp")
        with pytest.raises(ValueError, match="empty sweep profile"):
            frontier.probe(cap)
        with pytest.raises(ValueError, match="empty sweep profile"):
            best_odd_prefix(ns, jers, max_size=cap)

    def test_fingerprint_and_version_are_optional_labels(self):
        """``build`` reads neither label: with or without them, the columns
        are the same (callers such as servebench still pass
        ``fingerprint=``)."""
        ns, jers = _profile([0.3, 0.1, 0.2, 0.4, 0.25])
        bare = AnswerFrontier.build(ns, jers)
        labelled = AnswerFrontier.build(ns, jers, fingerprint="fp", version=3)
        assert (bare.fingerprint, bare.version) == (None, None)
        assert (labelled.fingerprint, labelled.version) == ("fp", 3)
        for column in ("ns", "best_ns", "best_jers"):
            np.testing.assert_array_equal(
                getattr(bare, column), getattr(labelled, column)
            )

    def test_columns_are_read_only(self):
        ns, jers = _profile([0.3, 0.1, 0.2, 0.4, 0.25])
        frontier = AnswerFrontier.build(ns, jers, fingerprint="fp")
        for column in (frontier.ns, frontier.best_ns, frontier.best_jers):
            with pytest.raises(ValueError):
                column[0] = 0


class TestRepair:
    @given(
        eps=st.lists(st.floats(min_value=0.01, max_value=0.99), min_size=2, max_size=40),
        data=st.data(),
    )
    @settings(max_examples=80, deadline=None)
    def test_repaired_equals_fresh_build(self, eps, data):
        """A repair from *any* clean watermark of *any* older profile must
        equal a fresh build bit for bit — the old dirty entries carry no
        information the running argmin is allowed to keep."""
        old = data.draw(eps_lists)
        old_ns, old_jers = _profile(old)
        stale = AnswerFrontier.build(old_ns, old_jers, fingerprint="old")

        ns, jers = _profile(eps)
        # Only entries whose inputs are unchanged may be declared clean.
        shared = 0
        limit = min(stale.ns.size, ns.size)
        while shared < limit and old_jers[shared] == jers[shared]:
            shared += 1
        clean = data.draw(st.integers(min_value=0, max_value=shared))

        repaired = stale.repaired(ns, jers, clean, fingerprint="new", version=7)
        fresh = AnswerFrontier.build(ns, jers, fingerprint="new", version=7)
        np.testing.assert_array_equal(repaired.best_ns, fresh.best_ns)
        np.testing.assert_array_equal(repaired.best_jers, fresh.best_jers)
        assert repaired.fingerprint == "new" and repaired.version == 7

    def test_repair_clamps_out_of_range_watermarks(self):
        ns, jers = _profile([0.1, 0.2, 0.3])
        frontier = AnswerFrontier.build(ns, jers, fingerprint="fp")
        # A watermark past either profile's length must not crash or read
        # out of bounds; declaring everything clean reproduces the source.
        repaired = frontier.repaired(ns, jers, 999, fingerprint="fp2")
        np.testing.assert_array_equal(repaired.best_jers, frontier.best_jers)


class TestCostModel:
    def test_eligibility_is_altr_only_and_gated_by_pool_size(self):
        assert frontier_eligible("altr", FRONTIER_MIN_POOL)
        assert not frontier_eligible("altr", FRONTIER_MIN_POOL - 1)
        assert not frontier_eligible("pay", 100)
        assert not frontier_eligible("exact", 100)

    def test_break_even_is_finite_for_every_eligible_pool(self):
        # Eligibility implies the probe is *strictly* cheaper than the scan,
        # so building always amortises after finitely many repeats.
        assert frontier_probe_ops(FRONTIER_MIN_POOL) < frontier_scan_ops(
            FRONTIER_MIN_POOL
        )
        assert frontier_break_even(FRONTIER_MIN_POOL) < 10**6
        # Away from the boundary the payoff is immediate: a handful of
        # repeat probes recoups the one-pass build.
        for n in (10, 100, 10_000):
            assert frontier_probe_ops(n) < frontier_scan_ops(n)
            assert 1 <= frontier_break_even(n) <= 3

    def test_break_even_never_amortises_below_the_crossover(self):
        # One odd prefix: scanning IS probing, so building never pays; the
        # same holds right up to the eligibility boundary.
        assert frontier_break_even(1) >= 10**6
        assert frontier_break_even(FRONTIER_MIN_POOL - 1) >= 10**6
        assert frontier_build_ops(1) == frontier_scan_ops(1) == 1.0

    def test_altr_estimates_expose_the_probe_alternative(self):
        cost = estimate_plan_cost(model="altr", pool_size=25, affordable=25)
        operators = [operator for operator, _ in cost.estimates]
        assert operators == ["altr-sweep", "frontier-probe"]
        sweep_ops = dict(cost.estimates)["altr-sweep"]
        probe_ops = dict(cost.estimates)["frontier-probe"]
        assert probe_ops < sweep_ops

    def test_small_pools_omit_the_probe_estimate(self):
        cost = estimate_plan_cost(model="altr", pool_size=1, affordable=1)
        assert [operator for operator, _ in cost.estimates] == ["altr-sweep"]

    def test_non_altr_estimates_unchanged(self):
        pay = estimate_plan_cost(model="pay", pool_size=25, affordable=20)
        assert all(op != "frontier-probe" for op, _ in pay.estimates)
        exact = estimate_plan_cost(model="exact", pool_size=25, affordable=20)
        assert all(op != "frontier-probe" for op, _ in exact.estimates)
