"""Answer frontier unit tests: probe/build vs ``best_odd_prefix``.

The frontier's one correctness obligation is *bit-identity with the oracle
tie-break*: for every profile and every ``max_size``, ``probe()`` must return
exactly what :func:`repro.core.jer.best_odd_prefix` returns — same winning
size, bitwise-equal JER, same ``ValueError`` when nothing fits.  Profiles
come from real sweeps and, for the tie-break itself, straight from a grid
finer than :data:`~repro.core.jer.JER_IMPROVEMENT_EPS`.  The rest is the
cost model's ``frontier-probe`` estimate.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.jer import best_odd_prefix, prefix_jer_profile
from repro.plan.cost import FRONTIER_MIN_POOL, estimate_plan_cost, frontier_eligible
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


#: Near-tie profiles: each value sits on a grid of 3e-16 steps around a base,
#: so neighbours differ by less than, or just more than, JER_IMPROVEMENT_EPS,
#: and now and then the profile jumps by a larger step.
_GRID = 3e-16
_near_tie_profiles = st.tuples(
    st.floats(min_value=0.01, max_value=0.49),
    st.lists(
        st.tuples(
            st.integers(min_value=-4, max_value=4),
            st.sampled_from((0, 0, 0, 0, 0, 0, -1, 1)),
        ),
        max_size=39,
    ),
)


def _near_tie_profile(drawn):
    base, steps = drawn
    level = 0
    values = []
    for k, jump in steps:
        level += jump
        values.append(base + level * 1e-4 + k * _GRID)
    jers = np.array(values, dtype=np.float64)
    return np.arange(1, 2 * jers.size, 2, dtype=np.int64), jers


class TestNearTies:
    """The tie-break at the scale it decides: values within, and just past,
    ``JER_IMPROVEMENT_EPS`` of each other, which real sweeps almost never
    produce."""

    @given(drawn=_near_tie_profiles)
    @settings(max_examples=300, deadline=None)
    def test_probe_matches_best_odd_prefix_on_near_ties(self, drawn):
        ns, jers = _near_tie_profile(drawn)
        frontier = AnswerFrontier.build(ns, jers)
        for cap in [None, *range(0, 2 * jers.size + 2)]:
            try:
                expected = best_odd_prefix(ns, jers, max_size=cap)
            except ValueError as exc:
                with pytest.raises(ValueError, match=str(exc)):
                    frontier.probe(cap)
                continue
            n, jer, _ = frontier.probe(cap)
            assert n == expected[0]
            assert np.float64(jer).tobytes() == np.float64(expected[1]).tobytes()

    def test_empty_profile_builds_and_probes_raise_the_oracle_error(self):
        ns, jers = np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64)
        frontier = AnswerFrontier.build(ns, jers)
        assert frontier.entries == 0
        with pytest.raises(ValueError) as oracle:
            best_odd_prefix(ns, jers)
        for cap in (None, 0, 1, 5):
            with pytest.raises(ValueError) as probe:
                frontier.probe(cap)
            assert str(probe.value) == str(oracle.value)


class TestCostModel:
    def test_eligibility_is_altr_only_and_gated_by_pool_size(self):
        assert frontier_eligible("altr", FRONTIER_MIN_POOL)
        assert not frontier_eligible("altr", FRONTIER_MIN_POOL - 1)
        assert not frontier_eligible("pay", 100)
        assert not frontier_eligible("exact", 100)

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
