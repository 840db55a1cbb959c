"""Tests for the plan_query front door: normalisation, pools, explain."""

from __future__ import annotations

import pytest

from repro.core.juror import Juror, jurors_from_arrays
from repro.errors import (
    BudgetError,
    EmptyCandidateSetError,
    InvalidJuryError,
)
from repro.plan import (
    CandidatePool,
    as_pool,
    execute_plan,
    normalize_model,
    plan_query,
    planner_cache_info,
)


class TestNormalizeModel:
    @pytest.mark.parametrize(
        "alias, canonical",
        [
            ("altr", "altr"),
            ("AltrM", "altr"),
            ("ALTRUISM", "altr"),
            ("pay", "pay"),
            ("PayM", "pay"),
            ("pay-as-you-go", "pay"),
            ("exact", "exact"),
            ("opt", "exact"),
            ("Optimal", "exact"),
        ],
    )
    def test_aliases(self, alias, canonical):
        assert normalize_model(alias) == canonical

    @pytest.mark.parametrize("bad", ["greedy", "", None, 7, "alt r"])
    def test_rejects_unknown(self, bad):
        with pytest.raises(ValueError, match="unknown model"):
            normalize_model(bad)


class TestCandidatePool:
    def test_sorts_into_lemma3_order(self):
        pool = CandidatePool(
            [Juror(0.3, juror_id="c"), Juror(0.1, juror_id="a"), Juror(0.2, juror_id="b")]
        )
        assert pool.eps.tolist() == [0.1, 0.2, 0.3]
        assert pool.ids == ("a", "b", "c")

    def test_arrays_are_read_only(self):
        pool = CandidatePool(jurors_from_arrays([0.2, 0.1]))
        with pytest.raises(ValueError):
            pool.eps[0] = 0.5
        with pytest.raises(ValueError):
            pool.reqs[0] = 0.5

    def test_rejects_empty_and_duplicates(self):
        with pytest.raises(EmptyCandidateSetError):
            CandidatePool([])
        with pytest.raises(InvalidJuryError):
            CandidatePool([Juror(0.1, juror_id="x"), Juror(0.2, juror_id="x")])

    def test_error_rates_is_the_eps_column(self):
        pool = CandidatePool(jurors_from_arrays([0.3, 0.1, 0.2]))
        assert pool.error_rates is pool.eps
        assert not pool.error_rates.flags.writeable
        assert [j.error_rate for j in pool.ordered] == pool.eps.tolist()
        assert list(pool.ordered) == sorted(pool.ordered, key=lambda j: j.error_rate)

    def test_as_pool_passthrough_and_coercion(self):
        jurors = jurors_from_arrays([0.2, 0.1])
        pool = CandidatePool(jurors)
        assert as_pool(pool) is pool
        assert as_pool(jurors).eps.tolist() == [0.1, 0.2]
        assert as_pool(jurors) == pool

    def test_take_preserves_order_and_members(self):
        pool = CandidatePool(
            jurors_from_arrays([0.1, 0.2, 0.3, 0.4], [1.0, 0.1, 1.0, 0.2])
        )
        sub = pool.take(pool.reqs <= 0.5)
        assert sub.eps.tolist() == [0.2, 0.4]
        assert [j.error_rate for j in sub.ordered] == [0.2, 0.4]
        assert all(a is b for a, b in zip(sub.ordered, pool.ordered[1::2]))

    def test_plan_holds_the_pool_it_was_given(self):
        pool = CandidatePool(jurors_from_arrays([0.3, 0.1, 0.2]))
        plan = plan_query(pool=pool)
        assert plan.pool is pool
        assert plan.describe()["pool_size"] == 3


class TestPlanQuery:
    def test_altr_plan_shape(self):
        plan = plan_query(candidates=jurors_from_arrays([0.1, 0.2, 0.3]))
        assert plan.model == "altr"
        assert plan.operator == "altr-sweep"
        assert plan.jer_backend == "dp"
        assert plan.pmf_backend == "dp"
        assert plan.cost.pool_size == 3
        assert plan.cost.affordable == 3

    def test_model_parsed_once_accepts_aliases(self):
        cands = jurors_from_arrays([0.1, 0.2, 0.3], [0.1, 0.1, 0.1])
        plan = plan_query(candidates=cands, model="PayM", budget=1.0)
        assert plan.model == "pay"
        assert plan.operator == "pay-greedy"
        result = execute_plan(plan)
        assert result.model == "PayM"

    def test_pay_requires_budget(self):
        with pytest.raises(ValueError, match="requires a budget"):
            plan_query(candidates=jurors_from_arrays([0.1]), model="pay")

    def test_budget_validated(self):
        with pytest.raises(BudgetError):
            plan_query(
                candidates=jurors_from_arrays([0.1]), model="pay", budget=-1.0
            )

    def test_unknown_variant_and_method(self):
        cands = jurors_from_arrays([0.1], [0.0])
        with pytest.raises(ValueError, match="unknown variant"):
            plan_query(candidates=cands, model="pay", budget=1.0, variant="oracle")
        with pytest.raises(ValueError, match="unknown method"):
            plan_query(candidates=cands, model="exact", method="clairvoyant")

    def test_exactly_one_source(self):
        cands = jurors_from_arrays([0.1])
        with pytest.raises(ValueError, match="exactly one"):
            plan_query()
        with pytest.raises(ValueError, match="exactly one"):
            plan_query(candidates=cands, pool=CandidatePool(cands))

    def test_budget_tightness_drives_exact_operator(self):
        # 16 candidates, but only 10 individually affordable: the planner
        # enumerates over the effective pool instead of branching.
        reqs = [0.1] * 10 + [9.0] * 6
        cands = jurors_from_arrays([0.2 + 0.01 * i for i in range(16)], reqs)
        tight = plan_query(candidates=cands, model="exact", budget=1.0)
        assert tight.cost.affordable == 10
        assert tight.operator == "exact-enumerate"
        loose = plan_query(candidates=cands, model="exact", budget=100.0)
        assert loose.cost.affordable == 16
        assert loose.operator == "exact-branch-and-bound"
        # Operator choice must not change the answer: force the other
        # operator on the tight query and compare selections exactly.
        forced = plan_query(
            candidates=cands, model="exact", budget=1.0, method="branch-and-bound"
        )
        assert execute_plan(tight).juror_ids == execute_plan(forced).juror_ids

    def test_pay_reports_the_backend_it_actually_uses(self):
        # The PayM operator maintains pmfs by sequential convolution at
        # every size; the plan must not advertise the CBA crossover for it.
        eps = [0.2 + i * 1e-3 for i in range(300)]
        cands = jurors_from_arrays(eps, [0.01] * 300)
        plan = plan_query(candidates=cands, model="pay", budget=1.0)
        assert plan.jer_backend == "dp"
        altr = plan_query(candidates=cands, model="altr")
        assert altr.jer_backend == "cba"  # the dispatcher's rule, reported

    def test_improved_variant_estimate_labeled(self):
        cands = jurors_from_arrays([0.1, 0.2, 0.3], [0.1, 0.1, 0.1])
        plan = plan_query(
            candidates=cands, model="pay", budget=1.0, variant="improved"
        )
        assert plan.operator == "pay-greedy-improved"
        assert plan.cost.estimates[0][0] == "pay-greedy-improved"

    def test_explicit_method_overrides_cost_model(self):
        cands = jurors_from_arrays([0.2] * 4, [0.1] * 4)
        plan = plan_query(
            candidates=cands, model="exact", budget=1.0, method="branch-and-bound"
        )
        assert plan.operator == "exact-branch-and-bound"

    def test_describe_is_json_friendly(self):
        import json

        plan = plan_query(
            candidates=jurors_from_arrays([0.1, 0.2], [0.3, 0.4]),
            model="exact",
            budget=0.5,
        )
        info = json.loads(json.dumps(plan.describe()))
        assert info["operator"] == "exact-enumerate"
        assert info["cost"]["affordable"] == 2
        assert info["cost"]["estimates"][0]["operator"] == "exact-enumerate"


class TestPlanCacheDeterminism:
    def test_same_query_plans_identically(self):
        cands = jurors_from_arrays([0.1, 0.2, 0.3], [0.2, 0.3, 0.4])
        first = plan_query(candidates=cands, model="exact", budget=1.0)
        second = plan_query(candidates=cands, model="exact", budget=1.0)
        assert first.describe() == second.describe()

    def test_repeat_planning_hits_the_choice_cache(self):
        cands = jurors_from_arrays([0.15, 0.25], [0.1, 0.2])
        plan_query(candidates=cands, model="pay", budget=1.0)
        hits_before = planner_cache_info().hits
        plan_query(candidates=cands, model="pay", budget=1.0)
        assert planner_cache_info().hits > hits_before

    def test_cached_choice_is_bit_identical_execution(self):
        cands = jurors_from_arrays([0.1, 0.2, 0.2, 0.3, 0.3], [0.1] * 5)
        results = [
            execute_plan(plan_query(candidates=cands, model="pay", budget=0.5))
            for _ in range(2)
        ]
        assert results[0].juror_ids == results[1].juror_ids
        assert results[0].jer == results[1].jer
