"""Answer frontier through the engine: named pools skip the planner, stay bit-identical.

The engine answers every AltrM select of a named pool from its live pool's
answer frontier.  Two halves of that are pinned here:

* **It actually short-circuits** — a named-pool AltrM select, cold, repeated
  or after a mutation, runs neither ``execute_plan`` nor the content hash
  (asserted by monkeypatching call counters over both).
* **It is invisible in the answers** — across arbitrary churn sequences the
  engine returns selections bit-identical (juror ids, JER to the last bit,
  algorithm label, work counters) to the sequential reference, which plans
  and executes over a snapshot of the pool's current version, errors
  included.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.service.batch as batch_module
import repro.service.registry as registry_module
from repro.api import JuryService, PoolCommand, SelectionRequest
from repro.core.juror import Juror
from repro.core.selection.altr import select_jury_altr
from repro.errors import BudgetError
from repro.plan import execute_plan, plan_query
from repro.plan import pool as pool_module
from repro.plan.cost import FRONTIER_MIN_POOL
from repro.service import (
    BatchSelectionEngine,
    CandidatePool,
    PoolRegistry,
    QueryOutcome,
    SelectionQuery,
)


def _jurors(eps_values, prefix="c"):
    return tuple(
        Juror(e, juror_id=f"{prefix}{i}") for i, e in enumerate(eps_values)
    )


EPS = (0.1, 0.2, 0.2, 0.3, 0.3, 0.4, 0.65)


def _query(task_id, name="P", **kwargs):
    return SelectionQuery(task_id=task_id, pool_name=name, **kwargs)


def _engine(eps=EPS, name="P"):
    """A registry holding one pool, and an engine over it."""
    registry = PoolRegistry()
    registry.create(name, _jurors(eps))
    return registry, BatchSelectionEngine(registry=registry)


def _reference(query, pool):
    """The sequential reference: plan and execute over a frozen pool."""
    outcome = QueryOutcome(task_id=query.task_id)
    try:
        plan = plan_query(
            pool=pool, model=query.model, budget=query.budget,
            max_size=query.max_size, task_id=query.task_id,
        )
        outcome.result = execute_plan(plan)
    except Exception as exc:
        outcome.exception = exc
    return outcome


def _reference_named(registry, query):
    """The reference at the named pool's current version."""
    return _reference(query, registry.get(query.pool_name).snapshot())


def _counting(monkeypatch, module, name):
    """Replace ``module.name`` with a wrapper that records each call."""
    calls = []
    real = getattr(module, name)

    def wrapper(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)
    return calls


def _assert_outcomes_identical(lhs, rhs):
    assert lhs.ok == rhs.ok
    if not lhs.ok:
        assert type(lhs.exception) is type(rhs.exception)
        assert str(lhs.exception) == str(rhs.exception)
        return
    a, b = lhs.result, rhs.result
    assert a.juror_ids == b.juror_ids
    assert a.jer == b.jer  # bitwise float equality, not approx
    assert a.algorithm == b.algorithm and a.model == b.model
    assert a.budget == b.budget
    assert a.stats.juries_considered == b.stats.juries_considered
    assert a.stats.jer_evaluations == b.stats.jer_evaluations


class TestKernelShortCircuit:
    def test_named_selects_never_plan_or_hash(self, monkeypatch):
        """The headline guarantee: a named-pool AltrM select, cold, repeated
        or after a mutation, runs neither ``execute_plan`` nor the content
        hash."""
        executes = _counting(monkeypatch, batch_module, "execute_plan")
        hashes = _counting(monkeypatch, registry_module, "columns_fingerprint")
        hashes_of_snapshots = _counting(monkeypatch, pool_module, "columns_fingerprint")
        registry, engine = _engine()

        cold = engine.run([_query("cold")])[0]
        warm = engine.run([_query("warm")])[0]
        assert cold.ok and warm.ok
        _assert_outcomes_identical(cold, warm)
        registry.get("P").update_error_rate("c6", 0.7)
        after = engine.run([_query("after")])[0]
        assert after.ok
        assert executes == [] and hashes == [] and hashes_of_snapshots == []
        # Each version's first select builds its frontier whole: two
        # versions, two builds, and the repeat in between hit.
        stats = engine.stats
        assert (stats.frontier_builds, stats.frontier_hits) == (2, 1)
        _assert_outcomes_identical(after, _reference_named(registry, _query("after")))

    def test_capped_repeats_hit_without_the_kernel_too(self, monkeypatch):
        calls = _counting(monkeypatch, batch_module, "execute_plan")
        _, engine = _engine()
        engine.run([_query("cold")])
        for cap in (1, 3, 5, len(EPS)):
            outcome = engine.run([_query(f"cap{cap}", max_size=cap)])[0]
            assert outcome.ok and outcome.result.size <= cap
        assert calls == []
        assert engine.stats.frontier_hits == 4

    def test_mixed_batch_only_altr_hits(self):
        eps = EPS
        reqs = tuple(0.1 * (i + 1) for i in range(len(eps)))
        jurors = tuple(
            Juror(e, r, juror_id=f"c{i}") for i, (e, r) in enumerate(zip(eps, reqs))
        )
        registry = PoolRegistry()
        registry.create("P", jurors)
        engine = BatchSelectionEngine(registry=registry)
        engine.run([_query("warmup")])
        outcomes = engine.run(
            [
                _query("altr"),
                _query("pay", model="pay", budget=1.0),
                _query("exact", model="exact", budget=1.0),
            ]
        )
        assert all(o.ok for o in outcomes)
        assert engine.stats.frontier_hits == 1  # only the AltrM repeat
        assert outcomes[1].result.algorithm == "PayALG"
        assert outcomes[2].result.algorithm.startswith("OPT")


class TestErrorParityOnHits:
    def test_unsatisfiable_max_size_errors_identically(self):
        registry, engine = _engine()
        engine.run([_query("warm")])
        hit = engine.run([_query("bad", max_size=0)])[0]
        assert engine.stats.frontier_hits == 1  # the error still probed the frontier
        _assert_outcomes_identical(hit, _reference_named(registry, _query("bad", max_size=0)))
        assert isinstance(hit.exception, ValueError)

    def test_invalid_budget_errors_identically(self):
        registry, engine = _engine()
        engine.run([_query("warm")])
        hit = engine.run([_query("bad", budget=-1.0)])[0]
        _assert_outcomes_identical(
            hit, _reference_named(registry, _query("bad", budget=-1.0))
        )
        assert isinstance(hit.exception, BudgetError)

    def test_empty_pool_errors_identically(self):
        registry, engine = _engine(eps=(0.2,))
        engine.run([_query("warm")])
        registry.get("P").remove_juror("c0")
        outcome = engine.run([_query("empty")])[0]
        assert str(outcome.exception) == "cannot snapshot an empty live pool"

    def test_raise_errors_propagates_from_the_hit_path(self):
        _, engine = _engine()
        engine.run([_query("warm")])
        with pytest.raises(ValueError, match="empty sweep profile"):
            engine.run([_query("bad", max_size=0)], raise_errors=True)


# One step (op, value, pick): a pool mutation or a select, capped or not.
_churn_ops = st.lists(
    st.tuples(
        st.sampled_from(["add", "remove", "update", "query", "capped_query"]),
        st.floats(min_value=0.01, max_value=0.99),
        st.integers(min_value=0, max_value=10**6),
    ),
    min_size=1,
    max_size=25,
)


class TestChurnBitIdentity:
    @given(seed=st.integers(min_value=0, max_value=2**31 - 1), ops=_churn_ops)
    @settings(max_examples=40, deadline=None)
    def test_frontier_matches_oracle_across_random_churn(self, seed, ops):
        """Random add/remove/update churn interleaved with AltrM queries at
        random caps: every selection from the engine must equal the
        sequential reference bit for bit, at every version."""
        rng = np.random.default_rng(seed)
        base = rng.uniform(0.05, 0.9, size=FRONTIER_MIN_POOL + 5)
        registry, engine = _engine(tuple(base))
        pool = registry.get("P")
        next_id = 0
        task = 0
        for op, value, pick in ops:
            if op == "add":
                next_id += 1
                pool.add_juror(Juror(value, juror_id=f"n{next_id}"))
            elif op == "remove":
                ids = [j.juror_id for j in pool.ordered]
                if len(ids) <= 1:
                    continue  # keep the pool non-empty
                pool.remove_juror(ids[pick % len(ids)])
            elif op == "update":
                ids = [j.juror_id for j in pool.ordered]
                pool.update_error_rate(ids[pick % len(ids)], value)
            else:
                cap = None if op == "query" else 1 + pick % (len(pool) + 2)
                task += 1
                query = _query(f"t{task}", max_size=cap)
                _assert_outcomes_identical(
                    engine.run([query])[0], _reference_named(registry, query)
                )
        # Closing select: the final version agrees too.
        _assert_outcomes_identical(
            engine.run([_query("final")])[0],
            _reference_named(registry, _query("final")),
        )

    def test_mutation_between_repeats_never_serves_stale_answers(self):
        registry, engine = _engine((0.3, 0.3, 0.3, 0.3, 0.3))
        before = engine.run([_query("before")])[0]
        registry.get("P").add_juror(Juror(0.01, juror_id="ace"))
        after = engine.run([_query("after")])[0]
        assert "ace" in after.result.juror_ids
        assert after.result.jer < before.result.jer
        # And the new version is itself frontier-served on repeat.
        again = engine.run([_query("again")])[0]
        _assert_outcomes_identical(after, again)
        assert engine.stats.frontier_hits >= 1


class TestLivePoolFrontierLifecycle:
    def _pool(self, eps=EPS):
        registry = PoolRegistry()
        return registry.create("P", _jurors(eps))

    def test_built_then_cached(self):
        pool = self._pool()
        _, mode = pool.answer_frontier()
        assert mode == "built" and pool.stats.frontier_builds == 1
        _, mode = pool.answer_frontier()
        assert mode == "cached" and pool.stats.frontier_builds == 1

    @pytest.mark.parametrize(
        "juror_id, error_rate", [("c6", 0.7), ("c0", 0.05)], ids=["tail", "head"]
    )
    def test_churn_builds_the_next_version_whole(self, juror_id, error_rate):
        """Churn anywhere in the sorted order, tail or head, leaves the old
        frontier behind: the new version's first call builds one from its
        own profile, which answers like the plan pipeline on a snapshot."""
        pool = self._pool()
        first, _ = pool.answer_frontier()
        pool.update_error_rate(juror_id, error_rate)
        second, mode = pool.answer_frontier()
        assert mode == "built" and pool.stats.frontier_builds == 2
        assert second is not first and second.version == pool.version
        assert pool.answer_frontier() == (second, "cached")
        reference = execute_plan(plan_query(pool=pool.snapshot(), model="altr"))
        size, jer, considered = second.probe(None)
        assert (size, jer) == (reference.size, reference.jer)
        assert considered == reference.stats.juries_considered


class TestDropAndRecreate:
    def test_recreated_pool_builds_its_own_frontier(self):
        """A dropped pool takes its frontier with it: re-creating the same
        candidates under the same name builds a fresh one on its first
        select, never serving a ghost of the dropped pool."""
        service = JuryService()
        candidates = _jurors(EPS)
        service.pool(PoolCommand(action="create", name="P", candidates=candidates))
        service.select(SelectionRequest(task_id="warm", pool="P"))
        repeat = service.select(SelectionRequest(task_id="hot", pool="P"))
        assert repeat.status == "ok"
        stats = service.engine.stats
        assert stats.frontier_builds == 1 and stats.frontier_hits == 1

        service.pool(PoolCommand(action="drop", name="P"))
        service.pool(PoolCommand(action="create", name="P", candidates=candidates))
        fresh = service.select(SelectionRequest(task_id="fresh", pool="P"))
        assert fresh.status == "ok" and fresh.jer == repeat.jer
        assert stats.frontier_builds == 2
        hot = service.select(SelectionRequest(task_id="hot2", pool="P"))
        assert hot.jer == repeat.jer and stats.frontier_hits == 2
        service.close()


class TestSequentialReference:
    def test_repeats_match_the_reference(self):
        registry, engine = _engine()
        for task in ("a", "b", "c"):
            _assert_outcomes_identical(
                engine.run([_query(task)])[0], _reference_named(registry, _query(task))
            )
        assert engine.stats.frontier_hits == 2

    @pytest.mark.parametrize("size", [1, 2, 3, 4])
    def test_small_named_pools_answer_from_the_frontier(self, size):
        """Pools below the cost model's build-vs-probe crossover take the
        same frontier path, capped or not, and match the reference."""
        registry, engine = _engine(EPS[:size])
        caps = [None, 0, 1, 2, 3, 4, 5, None]
        for i, cap in enumerate(caps):
            query = _query(f"q{i}", max_size=cap)
            _assert_outcomes_identical(
                engine.run([query])[0], _reference_named(registry, query)
            )
        assert engine.stats.frontier_hits == len(caps) - 1
        assert engine.stats.frontier_builds == 1


class TestInlinePools:
    def test_inline_repeats_share_a_row_only_as_one_object(self):
        """Inline candidate sets are not fingerprinted: equal ones in
        distinct requests are swept one row each, and only a request object
        repeated within a pass reads the row it already has, counted as a
        ``cache`` hit.  They never get a frontier, and the next pass sweeps
        them again."""
        service = JuryService()
        requests = [
            SelectionRequest(task_id=task, candidates=_jurors(EPS)) for task in "abc"
        ]
        requests.append(requests[0])
        first = service.select_many(requests)
        assert service.stats()["cache"] == {"hits": 1, "misses": 3}
        second = service.select_many(requests)
        stats = service.stats()
        assert stats["cache"] == {"hits": 2, "misses": 6}
        assert stats["engine"]["batch_sweeps"] == 2
        assert stats["frontier"] == {"hits": 0, "builds": 0}
        expected = select_jury_altr(list(_jurors(EPS)))
        for response in first + second:
            assert response.jer == expected.jer
            assert tuple(m.juror_id for m in response.members) == expected.juror_ids
        service.close()

    def test_shared_frozen_pools_with_caps_match_the_oracle(self):
        """A skewed repeat stream over shared ``CandidatePool`` objects, a
        quarter of it capped: every answer equals the sequential reference's
        bit for bit."""
        rng = np.random.default_rng(7)
        pools = [
            CandidatePool(
                _jurors(
                    np.concatenate(
                        [rng.uniform(0.05, 0.2, 3), rng.uniform(0.45, 0.49, 38)]
                    ).tolist(),
                    prefix=f"p{k}-",
                )
            )
            for k in range(4)
        ]
        ranks = np.minimum(rng.zipf(1.5, size=60), len(pools)) - 1
        caps = rng.choice([None, None, None, 1, 3, 5, 9], size=ranks.size)
        engine = BatchSelectionEngine()
        for i, (rank, cap) in enumerate(zip(ranks.tolist(), caps.tolist())):
            query = SelectionQuery(task_id=f"q{i}", pool=pools[rank], max_size=cap)
            _assert_outcomes_identical(
                engine.run([query])[0], _reference(query, pools[rank])
            )
