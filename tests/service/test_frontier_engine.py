"""Answer frontier through the engine: hits skip the kernel, stay bit-identical.

The acceptance bar for the frontier cache is twofold and both halves are
pinned here:

* **It actually short-circuits** — a repeat AltrM query is answered without
  ``execute_plan`` ever running (asserted by monkeypatching a call counter
  over the engine's kernel entry point).
* **It is invisible in the answers** — across arbitrary churn sequences the
  frontier-enabled engine returns selections bit-identical (juror ids, JER
  to the last bit, algorithm label, work counters) to a frontier-disabled
  oracle engine running the plan pipeline, errors included.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.service.batch as batch_module
from repro.api import JuryService, PoolCommand, SelectionRequest
from repro.core.juror import Juror
from repro.errors import BudgetError
from repro.plan.cost import FRONTIER_MIN_POOL
from repro.plan.frontier import FRONTIER_ENV_FLAG
from repro.service import BatchSelectionEngine, CandidatePool, PoolRegistry, SelectionQuery


def _jurors(eps_values, prefix="c"):
    return tuple(
        Juror(e, juror_id=f"{prefix}{i}") for i, e in enumerate(eps_values)
    )


EPS = (0.1, 0.2, 0.2, 0.3, 0.3, 0.4, 0.65)


def _query(task_id, name="P", **kwargs):
    return SelectionQuery(task_id=task_id, pool_name=name, **kwargs)


def _fresh_pair(eps=EPS, name="P"):
    """Two mirrored (registry, engine) pairs: frontier on vs the oracle."""
    pairs = []
    for frontier_size in (None, 0):
        registry = PoolRegistry()
        registry.create(name, _jurors(eps))
        pairs.append(
            (
                registry,
                BatchSelectionEngine(registry=registry, frontier_size=128)
                if frontier_size is None
                else BatchSelectionEngine(registry=registry, frontier_size=0),
            )
        )
    return pairs


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
    def test_repeat_query_never_calls_execute_plan(self, monkeypatch):
        """The headline guarantee: a frontier hit answers a repeat AltrM
        query with zero ``execute_plan`` invocations."""
        calls = []
        original = batch_module.execute_plan
        monkeypatch.setattr(
            batch_module,
            "execute_plan",
            lambda *args, **kwargs: (calls.append(1), original(*args, **kwargs))[1],
        )
        registry = PoolRegistry()
        registry.create("P", _jurors(EPS))
        engine = BatchSelectionEngine(registry=registry, frontier_size=128)

        cold = engine.run([_query("cold")])[0]
        assert cold.ok and len(calls) == 1  # the cold query plans + executes

        warm = engine.run([_query("warm")])[0]
        assert warm.ok and len(calls) == 1  # the repeat never reached the kernel
        assert engine.stats.frontier_hits == 1
        assert engine.frontier.hits == 1 and engine.frontier.builds == 1
        _assert_outcomes_identical(cold, warm)

    def test_capped_repeats_hit_without_the_kernel_too(self, monkeypatch):
        calls = []
        original = batch_module.execute_plan
        monkeypatch.setattr(
            batch_module,
            "execute_plan",
            lambda *args, **kwargs: (calls.append(1), original(*args, **kwargs))[1],
        )
        registry = PoolRegistry()
        registry.create("P", _jurors(EPS))
        engine = BatchSelectionEngine(registry=registry, frontier_size=128)
        engine.run([_query("cold")])
        baseline = len(calls)
        for cap in (1, 3, 5, len(EPS)):
            outcome = engine.run([_query(f"cap{cap}", max_size=cap)])[0]
            assert outcome.ok and outcome.result.size <= cap
        assert len(calls) == baseline
        assert engine.stats.frontier_hits == 4

    def test_mixed_batch_only_altr_hits(self):
        eps = EPS
        reqs = tuple(0.1 * (i + 1) for i in range(len(eps)))
        jurors = tuple(
            Juror(e, r, juror_id=f"c{i}") for i, (e, r) in enumerate(zip(eps, reqs))
        )
        registry = PoolRegistry()
        registry.create("P", jurors)
        engine = BatchSelectionEngine(registry=registry, frontier_size=128)
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
        (reg_a, engine), (reg_b, oracle) = _fresh_pair()
        engine.run([_query("warm")])
        oracle.run([_query("warm")])
        hit = engine.run([_query("bad", max_size=0)])[0]
        miss = oracle.run([_query("bad", max_size=0)])[0]
        assert engine.stats.frontier_hits == 1  # the error still hit the cache
        _assert_outcomes_identical(hit, miss)
        assert isinstance(hit.exception, ValueError)

    def test_invalid_budget_errors_identically(self):
        (reg_a, engine), (reg_b, oracle) = _fresh_pair()
        engine.run([_query("warm")])
        oracle.run([_query("warm")])
        hit = engine.run([_query("bad", budget=-1.0)])[0]
        miss = oracle.run([_query("bad", budget=-1.0)])[0]
        _assert_outcomes_identical(hit, miss)
        assert isinstance(hit.exception, BudgetError)

    def test_raise_errors_propagates_from_the_hit_path(self):
        registry = PoolRegistry()
        registry.create("P", _jurors(EPS))
        engine = BatchSelectionEngine(registry=registry, frontier_size=128)
        engine.run([_query("warm")])
        with pytest.raises(ValueError, match="empty sweep profile"):
            engine.run([_query("bad", max_size=0)], raise_errors=True)


# One churn step: (op, payload) applied identically to both registries.
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
        random caps: every selection from the frontier engine must equal the
        frontier-disabled oracle bit for bit, at every version."""
        rng = np.random.default_rng(seed)
        base = rng.uniform(0.05, 0.9, size=FRONTIER_MIN_POOL + 5)
        (reg_a, engine), (reg_b, oracle) = _fresh_pair(tuple(base))
        next_id = 0
        task = 0
        for op, value, pick in ops:
            pools = [reg_a.get("P"), reg_b.get("P")]
            if op == "add":
                next_id += 1
                for pool in pools:
                    pool.add_juror(Juror(value, juror_id=f"n{next_id}"))
            elif op == "remove":
                ids = [j.juror_id for j in pools[0].ordered]
                if len(ids) <= 1:
                    continue  # keep the pool non-empty
                victim = ids[pick % len(ids)]
                for pool in pools:
                    pool.remove_juror(victim)
            elif op == "update":
                ids = [j.juror_id for j in pools[0].ordered]
                victim = ids[pick % len(ids)]
                for pool in pools:
                    pool.update_error_rate(victim, value)
            else:
                cap = None if op == "query" else 1 + pick % (len(pools[0]) + 2)
                task += 1
                lhs = engine.run([_query(f"t{task}", max_size=cap)])[0]
                rhs = oracle.run([_query(f"t{task}", max_size=cap)])[0]
                _assert_outcomes_identical(lhs, rhs)
        # Closing sweep: both engines agree on the final version too.
        lhs = engine.run([_query("final")])[0]
        rhs = oracle.run([_query("final")])[0]
        _assert_outcomes_identical(lhs, rhs)
        assert oracle.stats.frontier_hits == 0

    def test_mutation_between_repeats_never_serves_stale_answers(self):
        (reg_a, engine), _ = _fresh_pair((0.3, 0.3, 0.3, 0.3, 0.3))
        before = engine.run([_query("before")])[0]
        reg_a.get("P").add_juror(Juror(0.01, juror_id="ace"))
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

    def test_tail_churn_repairs_head_entries(self):
        pool = self._pool()
        first, _ = pool.answer_frontier()
        pool.update_error_rate("c6", 0.7)  # churn at the sorted tail
        second, mode = pool.answer_frontier()
        assert mode == "repaired"
        assert pool.stats.frontier_repairs == 1
        assert pool.stats.frontier_entries_reused >= 1
        assert second.version == pool.version

    def test_head_churn_rebuilds(self):
        pool = self._pool()
        pool.answer_frontier()
        pool.update_error_rate("c0", 0.05)  # sorted position 0: nothing clean
        _, mode = pool.answer_frontier()
        assert mode == "rebuilt" and pool.stats.frontier_rebuilds == 1

    def test_repaired_frontier_equals_fresh_build(self, rng):
        pool = self._pool(tuple(rng.uniform(0.05, 0.9, size=21)))
        pool.answer_frontier()
        victims = [j.juror_id for j in pool.ordered][10:15]
        for victim in victims:
            pool.update_error_rate(victim, float(rng.uniform(0.05, 0.9)))
        repaired, _ = pool.answer_frontier()
        ns, jers = pool.sweep_profile()
        from repro.plan.frontier import AnswerFrontier

        fresh = AnswerFrontier.build(ns, jers, fingerprint=pool.fingerprint)
        np.testing.assert_array_equal(repaired.best_ns, fresh.best_ns)
        np.testing.assert_array_equal(repaired.best_jers, fresh.best_jers)


class TestDropEviction:
    def test_drop_evicts_sweep_and_frontier_then_recreate_rebuilds(self):
        """Satellite regression: dropping a pool evicts *every* parent-side
        cache keyed by its fingerprint — sweep profile and answer frontier —
        so re-creating the same pool starts clean and rebuilds."""
        service = JuryService(frontier_size=128)
        candidates = _jurors(EPS)
        service.pool(PoolCommand(action="create", name="P", candidates=candidates))
        service.select(SelectionRequest(task_id="warm", pool="P"))
        repeat = service.select(SelectionRequest(task_id="hot", pool="P"))
        assert repeat.status == "ok"
        engine = service.engine
        assert engine.frontier.hits == 1 and len(engine.frontier) == 1
        assert len(engine.cache) == 1

        service.pool(PoolCommand(action="drop", name="P"))
        assert len(engine.frontier) == 0 and engine.frontier.evictions == 1
        assert len(engine.cache) == 0

        # Same candidates, same fingerprint: the re-created pool must be
        # re-swept and re-built, never served from a ghost of the dropped one.
        service.pool(PoolCommand(action="create", name="P", candidates=candidates))
        fresh = service.select(SelectionRequest(task_id="fresh", pool="P"))
        assert fresh.status == "ok" and fresh.jer == repeat.jer
        assert engine.frontier.builds == 2
        hot = service.select(SelectionRequest(task_id="hot2", pool="P"))
        assert hot.jer == repeat.jer and engine.frontier.hits == 2
        service.close()


class TestDisabledFrontier:
    def test_env_flag_zero_pins_the_pre_frontier_behaviour(self, monkeypatch):
        monkeypatch.setenv(FRONTIER_ENV_FLAG, "0")
        registry = PoolRegistry()
        registry.create("P", _jurors(EPS))
        engine = BatchSelectionEngine(registry=registry)  # size from env
        assert engine.frontier.maxsize == 0 and not engine.frontier.enabled
        first = engine.run([_query("a")])[0]
        second = engine.run([_query("b")])[0]
        _assert_outcomes_identical(first, second)
        assert engine.stats.frontier_hits == 0
        assert engine.frontier.hits == 0 and engine.frontier.misses == 0
        assert engine.cache.hits == 1  # the sweep cache serves repeats again

    def test_results_identical_with_and_without_the_frontier(self):
        (_, engine), (_, oracle) = _fresh_pair()
        for task in ("a", "b", "c"):
            lhs = engine.run([_query(task)])[0]
            rhs = oracle.run([_query(task)])[0]
            _assert_outcomes_identical(lhs, rhs)
        assert engine.stats.frontier_hits == 2
        assert oracle.stats.frontier_hits == 0

    def test_small_pools_never_use_the_frontier(self):
        eps = tuple(0.1 * (i + 1) for i in range(FRONTIER_MIN_POOL - 1))
        registry = PoolRegistry()
        registry.create("tiny", _jurors(eps))
        engine = BatchSelectionEngine(registry=registry, frontier_size=128)
        engine.run([_query("a", name="tiny")])
        engine.run([_query("b", name="tiny")])
        assert engine.stats.frontier_hits == 0 and len(engine.frontier) == 0
        assert engine.cache.hits == 1  # repeats fall back to the sweep cache


class TestInlinePools:
    def test_inline_repeats_hit_by_fingerprint(self):
        """Inline candidate sets with equal fingerprints share one frontier,
        exactly as they share one sweep profile.  The frontier is built on
        the second sighting (profile out of the sweep cache), so the third
        query is the first hit."""
        engine = BatchSelectionEngine(frontier_size=128)
        jurors = _jurors(EPS)
        first = engine.run([SelectionQuery(task_id="a", candidates=jurors)])[0]
        second = engine.run([SelectionQuery(task_id="b", candidates=jurors)])[0]
        assert engine.stats.frontier_hits == 0
        third = engine.run([SelectionQuery(task_id="c", candidates=jurors)])[0]
        assert engine.stats.frontier_hits == 1
        _assert_outcomes_identical(first, second)
        _assert_outcomes_identical(first, third)

    def test_shared_frozen_pools_with_caps_match_the_oracle(self):
        """A skewed repeat stream over shared ``CandidatePool`` objects, a
        quarter of it capped: every answer, hit or miss, equals the
        frontier-disabled engine's bit for bit."""
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
        engine = BatchSelectionEngine(frontier_size=128)
        oracle = BatchSelectionEngine(frontier_size=0)
        for i, (rank, cap) in enumerate(zip(ranks.tolist(), caps.tolist())):
            query = SelectionQuery(task_id=f"q{i}", pool=pools[rank], max_size=cap)
            _assert_outcomes_identical(engine.run([query])[0], oracle.run([query])[0])
        assert engine.stats.frontier_hits > 0 and oracle.stats.frontier_hits == 0
