"""Tests for the live pool registry (repro.service.registry).

Covers the versioned mutation API, the per-version sweep profile
(including the churn-oracle acceptance bar: bit-identical to a fresh
CandidatePool at *every* version, and O(n) retained sweep state), registry
naming, and the engine integration: answers from each version's own
frontier, and a dropped pool's sweep state freed with it.
"""

from __future__ import annotations

import gc
import json
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.service.registry as registry_module
from repro.api import JuryService, PoolCommand, SelectionRequest
from repro.core.jer import PrefixJERSweeper, best_odd_prefix
from repro.core.juror import Juror, JurorColumns, jurors_from_arrays
from repro.core.selection.altr import select_jury_altr
from repro.plan import execute_plan, plan_query
from repro.errors import (
    EmptyCandidateSetError,
    InvalidJuryError,
    PoolNotFoundError,
)
from repro.service import (
    BatchSelectionEngine,
    CandidatePool,
    LivePool,
    PoolRegistry,
    SelectionQuery,
)
from repro.storage import PoolCatalog
from repro.testing import DEFAULT_SEED


def _live_pool(rng, n: int, *, priced: bool = False, pool_id: str | None = None):
    eps = rng.uniform(0.05, 0.9, size=n)
    reqs = rng.uniform(0.05, 1.0, size=n) if priced else None
    return LivePool(jurors_from_arrays(eps, reqs), pool_id=pool_id)


class TestLivePoolMutation:
    def test_versions_are_monotonic(self, rng):
        pool = _live_pool(rng, 5)
        assert pool.version == 0
        assert pool.add_juror(Juror(0.15, juror_id="n1")) == 1
        assert pool.update_error_rate("n1", 0.4) == 2
        pool.remove_juror("n1")
        assert pool.version == 3

    def test_ordering_is_lemma3_after_churn(self, rng):
        pool = _live_pool(rng, 20)
        pool.add_juror(Juror(0.5, juror_id="mid"))
        pool.update_error_rate("mid", 0.07)
        eps = pool.error_rates
        assert np.all(np.diff(eps) >= 0.0)
        expected = sorted(pool.ordered, key=lambda j: (j.error_rate, j.juror_id))
        assert list(pool.ordered) == expected

    def test_duplicate_add_rejected_without_version_bump(self, rng):
        pool = _live_pool(rng, 3)
        pool.add_juror(Juror(0.2, juror_id="dup"))
        version = pool.version
        with pytest.raises(InvalidJuryError, match="already"):
            pool.add_juror(Juror(0.3, juror_id="dup"))
        assert pool.version == version

    def test_unknown_remove_and_update_rejected(self, rng):
        pool = _live_pool(rng, 3)
        with pytest.raises(InvalidJuryError, match="not in the pool"):
            pool.remove_juror("ghost")
        with pytest.raises(InvalidJuryError, match="not in the pool"):
            pool.update_error_rate("ghost", 0.2)

    def test_update_requirement_only(self, rng):
        pool = _live_pool(rng, 3, priced=True)
        target = pool.ordered[1]
        pool.update_juror(target.juror_id, requirement=9.5)
        refreshed = pool.get(target.juror_id)
        assert refreshed.requirement == 9.5
        assert refreshed.error_rate == target.error_rate

    def test_duplicate_initial_candidates_rejected(self):
        with pytest.raises(InvalidJuryError, match="already"):
            LivePool([Juror(0.1, juror_id="x"), Juror(0.2, juror_id="x")])

    def test_snapshot_matches_candidate_pool(self, rng):
        pool = _live_pool(rng, 9, priced=True)
        pool.add_juror(Juror(0.11, 0.3, juror_id="late"))
        snap = pool.snapshot()
        fresh = CandidatePool(list(pool.ordered))
        assert snap.fingerprint == fresh.fingerprint
        assert snap.ordered == fresh.ordered
        np.testing.assert_array_equal(snap.error_rates, fresh.error_rates)

    def test_empty_pool_cannot_snapshot_or_sweep(self):
        pool = LivePool()
        with pytest.raises(EmptyCandidateSetError):
            pool.snapshot()
        with pytest.raises(EmptyCandidateSetError):
            pool.sweep_profile()

    def test_identical_readd_restores_fingerprint(self, rng):
        pool = _live_pool(rng, 7)
        fingerprint = pool.fingerprint
        juror = pool.remove_juror(pool.ordered[2].juror_id)
        assert pool.fingerprint != fingerprint
        pool.add_juror(juror)
        assert pool.fingerprint == fingerprint


class TestLiveColumns:
    """A live pool hands its sorted columns over: one build per version."""

    def test_snapshots_of_one_version_share_its_columns(self, rng):
        pool = _live_pool(rng, 9, priced=True)
        first, second = pool.snapshot(), pool.snapshot()
        assert first.ordered is second.ordered
        assert first.eps is second.eps and first.eps is pool.error_rates
        assert first.reqs is second.reqs and first.ids is second.ids
        before = first.eps.copy()
        pool.update_juror(pool.ordered[0].juror_id, error_rate=0.95, requirement=2.0)
        third = pool.snapshot()
        assert third.eps is not first.eps and third.reqs is not first.reqs
        assert third.ids is not first.ids
        # Replaced, never rewritten: the older snapshot still reads its version.
        np.testing.assert_array_equal(first.eps, before)
        assert third.fingerprint != first.fingerprint

    def test_columns_built_once_per_version(self, rng, tmp_path, monkeypatch):
        """A read never builds columns, and each mutation builds exactly one
        set: the next version's, spliced from the current one."""
        builds = []

        class CountingColumns(JurorColumns):
            __slots__ = ()

            def __init__(self, *args, **kwargs):
                builds.append(1)
                super().__init__(*args, **kwargs)

        catalog = PoolCatalog(tmp_path, snapshot_interval=2)
        registry = PoolRegistry(catalog=catalog)
        pool = registry.create("P", jurors_from_arrays(rng.uniform(0.05, 0.9, size=41)))
        engine = BatchSelectionEngine(registry=registry)
        monkeypatch.setattr(registry_module, "JurorColumns", CountingColumns)

        def read():
            assert pool.snapshot().fingerprint == pool.fingerprint
            outcome = engine.run([SelectionQuery(task_id="t", pool_name="P")])[0]
            assert outcome.ok
            plan = engine.plan(
                SelectionQuery(task_id="p", pool_name="P", model="pay", budget=1.0)
            )
            assert plan.pool.eps is pool.columns.eps is pool.error_rates
            return outcome.result.juror_ids

        read()
        assert builds == []
        # The second WAL record (create, add) writes a columnar snapshot.
        pool.add_juror(Juror(0.07, 0.5, juror_id="late"))
        assert catalog.stats.snapshots == 1 and len(builds) == 1
        assert "late" in read()
        assert pool.get("late") == Juror(0.07, 0.5, juror_id="late")
        assert len(builds) == 1
        pool.update_juror("late", error_rate=0.5)
        assert len(builds) == 2
        read()
        assert pool.get("late") == Juror(0.5, 0.5, juror_id="late")
        pool.remove_juror("late")
        assert len(builds) == 3
        read()
        assert len(builds) == 3
        catalog.close()


#: Few distinct rates, two of them one ulp apart, so error rates collide.
_TIE_RATES = st.sampled_from([0.1, 0.2, float(np.nextafter(0.2, 1.0)), 0.3])
_TIE_REQS = st.sampled_from([0.0, 0.5, 1.0])
#: Ids that sort on both sides of one another: "B" < "a" < "aa" < "b" < "m1"
#: < "m10" < "m2" < "é".
_TIE_IDS = st.sampled_from(["a", "aa", "b", "B", "é", "m1", "m10", "m2"])


def _check_against_fresh(pool: LivePool, members: dict) -> None:
    """The pool's columns, fingerprint and frontier are a fresh pool's."""
    assert pool.size == len(members) and set(pool.columns.ids) == set(members)
    if not members:
        return
    fresh = CandidatePool([Juror(e, r, juror_id=i) for i, (e, r) in members.items()])
    columns = pool.columns
    assert columns.ids == fresh.ids
    assert columns.eps.tobytes() == fresh.eps.tobytes()
    assert columns.reqs.tobytes() == fresh.reqs.tobytes()
    assert pool.fingerprint == fresh.fingerprint
    ns, jers = map(np.asarray, zip(*PrefixJERSweeper(fresh.error_rates).sweep()))
    frontier, _ = pool.answer_frontier()
    for cap in range(1, len(members) + 1):
        assert frontier.probe(cap)[:2] == best_odd_prefix(ns, jers, max_size=cap)


class TestChurnOracle:
    """Acceptance bar: live-pool profiles, frontiers and selections are
    bit-identical to a fresh CandidatePool + scalar/batch path at every
    version."""

    def test_profile_and_selection_bit_identical_at_every_version(self, rng):
        registry = PoolRegistry()
        pool = registry.create("P", jurors_from_arrays(rng.uniform(0.05, 0.9, size=31)))
        engine = BatchSelectionEngine(registry=registry)
        ids = [j.juror_id for j in pool.ordered]
        fresh_id = 1000

        for step in range(120):
            op = rng.integers(3)
            if op == 0 or pool.size <= 3:
                juror = Juror(
                    float(rng.uniform(0.05, 0.95)),
                    float(rng.uniform(0.0, 1.0)),
                    juror_id=f"f{fresh_id}",
                )
                fresh_id += 1
                pool.add_juror(juror)
                ids.append(juror.juror_id)
            elif op == 1:
                pool.remove_juror(ids.pop(int(rng.integers(len(ids)))))
            else:
                pool.update_error_rate(
                    ids[int(rng.integers(len(ids)))],
                    float(rng.uniform(0.05, 0.95)),
                )

            # Profile: bit-identical to the scalar sweeper on a fresh pool.
            ns, jers = pool.sweep_profile()
            fresh = CandidatePool(list(pool.ordered))
            ref_ns, ref_jers = map(
                np.asarray, zip(*PrefixJERSweeper(fresh.error_rates).sweep())
            )
            np.testing.assert_array_equal(np.asarray(ns), ref_ns)
            np.testing.assert_array_equal(np.asarray(jers), ref_jers)

            # Selection: the version's first select builds its frontier and
            # answers like the plan pipeline on a snapshot of the version.
            outcome = engine.run(
                [SelectionQuery(task_id=f"s{step}", pool_name="P")]
            )[0]
            assert outcome.ok, outcome.error_info
            assert engine.stats.frontier_builds == pool.stats.frontier_builds == step + 1
            planned = execute_plan(plan_query(pool=pool.snapshot(), model="altr"))
            assert outcome.result.jer == planned.jer
            assert outcome.result.juror_ids == planned.juror_ids

            # Frontier: the one it built agrees with a linear
            # best_odd_prefix scan of the reference profile.
            frontier, mode = pool.answer_frontier()
            assert mode == "cached" and frontier.version == pool.version
            assert frontier.probe(None)[:2] == best_odd_prefix(ref_ns, ref_jers)

        assert engine.stats.frontier_hits == 0

    @given(
        initial=st.dictionaries(_TIE_IDS, st.tuples(_TIE_RATES, _TIE_REQS), max_size=6),
        steps=st.lists(
            st.tuples(
                st.sampled_from(["add", "remove", "update", "remove+add"]),
                _TIE_IDS,
                _TIE_IDS,
                _TIE_RATES,
                _TIE_REQS,
            ),
            max_size=30,
        ),
    )
    @settings(max_examples=150, deadline=None)
    def test_churn_with_error_rate_ties_matches_a_fresh_pool(self, initial, steps):
        """Adds, removes, updates and remove + add pairs whose error rates
        collide, with ids on both sides of each tie: after every step the
        columns, fingerprint and frontier equal a fresh pool of the members
        the test keeps itself."""
        members = dict(initial)
        pool = LivePool([Juror(e, r, juror_id=i) for i, (e, r) in members.items()])
        _check_against_fresh(pool, members)
        for op, first, second, error_rate, requirement in steps:
            if op in ("remove", "remove+add") and first in members:
                assert pool.remove_juror(first) == Juror(*members.pop(first), juror_id=first)
            if op == "update" and first in members:
                pool.update_juror(first, error_rate=error_rate, requirement=requirement)
                members[first] = (error_rate, requirement)
            joining = first if op == "add" else second
            if op in ("add", "remove+add") and joining not in members:
                pool.add_juror(Juror(error_rate, requirement, juror_id=joining))
                members[joining] = (error_rate, requirement)
            _check_against_fresh(pool, members)

    @given(
        initial=st.dictionaries(_TIE_IDS, st.tuples(_TIE_RATES, _TIE_REQS), max_size=6),
        commands=st.lists(
            st.tuples(
                st.lists(_TIE_IDS, max_size=3),
                st.lists(st.tuples(_TIE_IDS, _TIE_RATES, _TIE_REQS), max_size=3),
                st.lists(
                    st.tuples(_TIE_IDS, st.none() | _TIE_RATES, st.none() | _TIE_REQS),
                    max_size=3,
                ),
            ),
            max_size=10,
        ),
    )
    @settings(max_examples=150, deadline=None)
    def test_commands_with_error_rate_ties_match_a_fresh_pool(self, initial, commands):
        """One :meth:`LivePool.apply` per command of removes, adds and sets
        whose error rates collide: each advances the version by its juror
        mutations, and the columns, fingerprint and frontier equal a fresh
        pool of the members the test keeps itself."""
        members = dict(initial)
        pool = LivePool([Juror(e, r, juror_id=i) for i, (e, r) in members.items()])
        for removes, adds, sets in commands:
            remove = [i for i in dict.fromkeys(removes) if i in members]
            for juror_id in remove:
                del members[juror_id]
            add = []
            for juror_id, error_rate, requirement in adds:
                if juror_id not in members:
                    members[juror_id] = (error_rate, requirement)
                    add.append(Juror(error_rate, requirement, juror_id=juror_id))
            updates = [entry for entry in sets if entry[0] in members]
            for juror_id, error_rate, requirement in updates:
                current = members[juror_id]
                members[juror_id] = (
                    current[0] if error_rate is None else error_rate,
                    current[1] if requirement is None else requirement,
                )
            version = pool.version + len(remove) + len(add) + len(updates)
            assert pool.apply(remove, add, updates) == version
            _check_against_fresh(pool, members)

    def test_profile_cached_per_version(self, rng):
        pool = _live_pool(rng, 9)
        first = pool.sweep_profile()
        second = pool.sweep_profile()
        assert first[1] is second[1]  # same arrays, no recompute
        assert pool.stats.repairs == 1
        pool.add_juror(Juror(0.5, juror_id="new"))
        third = pool.sweep_profile()
        assert third[1] is not first[1]
        assert pool.stats.repairs == 2

    def test_sweep_state_is_linear_in_pool_size(self, rng):
        """A 1,001-candidate pool keeps O(n) sweep state — its profile and
        answer frontier, tens of KB — where any (n + 1) x (n + 1) float64
        state would retain 8 MB."""
        n = 1001
        # Warm the kernel registry (native activation allocates once per
        # process) on a throwaway pool of the same size.
        _live_pool(rng, n).answer_frontier()
        pool = _live_pool(rng, n)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            pool.sweep_profile()
            pool.answer_frontier()
            retained = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
        assert retained < 256 * 1024, f"{retained / 1024:.0f} KB retained"


class TestColumnsOnly:
    """A resident pool is its sorted columns: nothing per juror between
    versions, and one members text per version however many sizes answer."""

    @staticmethod
    def _creates(count: int) -> list[dict]:
        """Wire ``create`` commands of 1,001-candidate pools ``P0``, ``P1``, ..."""
        rng = np.random.default_rng(DEFAULT_SEED)
        creates = []
        for k in range(count):
            eps, reqs = rng.uniform(0.05, 0.49, 1001).tolist(), rng.uniform(0, 1, 1001).tolist()
            rows = [
                {"id": f"p{k}-{j}", "error_rate": e, "requirement": r}
                for j, (e, r) in enumerate(zip(eps, reqs))
            ]
            creates.append({"action": "create", "name": f"P{k}", "candidates": rows})
        return creates

    @staticmethod
    def _tracked_per_pool(service: JuryService, creates: list[dict]) -> float:
        """GC-tracked objects each ``create`` (if given) and one select add;
        a ninth pool warms every lazily built piece of the path first."""
        def settle(create, task):
            if "candidates" in create:
                service.pool(PoolCommand.from_dict(create))
            assert service.select(SelectionRequest(task_id=task, pool=create["name"])).ok

        settle(creates[-1], "warm")
        gc.collect()
        before = len(gc.get_objects())
        for create in creates[:-1]:
            settle(create, "t")
        gc.collect()
        return (len(gc.get_objects()) - before) / (len(creates) - 1)

    def test_resident_pools_hold_no_per_juror_objects(self):
        service = JuryService()
        try:
            per_pool = self._tracked_per_pool(service, self._creates(9))
        finally:
            service.close()
        assert per_pool <= 100, f"{per_pool:.0f} GC-tracked objects per pool"

    def test_recovered_pools_hold_no_per_juror_objects(self, tmp_path):
        creates = self._creates(9)
        service = JuryService(data_dir=tmp_path)
        for create in creates:
            service.pool(PoolCommand.from_dict(create))
        service.close()
        service = JuryService(data_dir=tmp_path)  # each select recovers its pool
        try:
            per_pool = self._tracked_per_pool(service, [{"name": c["name"]} for c in creates])
        finally:
            service.close()
        assert per_pool <= 100, f"{per_pool:.0f} GC-tracked objects per pool"

    def test_answers_of_every_size_keep_one_members_text(self):
        """A client sweeping ``max_size`` over a pool whose optimum is the
        whole pool grows the version's answer memory linearly, not by a
        copy of every answer."""
        rng = np.random.default_rng(1)
        n = 1001
        candidates = tuple(
            Juror(e, juror_id=f"c{i}") for i, e in enumerate(rng.uniform(0.45, 0.451, n).tolist())
        )
        service = JuryService(registry=PoolRegistry())
        service.pool(PoolCommand(action="create", name="P", candidates=candidates))
        assert service.select(SelectionRequest(task_id="t", pool="P")).size == n
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            for cap in range(1, n + 1, 2):
                response = service.select(SelectionRequest(task_id="t", pool="P", max_size=cap))
                assert response.size == cap
            held = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
        assert response.to_json() == json.dumps(response.to_dict())
        assert held < 4 * 2**20, f"{held / 2**20:.1f} MB held"


class TestPoolRegistry:
    def test_create_get_drop_roundtrip(self, rng):
        registry = PoolRegistry()
        pool = registry.create("P1", jurors_from_arrays([0.1, 0.2, 0.3]))
        assert registry.get("P1") is pool
        assert "P1" in registry and len(registry) == 1
        assert registry.names() == ("P1",)
        assert registry.drop("P1") is pool
        assert "P1" not in registry

    def test_duplicate_create_requires_replace(self):
        registry = PoolRegistry()
        registry.create("P1", jurors_from_arrays([0.1, 0.2, 0.3]))
        with pytest.raises(InvalidJuryError, match="already exists"):
            registry.create("P1", jurors_from_arrays([0.4]))
        replaced = registry.create(
            "P1", jurors_from_arrays([0.4]), replace=True
        )
        assert registry.get("P1") is replaced
        assert replaced.version == 0

    def test_unknown_name_raises_pool_not_found(self):
        registry = PoolRegistry()
        with pytest.raises(PoolNotFoundError, match="no pool named"):
            registry.get("nope")
        with pytest.raises(KeyError):  # idiomatic mapping behaviour
            registry.drop("nope")

    def test_bad_names_rejected(self):
        registry = PoolRegistry()
        with pytest.raises(ValueError):
            registry.create("")
        with pytest.raises(ValueError):
            registry.create(42)  # type: ignore[arg-type]


class TestEngineIntegration:
    def _registry_engine(self, rng, n=15):
        registry = PoolRegistry()
        eps = rng.uniform(0.05, 0.9, size=n)
        registry.create("P", jurors_from_arrays(eps))
        return registry, BatchSelectionEngine(registry=registry)

    def test_pool_name_requires_registry(self, rng):
        engine = BatchSelectionEngine()
        outcome = engine.run([SelectionQuery(task_id="t", pool_name="P")])[0]
        assert not outcome.ok and "registry" in outcome.error_info.message
        with pytest.raises(ValueError, match="exactly one"):
            SelectionQuery(
                task_id="t",
                pool_name="P",
                candidates=tuple(jurors_from_arrays([0.2])),
            )

    def test_unknown_pool_name_is_isolated(self, rng):
        registry, engine = self._registry_engine(rng)
        outcomes = engine.run(
            [
                SelectionQuery(task_id="ok", pool_name="P"),
                SelectionQuery(task_id="bad", pool_name="missing"),
            ]
        )
        assert outcomes[0].ok
        assert not outcomes[1].ok and "missing" in outcomes[1].error_info.message

    def test_live_profile_used_instead_of_engine_sweep(self, rng):
        registry, engine = self._registry_engine(rng)
        outcomes = engine.run(
            [SelectionQuery(task_id=f"t{i}", pool_name="P") for i in range(10)]
        )
        assert all(o.ok for o in outcomes)
        assert engine.stats.frontier_builds == 1  # one profile pull, shared
        assert engine.stats.batch_sweeps == 0  # no engine-side sweep at all

    def test_pay_and_exact_against_live_pools(self, rng):
        registry = PoolRegistry()
        cands = jurors_from_arrays(
            rng.uniform(0.05, 0.9, size=9), rng.uniform(0.05, 1.0, size=9)
        )
        registry.create("paid", cands)
        engine = BatchSelectionEngine(registry=registry)
        outcomes = engine.run(
            [
                SelectionQuery(task_id="p", pool_name="paid", model="pay", budget=2.0),
                SelectionQuery(task_id="e", pool_name="paid", model="exact", budget=2.0),
            ]
        )
        assert all(o.ok for o in outcomes)
        assert outcomes[1].result.jer <= outcomes[0].result.jer + 1e-10


class TestCacheInvalidation:
    """A LivePool mutation must never serve a stale answer: the version bump
    leaves the pool's frontier behind, and the next select builds one from a
    sweep of the new version."""

    def test_mutation_never_serves_stale_profile(self, rng):
        registry = PoolRegistry()
        pool = registry.create("P", jurors_from_arrays([0.1, 0.2, 0.2, 0.3, 0.3]))
        engine = BatchSelectionEngine(registry=registry)

        first = engine.run([SelectionQuery(task_id="a", pool_name="P")])[0]
        assert engine.stats.frontier_builds == 1 and engine.stats.frontier_hits == 0
        repeat = engine.run([SelectionQuery(task_id="b", pool_name="P")])[0]
        assert engine.stats.frontier_hits == 1  # unchanged pool: frontier reused
        assert repeat.result.jer == first.result.jer

        pool.add_juror(Juror(0.05, juror_id="star"))
        mutated = engine.run([SelectionQuery(task_id="c", pool_name="P")])[0]
        # Fresh-state oracle: the result reflects the mutation, not the
        # frontier of the previous version.
        single = select_jury_altr(list(pool.ordered))
        assert mutated.result.jer == single.jer
        assert mutated.result.juror_ids == single.juror_ids
        assert "star" in mutated.result.juror_ids
        assert engine.stats.frontier_builds == 2  # version bump: swept again

    def test_identical_readd_answers_like_the_baseline(self, rng):
        """A remove then an identical re-add is two new versions, each
        answered by building its own frontier (no content-addressed revert
        hit), and the restored content answers like the baseline."""
        registry = PoolRegistry()
        pool = registry.create(
            "P", jurors_from_arrays([0.1, 0.2, 0.2, 0.3, 0.3, 0.4, 0.4])
        )
        engine = BatchSelectionEngine(registry=registry)

        baseline = engine.run([SelectionQuery(task_id="a", pool_name="P")])[0]
        juror = pool.remove_juror(pool.ordered[-1].juror_id)
        engine.run([SelectionQuery(task_id="b", pool_name="P")])
        pool.add_juror(juror)  # membership now identical to the baseline

        restored = engine.run([SelectionQuery(task_id="c", pool_name="P")])[0]
        assert restored.result.jer == baseline.result.jer
        assert restored.result.juror_ids == baseline.result.juror_ids
        planned = execute_plan(plan_query(pool=pool.snapshot(), model="altr"))
        assert (restored.result.jer, restored.result.juror_ids) == (
            planned.jer, planned.juror_ids,
        )
        stats = engine.stats
        assert (stats.frontier_builds, stats.frontier_hits) == (3, 0)
        assert pool.version == 2

    def test_explicit_invalidation_of_dropped_pool(self, rng):
        """Dropping a pool is the one invalidation left: the engine keeps no
        copy of its profile or frontier, so once the registry lets go of the
        pool none of its sweep state stays alive, and its name fails."""
        registry = PoolRegistry()
        pool = registry.create("P", jurors_from_arrays([0.1, 0.2, 0.3]))
        engine = BatchSelectionEngine(registry=registry)
        engine.run([SelectionQuery(task_id="a", pool_name="P")])
        engine.run([SelectionQuery(task_id="b", pool_name="P")])
        assert engine.stats.frontier_hits == 1
        profile = weakref.ref(pool.sweep_profile()[1])

        assert registry.drop("P") is pool
        del pool
        gc.collect()
        assert profile() is None
        outcome = engine.run([SelectionQuery(task_id="c", pool_name="P")])[0]
        assert isinstance(outcome.exception, PoolNotFoundError)
