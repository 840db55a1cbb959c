"""The engine's execution path end to end: bit-identity and pool lifecycle.

Every query runs in-process: a named pool's AltrM query reads its answer
frontier, ``_run_altr`` sweeps the other AltrM queries, and ``_run_serial``
runs PayM and exact.  This module pins that path against independent
oracles:

* the single-query solvers (``select_jury_altr`` / ``select_jury_pay`` /
  ``select_jury_optimal`` and the exhaustive ``enumerate_optimal``), bit
  for bit — juror ids, JER, algorithm label and work counters;
* itself across transports (engine, sync service, async coalescing) and
  pool sources (inline candidates, shared pools, registry pools);
* a fresh engine after a pool is dropped and re-created, so the new pool
  answers from its own frontier, never from the dropped pool's.
"""

from __future__ import annotations

import asyncio

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import AsyncJuryService, JuryService, PoolCommand, SelectionRequest
from repro.core.juror import Juror, jurors_from_arrays
from repro.core.selection.altr import select_jury_altr
from repro.core.selection.exact import enumerate_optimal, select_jury_optimal
from repro.core.selection.pay import select_jury_pay
from repro.errors import InfeasibleSelectionError
from repro.service import BatchSelectionEngine, CandidatePool, PoolRegistry, SelectionQuery
from repro.testing import DEFAULT_SEED

#: Zipf popularity exponent of the skewed pool stream.
ZIPF_S = 1.1

MODELS = ("altr", "pay", "exact")


def _pool_jurors(rng: np.random.Generator, n: int, *, tag: str, priced: bool = False):
    eps = rng.uniform(0.05, 0.9, size=n)
    reqs = rng.uniform(0.05, 0.15, size=n) if priced else np.zeros(n)
    return tuple(
        Juror(float(e), float(r), juror_id=f"{tag}-{i}")
        for i, (e, r) in enumerate(zip(eps, reqs))
    )


def _mixed_queries(rng: np.random.Generator, count: int = 16):
    queries = []
    for i in range(count):
        if i % 5 == 3:
            queries.append(
                SelectionQuery(
                    task_id=f"p{i}",
                    candidates=_pool_jurors(rng, 13, tag=f"p{i}", priced=True),
                    model="pay",
                    budget=0.6,
                )
            )
        elif i % 5 == 4:
            queries.append(
                SelectionQuery(
                    task_id=f"e{i}",
                    candidates=_pool_jurors(rng, 9, tag=f"e{i}", priced=True),
                    model="exact",
                    budget=0.5,
                )
            )
        else:
            queries.append(
                SelectionQuery(
                    task_id=f"a{i}",
                    candidates=_pool_jurors(rng, 11 + 2 * (i % 3), tag=f"a{i}"),
                )
            )
    return queries


def _zipf_workload(rng: np.random.Generator, *, pools: int = 8, n_queries: int = 30):
    """A Zipf-skewed pool-popularity stream of mixed AltrM / PayM / exact
    queries, so hot pools repeat within one batch."""
    shared = [
        _pool_jurors(rng, 11 + (i % 5), tag=f"z{i}", priced=True)
        for i in range(pools)
    ]
    popularity = np.arange(1, pools + 1, dtype=float) ** -ZIPF_S
    popularity /= popularity.sum()
    queries = []
    for i in range(n_queries):
        pool = shared[int(rng.choice(pools, p=popularity))]
        kind = rng.random()
        if kind < 0.6:
            queries.append(SelectionQuery(task_id=f"a{i}", candidates=pool))
        elif kind < 0.85:
            queries.append(
                SelectionQuery(task_id=f"p{i}", candidates=pool, model="pay", budget=1.0)
            )
        else:
            queries.append(
                SelectionQuery(
                    task_id=f"e{i}",
                    candidates=pool,
                    model="exact",
                    budget=1.5,
                    method="enumerate",
                )
            )
    return queries


def _scalar(query: SelectionQuery):
    """Answer one inline-candidate query with its single-query solver."""
    candidates = query.candidates
    if query.model == "altr":
        return select_jury_altr(candidates, max_size=query.max_size)
    if query.model == "pay":
        return select_jury_pay(candidates, budget=query.budget, variant=query.variant)
    return select_jury_optimal(
        candidates, budget=query.budget, method=query.method, max_size=query.max_size
    )


def _project(result):
    """Comparable projection of one SelectionResult (timings excluded)."""
    return (
        result.juror_ids,
        result.jer,  # exact float equality, not approx
        result.algorithm,
        result.model,
        result.stats.juries_considered,
        result.stats.jer_evaluations,
    )


def _rows(responses):
    rows = []
    for response in responses:
        row = response.to_dict()
        row.pop("timings")
        rows.append(row)
    return rows


def _model_requests(rng: np.random.Generator, model: str, count: int = 6):
    budget = {"altr": None, "pay": 0.6, "exact": 0.5}[model]
    return [
        SelectionRequest(
            task_id=f"{model}{i}",
            candidates=_pool_jurors(rng, 9 + 2 * (i % 2), tag=f"{model}{i}", priced=True),
            model=model,
            budget=budget,
        )
        for i in range(count)
    ]


class TestScalarOracle:
    def test_mixed_batch_matches_single_query_solvers(self, rng):
        """The acceptance bar: one mixed batch == the scalar solvers, bit
        for bit, query by query."""
        queries = _mixed_queries(rng)
        outcomes = BatchSelectionEngine().run(list(queries))
        assert [o.task_id for o in outcomes] == [q.task_id for q in queries]
        for query, outcome in zip(queries, outcomes):
            assert outcome.ok, outcome.exception
            assert _project(outcome.result) == _project(_scalar(query))

    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=5, deadline=None)
    def test_zipf_stream_matches_single_query_solvers(self, seed):
        queries = _zipf_workload(np.random.default_rng(seed))
        engine = BatchSelectionEngine()
        outcomes = engine.run(list(queries))
        for query, outcome in zip(queries, outcomes):
            assert outcome.ok, outcome.exception
            assert _project(outcome.result) == _project(_scalar(query))
        # Hot pools repeat inside the batch but are swept once each.
        altr_pools = {
            CandidatePool(q.candidates).fingerprint for q in queries if q.model == "altr"
        }
        assert engine.stats.pools_swept == len(altr_pools)

    @pytest.mark.parametrize("max_size", [None, 3, 7])
    def test_registry_pool_matches_inline_candidates(self, rng, max_size):
        members = tuple(jurors_from_arrays(rng.uniform(0.05, 0.9, size=19)))
        registry = PoolRegistry()
        registry.create("P", list(members))
        engine = BatchSelectionEngine(registry=registry)
        named = engine.run(
            [SelectionQuery(task_id="named", pool_name="P", max_size=max_size)]
        )[0]
        inline = SelectionQuery(task_id="inline", candidates=members, max_size=max_size)
        assert named.ok
        assert _project(named.result) == _project(_scalar(inline))
        if max_size is not None:
            assert named.result.size <= max_size

    @pytest.mark.parametrize("fraction", [0.0, 0.02, 0.1, 0.3, 0.5, 0.8, 1.0])
    def test_exact_matches_enumeration_at_every_budget(self, rng, fraction):
        """From infeasible to loose: the engine's exact answer (enumeration
        and the planner's default operator alike) equals exhaustive
        enumeration, and an infeasible budget fails identically."""
        candidates = _pool_jurors(rng, 10, tag="bud", priced=True)
        budget = fraction * float(sum(j.requirement for j in candidates))
        queries = [
            SelectionQuery(
                task_id=method,
                candidates=candidates,
                model="exact",
                budget=budget,
                method=method,
            )
            for method in ("enumerate", "auto")
        ]
        enumerated, planned = BatchSelectionEngine().run(queries)
        try:
            oracle = enumerate_optimal(candidates, budget)
        except InfeasibleSelectionError as exc:
            for outcome in (enumerated, planned):
                assert type(outcome.exception) is InfeasibleSelectionError
                assert str(outcome.exception) == str(exc)
            return
        for query, outcome in zip(queries, (enumerated, planned)):
            assert _project(outcome.result) == _project(_scalar(query))
            assert outcome.result.juror_ids == oracle.juror_ids
            assert outcome.result.jer == oracle.jer

    def test_exact_batch_captures_infeasible(self):
        pricey = (Juror(0.2, 99.0, juror_id="rich"),)
        queries = [
            SelectionQuery(task_id=f"e{i}", candidates=pricey, model="exact", budget=1.0)
            for i in range(2)
        ]
        outcomes = BatchSelectionEngine().run(queries)
        assert all(not o.ok for o in outcomes)
        assert all(type(o.exception) is InfeasibleSelectionError for o in outcomes)
        assert all("affordable" in o.error_info.message for o in outcomes)

    @pytest.mark.parametrize("model", ["pay", "exact"])
    def test_raise_errors_propagates_from_the_serial_path(self, model):
        pricey = (Juror(0.2, 99.0, juror_id="rich"),)
        engine = BatchSelectionEngine()
        with pytest.raises(InfeasibleSelectionError):
            engine.run(
                [SelectionQuery(task_id="bad", candidates=pricey, model=model, budget=1.0)],
                raise_errors=True,
            )


class TestTransports:
    @pytest.mark.parametrize("model", MODELS)
    def test_batched_wire_rows_match_one_at_a_time(self, rng, model):
        """Batching changes nothing on the wire: ``select_many`` rows equal
        the rows of the same requests sent one by one."""
        requests = _model_requests(rng, model)
        batched = _rows(JuryService().select_many(requests))
        single = JuryService()
        assert batched == _rows(single.select(request) for request in requests)
        assert all(row["status"] == "ok" for row in batched)

    @pytest.mark.parametrize("max_batch", [1, 4, 16])
    def test_coalesced_batches_match_sequential(self, max_batch):
        """Concurrent clients on the async service get byte-identical
        answers to a sequential in-process loop, whatever the coalescing
        width."""
        rng = np.random.default_rng(DEFAULT_SEED)
        requests = []
        for i in range(24):
            model = MODELS[i % 3]
            requests.append(
                SelectionRequest(
                    task_id=f"t{i}",
                    candidates=_pool_jurors(rng, 9, tag=f"t{i}", priced=True),
                    model=model,
                    budget=None if model == "altr" else 0.5,
                )
            )
        sequential_service = JuryService()
        sequential = _rows(sequential_service.select(request) for request in requests)

        async def drive():
            service = AsyncJuryService(max_batch=max_batch)
            try:
                responses = await asyncio.gather(
                    *(service.select(request) for request in requests)
                )
                return responses, service.stats_snapshot()["async"]
            finally:
                await service.aclose()

        responses, stats = asyncio.run(drive())
        assert _rows(responses) == sequential
        assert stats["answered"] == len(requests)
        assert stats["batches"] >= -(-len(requests) // max_batch)


class TestCachesAndLifecycle:
    def test_live_pool_profile_is_reused_not_recomputed(self, rng):
        registry = PoolRegistry()
        registry.create("P", list(jurors_from_arrays(rng.uniform(0.05, 0.9, 13))))
        engine = BatchSelectionEngine(registry=registry)
        first = engine.run([SelectionQuery(task_id="t1", pool_name="P")])[0]
        assert engine.stats.frontier_builds == 1
        second = engine.run([SelectionQuery(task_id="t2", pool_name="P")])[0]
        # The second pass probes the version's frontier instead of asking
        # the live pool to sweep again, and never sweeps in the engine.
        assert engine.stats.frontier_builds == 1
        assert engine.stats.frontier_hits == 1
        assert registry.get("P").stats.repairs == 1
        assert engine.stats.batch_sweeps == 0
        assert _project(second.result) == _project(first.result)

    def test_engine_counters_flow_into_service_stats(self, rng):
        service = JuryService()
        requests = [
            SelectionRequest(task_id=f"t{i}", candidates=_pool_jurors(rng, 9, tag=f"u{i}"))
            for i in range(6)
        ]
        assert all(r.status == "ok" for r in service.select_many(requests))
        engine = service.engine.stats
        block = service.stats()["engine"]
        assert block == {
            "queries_run": engine.queries_run,
            "batch_sweeps": engine.batch_sweeps,
            "pools_swept": engine.pools_swept,
            "frontier_hits": engine.frontier_hits,
            "kernel_backend": engine.kernel_backend,
        }
        # Six distinct pools of one size: one stacked sweep.
        assert block["queries_run"] == 6
        assert block["batch_sweeps"] == 1
        assert block["pools_swept"] == 6
        # In-pass profile counters: six swept, none reused.
        assert service.stats()["cache"] == {"hits": 0, "misses": 6}

    @pytest.mark.parametrize("model", MODELS)
    def test_drop_then_recreate_after_mixed_traffic_is_fresh(self, rng, model):
        """A dropped pool takes its frontier with it, so after mixed AltrM +
        exact traffic a same-fingerprint re-create answers exactly like a
        fresh engine — never from a ghost of the old pool."""
        members = _pool_jurors(rng, 11, tag="ev", priced=True)
        service = JuryService()
        engine = service.engine
        service.pool(PoolCommand(action="create", name="P", candidates=members))
        fingerprint = service.registry.get("P").fingerprint
        first = service.select_many(
            [
                SelectionRequest(task_id="t1", pool="P"),
                SelectionRequest(task_id="t2", pool="P"),
                SelectionRequest(
                    task_id="t3", pool="P", model="exact", method="enumerate"
                ),
            ]
        )
        assert all(response.status == "ok" for response in first)

        builds_before = engine.stats.frontier_builds
        service.pool(PoolCommand(action="drop", name="P"))
        service.pool(PoolCommand(action="create", name="P", candidates=members))
        assert service.registry.get("P").fingerprint == fingerprint
        budget = None if model == "altr" else 0.5
        again = service.select(
            SelectionRequest(task_id="again", pool="P", model=model, budget=budget)
        )
        assert again.status == "ok"
        if model == "altr":
            # Freshly pulled from the new live pool, not served from a cache.
            assert engine.stats.frontier_builds == builds_before + 1
            assert again.jer == first[0].jer

        oracle = BatchSelectionEngine().select(
            SelectionQuery(task_id="oracle", candidates=members, model=model, budget=budget)
        )
        assert again.jer == oracle.jer
        assert tuple(j.juror_id for j in again.members) == oracle.juror_ids
        service.close()
