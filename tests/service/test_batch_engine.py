"""Tests for the batch jury-selection engine (repro.service)."""

from __future__ import annotations

import sys
import threading

import numpy as np
import pytest

from repro.api import SelectionRequest
from repro.core.juror import Juror, jurors_from_arrays
from repro.core.selection.altr import select_jury_altr
from repro.core.selection.exact import select_jury_optimal
from repro.core.selection.pay import select_jury_pay
from repro.errors import EmptyCandidateSetError, InfeasibleSelectionError
from repro.service import BatchSelectionEngine, CandidatePool, SelectionQuery


def _pool_jurors(rng: np.random.Generator, n: int, *, priced: bool = False):
    eps = rng.uniform(0.05, 0.95, size=n)
    reqs = rng.uniform(0.05, 1.0, size=n) if priced else None
    return jurors_from_arrays(eps, reqs)


class TestCandidatePool:
    def test_normalises_order(self):
        a, b = Juror(0.3, juror_id="hi"), Juror(0.1, juror_id="lo")
        assert CandidatePool([a, b]).fingerprint == CandidatePool([b, a]).fingerprint

    def test_distinct_pools_distinct_fingerprints(self):
        one = CandidatePool(jurors_from_arrays([0.1, 0.2]))
        two = CandidatePool(jurors_from_arrays([0.1, 0.3]))
        assert one.fingerprint != two.fingerprint

    def test_requirement_is_part_of_fingerprint(self):
        free = CandidatePool([Juror(0.2, 0.0, juror_id="x")])
        paid = CandidatePool([Juror(0.2, 0.5, juror_id="x")])
        assert free.fingerprint != paid.fingerprint

    def test_empty_pool_rejected(self):
        with pytest.raises(EmptyCandidateSetError):
            CandidatePool([])

    def test_duplicate_ids_rejected_upfront(self):
        from repro.errors import InvalidJuryError

        with pytest.raises(InvalidJuryError, match="duplicate"):
            CandidatePool([Juror(0.1, juror_id="x"), Juror(0.2, juror_id="x")])


class TestSelectionQueryValidation:
    def test_requires_exactly_one_source(self):
        cands = tuple(jurors_from_arrays([0.1, 0.2, 0.3]))
        with pytest.raises(ValueError):
            SelectionQuery(task_id="t", candidates=None, pool=None)
        with pytest.raises(ValueError):
            SelectionQuery(
                task_id="t", candidates=cands, pool=CandidatePool(cands)
            )

    def test_pay_requires_budget(self):
        cands = tuple(jurors_from_arrays([0.1, 0.2, 0.3]))
        with pytest.raises(ValueError, match="budget"):
            SelectionQuery(task_id="t", candidates=cands, model="pay")

    def test_unknown_model_rejected(self):
        cands = tuple(jurors_from_arrays([0.1, 0.2, 0.3]))
        with pytest.raises(ValueError, match="model"):
            SelectionQuery(task_id="t", candidates=cands, model="wat")


class TestBatchMatchesScalar:
    def test_altr_batch_bit_identical_to_single_query(self, rng):
        """The acceptance bar: batch results == scalar path, bit for bit."""
        engine = BatchSelectionEngine()
        pools = [_pool_jurors(rng, int(n)) for n in rng.integers(3, 40, size=12)]
        outcomes = engine.run(
            [
                SelectionQuery(task_id=f"t{i}", candidates=tuple(cands))
                for i, cands in enumerate(pools)
            ]
        )
        for outcome, cands in zip(outcomes, pools):
            single = select_jury_altr(cands)
            assert outcome.ok
            assert outcome.result.jer == single.jer  # exact, not approx
            assert outcome.result.juror_ids == single.juror_ids
            assert outcome.result.stats.jer_evaluations == single.stats.jer_evaluations

    def test_pay_batch_matches_single_query(self, rng):
        engine = BatchSelectionEngine()
        pools = [_pool_jurors(rng, 15, priced=True) for _ in range(5)]
        outcomes = engine.run(
            [
                SelectionQuery(
                    task_id=f"p{i}", candidates=tuple(c), model="pay", budget=2.0
                )
                for i, c in enumerate(pools)
            ]
        )
        for outcome, cands in zip(outcomes, pools):
            single = select_jury_pay(cands, budget=2.0)
            assert outcome.ok
            assert outcome.result.jer == single.jer
            assert set(outcome.result.juror_ids) == set(single.juror_ids)

    def test_exact_batch_matches_single_query(self, rng):
        engine = BatchSelectionEngine()
        pools = [_pool_jurors(rng, 10, priced=True) for _ in range(3)]
        outcomes = engine.run(
            [
                SelectionQuery(
                    task_id=f"e{i}", candidates=tuple(c), model="exact", budget=3.0
                )
                for i, c in enumerate(pools)
            ]
        )
        for outcome, cands in zip(outcomes, pools):
            single = select_jury_optimal(cands, budget=3.0)
            assert outcome.ok
            assert outcome.result.jer == pytest.approx(single.jer, abs=1e-15)
            assert outcome.result.juror_ids == single.juror_ids

    def test_mixed_models_in_one_batch(self, rng):
        cands = tuple(_pool_jurors(rng, 9, priced=True))
        engine = BatchSelectionEngine()
        outcomes = engine.run(
            [
                SelectionQuery(task_id="a", candidates=cands, model="altr"),
                SelectionQuery(task_id="p", candidates=cands, model="pay", budget=2.0),
                SelectionQuery(task_id="e", candidates=cands, model="exact", budget=2.0),
            ]
        )
        assert [o.task_id for o in outcomes] == ["a", "p", "e"]
        assert all(o.ok for o in outcomes)
        assert outcomes[2].result.jer <= outcomes[1].result.jer + 1e-10


class TestSharedPoolCaching:
    def test_shared_pool_swept_once(self, rng):
        pool = CandidatePool(_pool_jurors(rng, 25))
        engine = BatchSelectionEngine()
        outcomes = engine.run(
            [SelectionQuery(task_id=f"t{i}", pool=pool) for i in range(100)]
        )
        assert all(o.ok for o in outcomes)
        assert engine.stats.batch_sweeps == 1
        assert engine.stats.pools_swept == 1
        assert engine.stats.profiles_reused == 99

    def test_equal_content_pools_deduplicated(self, rng):
        eps = rng.uniform(0.05, 0.95, size=11)
        make = lambda: tuple(jurors_from_arrays(eps))  # noqa: E731
        engine = BatchSelectionEngine()
        engine.run(
            [
                SelectionQuery(task_id=f"t{i}", candidates=make())
                for i in range(4)
            ]
        )
        assert engine.stats.pools_swept == 1

    def test_pools_resweep_across_runs(self, rng):
        """Deduplication is per pass: nothing is kept between runs, and a
        frozen pool never gets an answer frontier."""
        pool = CandidatePool(_pool_jurors(rng, 13))
        engine = BatchSelectionEngine()
        first = engine.run([SelectionQuery(task_id="t1", pool=pool)])[0]
        second = engine.run([SelectionQuery(task_id="t2", pool=pool)])[0]
        assert engine.stats.pools_swept == 2
        assert engine.stats.profiles_reused == 0 and engine.stats.frontier_hits == 0
        assert first.result.jer == second.result.jer

    def test_distinct_sizes_grouped_into_separate_sweeps(self, rng):
        engine = BatchSelectionEngine()
        queries = [
            SelectionQuery(task_id="a", candidates=tuple(_pool_jurors(rng, 7))),
            SelectionQuery(task_id="b", candidates=tuple(_pool_jurors(rng, 7))),
            SelectionQuery(task_id="c", candidates=tuple(_pool_jurors(rng, 9))),
        ]
        assert all(o.ok for o in engine.run(queries))
        assert engine.stats.batch_sweeps == 2  # one per distinct pool size
        assert engine.stats.pools_swept == 3

    def test_max_size_variants_share_one_sweep(self, rng):
        pool = CandidatePool(_pool_jurors(rng, 21))
        engine = BatchSelectionEngine()
        outcomes = engine.run(
            [
                SelectionQuery(task_id=f"m{m}", pool=pool, max_size=m)
                for m in (1, 5, 9, None)
            ]
        )
        assert engine.stats.batch_sweeps == 1
        for outcome, m in zip(outcomes, (1, 5, 9)):
            assert outcome.result.size <= m
        for outcome, cap in zip(outcomes, (1, 5, 9, None)):
            single = select_jury_altr(list(pool.ordered), max_size=cap)
            assert outcome.result.jer == single.jer


class TestErrorHandling:
    def test_infeasible_pay_query_is_isolated(self, rng):
        good = tuple(_pool_jurors(rng, 7))
        pricey = (Juror(0.2, 99.0, juror_id="rich"),)
        engine = BatchSelectionEngine()
        outcomes = engine.run(
            [
                SelectionQuery(task_id="ok", candidates=good),
                SelectionQuery(task_id="bad", candidates=pricey, model="pay", budget=1.0),
            ]
        )
        assert outcomes[0].ok
        assert not outcomes[1].ok
        assert "affordable" in outcomes[1].error_info.message

    def test_raise_errors_propagates(self, rng):
        pricey = (Juror(0.2, 99.0, juror_id="rich"),)
        engine = BatchSelectionEngine()
        with pytest.raises(InfeasibleSelectionError):
            engine.run(
                [SelectionQuery(task_id="bad", candidates=pricey, model="pay", budget=1.0)],
                raise_errors=True,
            )

    def test_select_raises_and_returns(self, rng):
        cands = _pool_jurors(rng, 9)
        engine = BatchSelectionEngine()
        result = engine.select(
            SelectionQuery(task_id="one", candidates=tuple(cands))
        )
        assert result.jer == select_jury_altr(cands).jer
        assert result.stats.elapsed_seconds >= 0.0


def _answers(engine, batch):
    return [(o.result.juror_ids, o.result.jer) for o in engine.run(batch)]


def _race_one_engine(batches, expected, threads=8, passes=2):
    """Every thread runs every batch ``passes`` times on one shared engine,
    all threads starting each round together on its cold pools."""
    rounds, width = len(batches), len(batches[0])
    engine = BatchSelectionEngine()
    got: list[list] = [[] for _ in range(rounds)]
    cold = threading.Barrier(threads)

    def worker() -> None:
        for r, batch in enumerate(batches):
            cold.wait()  # every thread races on this round's cold pools
            for _ in range(passes):
                got[r].append(_answers(engine, batch))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=worker) for _ in range(threads)]
        for thread in workers:
            thread.start()
        for thread in workers:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in workers)
    assert got == [[answer] * (threads * passes) for answer in expected]
    runs = threads * passes
    # Each run sweeps its batch's equal-sized pools in one stacked call; no
    # count lost to a race.
    assert engine.stats.queries_run == runs * rounds * width
    assert engine.stats.batch_sweeps == runs * rounds
    assert engine.stats.pools_swept == runs * rounds * width
    return engine


class TestConcurrentRuns:
    def test_threads_share_one_engine_without_lost_updates(self, rng):
        """Concurrent run() calls are serialised by the engine lock: threads
        racing on the same pools count every query and sweep, and every
        answer matches a private engine's."""
        rounds, width = 10, 16
        batches = [
            [
                SelectionQuery(task_id=f"r{r}-q{q}", pool=CandidatePool(_pool_jurors(rng, 101)))
                for q in range(width)
            ]
            for r in range(rounds)
        ]
        expected = [_answers(BatchSelectionEngine(), batch) for batch in batches]
        _race_one_engine(batches, expected)

    def test_threads_share_wire_decoded_pools(self, rng):
        """The same race on pools decoded from the wire, whose members are
        built on first access: answers match, and every answer hands out
        the pool's one cached object per member."""
        rounds, width = 6, 8
        rows = [
            [
                [{"id": j.juror_id, "error_rate": j.error_rate} for j in _pool_jurors(rng, 101)]
                for _ in range(width)
            ]
            for _ in range(rounds)
        ]

        def decoded():
            return [
                [
                    SelectionQuery(
                        task_id=f"r{r}-q{q}",
                        pool=CandidatePool(
                            SelectionRequest.from_dict({"candidates": cands}).candidates
                        ),
                    )
                    for q, cands in enumerate(batch)
                ]
                for r, batch in enumerate(rows)
            ]

        expected = [_answers(BatchSelectionEngine(), batch) for batch in decoded()]
        batches = decoded()
        engine = _race_one_engine(batches, expected)
        for batch in batches:
            for query, outcome in zip(batch, engine.run(batch)):
                members = outcome.result.jury.jurors
                assert all(a is b for a, b in zip(members, query.pool.ordered))
