"""Candidate columns: the Lemma 3 sort, the column fingerprint and lazy members.

A pool built from columns must order its members exactly as
``sorted_candidates`` orders jurors (error rate, then id in ``str`` order),
and its fingerprint must depend on the content alone: the same for any
input order, different when one id, one error-rate bit or one requirement
bit changes.  A pool decoded from the wire, one built from jurors and a
live pool's snapshot are the same pool, down to the selections.  Members
are built on first access, once per slot, even when threads race for them.
"""

from __future__ import annotations

import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import SelectionRequest
from repro.core.juror import Juror, JurorColumns
from repro.core.selection.base import columns_fingerprint, lemma3_order, sorted_candidates
from repro.plan import execute_plan, plan_query
from repro.service import CandidatePool
from repro.service.registry import LivePool

juror_ids = st.text(min_size=1, max_size=3).filter(lambda s: s)
tied_pools = st.lists(
    st.tuples(juror_ids, st.sampled_from([0.1, 0.2, 0.3, 1 / 3])),
    min_size=1,
    max_size=12,
    unique_by=lambda row: row[0],
)
priced_pools = st.lists(
    st.tuples(
        juror_ids,
        st.floats(min_value=0.01, max_value=0.99),
        st.floats(min_value=0.0, max_value=5.0),
    ),
    min_size=1,
    max_size=10,
    unique_by=lambda row: row[0],
)


def _columns(rows) -> JurorColumns:
    return JurorColumns(
        tuple(r[0] for r in rows),
        [r[1] for r in rows],
        [r[2] if len(r) > 2 else 0.0 for r in rows],
    )


def _jurors(rows) -> list[Juror]:
    return [Juror(r[1], r[2] if len(r) > 2 else 0.0, juror_id=r[0]) for r in rows]


def _flip_low_bit(value: float) -> float:
    bits = np.array([value], dtype=np.float64).view(np.uint64)
    return float((bits ^ np.uint64(1)).view(np.float64)[0])


class TestLemma3Order:
    @given(tied_pools)
    @settings(max_examples=200, deadline=None)
    def test_columns_sort_like_sorted_candidates(self, rows):
        columns = _columns(rows)
        order = lemma3_order(columns.ids, columns.eps)
        expected = sorted_candidates(_jurors(rows))
        assert [columns.ids[i] for i in order] == [j.juror_id for j in expected]
        assert CandidatePool(columns).ordered == tuple(expected)
        assert LivePool(_jurors(rows)).snapshot().ordered == tuple(expected)

    def test_ties_break_by_str_order_not_input_order(self):
        columns = JurorColumns(("b", "a\x00", "a"), [0.2, 0.2, 0.2], [0.0] * 3)
        assert CandidatePool(columns).ids == ("a", "a\x00", "b")


class TestColumnFingerprint:
    @given(priced_pools, st.randoms(use_true_random=False))
    @settings(max_examples=100, deadline=None)
    def test_same_content_same_fingerprint_in_any_order(self, rows, random):
        shuffled = list(rows)
        random.shuffle(shuffled)
        pool = CandidatePool(_columns(rows))
        assert CandidatePool(_columns(shuffled)).fingerprint == pool.fingerprint
        assert CandidatePool(_jurors(shuffled)).fingerprint == pool.fingerprint
        assert LivePool(_jurors(shuffled)).fingerprint == pool.fingerprint
        ordered = sorted_candidates(_jurors(rows))
        assert pool.fingerprint == columns_fingerprint(
            [j.juror_id for j in ordered],
            [j.error_rate for j in ordered],
            [j.requirement for j in ordered],
        )

    @given(priced_pools, st.data())
    @settings(max_examples=100, deadline=None)
    def test_any_single_change_changes_the_fingerprint(self, rows, data):
        base = CandidatePool(_columns(rows)).fingerprint
        k = data.draw(st.integers(min_value=0, max_value=len(rows) - 1))
        juror_id, eps, req = rows[k]
        taken = {r[0] for r in rows}
        new_id = data.draw(juror_ids.filter(lambda s: s not in taken))
        for changed in (
            (new_id, eps, req),
            (juror_id, _flip_low_bit(eps), req),
            (juror_id, eps, _flip_low_bit(req)),
        ):
            altered = [*rows[:k], changed, *rows[k + 1:]]
            assert CandidatePool(_columns(altered)).fingerprint != base

    def test_every_str_hashes(self):
        ids = ("a\x00", "\ud800", "x\udfff", "\U0001f600")
        pool = CandidatePool(JurorColumns(ids, [0.1, 0.2, 0.3, 0.4], [0.0] * 4))
        assert len(pool.fingerprint) == 32

    def test_id_boundaries_are_part_of_the_hash(self):
        one = CandidatePool(JurorColumns(("ab", "c"), [0.1, 0.2], [0.0, 0.0]))
        two = CandidatePool(JurorColumns(("a", "bc"), [0.1, 0.2], [0.0, 0.0]))
        assert one.fingerprint != two.fingerprint


def _selections(pool: CandidatePool, budget: float) -> list[tuple]:
    """Ids and JER bits (or the error type) of every selector on ``pool``."""
    answers = []
    for model, variant in (("altr", "paper"), ("pay", "paper"), ("pay", "improved"),
                           ("exact", "paper")):
        try:
            result = execute_plan(
                plan_query(pool=pool, model=model, variant=variant,
                           budget=None if model == "altr" else budget)
            )
        except Exception as exc:  # infeasible budgets must fail alike too
            answers.append((model, variant, type(exc).__name__))
        else:
            answers.append((model, variant, result.juror_ids, result.jer.hex()))
    return answers


class TestOnePoolType:
    @given(priced_pools, st.randoms(use_true_random=False))
    @settings(max_examples=60, deadline=None)
    def test_wire_jurors_and_live_snapshot_are_one_pool(self, rows, random):
        """Decoded from the wire, built from jurors in another order, or
        snapshotted from a live pool that reached the members by churn:
        equal ids, bit-equal columns, one fingerprint, the same answers."""
        shuffled = list(rows)
        random.shuffle(shuffled)
        request = SelectionRequest.from_dict(
            {
                "v": 1,
                "task": "t",
                "candidates": [
                    {"id": i, "error_rate": e, "requirement": r} for i, e, r in rows
                ],
            }
        )
        live = LivePool(_jurors(shuffled[1:]))
        live.add_juror(_jurors(shuffled[:1])[0])
        pools = [
            CandidatePool(request.candidates),
            CandidatePool(tuple(_jurors(shuffled))),
            live.snapshot(),
        ]
        reqs = [r[2] for r in rows]
        budget = min(reqs) + sum(reqs) / 2
        reference = pools[0]
        expected = _selections(reference, budget)
        for pool in pools[1:]:
            assert pool.ids == reference.ids
            assert pool.eps.tobytes() == reference.eps.tobytes()
            assert pool.reqs.tobytes() == reference.reqs.tobytes()
            assert pool.fingerprint == reference.fingerprint
            assert _selections(pool, budget) == expected


class TestLazyMembers:
    def test_sequence_behaves_like_the_juror_tuple(self):
        jurors = tuple(_jurors([("a", 0.1, 1.0), ("b", 0.2, 0.0), ("c", 0.3, 2.5)]))
        columns = _columns([(j.juror_id, j.error_rate, j.requirement) for j in jurors])
        assert columns == jurors and jurors == columns
        assert list(columns) == list(jurors)
        for index in (0, 2, -1, -3, slice(None), slice(None, None, -1), slice(1, 9, 2)):
            assert columns[index] == jurors[index]
        with pytest.raises(IndexError):
            columns[3]
        assert hash(columns) == hash(jurors)

    def test_from_jurors_hands_out_the_given_objects(self):
        jurors = tuple(_jurors([("a", 0.1), ("b", 0.2)]))
        columns = JurorColumns.from_jurors(jurors)
        assert all(a is b for a, b in zip(columns, jurors))

    def test_threads_racing_on_a_slot_get_one_object(self):
        size, threads, rounds = 400, 8, 8
        fresh = [
            JurorColumns(
                tuple(f"j{i}" for i in range(size)),
                np.linspace(0.01, 0.99, size),
                np.zeros(size),
            )
            for _ in range(rounds)
        ]
        seen: list[list[list[Juror]]] = [[] for _ in range(threads)]
        start = threading.Barrier(threads)

        def order(k: int) -> range:
            return range(size) if k % 2 else range(size - 1, -1, -1)

        def worker(k: int) -> None:
            for columns in fresh:
                start.wait()  # every thread races on this round's empty slots
                seen[k].append([columns[i] for i in order(k)] + list(columns[:size]))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [threading.Thread(target=worker, args=(k,)) for k in range(threads)]
            for thread in workers:
                thread.start()
            for thread in workers:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in workers)
        for r, columns in enumerate(fresh):
            reference = list(columns)
            for k in range(threads):
                got = seen[k][r]
                assert all(got[n] is reference[i] for n, i in enumerate(order(k)))
                assert all(a is b for a, b in zip(got[size:], reference))
