"""The native branch-and-bound kernel against the Python search.

``branch_and_bound_optimal`` runs its whole depth-first search in one
native ``bb_search`` call when the compiled backend is active, and the
Python search otherwise.  The Python search is the reference: on every
instance the native call must return the same jury, the same JER bits, and
the same four search counters.  The tests need native and skip without it.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import kernels
from repro.core.juror import Juror
from repro.core.kernels._verify import KernelSelfCheckError, verify_backend
from repro.core.selection.exact import branch_and_bound_optimal
from repro.errors import InfeasibleSelectionError

CORPUS_SEED = 20120828


def _jurors(eps, reqs, ids) -> list[Juror]:
    return [
        Juror(float(e), float(r), juror_id=i) for e, r, i in zip(eps, reqs, ids)
    ]


def _edge_cases() -> list[tuple[list[Juror], dict]]:
    """One instance per rule the search applies, named by its kwargs."""
    tie = _jurors([0.2] * 3, [0.5] * 3, ["b", "c", "a"])
    # Fair coins: every odd jury scores exactly 0.5, so sizes tie too.
    coins = _jurors([0.5] * 5, [0.5] * 5, ["d", "b", "e", "c", "a"])
    near = _jurors([0.2, 0.20000000000000004, 0.3], [0.1] * 3, ["b", "a", "c"])
    return [
        (_jurors([0.3], [0.5], ["a"]), {}),
        (_jurors([0.3], [0.5], ["a"]), {"budget": 0.5, "max_size": 2}),
        # Equal candidates with ids out of sorted order: every size-1 jury
        # ties on JER, and the id rank decides.
        (tie, {"budget": 0.5, "use_jer_bound": False}),
        (tie, {"use_jer_bound": False}),
        (tie, {}),
        (coins, {"use_jer_bound": False}),
        (coins, {"budget": 1.6}),
        (near, {"max_size": 2, "use_jer_bound": False}),
        (_jurors([0.1, 0.2, 0.3], [1.0] * 3, ["p", "q", "r"]), {"budget": 0.5}),
        (_jurors([0.1, 0.2, 0.3], [1.0] * 3, ["p", "q", "r"]), {"max_size": 0}),
        (
            _jurors(
                [0.08, 0.15, 0.2, 0.26, 0.31, 0.4], [0.3] * 6, list("zyxwvu")
            ),
            {"max_size": 4},
        ),
    ]


def _corpus() -> list[tuple[list[Juror], dict]]:
    """~200 seeded instances of up to 32 candidates.

    Every third instance sits on a coarse grid, so eps and requirements
    tie exactly; ids are shuffled against the error-rate order; pools past
    14 candidates carry a budget so the reference search stays fast.
    """
    rng = np.random.default_rng(CORPUS_SEED)
    cases = _edge_cases()
    for t in range(192):
        n = int(rng.integers(1, 33))
        eps = rng.uniform(0.05, 0.49, size=n)
        reqs = rng.uniform(0.05, 1.0, size=n)
        if t % 3 == 0:
            eps = np.round(eps * 10) / 10 + 0.05
            reqs = np.round(reqs * 4) / 4 + 0.25
        ids = [f"c{i:02d}" for i in rng.permutation(n)]
        kwargs: dict = {}
        if n > 14 or t % 5 < 3:
            kwargs["budget"] = float(np.round(rng.uniform(0.0, 3.0), 2))
        if t % 5 == 3 or t % 7 == 0:
            kwargs["max_size"] = int(rng.integers(0, min(n, 9) + 2))
        if n <= 10 and t % 4 == 1:
            kwargs["use_jer_bound"] = False
        cases.append((_jurors(eps, reqs, ids), kwargs))
    return cases


def _answer(jurors: list[Juror], kwargs: dict) -> tuple:
    try:
        result = branch_and_bound_optimal(jurors, **kwargs)
    except InfeasibleSelectionError as exc:
        return ("infeasible", str(exc))
    stats = result.stats
    return (
        result.juror_ids,
        result.jer.hex(),
        result.algorithm,
        stats.nodes_visited,
        stats.jer_evaluations,
        stats.bound_checks,
        stats.pruned_by_bound,
    )


def test_corpus_matches_the_python_search(native, request):
    corpus = _corpus()
    kernels.reset_dispatch_counters()
    with_native = [_answer(jurors, kwargs) for jurors, kwargs in corpus]
    assert kernels.dispatch_counts() == {"bb_search": {"native": len(corpus)}}

    request.getfixturevalue("native_unavailable")
    without = [_answer(jurors, kwargs) for jurors, kwargs in corpus]
    for case, got, expected in zip(corpus, with_native, without):
        assert got == expected, case[1]
    outcomes = {answer[0] == "infeasible" for answer in without}
    assert outcomes == {True, False}


def test_ninety_six_candidates_answer_as_the_python_search(native):
    """The ROADMAP's unbounded-exact instance, answered as the Python
    search answers it: the same counters, ids and JER bits."""
    rng = np.random.default_rng(5)
    eps = rng.uniform(0.3, 0.49, 96)
    reqs = rng.uniform(0, 1, 96)
    jurors = _jurors(eps, reqs, [f"c{i}" for i in range(96)])
    result = branch_and_bound_optimal(jurors, 19.2)
    stats = result.stats
    assert (
        stats.nodes_visited,
        stats.jer_evaluations,
        stats.bound_checks,
        stats.pruned_by_bound,
    ) == (236_918, 27, 202_455, 84_021)
    assert len(result.jury) == 47
    assert result.juror_ids[:4] == ("c88", "c31", "c48", "c29")
    assert result.jer.hex() == "0x1.29d1c865b1be8p-6"


class _Tampered:
    """The native backend with one deliberate defect in ``bb_search``."""

    compiled = True
    name = "tampered"

    def __init__(self, backend, defect: str) -> None:
        self._backend = backend
        self._defect = defect

    def __getattr__(self, attr):
        return getattr(self._backend, attr)

    def bb_search(self, eps, reqs, ranks, limit, budget, use_bound):
        if self._defect == "flip-ties":
            ranks = np.max(ranks, initial=0) - np.asarray(ranks)
        indices, jer, counters = self._backend.bb_search(
            eps, reqs, ranks, limit, budget, use_bound
        )
        if self._defect == "miscount":
            counters = [counters[0] + 1, *counters[1:]]
        return indices, jer, counters


@pytest.mark.parametrize(
    "defect, field", [("flip-ties", "indices"), ("miscount", "counters")]
)
def test_self_check_refuses_a_defective_search(native, defect, field):
    verify_backend(native)
    with pytest.raises(KernelSelfCheckError, match=rf"bb_search.*{field}"):
        verify_backend(_Tampered(native, defect))
