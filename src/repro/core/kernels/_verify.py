"""Activation-time bit-identity self-check for compiled kernel backends.

A compiled backend is only activated after every entry point reproduces
the reference **bitwise** on a battery that crosses each algorithmic
boundary (pairwise-summation base case at 8, unroll block at 128, the
recursive split, the 4- and 8-lane remainders of the vectorised sweep
fold, pmf entries in the subnormal range, multi-admission PayALG scans,
and branch-and-bound searches crossing every pruning and tie-break rule).
It checks the sweep-fold clone this CPU runs; the tests check each clone.
The C helpers the scan and the search share (the single-factor extension,
the factor fold) are checked through those batteries and, for the fold,
on its own.  A backend that differs in even one bit on this host is
refused, the first divergence is recorded as its unavailability reason,
and dispatch degrades to the reference backend — so the repo's
bit-identity invariant never depends on compiler or libm behaviour we did
not verify.

The battery is deterministic (fixed seed) and cheap (tens of ms), so it runs
on every activation rather than being cached: a changed compiler or
numpy build on the same host is re-checked automatically.
"""

from __future__ import annotations

import numpy as np

from repro.core.kernels._reference import NumpyBackend

__all__ = ["KernelSelfCheckError", "verify_backend"]

_CHECK_SEED = 20120827

# Sizes straddling every pairwise-summation regime: sequential (<8),
# unrolled block (<=128), and recursive splits beyond it.
_PAIRWISE_SIZES = (
    0, 1, 2, 3, 7, 8, 9, 15, 16, 17, 31, 63, 64, 65, 127, 128, 129,
    255, 256, 257, 511, 512, 513, 1000, 1001, 1024, 2047, 4096,
)
#: ``(b, n, low, high)``: a sweep of ``b`` rows of ``n`` error rates drawn
#: from ``[low, high)``.  The widths cross the pairwise regimes and the 4-
#: and 8-lane remainders of the vectorised fold (8, 9, 16, 17).  The last
#: row's error rates are small enough that its pmf entries pass through
#: the subnormal range (below 2.2e-308), where a fold that flushed them to
#: zero changes a few JERs; no full-range row goes below it.
_SWEEP_ROWS = (
    (1, 1, 1e-6, 1.0 - 1e-6),
    (2, 3, 1e-6, 1.0 - 1e-6),
    (3, 7, 1e-6, 1.0 - 1e-6),
    (1, 8, 1e-6, 1.0 - 1e-6),
    (2, 9, 1e-6, 1.0 - 1e-6),
    (1, 16, 1e-6, 1.0 - 1e-6),
    (3, 17, 1e-6, 1.0 - 1e-6),
    (2, 65, 1e-6, 1.0 - 1e-6),
    (1, 129, 1e-6, 1.0 - 1e-6),
    (2, 130, 1e-6, 1.0 - 1e-6),
    (1, 515, 1e-6, 1.0 - 1e-6),
    (1, 129, 1e-6, 1e-5),
)
#: Error-rate scales from near 0 to near 1.  Sorted rows that mix them are
#: the shape a live pool sweeps (Lemma 3 order), and the shape where the
#: rounding of pmf entry 0 reaches a JER: a fold that rounds it as
#: ``in[0] - in[0] * e`` passes every unsorted row above.
_SWEEP_SCALES = ((1e-6, 1e-5), (1e-4, 1e-3), (0.3, 0.5), (0.47, 0.499), (0.999, 1.0 - 1e-6))
#: ``k_convolve`` is ``bb_search``'s bound fold.  The B&B battery alone
#: lets some broken folds through (a reversed fold order, an error rate
#: one ulp off), so the fold is also held to the reference directly.
_CONVOLVE_SHAPES = ((1, 1), (3, 4), (10, 120), (129, 130))


class KernelSelfCheckError(AssertionError):
    """A compiled kernel diverged bitwise from the NumPy reference."""


def _require(condition: bool, detail: str) -> None:
    if not condition:
        raise KernelSelfCheckError(detail)


def _require_identical(label: str, expected: np.ndarray, actual: np.ndarray) -> None:
    expected = np.asarray(expected)
    actual = np.asarray(actual)
    _require(
        expected.shape == actual.shape,
        f"{label}: shape {actual.shape} != {expected.shape}",
    )
    if expected.size and not np.array_equal(
        expected.view(np.uint64), actual.view(np.uint64)
    ):
        diff = int(np.flatnonzero(expected.view(np.uint64) != actual.view(np.uint64))[0])
        raise KernelSelfCheckError(
            f"{label}: first bit divergence at flat index {diff}: "
            f"{expected.ravel()[diff]!r} != {actual.ravel()[diff]!r}"
        )


def _reference_pay_scan(g_eps, g_req, budget, scan_from, accumulated, pmf, current_jer):
    """Drive the NumPy block-scan path for comparison.

    Imported lazily: ``pay`` imports ``jer`` which imports this package,
    so the import is only safe at call time (activation), never at
    module import time.
    """
    from repro.core.selection.base import SelectionStats
    from repro.core.selection.pay import _paper_pairing

    stats = SelectionStats()
    # The scan's majority threshold is derived from len(selected); seed the
    # list with the pmf's factors (one seed juror here) exactly as
    # run_pay_greedy does, and report only the appended pairs.
    seed = list(range(np.asarray(pmf).size - 1))
    n_seed = len(seed)  # _paper_pairing extends the list in place
    out_selected, out_acc, out_jer = _paper_pairing(
        seed,
        np.asarray(g_eps, dtype=np.float64),
        np.asarray(g_req, dtype=np.float64),
        int(scan_from),
        float(accumulated),
        float(budget),
        np.asarray(pmf, dtype=np.float64),
        float(current_jer),
        stats,
    )
    return (
        np.asarray(out_selected[n_seed:], dtype=np.int64),
        out_acc,
        out_jer,
        stats.juries_considered,
        stats.jer_evaluations,
    )


def _check_pay_scan(backend, rng: np.random.Generator) -> None:
    from repro.core.jer import extend_pmf

    for n, budget_scale in ((3, 4.0), (25, 10.0), (120, 30.0), (311, 80.0)):
        eps = rng.uniform(0.02, 0.48, size=n)
        req = np.round(rng.uniform(0.5, 3.0, size=n), 3)
        order = np.argsort(req, kind="stable")
        eps, req = eps[order], req[order]
        pmf = extend_pmf(np.ones(1), float(eps[0]))
        current = float(np.clip(np.sum(pmf[1:]), 0.0, 1.0))
        acc = float(req[0])
        ref = _reference_pay_scan(eps, req, budget_scale, 1, acc, pmf, current)
        got = backend.pay_scan(eps, req, budget_scale, 1, acc, pmf, current)
        label = f"pay_scan(n={n})"
        _require_identical(f"{label} pairs", ref[0], got[0])
        _require(ref[1] == got[1], f"{label} accumulated {got[1]!r} != {ref[1]!r}")
        _require(ref[2] == got[2], f"{label} jer {got[2]!r} != {ref[2]!r}")
        _require(ref[3] == got[3], f"{label} juries_considered {got[3]} != {ref[3]}")
        _require(ref[4] == got[4], f"{label} jer_evaluations {got[4]} != {ref[4]}")


def _reference_bb_search(eps, reqs, ids, limit, budget, use_bound):
    """Drive the Python search of ``branch_and_bound_optimal``, shaped as
    the native ``bb_search`` result.  Imported lazily, like the pay scan."""
    from repro.core.selection.base import SelectionStats
    from repro.core.selection.exact import _python_search

    stats = SelectionStats()
    indices, jer = _python_search(ids, eps, reqs, limit, budget, use_bound, stats)
    counters = [
        stats.nodes_visited,
        stats.jer_evaluations,
        stats.bound_checks,
        stats.pruned_by_bound,
    ]
    return indices, jer, counters


#: ``(eps, reqs, ids, max_size, budget, use_bound)`` searches crossing
#: every rule of the branch and bound, 124 reference nodes in all (~5 ms).
#: In order: n = 1 without a budget; fair-coin candidates, whose juries
#: all score exactly 0.5, so with the bound off id rank decides among
#: size-1 ties and the smaller size beats size 3, and with it on the bound
#: prunes on equality; JERs one ulp apart, a tie either way round, under
#: an even cap; bound pruning under an even cap; two budgets that
#: cost-prune, bound-prune and reject over-budget leaves, one answering
#: with 5 members; and an infeasible budget.  Ids are out of sorted order.
_BB_CASES = (
    ((0.3,), (0.5,), ("a",), None, None, True),
    ((0.5, 0.5, 0.5), (0.5, 0.5, 0.5), ("b", "c", "a"), None, None, False),
    ((0.5, 0.5, 0.5), (0.5, 0.5, 0.5), ("b", "c", "a"), None, None, True),
    ((0.2, 0.20000000000000004, 0.3), (0.1,) * 3, ("b", "a", "c"), 2, None, False),
    ((0.20000000000000004, 0.2, 0.3), (0.1,) * 3, ("a", "b", "c"), 2, None, False),
    ((0.08, 0.15, 0.2, 0.26, 0.31, 0.4), (0.3,) * 6, tuple("zyxwvu"), 4, None, True),
    (
        (0.05, 0.11, 0.17, 0.22, 0.28, 0.33, 0.39, 0.45),
        (0.9, 0.2, 0.6, 0.1, 0.4, 0.3, 0.05, 0.7),
        tuple("abcdefgh"), None, 1.2, True,
    ),
    (
        (0.12, 0.13, 0.17, 0.19, 0.2, 0.2, 0.31, 0.33, 0.35, 0.38),
        (0.58, 0.19, 0.46, 0.69, 0.45, 0.65, 0.97, 0.7, 0.42, 0.23),
        tuple("klmnopqrst"), None, 2.14, True,
    ),
    ((0.1, 0.2, 0.3), (1.0, 1.0, 1.0), ("p", "q", "r"), None, 0.5, True),
)


def _check_bb_search(backend) -> None:
    from repro.core.selection.exact import _id_ranks

    for eps, reqs, ids, max_size, budget, use_bound in _BB_CASES:
        eps_arr = np.array(eps, dtype=np.float64)
        req_arr = np.array(reqs, dtype=np.float64)
        limit = len(eps) if max_size is None else min(max_size, len(eps))
        b = np.inf if budget is None else float(budget)
        ref = _reference_bb_search(eps_arr, req_arr, ids, limit, b, use_bound)
        got = backend.bb_search(eps_arr, req_arr, _id_ranks(ids), limit, b, use_bound)
        label = f"bb_search(n={len(eps)}, max_size={max_size}, budget={budget})"
        _require(ref[0] == got[0], f"{label} indices {got[0]} != {ref[0]}")
        _require(
            ref[1].hex() == got[1].hex(), f"{label} jer {got[1]!r} != {ref[1]!r}"
        )
        _require(ref[2] == got[2], f"{label} counters {got[2]} != {ref[2]}")


def verify_backend(backend) -> None:
    """Raise :class:`KernelSelfCheckError` unless ``backend`` matches the
    NumPy reference bitwise across the whole battery."""
    ref = NumpyBackend
    rng = np.random.default_rng(_CHECK_SEED)

    for size in _PAIRWISE_SIZES:
        values = rng.uniform(0.0, 1e-2, size=size)
        expected = np.float64(ref.pairwise(values))
        actual = np.float64(backend.pairwise(values))
        _require_identical(f"pairwise(n={size})", expected, actual)

    for b, n, low, high in _SWEEP_ROWS:
        eps = rng.uniform(low, high, size=(b, n))
        _require_identical(
            f"sweep({b}, {n}, [{low:g}, {high:g}))", ref.sweep(eps), backend.sweep(eps)
        )
    lows, highs = np.array(_SWEEP_SCALES).T
    scale = rng.integers(len(_SWEEP_SCALES), size=(2, 65))
    eps = np.sort(rng.uniform(lows[scale], highs[scale]), axis=1)
    _require_identical("sweep(2, 65) sorted scale mix", ref.sweep(eps), backend.sweep(eps))

    for n, k in _CONVOLVE_SHAPES:
        base = rng.dirichlet(np.ones(n))
        eps = rng.uniform(1e-6, 1.0 - 1e-6, size=k)
        _require_identical(
            f"convolve(n={n}, k={k})",
            ref.convolve(base, eps),
            backend.convolve(base, eps),
        )

    _check_pay_scan(backend, rng)
    _check_bb_search(backend)
