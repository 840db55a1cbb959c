"""Jury Error Rate (JER) calculators — paper Definition 6, Algorithms 1 and 2.

The JER of a jury ``J_n`` with individual error rates ``eps_1..eps_n`` is the
probability that a strict majority of jurors err:

    JER(J_n) = Pr(C >= (n + 1) / 2)

where ``C`` is the Poisson-Binomial-distributed Carelessness count.  Three
calculators are provided:

``jer_naive``
    Direct enumeration of all "Minorities" (Definition 6).  ``O(2^n)``; the
    oracle the motivation example uses and the tests check against.
``jer_dp``
    Paper Algorithm 1: the tail-probability dynamic program of Lemma 1,
    ``O(n^2)`` time and ``O(n)`` space.
``jer_cba``
    Paper Algorithm 2 (Convolution-Based Algorithm): divide and conquer over
    the jury, merging Carelessness distributions with FFT convolution,
    ``O(n log n)`` arithmetic per merge level.

:func:`jury_error_rate` dispatches between them, and
:class:`PrefixJERSweeper` computes JER for *every* odd prefix of an ordered
candidate list in ``O(N^2)`` total — the workhorse that makes the AltrM sweep
(paper Algorithm 3) efficient.

For batched workloads (many selection queries at once, see
:mod:`repro.service`), :func:`batch_prefix_jer_sweep` runs the same prefix
sweep over a whole *matrix* of candidate pools in one vectorized 2-D NumPy
pass, producing results bit-identical to :class:`PrefixJERSweeper` row by
row; :func:`prefix_jer_profile` and :func:`best_odd_prefix` are the scalar
conveniences the selection algorithms build on.

The plan layer's physical operators (:mod:`repro.plan.operators`) lean on
three more block kernels: :func:`extend_pmf` (the single-factor hot path),
:func:`extend_pmf_block` (fan one pmf out by ``k`` alternative factors —
the vectorized PayALG pair trial), and :func:`batch_jury_jer` (JER of many
equal-size juries at once — the blocked exact enumeration).  All three
apply the same multiply-add expression as the sweep kernels, so every
execution path produces bit-identical probabilities.

:func:`batch_prefix_jer_sweep` is a thin validating wrapper that
dispatches through the backend registry in :mod:`repro.core.kernels` —
cc-compiled native code wherever it activated, held to bitwise equality
with the NumPy reference by an activation self-check, and the reference
otherwise.  The block kernels and the delta kernels below run their NumPy
code directly: with native active, no ``servebench`` workload calls them.

Two delta kernels maintain Carelessness state without full recomputation,
the batch form of :class:`~repro.core.incremental.IncrementalJury`'s
single-juror updates:

:func:`convolve_pmf`
    Fold ``k`` new jurors into an existing pmf — ``k`` vectorized length-2
    convolutions, ``O(k * n)`` total.
:func:`deconvolve_pmf`
    Remove ``k`` jurors from a pmf by stable deconvolution, ``O(k * n)``.

Live pools (:mod:`repro.service.registry`) need neither: each version's
profile is one :func:`batch_prefix_jer_sweep` call.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable, Iterator

import numpy as np

from repro._validation import validate_error_rates
from repro.core import kernels as _kernels
from repro.core.juror import Jury
from repro.core.kernels._reference import NumpyBackend
from repro.core.poisson_binomial import pmf_conv, tail_probability
from repro.errors import EvenJurySizeError, InvalidErrorRateError

__all__ = [
    "majority_threshold",
    "jer_naive",
    "jer_dp",
    "jer_cba",
    "jury_error_rate",
    "PrefixJERSweeper",
    "batch_prefix_jer_sweep",
    "batch_jury_jer",
    "prefix_jer_profile",
    "best_odd_prefix",
    "convolve_pmf",
    "deconvolve_pmf",
    "extend_pmf",
    "extend_pmf_block",
    "JER_IMPROVEMENT_EPS",
    "AUTO_CBA_THRESHOLD",
]

#: Minimum JER improvement that counts as "strictly better" when comparing
#: candidate juries.  Shared by every selector so tie-breaking (prefer the
#: smaller jury) is consistent between the scalar and batch paths.
JER_IMPROVEMENT_EPS = 1e-15


def majority_threshold(n: int) -> int:
    """Number of wrong votes that sinks a jury of size ``n``: ``(n+1)/2``.

    Defined for odd ``n``; even sizes raise because Majority Voting is not
    well defined for them (Section 2.1.1).
    """
    if n < 1:
        raise ValueError(f"jury size must be positive, got {n}")
    if n % 2 == 0:
        raise EvenJurySizeError(
            f"JER requires an odd jury size for a strict majority, got {n}"
        )
    return (n + 1) // 2


def _coerce_error_rates(jury: "Jury | Iterable[float]") -> np.ndarray:
    if isinstance(jury, Jury):
        return np.asarray(jury.error_rates, dtype=np.float64)
    return validate_error_rates(jury, name="error rates")


def jer_naive(jury: "Jury | Iterable[float]") -> float:
    """JER by enumerating every subset of wrong jurors (Definition 6).

    Exponential time; limited to juries of at most 20 members.  Serves as the
    ground-truth oracle for the fast algorithms.

    >>> round(jer_naive([0.2, 0.3, 0.3]), 3)
    0.174
    """
    eps = _coerce_error_rates(jury)
    n = eps.size
    threshold = majority_threshold(n)
    if n > 20:
        raise ValueError(f"jer_naive is limited to n <= 20 jurors, got {n}")
    total = 0.0
    indices = range(n)
    for k in range(threshold, n + 1):
        for wrong in itertools.combinations(indices, k):
            wrong_set = set(wrong)
            prob = 1.0
            for i in indices:
                prob *= eps[i] if i in wrong_set else (1.0 - eps[i])
            total += prob
    return float(min(max(total, 0.0), 1.0))


def jer_dp(jury: "Jury | Iterable[float]") -> float:
    """JER via the dynamic program of paper Algorithm 1 / Lemma 1.

    Maintains ``T[L][m] = Pr(C >= L | J_m)`` with the recurrence

        T[L][m] = T[L-1][m-1] * eps_m + T[L][m-1] * (1 - eps_m)

    using two rolling rows, i.e. ``O(n^2)`` time and ``O(n)`` space exactly as
    Corollary 1 states.

    >>> round(jer_dp([0.1, 0.2, 0.2, 0.3, 0.3]), 4)
    0.0704
    """
    eps = _coerce_error_rates(jury)
    n = eps.size
    threshold = majority_threshold(n)
    # previous[m] holds Pr(C >= L-1 | J_m); current[m] holds Pr(C >= L | J_m).
    previous = np.ones(n + 1, dtype=np.float64)  # L = 0: Pr(C >= 0) == 1.
    current = np.empty(n + 1, dtype=np.float64)
    for level in range(1, threshold + 1):
        # Pr(C >= level | J_m) is zero while m < level.
        current[:level] = 0.0
        for m in range(level, n + 1):
            e = eps[m - 1]
            current[m] = previous[m - 1] * e + current[m - 1] * (1.0 - e)
        previous, current = current, previous
    return min(max(float(previous[n]), 0.0), 1.0)


def jer_cba(jury: "Jury | Iterable[float]") -> float:
    """JER via the Convolution-Based Algorithm (paper Algorithm 2).

    Computes the full Carelessness distribution by divide-and-conquer
    polynomial multiplication (FFT for large blocks) and sums the upper tail
    from the majority threshold.

    >>> round(jer_cba([0.2, 0.3, 0.3]), 3)
    0.174
    """
    eps = _coerce_error_rates(jury)
    threshold = majority_threshold(eps.size)
    pmf = pmf_conv(eps)
    return tail_probability(pmf, threshold)


_METHODS = {
    "naive": jer_naive,
    "dp": jer_dp,
    "cba": jer_cba,
}

#: Size above which the dispatcher prefers the FFT-based CBA over the DP.
#: Public because the plan-layer cost model (:mod:`repro.plan.cost`) reports
#: the backend :func:`jury_error_rate` would pick for a pool of a given size.
AUTO_CBA_THRESHOLD = 256
_AUTO_CBA_THRESHOLD = AUTO_CBA_THRESHOLD


def jury_error_rate(jury: "Jury | Iterable[float]", *, method: str = "auto") -> float:
    """Compute the Jury Error Rate of a jury.

    Parameters
    ----------
    jury:
        A :class:`~repro.core.juror.Jury` or a bare iterable of individual
        error rates (each in the open interval ``(0, 1)``); the jury size must
        be odd.
    method:
        ``"naive"``, ``"dp"``, ``"cba"``, or ``"auto"`` (default) which uses
        the DP for small juries and CBA beyond ~256 jurors.

    Returns
    -------
    float
        ``Pr(C >= (n+1)/2)`` in ``[0, 1]``.

    Examples
    --------
    >>> round(jury_error_rate([0.1, 0.2, 0.2]), 3)
    0.072
    """
    if method == "auto":
        eps = _coerce_error_rates(jury)
        chosen = jer_cba if eps.size >= _AUTO_CBA_THRESHOLD else jer_dp
        return chosen(eps)
    try:
        func = _METHODS[method]
    except KeyError:
        raise ValueError(
            f"unknown method {method!r}; expected one of "
            f"{sorted(_METHODS)} or 'auto'"
        ) from None
    return func(jury)


class PrefixJERSweeper:
    """Incremental JER over the odd prefixes of an ordered candidate list.

    Paper Algorithm 3 (AltrALG) evaluates the jury formed by the first ``n``
    jurors of the error-rate-sorted candidate list, for every odd ``n``.
    Recomputing each JER from scratch costs ``O(N^2 log N)`` overall; this
    sweeper instead maintains the Carelessness pmf and extends it by one juror
    per step (a length-2 convolution, ``O(n)``), so the whole sweep costs
    ``O(N^2)``.

    The sweeper is deliberately order-agnostic: it processes the error rates
    in the order given, so callers can feed any ordering (AltrALG feeds the
    ascending-``eps`` order mandated by Lemma 3).

    Examples
    --------
    >>> sweeper = PrefixJERSweeper([0.1, 0.2, 0.2, 0.3, 0.3])
    >>> [(n, round(j, 4)) for n, j in sweeper]
    [(1, 0.1), (3, 0.072), (5, 0.0704)]
    """

    def __init__(self, error_rates: Iterable[float]) -> None:
        self._eps = validate_error_rates(error_rates, name="error rates")

    def __iter__(self) -> Iterator[tuple[int, float]]:
        return self.sweep()

    def sweep(self) -> Iterator[tuple[int, float]]:
        """Yield ``(n, JER(prefix of size n))`` for each odd ``n``."""
        n_total = self._eps.size
        pmf = np.ones(1, dtype=np.float64)
        for idx in range(n_total):
            e = self._eps[idx]
            extended = np.empty(idx + 2, dtype=np.float64)
            extended[0] = pmf[0] * (1.0 - e)
            extended[1 : idx + 1] = pmf[1:] * (1.0 - e) + pmf[:-1] * e
            extended[idx + 1] = pmf[-1] * e
            pmf = extended
            n = idx + 1
            if n % 2 == 1:
                yield n, tail_probability(pmf, (n + 1) // 2)

    def all_odd_prefixes(self) -> list[tuple[int, float]]:
        """Materialise the full sweep as a list."""
        return list(self.sweep())

    def best_prefix(self) -> tuple[int, float]:
        """Return ``(n, JER)`` of the odd prefix with the smallest JER.

        Ties break toward the smaller jury, matching the intuition that a
        smaller jury of equal quality is cheaper to convene.
        """
        best_n, best_jer = -1, float("inf")
        for n, value in self.sweep():
            if value < best_jer - JER_IMPROVEMENT_EPS:
                best_n, best_jer = n, value
        if best_n < 0:
            raise ValueError("cannot sweep an empty candidate list")
        return best_n, best_jer


def batch_prefix_jer_sweep(error_rate_matrix) -> tuple[np.ndarray, np.ndarray]:
    """Prefix-JER sweep over a whole batch of candidate pools at once.

    The scalar :class:`PrefixJERSweeper` extends one Carelessness pmf by one
    juror per step; this kernel maintains a ``(B, N + 1)`` pmf *matrix* — one
    row per pool — and extends all ``B`` pmfs simultaneously with 2-D NumPy
    arithmetic, so the whole batch is swept in a single ``O(B * N^2)`` pass
    whose inner loops are vectorized across the batch dimension.

    Parameters
    ----------
    error_rate_matrix:
        Array-like of shape ``(B, N)``: row ``b`` holds the individual error
        rates of pool ``b`` in sweep order (AltrALG feeds the ascending-``eps``
        order mandated by Lemma 3).  All pools must share the same length;
        group pools by size before calling.

    Returns
    -------
    (ns, jer_matrix):
        ``ns`` is the 1-D array of odd prefix sizes ``[1, 3, ..]`` and
        ``jer_matrix`` has shape ``(B, len(ns))`` with
        ``jer_matrix[b, i] == JER(first ns[i] jurors of pool b)``.

    Notes
    -----
    Each row reproduces :class:`PrefixJERSweeper` *bit-identically*: the
    update applies the same multiply-add expression element-wise (the extra
    top entry of the full-width row is ``0`` before its first touch, and
    ``0 * (1 - e) + pmf[n] * e`` equals the scalar sweeper's dedicated
    ``pmf[-1] * e`` assignment exactly in IEEE-754), and the tail sums reduce
    slices of identical length and contents with the same pairwise summation.
    Compiled backends are held to the same bit-identity by the activation
    self-check (:mod:`repro.core.kernels._verify`), so backend choice can
    never change a selection.

    Examples
    --------
    >>> ns, jers = batch_prefix_jer_sweep([[0.1, 0.2, 0.2], [0.3, 0.3, 0.3]])
    >>> ns.tolist()
    [1, 3]
    >>> [round(float(v), 3) for v in jers[0]]
    [0.1, 0.072]
    """
    eps = np.asarray(error_rate_matrix, dtype=np.float64)
    if eps.ndim != 2:
        raise ValueError(
            f"error_rate_matrix must be 2-D (batch, pool_size), got shape {eps.shape}"
        )
    n_batch, n_total = eps.shape
    if n_total == 0:
        raise ValueError("cannot sweep empty candidate pools")
    if eps.size and (
        not np.all(np.isfinite(eps)) or np.any(eps <= 0.0) or np.any(eps >= 1.0)
    ):
        raise InvalidErrorRateError(
            "all error rates must lie in the open interval (0, 1)"
        )

    ns = np.arange(1, n_total + 1, 2, dtype=np.int64)
    return ns, _kernels.backend_for("sweep").sweep(eps)


def batch_jury_jer(error_rate_matrix) -> np.ndarray:
    """JER of many equal-size juries at once (full juries, not prefixes).

    The plan layer's enumeration operator scores whole *candidate blocks*
    with this kernel: row ``b`` holds the individual error rates of jury
    ``b`` (all rows the same odd size ``k``) and the result is the 1-D array
    of their Jury Error Rates.

    Each row's Carelessness pmf is grown one factor at a time with the same
    multiply-add expression as :func:`extend_pmf` (the extra top entry of the
    full-width row is ``0`` before its first touch, so ``0 * (1 - e) +
    pmf[n] * e`` equals the dedicated top assignment exactly in IEEE-754),
    and the tail reduction sums a slice of identical length and contents to
    :func:`~repro.core.poisson_binomial.tail_probability` — values are
    therefore **bit-identical** to the scalar extension chain the exact
    solvers historically used.

    Examples
    --------
    >>> [round(float(v), 3) for v in batch_jury_jer([[0.2, 0.3, 0.3],
    ...                                              [0.1, 0.2, 0.2]])]
    [0.174, 0.072]
    """
    eps = np.asarray(error_rate_matrix, dtype=np.float64)
    if eps.ndim != 2:
        raise ValueError(
            f"error_rate_matrix must be 2-D (batch, jury_size), got shape {eps.shape}"
        )
    n_batch, size = eps.shape
    threshold = majority_threshold(size)
    if eps.size and (
        not np.all(np.isfinite(eps)) or np.any(eps <= 0.0) or np.any(eps >= 1.0)
    ):
        raise InvalidErrorRateError(
            "all error rates must lie in the open interval (0, 1)"
        )
    pmf = np.zeros((n_batch, size + 1), dtype=np.float64)
    pmf[:, 0] = 1.0
    for idx in range(size):
        e = eps[:, idx : idx + 1]
        upper = idx + 1
        pmf[:, 1 : upper + 1] = pmf[:, 1 : upper + 1] * (1.0 - e) + pmf[:, 0:upper] * e
        pmf[:, 0:1] = pmf[:, 0:1] * (1.0 - e)
    tails = np.sum(pmf[:, threshold:], axis=1)
    return np.clip(tails, 0.0, 1.0)


def prefix_jer_profile(error_rates: Iterable[float]) -> tuple[np.ndarray, np.ndarray]:
    """Odd-prefix JER profile of a single ordered candidate list.

    Thin wrapper over :func:`batch_prefix_jer_sweep` with a batch of one —
    the scalar selection path and the batch engine therefore share one
    kernel and produce bit-identical numbers.

    >>> ns, jers = prefix_jer_profile([0.1, 0.2, 0.2, 0.3, 0.3])
    >>> list(zip(ns.tolist(), [round(float(v), 4) for v in jers]))
    [(1, 0.1), (3, 0.072), (5, 0.0704)]
    """
    eps = validate_error_rates(error_rates, name="error rates")
    ns, jers = batch_prefix_jer_sweep(eps[np.newaxis, :])
    return ns, jers[0]


def best_odd_prefix(
    ns: np.ndarray,
    jers: np.ndarray,
    *,
    max_size: int | None = None,
) -> tuple[int, float]:
    """Pick the winning odd prefix from a sweep profile.

    Scans in increasing-size order and keeps the first prefix that improves
    the incumbent by more than :data:`JER_IMPROVEMENT_EPS` — the exact
    tie-break rule of the scalar selectors (prefer the smaller jury).

    Parameters
    ----------
    ns, jers:
        A profile as returned by :func:`prefix_jer_profile` /
        one row of :func:`batch_prefix_jer_sweep`.
    max_size:
        Optional cap: prefixes larger than this are ignored.

    Returns
    -------
    (n, jer) of the winning prefix.
    """
    best_n, best_jer = -1, float("inf")
    for n, value in zip(ns, jers):
        if max_size is not None and n > max_size:
            break
        if value < best_jer - JER_IMPROVEMENT_EPS:
            best_n, best_jer = int(n), float(value)
    if best_n < 0:
        raise ValueError("cannot select from an empty sweep profile")
    return best_n, best_jer


# ----------------------------------------------------------------------
# Delta kernels: O(k * n) pmf maintenance
# ----------------------------------------------------------------------

def _coerce_pmf(pmf, *, name: str = "pmf") -> np.ndarray:
    arr = np.asarray(pmf, dtype=np.float64)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError(f"{name} must be a non-empty 1-D array, got shape {arr.shape}")
    return arr


def extend_pmf(pmf: np.ndarray, epsilon: float) -> np.ndarray:
    """Convolve a Carelessness pmf with one juror's ``[1-eps, eps]`` factor.

    The single-factor fast path of :func:`convolve_pmf` (no validation, no
    zero-padded working buffer): the hot inner step of the exact solvers'
    search loops and the vectorized PayALG trials.  The arithmetic is the
    identical multiply-add, so pmfs grown here are bit-for-bit equal to
    :func:`convolve_pmf` folding the same factor.
    """
    out = np.empty(pmf.size + 1, dtype=np.float64)
    out[0] = pmf[0] * (1.0 - epsilon)
    out[1:-1] = pmf[1:] * (1.0 - epsilon) + pmf[:-1] * epsilon
    out[-1] = pmf[-1] * epsilon
    return out


def extend_pmf_block(pmf: np.ndarray, epsilons) -> np.ndarray:
    """Extend one pmf by each of ``k`` *alternative* single factors.

    Where :func:`convolve_pmf` folds ``k`` factors into one pmf, this kernel
    fans out: row ``i`` of the ``(k, n + 1)`` result is
    ``extend_pmf(pmf, epsilons[i])``.  It is the kernel behind the
    vectorized PayALG pair trials, which score a whole block of candidate
    enlargements against the same incumbent pmf in one 2-D pass; each row is
    bit-identical to the scalar :func:`extend_pmf`.

    >>> import numpy as np
    >>> rows = extend_pmf_block(np.array([0.7, 0.3]), [0.5, 0.1])
    >>> bool(np.array_equal(rows[1], extend_pmf(np.array([0.7, 0.3]), 0.1)))
    True
    """
    base = _coerce_pmf(pmf)
    eps = np.asarray(epsilons, dtype=np.float64)
    if eps.ndim != 1:
        raise ValueError(f"epsilons must be 1-D, got shape {eps.shape}")
    width = base.size
    out = np.empty((eps.size, width + 1), dtype=np.float64)
    col = eps[:, np.newaxis]
    out[:, 0] = base[0] * (1.0 - eps)
    out[:, 1:width] = base[np.newaxis, 1:] * (1.0 - col) + base[np.newaxis, :-1] * col
    out[:, width] = base[-1] * eps
    return out


def convolve_pmf(pmf, epsilons) -> np.ndarray:
    """Fold ``k`` new Bernoulli factors into a Carelessness pmf, ``O(k * n)``.

    Given the pmf of ``C = X_1 + ... + X_n`` and the error rates of ``k``
    additional jurors, returns the pmf of the enlarged sum.  Each factor is
    one vectorized length-2 convolution — the batch generalisation of the
    single-juror extension :class:`~repro.core.incremental.IncrementalJury`
    performs on ``add``.

    >>> from repro.core.poisson_binomial import pmf_dp
    >>> import numpy as np
    >>> grown = convolve_pmf(pmf_dp([0.1, 0.2]), [0.3, 0.4])
    >>> bool(np.allclose(grown, pmf_dp([0.1, 0.2, 0.3, 0.4])))
    True
    """
    base = _coerce_pmf(pmf)
    eps = validate_error_rates(epsilons, name="epsilons")
    return NumpyBackend.convolve(base, eps)


def deconvolve_pmf(pmf, epsilons) -> np.ndarray:
    """Remove ``k`` Bernoulli factors from a Carelessness pmf, ``O(k * n)``.

    The inverse of :func:`convolve_pmf`: given the pmf of
    ``C = X_1 + ... + X_n`` and the success probabilities of ``k``
    constituents, returns the pmf of the sum without them.  Each factor is
    deconvolved in its numerically stable direction — the forward recurrence
    (dividing by ``1 - eps``) for ``eps < 0.5``, the backward recurrence
    (dividing by ``eps``) otherwise — so the per-position contraction of each
    step stays at most 1.

    .. warning::
       Deconvolution is only conditionally stable: a factor near
       ``eps = 0.5`` amplifies *pre-existing* error in the input pmf by up
       to ``~2n`` along the recurrence, so a chain of ``r`` removals can
       grow round-off like ``(2n)^r``.  Keep batches short (a handful of
       factors) or rebuild from the surviving factors periodically —
       :class:`~repro.core.incremental.IncrementalJury` does exactly that
       after :data:`~repro.core.incremental.REBUILD_AFTER_REMOVALS`
       removals.  The live-pool profile path never deconvolves (it sweeps
       each version from scratch), which is why it stays bit-exact.

    >>> from repro.core.poisson_binomial import pmf_dp
    >>> import numpy as np
    >>> shrunk = deconvolve_pmf(pmf_dp([0.1, 0.2, 0.3, 0.4]), [0.2, 0.4])
    >>> bool(np.allclose(shrunk, pmf_dp([0.1, 0.3]), atol=1e-12))
    True
    """
    out = _coerce_pmf(pmf).copy()
    eps = validate_error_rates(epsilons, name="epsilons")
    if eps.size >= out.size:
        raise ValueError(
            f"cannot deconvolve {eps.size} factors out of a pmf of "
            f"{out.size - 1} factors"
        )
    for e in eps:
        out = _deconvolve_one(out, float(e))
    return out


def _deconvolve_one(pmf: np.ndarray, epsilon: float) -> np.ndarray:
    """Deconvolve a single factor ``[1-eps, eps]`` in the stable direction."""
    n = pmf.size - 1
    out = np.empty(n, dtype=np.float64)
    complement = 1.0 - epsilon
    if epsilon < 0.5:
        # Forward: pmf[k] = out[k]*(1-e) + out[k-1]*e.
        out[0] = pmf[0] / complement
        for k in range(1, n):
            out[k] = (pmf[k] - out[k - 1] * epsilon) / complement
    else:
        # Backward: the same identity, solved from the top.
        out[n - 1] = pmf[n] / epsilon
        for k in range(n - 1, 0, -1):
            out[k - 1] = (pmf[k] - out[k] * complement) / epsilon
    np.clip(out, 0.0, 1.0, out=out)
    return out

