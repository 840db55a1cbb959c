"""Answer frontier: serve repeat AltrM selections in ``O(log n)``.

The AltrM optimum over a fixed pool is a *function of the size cap alone*:
Lemma 3 pins the candidate order, the odd-prefix JER profile enumerates every
feasible answer, and :func:`repro.core.jer.best_odd_prefix` reduces a query to
"the best odd prefix of size ``<= max_size``".  That reduction is a **running
argmin** over the profile — a monotone step function of the cap — so the full
answer set for a pool version can be materialised once (two columnar arrays)
and every later query answered by binary search, without planning and without
touching the kernels.

:class:`AnswerFrontier`
    The materialised running argmin for one pool version: ``ns[i]`` is the
    ``i``-th odd prefix size and ``best_ns[i]`` / ``best_jers[i]`` the
    winning prefix among sizes ``<= ns[i]``, computed with *exactly* the
    :data:`~repro.core.jer.JER_IMPROVEMENT_EPS` tie-break of
    :func:`~repro.core.jer.best_odd_prefix` (prefer the smaller jury on
    ties).  :meth:`AnswerFrontier.probe` is one ``np.searchsorted``;
    :meth:`AnswerFrontier.select` wraps the probe into the same
    :class:`~repro.core.selection.base.SelectionResult` the plan pipeline
    builds, field for field and bit for bit.

    :meth:`AnswerFrontier.build` makes the whole frontier in one pass from
    the profile alone.  Only a strict prefix minimum of the profile can take
    over the running argmin, so NumPy filters the profile down to those
    entries, ``best_odd_prefix``'s own comparison runs over them in Python,
    and every other entry copies the winner before it.

A live pool (:meth:`repro.service.registry.LivePool.answer_frontier`) owns
the frontier of its current version: it builds it whole on each version's
first AltrM select, and the batch engine answers every AltrM select of a
named pool from one probe of it
(:meth:`repro.service.batch.BatchSelectionEngine.answer_named`).  The
service turns the probe's ``(size, jer)`` straight into wire text the pool
keeps per version and size, with no :class:`SelectionResult`; direct engine
callers get one from :func:`altr_result`, as :meth:`AnswerFrontier.select`
builds it.  Frozen pools get no frontier; the engine answers them through
``plan_query() -> execute_plan()``.

Only ``model="altr"`` queries are answered from a frontier.  ``exact``
queries over the same pool *can* return the same jury, but their tie-break
differs (ties within ``1e-15`` resolve by size then lexicographic juror ids,
and the result is labelled ``OPT-enumerate``/``OPT-bnb``), so serving them
from the frontier would break bit-identity with the oracle path.  The
cost model's ``frontier-probe`` estimate lives in :mod:`repro.plan.cost`.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.core.jer import JER_IMPROVEMENT_EPS
from repro.core.juror import Juror, Jury
from repro.core.selection.base import SelectionResult, SelectionStats

__all__ = ["AnswerFrontier", "altr_result"]


class AnswerFrontier:
    """The running argmin over one pool version's odd-prefix JER profile.

    Construct via :meth:`build`.  All three columns are read-only
    float64/int64 arrays; instances are immutable and safe to share across
    threads.

    Examples
    --------
    >>> import numpy as np
    >>> ns = np.array([1, 3, 5], dtype=np.int64)
    >>> jers = np.array([0.2, 0.1, 0.15])
    >>> frontier = AnswerFrontier.build(ns, jers)
    >>> frontier.probe(4)   # best odd prefix of size <= 4
    (3, 0.1, 2)
    >>> frontier.probe(None)
    (3, 0.1, 3)
    """

    __slots__ = ("ns", "best_ns", "best_jers", "fingerprint", "version")

    def __init__(
        self,
        ns: np.ndarray,
        best_ns: np.ndarray,
        best_jers: np.ndarray,
        *,
        fingerprint: str | None = None,
        version: int | None = None,
    ) -> None:
        self.ns = ns
        self.best_ns = best_ns
        self.best_jers = best_jers
        self.fingerprint = fingerprint
        self.version = version

    @property
    def entries(self) -> int:
        """Number of odd prefixes covered (``(pool_size + 1) // 2``)."""
        return int(self.ns.size)

    @classmethod
    def build(
        cls,
        ns: np.ndarray,
        jers: np.ndarray,
        *,
        fingerprint: str | None = None,
        version: int | None = None,
    ) -> AnswerFrontier:
        """Materialise the frontier from a full sweep profile (O(entries)).

        ``fingerprint`` and ``version`` are labels the caller may attach
        (the pool content the profile came from); neither is read here.
        """
        ns = np.ascontiguousarray(ns, dtype=np.int64)
        jers = np.asarray(jers, dtype=np.float64)
        # Only a strict prefix minimum can take over the incumbent: an
        # earlier value at or below it either became the incumbent or lost
        # to one at least as low, so it sets a bar this value cannot clear.
        lower = np.empty(ns.size, dtype=bool)
        lower[:1] = True
        np.less(jers[1:], np.minimum.accumulate(jers[:-1]), out=lower[1:])
        # best_odd_prefix's comparison (same epsilon), over those entries
        # only.  Entry 0, a finite JER, always wins first, and every other
        # entry keeps the winner before it.
        winner = np.zeros(ns.size, dtype=np.intp)
        incumbent = float("inf")
        for i in np.flatnonzero(lower).tolist():
            value = float(jers[i])
            if value < incumbent - JER_IMPROVEMENT_EPS:
                winner[i], incumbent = i, value
        np.maximum.accumulate(winner, out=winner)
        best_ns, best_jers = ns[winner], jers[winner]
        ns.flags.writeable = False
        best_ns.flags.writeable = False
        best_jers.flags.writeable = False
        return cls(ns, best_ns, best_jers, fingerprint=fingerprint, version=version)

    def probe(self, max_size: int | None = None) -> tuple[int, float, int]:
        """Answer ``best_odd_prefix(ns, jers, max_size=max_size)`` in O(log n).

        Returns ``(jury size, jer, prefixes considered)`` — the third element
        is what the plan path reports as ``juries_considered`` /
        ``jer_evaluations``.  Raises the same :class:`ValueError` as
        :func:`~repro.core.jer.best_odd_prefix` when no odd prefix fits under
        ``max_size``.
        """
        if max_size is None:
            index = self.entries - 1
        else:
            index = int(self.ns.searchsorted(max_size, side="right")) - 1
        if index < 0:
            raise ValueError("cannot select from an empty sweep profile")
        return int(self.best_ns[index]), float(self.best_jers[index]), index + 1

    def select(
        self,
        ordered: Sequence[Juror],
        *,
        max_size: int | None = None,
    ) -> SelectionResult:
        """Answer an AltrM query from the frontier, plan-pipeline shaped.

        ``ordered`` must be the pool's members in Lemma 3 order (the same
        sequence as :attr:`repro.plan.pool.CandidatePool.ordered`), so the
        jury holds the identical :class:`~repro.core.juror.Juror` objects the
        oracle path would have selected.  Field-for-field this mirrors
        :func:`repro.core.selection.altr.result_from_sweep_profile`; the
        caller stamps ``stats.elapsed_seconds``.
        """
        best_n, best_jer, considered = self.probe(max_size)
        return altr_result(ordered[:best_n], best_jer, considered)


def altr_result(
    members: Sequence[Juror], jer: float, considered: int
) -> SelectionResult:
    """The :class:`~repro.core.selection.base.SelectionResult` of one probe.

    ``members`` are the winning prefix's jurors and ``considered`` the
    prefixes the probe covered, reported as ``juries_considered`` and
    ``jer_evaluations`` as the plan path reports them.
    """
    return SelectionResult(
        jury=Jury(members),
        jer=jer,
        algorithm="AltrALG",
        model="AltrM",
        budget=None,
        stats=SelectionStats(juries_considered=considered, jer_evaluations=considered),
    )
