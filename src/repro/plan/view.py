"""Columnar candidate-pool views (struct-of-arrays) for the plan layer.

A :class:`PoolView` is the physical operators' input format: the candidate
set decomposed into parallel columns in Lemma 3 (ascending error-rate, id
tie-break) order —

* ``eps``  — float64 error-rate vector,
* ``reqs`` — float64 payment-requirement vector,
* ``ids``  — juror-id tie-break keys.

Operators work on these arrays directly.  :attr:`PoolView.ordered` is the
same columns as a :class:`~repro.core.juror.JurorColumns` sequence, which
builds a :class:`~repro.core.juror.Juror` only for a member an answer
returns (registry pools hand over the jurors they already hold).  Views
built from an existing :class:`~repro.service.pool.CandidatePool` share its
already-sorted arrays, so planning adds no re-sort or re-hash.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

import numpy as np

from repro.core.juror import Juror, JurorColumns, ensure_unique_ids
from repro.core.selection.base import columns_fingerprint, lemma3_order
from repro.errors import EmptyCandidateSetError

__all__ = ["PoolView", "as_view"]


class PoolView:
    """Struct-of-arrays view of a candidate pool in Lemma 3 order.

    Build one with :meth:`from_jurors` or :meth:`from_columns` (both check
    ids and sort), or receive one from
    :attr:`repro.service.pool.CandidatePool.view` (shares the pool's cached
    arrays).  The arrays are read-only; a view is immutable and safe to
    share between plans and threads.

    Examples
    --------
    >>> from repro.core.juror import jurors_from_arrays
    >>> view = PoolView.from_jurors(jurors_from_arrays([0.3, 0.1, 0.2]))
    >>> view.eps.tolist()
    [0.1, 0.2, 0.3]
    >>> view.size
    3
    """

    __slots__ = ("ordered", "eps", "reqs", "ids", "_fingerprint", "pool_id")

    def __init__(
        self,
        ordered: JurorColumns,
        *,
        fingerprint: str | None = None,
        pool_id: str | None = None,
    ) -> None:
        if len(ordered) == 0:
            raise EmptyCandidateSetError("a pool view must not be empty")
        #: Members in Lemma 3 order, built as :class:`Juror` on access.
        self.ordered = ordered
        self.eps = ordered.eps
        self.reqs = ordered.reqs
        self.ids = ordered.ids
        self._fingerprint = fingerprint
        self.pool_id = pool_id

    # ------------------------------------------------------------------
    @classmethod
    def from_columns(
        cls, columns: JurorColumns, *, pool_id: str | None = None
    ) -> "PoolView":
        """Check ids are unique and sort into Lemma 3 order, once.

        Every candidate set becomes a pool here:
        :class:`~repro.service.pool.CandidatePool`, :meth:`from_jurors` and
        :func:`as_view` all call it.
        """
        if len(columns) == 0:
            raise EmptyCandidateSetError("a candidate pool must not be empty")
        ensure_unique_ids(columns.ids, where="candidate pool")
        return cls(columns.take(lemma3_order(columns.ids, columns.eps)), pool_id=pool_id)

    @classmethod
    def from_jurors(
        cls, candidates: Iterable[Juror], *, pool_id: str | None = None
    ) -> "PoolView":
        """Validate, sort into Lemma 3 order, and decompose into columns."""
        return cls.from_columns(JurorColumns.from_jurors(candidates), pool_id=pool_id)

    @classmethod
    def from_sorted(
        cls,
        ordered: Sequence[Juror],
        *,
        error_rates: np.ndarray | None = None,
        fingerprint: str | None = None,
        pool_id: str | None = None,
    ) -> "PoolView":
        """Wrap an already-validated, Lemma-3-sorted member tuple.

        ``error_rates`` (when the caller already holds the sorted vector)
        and ``fingerprint`` are reused instead of recomputed.
        """
        members = tuple(ordered)
        columns = JurorColumns(
            tuple(j.juror_id for j in members),
            [j.error_rate for j in members] if error_rates is None else error_rates,
            [j.requirement for j in members],
            jurors=members,
        )
        return cls(columns, fingerprint=fingerprint, pool_id=pool_id)

    # ------------------------------------------------------------------
    @property
    def size(self) -> int:
        """Number of candidates ``N``."""
        return int(self.eps.size)

    def __len__(self) -> int:
        return self.size

    @property
    def fingerprint(self) -> str:
        """Content hash (:func:`~repro.core.selection.base.columns_fingerprint`)."""
        if self._fingerprint is None:
            self._fingerprint = columns_fingerprint(self.ids, self.eps, self.reqs)
        return self._fingerprint

    def take(self, mask: np.ndarray, *, suffix: str = "subset") -> "PoolView":
        """Sub-view of the rows selected by a boolean mask (order preserved)."""
        label = f"{self.pool_id}/{suffix}" if self.pool_id else None
        return PoolView(self.ordered.take(np.flatnonzero(mask)), pool_id=label)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        label = f" id={self.pool_id!r}" if self.pool_id else ""
        return f"PoolView(size={self.size}{label})"


def as_view(source, *, pool_id: str | None = None) -> PoolView:
    """Coerce a candidate source to a :class:`PoolView`.

    Accepts a :class:`PoolView` (returned unchanged), any object exposing a
    ``view`` attribute that is one (e.g. :class:`~repro.service.pool.CandidatePool`),
    or a sequence of :class:`Juror` objects (validated and sorted).
    """
    if isinstance(source, PoolView):
        return source
    candidate_view = getattr(source, "view", None)
    if isinstance(candidate_view, PoolView):
        return candidate_view
    return PoolView.from_jurors(source, pool_id=pool_id)
