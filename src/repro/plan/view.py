"""Columnar candidate-pool views (struct-of-arrays) for the plan layer.

A :class:`PoolView` is the physical operators' input format: the candidate
set decomposed into parallel columns in Lemma 3 (ascending error-rate, id
tie-break) order —

* ``eps``  — float64 error-rate vector,
* ``reqs`` — float64 payment-requirement vector,
* ``ids``  — juror-id tie-break keys.

Operators work on these arrays directly; :class:`~repro.core.juror.Juror`
objects survive only at API boundaries, carried alongside as
:attr:`PoolView.ordered` for when a :class:`SelectionResult` needs members.
Views built from an existing :class:`~repro.service.pool.CandidatePool`
share its already-sorted arrays, so planning adds no re-sort or re-hash.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

import numpy as np

from repro.core.juror import Juror, ensure_unique_ids
from repro.core.selection.base import pool_fingerprint, sorted_candidates
from repro.errors import EmptyCandidateSetError, InvalidJuryError

__all__ = ["PoolView", "as_view"]


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


class PoolView:
    """Struct-of-arrays view of a candidate pool in Lemma 3 order.

    Build one with :meth:`from_jurors` (validates and sorts) or receive one
    from :attr:`repro.service.pool.CandidatePool.view` (shares the pool's
    cached arrays).  The arrays are read-only; a view is immutable and safe
    to share between plans.

    Examples
    --------
    >>> from repro.core.juror import jurors_from_arrays
    >>> view = PoolView.from_jurors(jurors_from_arrays([0.3, 0.1, 0.2]))
    >>> view.eps.tolist()
    [0.1, 0.2, 0.3]
    >>> view.size
    3
    """

    __slots__ = ("eps", "reqs", "ordered", "_ids", "_fingerprint", "pool_id")

    def __init__(
        self,
        eps: np.ndarray,
        reqs: np.ndarray,
        *,
        ordered: tuple[Juror, ...],
        fingerprint: str | None = None,
        pool_id: str | None = None,
    ) -> None:
        if eps.size == 0:
            raise EmptyCandidateSetError("a pool view must not be empty")
        if eps.shape != reqs.shape:
            raise ValueError(
                f"eps and reqs must be parallel vectors, got {eps.shape} vs {reqs.shape}"
            )
        self.eps = _read_only(np.asarray(eps, dtype=np.float64))
        self.reqs = _read_only(np.asarray(reqs, dtype=np.float64))
        #: Members as :class:`Juror` objects, parallel to ``eps``/``reqs``.
        self.ordered = ordered
        self._ids: tuple[str, ...] | None = None
        self._fingerprint = fingerprint
        self.pool_id = pool_id

    # ------------------------------------------------------------------
    @classmethod
    def from_jurors(
        cls, candidates: Iterable[Juror], *, pool_id: str | None = None
    ) -> "PoolView":
        """Validate, sort into Lemma 3 order, and decompose into columns."""
        members = tuple(candidates)
        if not members:
            raise EmptyCandidateSetError("a pool view must not be empty")
        if not all(isinstance(j, Juror) for j in members):
            raise InvalidJuryError("all pool members must be Juror instances")
        ensure_unique_ids(members, where="candidate pool")
        ordered = tuple(sorted_candidates(members))
        return cls(
            np.array([j.error_rate for j in ordered], dtype=np.float64),
            np.array([j.requirement for j in ordered], dtype=np.float64),
            ordered=ordered,
            pool_id=pool_id,
        )

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
        eps = (
            np.array([j.error_rate for j in members], dtype=np.float64)
            if error_rates is None
            else np.asarray(error_rates, dtype=np.float64)
        )
        return cls(
            eps,
            np.array([j.requirement for j in members], dtype=np.float64),
            ordered=members,
            fingerprint=fingerprint,
            pool_id=pool_id,
        )

    # ------------------------------------------------------------------
    @property
    def size(self) -> int:
        """Number of candidates ``N``."""
        return int(self.eps.size)

    def __len__(self) -> int:
        return self.size

    @property
    def ids(self) -> tuple[str, ...]:
        """Juror-id tie-break keys, parallel to ``eps``/``reqs``."""
        if self._ids is None:
            self._ids = tuple(j.juror_id for j in self.ordered)
        return self._ids

    @property
    def fingerprint(self) -> str:
        """Content hash (same scheme as :func:`pool_fingerprint`)."""
        if self._fingerprint is None:
            self._fingerprint = pool_fingerprint(self.ordered)
        return self._fingerprint

    def take(self, mask: np.ndarray, *, suffix: str = "subset") -> "PoolView":
        """Sub-view of the rows selected by a boolean mask (order preserved)."""
        label = f"{self.pool_id}/{suffix}" if self.pool_id else None
        return PoolView(
            self.eps[mask],
            self.reqs[mask],
            ordered=tuple(j for j, keep in zip(self.ordered, mask) if keep),
            pool_id=label,
        )

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


def as_columns(source) -> tuple[np.ndarray, np.ndarray, tuple[Juror, ...]]:
    """Columnar ``(eps, reqs, ordered members)`` in Lemma 3 order.

    The operator-facing coercion shared by the PayM greedy and the exact
    solvers: a :class:`PoolView` contributes its arrays directly, anything
    else goes through :func:`as_view` (validated, sorted, decomposed).
    """
    eps = getattr(source, "eps", None)
    reqs = getattr(source, "reqs", None)
    if eps is not None and reqs is not None:
        return eps, reqs, source.ordered
    view = as_view(source)
    return view.eps, view.reqs, view.ordered
