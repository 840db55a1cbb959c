"""Frozen candidate pools: the one sorted candidate set every selector reads.

Every selector in the paper works on the candidates in Lemma 3 order
(ascending error rate, id tie-break).  A :class:`CandidatePool` holds that
order once, as parallel read-only columns —

* ``eps``  — float64 error-rate vector,
* ``reqs`` — float64 payment-requirement vector,
* ``ids``  — juror-id tie-break keys,

plus :attr:`CandidatePool.ordered`, the same columns as a
:class:`~repro.core.juror.JurorColumns` sequence, which builds a
:class:`~repro.core.juror.Juror` only for a member an answer returns.  The
physical operators read the arrays directly; the batch engine shares one
sweep among the queries of a pass that hold the same pool object, and
hashes nothing to find pools that are merely equal.  A live pool
(:class:`repro.service.registry.LivePool`) is one such set of columns per
version, and hands its current version over as a pool without copying.
"""

from __future__ import annotations

from collections.abc import Iterable

import numpy as np

from repro.core.juror import Juror, JurorColumns, ensure_unique_ids
from repro.core.selection.base import columns_fingerprint, lemma3_order
from repro.errors import EmptyCandidateSetError

__all__ = ["CandidatePool", "as_pool"]


class CandidatePool:
    """An immutable candidate set in Lemma 3 order, shared by many queries.

    Parameters
    ----------
    candidates:
        The candidate jurors: any iterable of :class:`Juror`, or the
        :class:`~repro.core.juror.JurorColumns` a decoded request carries
        (used as they are — no juror is built for them).  Ids must be
        unique.  They are sorted into the deterministic Lemma 3 order
        (error rate ascending, id tie-break), so two pools with the same
        members in different input orders are equal — same fingerprint,
        same sweep, same selections.
    pool_id:
        Optional human-readable label (e.g. the JSONL pool name); purely
        cosmetic, not part of the fingerprint.

    The columns are read-only and a pool never changes, so one pool is
    safe to share between plans and threads.

    Examples
    --------
    >>> from repro.core.juror import jurors_from_arrays
    >>> pool = CandidatePool(jurors_from_arrays([0.3, 0.1, 0.2]))
    >>> pool.error_rates.tolist()
    [0.1, 0.2, 0.3]
    >>> pool.size
    3
    """

    __slots__ = ("ordered", "eps", "reqs", "ids", "_fingerprint", "pool_id")

    def __init__(
        self,
        candidates: "JurorColumns | Iterable[Juror]",
        *,
        pool_id: str | None = None,
    ) -> None:
        columns = JurorColumns.from_jurors(candidates)
        ensure_unique_ids(columns.ids, where="candidate pool")
        self._hold(columns.take(lemma3_order(columns.ids, columns.eps)), None, pool_id)

    @classmethod
    def _sorted(
        cls,
        ordered: JurorColumns,
        *,
        fingerprint: str | None = None,
        pool_id: str | None = None,
    ) -> "CandidatePool":
        """Wrap columns that are already validated and in Lemma 3 order.

        No sort, no id check and no copy: the pool shares ``ordered``, so
        its owner must never rewrite it (live pools replace their columns
        on mutation).  A ``fingerprint`` the caller already holds is
        adopted instead of recomputed.
        """
        pool = object.__new__(cls)
        pool._hold(ordered, fingerprint, pool_id)
        return pool

    def _hold(
        self, ordered: JurorColumns, fingerprint: str | None, pool_id: str | None
    ) -> None:
        if len(ordered) == 0:
            raise EmptyCandidateSetError("a candidate pool must not be empty")
        #: Members in Lemma 3 order, built as :class:`Juror` on access.
        self.ordered = ordered
        self.eps = ordered.eps
        self.reqs = ordered.reqs
        self.ids = ordered.ids
        # Computed lazily, on the first equality test, hash or repr: no
        # query path consults it.
        self._fingerprint = fingerprint
        self.pool_id = pool_id

    # ------------------------------------------------------------------
    @property
    def error_rates(self) -> np.ndarray:
        """Error-rate vector in sweep order: the read-only ``eps`` column."""
        return self.eps

    @property
    def size(self) -> int:
        """Number of candidates ``N``."""
        return len(self.ids)

    def __len__(self) -> int:
        return len(self.ids)

    @property
    def fingerprint(self) -> str:
        """Content hash (:func:`~repro.core.selection.base.columns_fingerprint`)."""
        if self._fingerprint is None:
            self._fingerprint = columns_fingerprint(self.ids, self.eps, self.reqs)
        return self._fingerprint

    def take(self, mask: np.ndarray, *, suffix: str = "subset") -> "CandidatePool":
        """The pool of the rows a boolean mask selects (order preserved)."""
        label = f"{self.pool_id}/{suffix}" if self.pool_id else None
        return CandidatePool._sorted(
            self.ordered.take(np.flatnonzero(mask)), pool_id=label
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CandidatePool):
            return NotImplemented
        return self.fingerprint == other.fingerprint

    def __hash__(self) -> int:
        return hash(self.fingerprint)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        label = f" id={self.pool_id!r}" if self.pool_id else ""
        return f"CandidatePool(size={self.size}{label}, fp={self.fingerprint[:8]})"


def as_pool(
    candidates: "CandidatePool | JurorColumns | Iterable[Juror]",
    *,
    pool_id: str | None = None,
) -> CandidatePool:
    """A pool passed through unchanged, or a new pool over a candidate sequence."""
    if isinstance(candidates, CandidatePool):
        return candidates
    return CandidatePool(candidates, pool_id=pool_id)
