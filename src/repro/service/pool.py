"""Immutable, fingerprinted candidate pools for the batch engine.

A :class:`CandidatePool` normalises a candidate set once — sorting into the
Lemma 3 (ascending error-rate) order, caching the error-rate vector, and
computing a content fingerprint — so that the work can be shared by every
query that targets the same pool.  The fingerprint is what the prefix-sweep
cache (:mod:`repro.service.cache`) is keyed on.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

import numpy as np

from repro.core.juror import Juror, JurorColumns
from repro.plan.view import PoolView

__all__ = ["CandidatePool", "as_pool"]


class CandidatePool:
    """A reusable candidate set shared by one or many selection queries.

    Parameters
    ----------
    candidates:
        The candidate jurors: any iterable of :class:`Juror`, or the
        :class:`~repro.core.juror.JurorColumns` a decoded request carries
        (used as they are — no juror is built for them).  They are
        re-sorted into the deterministic Lemma 3 ordering (error rate
        ascending, id tie-break), so two pools with the same members in
        different input orders are identical — same fingerprint, same
        sweep, same selections.
    pool_id:
        Optional human-readable label (e.g. the JSONL pool name); purely
        cosmetic, not part of the fingerprint.

    Examples
    --------
    >>> from repro.core.juror import jurors_from_arrays
    >>> pool = CandidatePool(jurors_from_arrays([0.3, 0.1, 0.2]))
    >>> pool.error_rates.tolist()
    [0.1, 0.2, 0.3]
    """

    __slots__ = ("_ordered", "_eps", "_fingerprint", "_view", "pool_id")

    def __init__(
        self,
        candidates: "JurorColumns | Iterable[Juror]",
        *,
        pool_id: str | None = None,
    ) -> None:
        view = PoolView.from_columns(
            JurorColumns.from_jurors(candidates), pool_id=pool_id
        )
        self._view: PoolView | None = view
        self._ordered: Sequence[Juror] = view.ordered
        self._eps = view.eps
        # Computed lazily: only the AltrM sweep cache consults it, so PayM /
        # exact / single-query paths never pay for the hash.
        self._fingerprint: str | None = None
        self.pool_id = pool_id

    @classmethod
    def _from_sorted(
        cls,
        ordered: Iterable[Juror],
        *,
        pool_id: str | None = None,
        fingerprint: str | None = None,
        error_rates: np.ndarray | None = None,
    ) -> "CandidatePool":
        """Internal fast path: build a pool from already-validated members.

        Used by :class:`repro.service.registry.LivePool` snapshots, which
        maintain the Lemma 3 ordering and unique-id invariant themselves and
        may already know the content fingerprint *and* the sorted error-rate
        vector — pass ``error_rates`` to reuse it instead of recomputing it
        from the :class:`Juror` objects.  The array is adopted as-is, so it
        must be parallel to ``ordered`` and never mutated by the caller
        (live pools replace, rather than rewrite, their cached vector).
        The columnar view is built only when a plan needs it.
        """
        pool = object.__new__(cls)
        pool._ordered = tuple(ordered)
        pool._eps = (
            np.array([j.error_rate for j in pool._ordered], dtype=np.float64)
            if error_rates is None
            else np.asarray(error_rates, dtype=np.float64)
        )
        pool._fingerprint = fingerprint
        pool._view = None
        pool.pool_id = pool_id
        return pool

    # ------------------------------------------------------------------
    @property
    def ordered(self) -> Sequence[Juror]:
        """Members in Lemma 3 (ascending error-rate) order."""
        return self._ordered

    @property
    def error_rates(self) -> np.ndarray:
        """Error-rate vector in sweep order (read-only view)."""
        view = self._eps.view()
        view.flags.writeable = False
        return view

    @property
    def size(self) -> int:
        """Number of candidates ``N``."""
        return len(self._ordered)

    @property
    def fingerprint(self) -> str:
        """Content hash identifying this pool for caching purposes."""
        if self._fingerprint is None:
            self._fingerprint = self.view.fingerprint
        return self._fingerprint

    @property
    def view(self) -> PoolView:
        """Columnar :class:`~repro.plan.view.PoolView` over this pool.

        Shares the pool's sorted members and cached error-rate vector, so
        planning a query against a pool adds no re-sort or re-hash; the
        view is built once and reused by every plan that targets the pool.
        """
        if self._view is None:
            self._view = PoolView.from_sorted(
                self._ordered,
                error_rates=self._eps,
                fingerprint=self._fingerprint,
                pool_id=self.pool_id,
            )
        return self._view

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._ordered)

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
    candidates: "CandidatePool | Iterable[Juror]", *, pool_id: str | None = None
) -> CandidatePool:
    """Coerce a candidate sequence (or pass through a pool) to a pool."""
    if isinstance(candidates, CandidatePool):
        return candidates
    return CandidatePool(candidates, pool_id=pool_id)
