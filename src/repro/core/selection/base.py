"""Shared types for jury-selection algorithms (paper Definition 9).

All selectors return a :class:`SelectionResult`, which carries the chosen
jury, its JER and cost, and algorithm-specific counters
(:class:`SelectionStats`) that the efficiency experiments (Figures 3(b) and
3(g)) use to account for lower-bound pruning behaviour.
"""

from __future__ import annotations

import hashlib
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from repro.core.juror import Juror, Jury

__all__ = ["SelectionStats", "SelectionResult", "candidate_key"]


@dataclass
class SelectionStats:
    """Counters describing the work a selector performed.

    Attributes
    ----------
    juries_considered:
        Candidate juries examined (including pruned ones).
    jer_evaluations:
        Exact JER computations actually carried out.
    bound_checks:
        Paley-Zygmund lower-bound evaluations.
    pruned_by_bound:
        Candidate juries skipped because their lower bound already exceeded
        the incumbent JER.
    nodes_visited:
        Search-tree nodes (exact solvers only).
    elapsed_seconds:
        Wall-clock time, populated by the selector.
    """

    juries_considered: int = 0
    jer_evaluations: int = 0
    bound_checks: int = 0
    pruned_by_bound: int = 0
    nodes_visited: int = 0
    elapsed_seconds: float = 0.0


@dataclass
class SelectionResult:
    """Outcome of a jury-selection algorithm.

    Attributes
    ----------
    jury:
        The selected jury (odd size, allowed under the model).
    jer:
        Jury Error Rate of ``jury``.
    algorithm:
        Human-readable algorithm identifier, e.g. ``"AltrALG"``.
    model:
        ``"AltrM"`` or ``"PayM"``.
    budget:
        The budget that constrained the selection (``None`` for AltrM).
    stats:
        Work counters for efficiency experiments.
    """

    jury: Jury
    jer: float
    algorithm: str
    model: str
    budget: float | None = None
    stats: SelectionStats = field(default_factory=SelectionStats)

    @property
    def size(self) -> int:
        """Size of the selected jury."""
        return self.jury.size

    @property
    def total_cost(self) -> float:
        """Total payment demanded by the selected jury."""
        return self.jury.total_cost

    @property
    def juror_ids(self) -> tuple[str, ...]:
        """Identifiers of the selected jurors."""
        return self.jury.juror_ids

    def summary(self) -> str:
        """One-line human-readable description of the outcome."""
        budget_txt = f", budget={self.budget:g}" if self.budget is not None else ""
        return (
            f"{self.algorithm}[{self.model}{budget_txt}]: size={self.size}, "
            f"JER={self.jer:.6g}, cost={self.total_cost:.6g}"
        )


def candidate_key(juror: Juror) -> tuple[float, str]:
    """Deterministic ordering key for candidates: (error rate, id).

    Sorting by error rate with the id as tie-breaker keeps selections
    reproducible when several jurors share an error rate.
    """
    return (juror.error_rate, juror.juror_id)


def sorted_candidates(candidates: Sequence[Juror]) -> list[Juror]:
    """Candidates sorted ascending by error rate (Lemma 3 ordering)."""
    return sorted(candidates, key=candidate_key)


def lemma3_order(ids: Sequence[str], eps: np.ndarray) -> np.ndarray:
    """Indices that sort candidate columns exactly as :func:`sorted_candidates`.

    A stable argsort on the error rates; when two rates are equal the ids
    break the tie in Python ``str`` order, as :func:`candidate_key` does.
    """
    order = np.argsort(eps, kind="stable")
    ranked = eps[order]
    if np.any(ranked[1:] == ranked[:-1]):
        rates = eps.tolist()
        order = np.array(
            sorted(range(len(rates)), key=lambda i: (rates[i], ids[i])),
            dtype=np.intp,
        )
    return order


def columns_fingerprint(ids: Sequence[str], eps, reqs) -> str:
    """Content hash of candidate columns in pool order.

    The batch engine (:mod:`repro.service`) deduplicates the frozen pools of
    one pass on this fingerprint so that queries sharing a candidate pool
    are swept only once; the durable catalog (:mod:`repro.storage`) checks recovered
    snapshots against it.  It is blake2b-128 over the member count, the
    little-endian float64 bytes of ``eps`` and of ``reqs``, the length of
    each id in code points, and the ids themselves encoded as UTF-8 with
    ``surrogatepass`` — so every ``str`` hashes, lone surrogates and NULs
    included.  It covers every field that influences a selector's output,
    so two pools collide only when they are interchangeable for every
    selection algorithm.
    """
    digest = hashlib.blake2b(digest_size=16)
    digest.update(len(ids).to_bytes(8, "little"))
    digest.update(np.ascontiguousarray(eps, dtype="<f8").tobytes())
    digest.update(np.ascontiguousarray(reqs, dtype="<f8").tobytes())
    digest.update(np.fromiter(map(len, ids), dtype="<u8", count=len(ids)).tobytes())
    digest.update("".join(ids).encode("utf-8", "surrogatepass"))
    return digest.hexdigest()


__all__.extend(["sorted_candidates", "lemma3_order", "columns_fingerprint"])
