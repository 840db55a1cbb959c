"""Juror and Jury domain objects (paper Section 2, Definitions 1 and 4).

A :class:`Juror` is a candidate crowd worker with an individual error rate
``epsilon`` — the probability that the juror votes against the latent ground
truth of a binary decision task — and, under the Pay-as-you-go model (PayM),
a payment ``requirement``.

A :class:`Jury` is an odd-sized set of jurors that can hold a majority vote.
Juries are immutable; selection algorithms construct new juries rather than
mutating existing ones.

A :class:`JurorColumns` is a candidate list held as parallel id / error-rate
/ requirement columns, the form a decoded request and a candidate pool carry;
it builds a :class:`Juror` only for a member somebody reads.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass, field

import numpy as np

from repro._validation import (
    validate_error_rate,
    validate_odd_size,
    validate_requirement,
)
from repro.errors import InvalidJuryError

__all__ = ["Juror", "Jury"]

_juror_counter = itertools.count(1)


def _next_auto_id() -> str:
    return f"juror-{next(_juror_counter)}"


def ensure_unique_ids(ids: Sequence[str], *, where: str = "jury") -> None:
    """Raise :class:`InvalidJuryError` naming the first repeated juror id."""
    if len(set(ids)) != len(ids):
        seen: set[str] = set()
        dup = next(i for i in ids if i in seen or seen.add(i))
        raise InvalidJuryError(f"duplicate juror id in {where}: {dup!r}")


__all__.append("ensure_unique_ids")


@dataclass(frozen=True, order=False)
class Juror:
    """A candidate crowd worker on a micro-blog service.

    Parameters
    ----------
    error_rate:
        Individual error rate ``epsilon_i`` in the open interval ``(0, 1)``
        (paper Definition 4): the probability of voting against the latent
        ground truth.
    requirement:
        Payment requirement ``r_i >= 0`` under PayM (paper Definition 8).
        Defaults to ``0.0``, which makes the juror altruistic (AltrM).
    juror_id:
        Stable identifier, e.g. a Twitter handle. Auto-generated when omitted.

    Examples
    --------
    >>> a = Juror(0.1, juror_id="A")
    >>> a.error_rate
    0.1
    >>> a.is_altruistic
    True
    """

    error_rate: float
    requirement: float = 0.0
    juror_id: str = field(default_factory=_next_auto_id)

    def __post_init__(self) -> None:
        object.__setattr__(self, "error_rate", validate_error_rate(self.error_rate))
        object.__setattr__(self, "requirement", validate_requirement(self.requirement))
        if not isinstance(self.juror_id, str) or not self.juror_id:
            raise InvalidJuryError(
                f"juror_id must be a non-empty string, got {self.juror_id!r}"
            )

    @classmethod
    def _trusted(cls, error_rate: float, requirement: float, juror_id: str) -> "Juror":
        """Build a juror from values already checked as ``__post_init__`` would.

        The members of a :class:`JurorColumns` come from columns validated
        once, at the edge; re-running the checks per member would repeat
        that work for every juror an answer returns.
        """
        juror = object.__new__(cls)
        # Set in the constructor's order, so the instance keeps the class's
        # key-sharing dict; assigning a fresh ``__dict__`` nearly doubles it.
        object.__setattr__(juror, "error_rate", error_rate)
        object.__setattr__(juror, "requirement", requirement)
        object.__setattr__(juror, "juror_id", juror_id)
        return juror

    @property
    def accuracy(self) -> float:
        """Probability of voting correctly, ``1 - epsilon_i``."""
        return 1.0 - self.error_rate

    @property
    def is_altruistic(self) -> bool:
        """True when the juror demands no payment (AltrM behaviour)."""
        return self.requirement == 0.0

    @property
    def cost_quality_key(self) -> float:
        """The greedy ordering key ``epsilon_i * r_i`` used by PayALG.

        Paper Algorithm 4 sorts candidates by the product of error rate and
        requirement, preferring jurors that are simultaneously cheap and
        reliable.
        """
        return self.error_rate * self.requirement

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Juror(id={self.juror_id!r}, epsilon={self.error_rate:.4g}, "
            f"r={self.requirement:.4g})"
        )


def _frozen_column(values) -> np.ndarray:
    column = np.asarray(values, dtype=np.float64).view()
    column.flags.writeable = False
    return column


class JurorColumns(Sequence):
    """An immutable candidate list held as parallel columns.

    ``ids``, ``eps`` and ``reqs`` hold the juror ids, error rates and payment
    requirements in list order.  Indexing or iterating yields :class:`Juror`
    objects, each built on first access and cached, so a consumer that reads
    only the columns never pays for them.  The columns are trusted: build
    one with :meth:`from_jurors`, or from values checked exactly as
    :class:`Juror` checks them (the wire decoder in
    :mod:`repro.api.protocol` is that check).  Equal to the tuple of the
    same jurors in the same order.

    >>> columns = JurorColumns(("a", "b"), [0.1, 0.2], [0.0, 1.5])
    >>> columns[1]
    Juror(id='b', epsilon=0.2, r=1.5)
    >>> columns == (Juror(0.1, juror_id="a"), Juror(0.2, 1.5, juror_id="b"))
    True
    """

    __slots__ = ("ids", "eps", "reqs", "_jurors")

    def __init__(
        self,
        ids: Iterable[str],
        eps,
        reqs,
        *,
        jurors: tuple[Juror, ...] | None = None,
    ) -> None:
        self.ids: tuple[str, ...] = ids if isinstance(ids, tuple) else tuple(ids)
        self.eps = _frozen_column(eps)
        self.reqs = _frozen_column(reqs)
        if not len(self.ids) == self.eps.size == self.reqs.size:
            raise ValueError("ids, eps and reqs must be parallel columns")
        # Either every member as given, or the members built so far by index.
        self._jurors: tuple[Juror, ...] | dict[int, Juror] = (
            {} if jurors is None else jurors
        )

    @classmethod
    def from_jurors(cls, jurors: Iterable[Juror]) -> "JurorColumns":
        """Columns over existing jurors, which the sequence then hands out."""
        if isinstance(jurors, JurorColumns):
            return jurors
        members = tuple(jurors)
        if not all(isinstance(j, Juror) for j in members):
            raise InvalidJuryError("all pool members must be Juror instances")
        return cls(
            tuple(j.juror_id for j in members),
            [j.error_rate for j in members],
            [j.requirement for j in members],
            jurors=members,
        )

    def take(self, indices) -> "JurorColumns":
        """The rows at ``indices`` (an integer array), in that order."""
        positions = np.asarray(indices, dtype=np.intp)
        picked = positions.tolist()
        jurors = self._jurors
        return JurorColumns(
            tuple(map(self.ids.__getitem__, picked)),
            self.eps[positions],
            self.reqs[positions],
            jurors=tuple(jurors[i] for i in picked)
            if isinstance(jurors, tuple)
            else None,
        )

    def valid(self) -> bool:
        """Whether every row passes :class:`Juror`'s checks (ids already ``str``)."""
        eps, reqs = self.eps, self.reqs
        return all(self.ids) and bool(
            np.all((eps > 0.0) & (eps < 1.0) & np.isfinite(reqs) & (reqs >= 0.0))
        )

    def _members(self, positions: range) -> tuple[Juror, ...]:
        built = self._jurors
        rows = np.arange(positions.start, positions.stop, positions.step)
        eps = self.eps[rows].tolist()
        reqs = self.reqs[rows].tolist()
        members = []
        for index, error_rate, requirement in zip(positions, eps, reqs):
            juror = built.get(index)
            if juror is None:
                # setdefault keeps the first juror stored for a slot, so
                # threads racing on one index all get the same object.
                juror = built.setdefault(
                    index, Juror._trusted(error_rate, requirement, self.ids[index])
                )
            members.append(juror)
        return tuple(members)

    def __len__(self) -> int:
        return len(self.ids)

    def __getitem__(self, index):
        jurors = self._jurors
        if isinstance(jurors, tuple):
            return jurors[index]
        positions = range(len(self.ids))[index]
        if isinstance(positions, range):
            return self._members(positions)
        return self._members(range(positions, positions + 1))[0]

    def __iter__(self) -> Iterator[Juror]:
        if isinstance(self._jurors, tuple):
            return iter(self._jurors)
        return iter(self._members(range(len(self.ids))))

    def __eq__(self, other: object) -> bool:
        if isinstance(other, JurorColumns):
            return (
                self.ids == other.ids
                and np.array_equal(self.eps, other.eps)
                and np.array_equal(self.reqs, other.reqs)
            )
        if isinstance(other, tuple):
            return tuple(self) == other
        return NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(self))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"JurorColumns(size={len(self.ids)})"


__all__.append("JurorColumns")


class Jury:
    """An odd-sized set of jurors that can form a majority voting.

    Implements paper Definition 1.  The class is an immutable sequence of
    :class:`Juror` objects; the error-rate and requirement vectors are cached
    as NumPy arrays for the numerical routines in :mod:`repro.core.jer`.

    Parameters
    ----------
    jurors:
        The member jurors.  Duplicated juror ids are rejected.
    allow_even:
        By default the constructor enforces the paper's odd-size assumption
        (Section 2.1.1).  Intermediate algorithmic states occasionally need
        even-sized "partial juries"; pass ``allow_even=True`` for those.

    Examples
    --------
    >>> jury = Jury.from_error_rates([0.2, 0.3, 0.3])
    >>> jury.size
    3
    >>> round(jury.majority_threshold, 1)
    2
    """

    __slots__ = ("_jurors", "_error_rates", "_requirements")

    def __init__(self, jurors: Iterable[Juror], *, allow_even: bool = False) -> None:
        members = tuple(jurors)
        if not members:
            raise InvalidJuryError("a jury must contain at least one juror")
        if not all(isinstance(j, Juror) for j in members):
            raise InvalidJuryError("all jury members must be Juror instances")
        ensure_unique_ids([j.juror_id for j in members], where="jury")
        if not allow_even:
            validate_odd_size(len(members))
        self._jurors: tuple[Juror, ...] = members
        self._error_rates = np.array([j.error_rate for j in members], dtype=np.float64)
        self._requirements = np.array([j.requirement for j in members], dtype=np.float64)

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_error_rates(
        cls,
        error_rates: Iterable[float],
        requirements: Iterable[float] | None = None,
        *,
        id_prefix: str = "j",
        allow_even: bool = False,
    ) -> "Jury":
        """Build a jury from raw vectors of error rates (and requirements).

        >>> Jury.from_error_rates([0.1, 0.2, 0.3]).size
        3
        """
        eps = list(error_rates)
        reqs = list(requirements) if requirements is not None else [0.0] * len(eps)
        if len(reqs) != len(eps):
            raise InvalidJuryError(
                f"error_rates and requirements must have equal length "
                f"({len(eps)} != {len(reqs)})"
            )
        jurors = [
            Juror(e, r, juror_id=f"{id_prefix}{i + 1}")
            for i, (e, r) in enumerate(zip(eps, reqs))
        ]
        return cls(jurors, allow_even=allow_even)

    # ------------------------------------------------------------------
    # sequence protocol
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._jurors)

    def __iter__(self) -> Iterator[Juror]:
        return iter(self._jurors)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return self._jurors[index]
        return self._jurors[index]

    def __contains__(self, juror: object) -> bool:
        return juror in self._jurors

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Jury):
            return NotImplemented
        return frozenset(self._jurors) == frozenset(other._jurors)

    def __hash__(self) -> int:
        return hash(frozenset(self._jurors))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        ids = ", ".join(j.juror_id for j in self._jurors[:6])
        suffix = ", ..." if len(self._jurors) > 6 else ""
        return f"Jury(size={self.size}, members=[{ids}{suffix}])"

    # ------------------------------------------------------------------
    # accessors
    # ------------------------------------------------------------------
    @property
    def jurors(self) -> tuple[Juror, ...]:
        """The member jurors, in construction order."""
        return self._jurors

    @property
    def size(self) -> int:
        """Number of jurors ``n``."""
        return len(self._jurors)

    @property
    def error_rates(self) -> np.ndarray:
        """Vector of individual error rates (read-only view)."""
        view = self._error_rates.view()
        view.flags.writeable = False
        return view

    @property
    def requirements(self) -> np.ndarray:
        """Vector of payment requirements (read-only view)."""
        view = self._requirements.view()
        view.flags.writeable = False
        return view

    @property
    def total_cost(self) -> float:
        """Total payment ``sum(r_i)`` demanded by the jury (PayM)."""
        return float(self._requirements.sum())

    @property
    def majority_threshold(self) -> int:
        """Smallest number of votes that forms a strict majority, ``(n+1)/2``."""
        return (self.size + 1) // 2

    @property
    def juror_ids(self) -> tuple[str, ...]:
        """Member identifiers in construction order."""
        return tuple(j.juror_id for j in self._jurors)

    # ------------------------------------------------------------------
    # derived juries
    # ------------------------------------------------------------------
    def sorted_by_error_rate(self) -> "Jury":
        """Return a new jury with members ordered by ascending error rate."""
        ordered = sorted(self._jurors, key=lambda j: (j.error_rate, j.juror_id))
        return Jury(ordered, allow_even=self.size % 2 == 0)

    def union(self, extra: Iterable[Juror], *, allow_even: bool = False) -> "Jury":
        """Return the jury enlarged with ``extra`` jurors."""
        return Jury(list(self._jurors) + list(extra), allow_even=allow_even)

    def without(self, juror: Juror, *, allow_even: bool = True) -> "Jury":
        """Return the jury with one member removed."""
        if juror not in self._jurors:
            raise InvalidJuryError(f"{juror!r} is not a member of this jury")
        remaining = [j for j in self._jurors if j != juror]
        return Jury(remaining, allow_even=allow_even)

    def is_allowed(self, budget: float | None = None) -> bool:
        """Whether the jury is *allowed* under the given model.

        Under AltrM (``budget is None``) every jury is allowed
        (Definition 7).  Under PayM the jury is allowed when its total cost
        does not exceed ``budget`` (Definition 8).
        """
        if budget is None:
            return True
        return self.total_cost <= float(budget) + 1e-12


def jurors_from_arrays(
    error_rates: Sequence[float],
    requirements: Sequence[float] | None = None,
    *,
    id_prefix: str = "j",
) -> list[Juror]:
    """Convenience constructor: build a candidate list from parallel arrays.

    This returns a plain ``list`` (a *candidate set*, not a jury), suitable as
    input to the selectors in :mod:`repro.core.selection`.

    >>> cands = jurors_from_arrays([0.1, 0.2], [0.5, 0.0])
    >>> [c.juror_id for c in cands]
    ['j1', 'j2']
    """
    reqs = requirements if requirements is not None else [0.0] * len(error_rates)
    if len(reqs) != len(error_rates):
        raise InvalidJuryError(
            "error_rates and requirements must have equal length "
            f"({len(error_rates)} != {len(reqs)})"
        )
    return [
        Juror(float(e), float(r), juror_id=f"{id_prefix}{i + 1}")
        for i, (e, r) in enumerate(zip(error_rates, reqs))
    ]


__all__.append("jurors_from_arrays")
