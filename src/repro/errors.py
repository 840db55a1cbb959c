"""Exception hierarchy for the :mod:`repro` library.

All exceptions raised by the library derive from :class:`ReproError`, so
callers can catch a single base class.  Validation errors additionally derive
from :class:`ValueError` (or :class:`TypeError` where appropriate) so that the
library behaves like idiomatic Python for callers who do not know about the
custom hierarchy.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "InvalidErrorRateError",
    "InvalidRequirementError",
    "InvalidJuryError",
    "EvenJurySizeError",
    "EmptyCandidateSetError",
    "PoolNotFoundError",
    "BudgetError",
    "InfeasibleSelectionError",
    "EstimationError",
    "EmptyGraphError",
    "ConvergenceError",
    "SimulationError",
    "ProtocolError",
    "ServiceClosedError",
    "OverloadedError",
    "StorageError",
    "StorageUnavailableError",
]


class ReproError(Exception):
    """Base class for every error raised by the :mod:`repro` library."""


class InvalidErrorRateError(ReproError, ValueError):
    """An individual error rate falls outside the open interval ``(0, 1)``.

    The paper (Definition 4) requires ``epsilon_i`` to be a probability in the
    *open* interval: a juror who is always right (0) or always wrong (1) would
    make the Poisson-Binomial model degenerate and the normalisation of
    Section 4.1.3 is clipped to avoid producing such values.
    """


class InvalidRequirementError(ReproError, ValueError):
    """A payment requirement is negative or non-finite (PayM, Definition 8)."""


class InvalidJuryError(ReproError, ValueError):
    """A jury violates a structural constraint (duplicates, empty, bad size)."""


class EvenJurySizeError(InvalidJuryError):
    """A majority-voting jury must have odd size (Section 2.1.1).

    Majority Voting is only well defined for odd jury sizes; the paper assumes
    odd sizes throughout so that a strict majority always exists.
    """


class EmptyCandidateSetError(ReproError, ValueError):
    """A selection algorithm was invoked with no candidate jurors."""


class PoolNotFoundError(ReproError, KeyError):
    """A query or command referenced a registry pool name that does not exist.

    Derives from :class:`KeyError` so registry lookups behave like idiomatic
    mapping access for callers unaware of the custom hierarchy.
    """

    def __str__(self) -> str:  # KeyError quotes its repr; keep the message.
        return self.args[0] if self.args else ""


class BudgetError(ReproError, ValueError):
    """A budget is negative or non-finite (PayM, Definition 8)."""


class InfeasibleSelectionError(ReproError):
    """No allowed jury exists for the given model and budget.

    Raised by PayM selectors when even the single cheapest juror exceeds the
    budget, i.e. no odd-sized jury satisfies ``sum(r_i) <= B``.
    """


class EstimationError(ReproError):
    """Base class for errors in the parameter-estimation pipeline (Section 4)."""


class EmptyGraphError(EstimationError, ValueError):
    """A ranking algorithm received a graph with no nodes or no edges."""


class ConvergenceError(EstimationError, RuntimeError):
    """An iterative ranking algorithm failed to converge within its budget."""


class SimulationError(ReproError):
    """Base class for errors raised by the Monte-Carlo voting simulator."""


class ServiceClosedError(ReproError, RuntimeError):
    """An operation was attempted on a service that has been closed.

    Raised by :meth:`repro.api.AsyncJuryService.select` (and the surfaces on
    top of it) once :meth:`~repro.api.AsyncJuryService.aclose` has begun:
    requests already queued still drain, but no new work is accepted.
    """


class OverloadedError(ReproError):
    """The serving tier's bounded queues are full; the caller should retry.

    Carried on the wire as HTTP 503 with the stable code ``overloaded`` —
    backpressure made visible instead of unbounded memory growth.
    """


class StorageError(ReproError, RuntimeError):
    """The durable pool catalog hit unrecoverable on-disk state.

    Raised by :mod:`repro.storage` when recovery cannot produce a pool that
    is provably identical to the pre-crash state — a snapshot whose content
    hash disagrees with its manifest, or a WAL whose surviving records are
    internally inconsistent.  A *torn tail* (truncated final record,
    checksum mismatch at the end of the log) is **not** an error: recovery
    rolls back to the last valid record and surfaces a
    ``recovered_truncated`` counter instead.  This exception is reserved
    for states where silently serving a pool could mean serving the wrong
    pool.
    """


class ProtocolError(ReproError, ValueError):
    """A wire-protocol payload (JSONL row, serve command) is malformed.

    Raised by :meth:`repro.api.SelectionRequest.from_dict` and friends.  The
    optional ``detail`` mapping carries machine-readable position information
    (``where`` — the ``file:line`` location, ``field``, ``position``) that
    :class:`repro.api.ErrorInfo` preserves on the wire, so clients can point
    at the offending field rather than re-parse the message string.
    """

    def __init__(self, message: str, *, detail: dict | None = None) -> None:
        super().__init__(message)
        self.detail = detail


class StorageUnavailableError(ReproError, RuntimeError):
    """A storage call of the durable pool catalog failed; the caller may retry.

    Raised by :mod:`repro.storage` when the disk refuses a write, a short
    write, an fsync or a snapshot (ENOSPC, EIO, …).  The command that hit it
    was not acknowledged: it is absent, or, when the failure came after its
    WAL record was durable (a snapshot or compaction), fully applied —
    never half applied.  Carried on the wire as HTTP 503 with the stable
    code ``storage-unavailable``; unlike :class:`StorageError`, it says
    nothing is wrong with what is already on disk.
    """
