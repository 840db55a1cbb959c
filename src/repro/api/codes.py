"""Stable machine-readable error codes for the wire protocol.

Every exception class in the :mod:`repro.errors` hierarchy maps to exactly
one short, kebab-case code that is part of wire protocol v1: messages may be
rephrased between releases, codes may not.  :func:`error_code` resolves an
exception (or exception class) to the code of the nearest registered
ancestor, so new :class:`~repro.errors.ReproError` subclasses degrade to
their parent's code until they are registered — and the test suite asserts
that every subclass *is* registered, so such a fallback never ships.

Exceptions from outside the hierarchy get the generic codes at the bottom of
the registry: ``invalid-argument`` for :class:`ValueError`/:class:`TypeError`
(malformed payloads that slip past the explicit checks) and ``internal`` for
anything else.
"""

from __future__ import annotations

from json import JSONDecodeError

from repro.errors import (
    BudgetError,
    ConvergenceError,
    EmptyCandidateSetError,
    EmptyGraphError,
    EstimationError,
    EvenJurySizeError,
    InfeasibleSelectionError,
    InvalidErrorRateError,
    InvalidJuryError,
    InvalidRequirementError,
    OverloadedError,
    PoolNotFoundError,
    ProtocolError,
    ReproError,
    ServiceClosedError,
    SimulationError,
    StorageError,
    StorageUnavailableError,
)

__all__ = ["ERROR_CODES", "error_code"]

#: The protocol-v1 error-code registry.  Keys are looked up through the
#: exception's MRO, most-derived first, so the most specific registered
#: ancestor wins.  Append-only: removing or renaming a code is a breaking
#: protocol change.
ERROR_CODES: dict[type[BaseException], str] = {
    InvalidErrorRateError: "invalid-error-rate",
    InvalidRequirementError: "invalid-requirement",
    EvenJurySizeError: "even-jury-size",
    InvalidJuryError: "invalid-jury",
    EmptyCandidateSetError: "empty-candidate-set",
    PoolNotFoundError: "pool-not-found",
    BudgetError: "invalid-budget",
    InfeasibleSelectionError: "infeasible-selection",
    EmptyGraphError: "empty-graph",
    ConvergenceError: "no-convergence",
    EstimationError: "estimation-failed",
    SimulationError: "simulation-failed",
    ProtocolError: "bad-request",
    ServiceClosedError: "service-closed",
    OverloadedError: "overloaded",
    StorageError: "storage-corrupt",
    StorageUnavailableError: "storage-unavailable",
    ReproError: "repro-error",
    # Transport-level failures and fallbacks from outside the hierarchy.
    JSONDecodeError: "invalid-json",
    ValueError: "invalid-argument",
    TypeError: "invalid-argument",
    KeyError: "not-found",
    Exception: "internal",
}


def error_code(exc: BaseException | type[BaseException]) -> str:
    """The stable wire code for an exception (instance or class).

    Walks the MRO so the most specific registered ancestor decides; every
    :class:`Exception` resolves to *something* (``"internal"`` at worst).
    """
    cls = exc if isinstance(exc, type) else type(exc)
    for ancestor in cls.__mro__:
        code = ERROR_CODES.get(ancestor)
        if code is not None:
            return code
    return "internal"
