"""Wire protocol v1: typed, versioned request/response dataclasses.

One protocol for every surface.  The library, the ``repro-select`` CLI modes
(``single``/``explain``/``batch``/``serve``) and any future socket transport
all speak the same three shapes:

:class:`SelectionRequest`
    "Whom should we ask for this task?" — candidates inline or a registry
    pool by name, the selection model, and the knobs the planner accepts.
:class:`SelectionResponse`
    The answer: the selected jury, its JER/cost, per-response timings, an
    optional embedded physical plan (the EXPLAIN surface), or a structured
    :class:`ErrorInfo` when the request failed.
:class:`PoolCommand`
    A registry mutation: ``create`` / ``update`` / ``drop`` of a live pool.

Every shape round-trips losslessly through ``to_dict()`` / ``from_dict()``
and stamps the stable wire tag ``"v": 1`` (:data:`PROTOCOL_VERSION`) on its
serialized form.  ``from_dict`` performs *located* validation: malformed
payloads raise :class:`~repro.errors.ProtocolError` whose message carries
the caller-supplied ``where`` (``file:line``) and whose ``detail`` mapping
preserves the position machine-readably (field name, array index), so
transports never re-implement their own parsers.

:meth:`SelectionResponse.to_json` writes the text ``json.dumps(to_dict())``
would write, without the dicts: every AltrM answer (named or inline)
carries text its pool's :class:`AltrAnswers` made from Lemma 3 columns,
other answers have their members written by :func:`member_texts`, and both
print the members' numbers with :func:`repro.core.kernels.float_reprs`,
one native call per answer.  An answer whose ``total_cost`` overflows is an
``invalid-requirement`` error (:func:`wire_total_cost`): JSON has no
``Infinity``.
"""

from __future__ import annotations

import json
import math
from collections.abc import Mapping
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii
from typing import NamedTuple

import numpy as np

from repro.api.codes import error_code
from repro.core.kernels import float_reprs
from repro.core.juror import Juror, JurorColumns
from repro.core.selection.base import SelectionResult
from repro.errors import InvalidRequirementError, ProtocolError
from repro.plan import normalize_model

__all__ = [
    "PROTOCOL_VERSION",
    "ErrorInfo",
    "SelectionRequest",
    "SelectionResponse",
    "PoolCommand",
]

#: Stable wire tag stamped on every serialized protocol object.  Bump only
#: on a breaking change to the shapes below; additive fields do not count.
PROTOCOL_VERSION = 1

_VARIANTS = ("paper", "improved")
_METHODS = ("auto", "enumerate", "branch-and-bound")
_POOL_ACTIONS = ("create", "update", "drop")
#: The fields each pool action never applies, by wire name.  A command that
#: carries one is refused, not acknowledged as if it had been applied.
_POOL_FIELDS_REFUSED = {
    "create": ("add", "remove", "set"),
    "update": ("candidates", "replace"),
    "drop": ("candidates", "add", "remove", "set", "replace"),
}


def _located(message: str, where: str, **positions: object) -> ProtocolError:
    """A :class:`ProtocolError` with the position mirrored into ``detail``."""
    detail: dict = {"where": where}
    detail.update({k: v for k, v in positions.items() if v is not None})
    return ProtocolError(f"{where}: {message}", detail=detail)


def _flag(obj: Mapping, name: str, where: str) -> bool:
    """An optional wire flag: a JSON boolean, ``False`` when absent."""
    value = obj.get(name, False)
    if not isinstance(value, bool):
        raise _located(
            f"'{name}' must be true or false, got {type(value).__name__}",
            where,
            field=name,
        )
    return value


def _string(value: object, name: str, where: str) -> str:
    """A wire name (``pool``, a pool command's ``name``): a JSON string."""
    if not isinstance(value, str):
        raise _located(
            f"'{name}' must be a string, got {type(value).__name__}", where, field=name
        )
    return value


def _wire_id(value: object) -> str:
    """A candidate ``id``: a JSON string, or an integer as its decimal text."""
    if isinstance(value, str):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return str(value)
    raise TypeError(f"'id' must be a string or an integer, got {type(value).__name__}")


def _number(value: object, name: str) -> float:
    """A wire number: a JSON number that is not a boolean, as a float."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"'{name}' must be a number, got {type(value).__name__}")
    return float(value)


def _budget(value: object, where: str) -> float | None:
    """An optional ``budget``: a JSON number, not a bool."""
    if value is None:
        return None
    try:
        return _number(value, "budget")
    except TypeError as exc:
        raise _located(str(exc), where, field="budget") from None


def _size_cap(value: object, where: str) -> int | None:
    """An optional ``max_size``: a JSON integer (``3`` or ``3.0``), not a bool."""
    if value is None:
        return None
    if isinstance(value, bool) or not (
        isinstance(value, int) or (isinstance(value, float) and value.is_integer())
    ):
        shown = repr(value) if isinstance(value, (bool, float)) else type(value).__name__
        raise _located(
            f"'max_size' must be an integer, got {shown}", where, field="max_size"
        )
    return int(value)


def _encode_juror(juror: Juror) -> dict:
    return {
        "id": juror.juror_id,
        "error_rate": juror.error_rate,
        "requirement": juror.requirement,
    }


def member_texts(ids, eps, reqs) -> list[str]:
    """Each member's wire object as ``json.dumps`` writes it, from columns.

    ``ids``, ``eps`` and ``reqs`` are the members' ids, error rates and
    requirements (validated, so finite).  Ids go through
    ``encode_basestring_ascii`` and the numbers through
    :func:`~repro.core.kernels.float_reprs`, the calls ``json.dumps`` makes
    for them, all of the numbers in one native call where native is active,
    so the text is byte-identical.
    """
    numbers = float_reprs(np.concatenate((eps, reqs)))
    return [
        f'{{"id": {encode_basestring_ascii(juror_id)}, "error_rate": {error_rate}, '
        f'"requirement": {requirement}}}'
        for juror_id, error_rate, requirement in zip(ids, numbers, numbers[len(ids):])
    ]


def wire_total_cost(requirements: np.ndarray) -> float:
    """The members' ``total_cost`` as an answer carries it on the wire.

    The requirements are summed pairwise, as ``Jury.total_cost`` sums them,
    so the bits match.  A sum that overflows to infinity, which JSON cannot
    carry, raises :class:`~repro.errors.InvalidRequirementError` (wire code
    ``invalid-requirement``) instead.
    """
    with np.errstate(over="ignore"):
        total = float(requirements.sum())
    if math.isinf(total):
        raise InvalidRequirementError(
            f"total_cost overflows: the requirements of the {requirements.size} "
            "selected members sum past the largest finite float"
        )
    return total


class AltrAnswer(NamedTuple):
    """An AltrM answer of one pool (a named pool's version, or an inline
    pool) and size, with its text.

    ``text`` is exactly what ``json.dumps(to_dict())`` writes for the answer
    between ``"status": "ok", `` and the ``pool_version`` or ``timings``
    that follow it.
    """

    jer: float
    members: JurorColumns
    total_cost: float
    text: str


#: Answer sizes a live pool version keeps whole; the oldest is dropped first.
_KEPT_ANSWERS = 8


class AltrAnswers:
    """One pool's AltrM answers, encoded on demand: a live pool version's,
    or an inline pool's.

    By Lemma 3 the ``size``-member answer is the first ``size`` rows of the
    pool's ``columns``, so every answer's members are a prefix of one list
    of member texts (:func:`member_texts`), kept for the longest answer so
    far.  Whole answers are kept for the last ``_KEPT_ANSWERS`` sizes
    only, so memory stays linear in the pool whatever sizes a client
    sweeps.  ``total_cost`` is :func:`wire_total_cost` of the members, so an
    answer whose cost overflows raises instead of being kept.
    """

    __slots__ = ("_columns", "_members", "_kept")

    def __init__(self, columns: JurorColumns) -> None:
        self._columns = columns
        self._members: list[str] = []  # the first rows' texts
        self._kept: dict[int, AltrAnswer] = {}

    def __call__(self, size: int, jer: float) -> AltrAnswer:
        answer = self._kept.get(size)
        if answer is None:
            if len(self._kept) == _KEPT_ANSWERS:
                del self._kept[next(iter(self._kept))]
            answer = self._kept[size] = self._answer(size, jer)
        return answer

    def _answer(self, size: int, jer: float) -> AltrAnswer:
        columns, members = self._columns, self._members
        total_cost = wire_total_cost(columns.reqs[:size])
        done = len(members)
        if size > done:
            members += member_texts(
                columns.ids[done:size], columns.eps[done:size], columns.reqs[done:size]
            )
        head = json.dumps({"model": "AltrM", "algorithm": "AltrALG", "jer": jer,
                           "size": size, "total_cost": total_cost, "budget": None})
        text = f'{head[1:-1]}, "members": [{", ".join(members[:size])}]'
        rows = JurorColumns(columns.ids[:size], columns.eps[:size], columns.reqs[:size])
        return AltrAnswer(jer, rows, total_cost, text)


def _decode_candidates(
    value: object, where: str, *, field_name: str = "candidates"
) -> tuple[Juror, ...]:
    """Parse a JSON candidate array into jurors, with located errors."""
    if not isinstance(value, list) or not value:
        raise _located(
            f"'{field_name}' must be a non-empty array", where, field=field_name
        )
    jurors: list[Juror] = []
    for position, entry in enumerate(value):
        if not isinstance(entry, Mapping):
            raise _located(
                f"candidate #{position} must be an object, "
                f"got {type(entry).__name__}",
                where,
                field=field_name,
                position=position,
            )
        try:
            jurors.append(
                Juror(
                    _number(entry["error_rate"], "error_rate"),
                    _number(entry.get("requirement", 0.0), "requirement"),
                    juror_id=_wire_id(entry["id"]),
                )
            )
        except KeyError as exc:
            raise _located(
                f"candidate #{position} is missing field {exc}",
                where,
                field=field_name,
                position=position,
            ) from exc
        except (TypeError, ValueError, OverflowError) as exc:
            raise _located(
                f"candidate #{position}: {exc}",
                where,
                field=field_name,
                position=position,
            ) from exc
    return tuple(jurors)


def _float_column(values: list) -> np.ndarray | None:
    """JSON numbers as float64, exactly as ``float()`` converts each one.

    ``None`` for anything but plain floats and ints (bools, strings, nulls),
    which are left to the scalar decoder.  A huge integer raises
    :class:`OverflowError`, as ``float()`` does.
    """
    kinds = set(map(type, values))
    if kinds == {float}:
        return np.array(values, dtype=np.float64)
    if kinds <= {float, int}:
        return np.array([float(v) for v in values], dtype=np.float64)
    return None


def _decode_candidate_columns(value: object, where: str) -> JurorColumns:
    """Decode a wire candidate array straight into checked columns.

    The one place inline and pool-create candidate values are checked: every
    row must be an object with an ``id`` (a string, or an integer read as
    its decimal text; non-empty) and an ``error_rate`` finite in (0, 1),
    and its ``requirement`` (default 0.0) must be finite and >= 0 — what
    :class:`Juror` checks, done column-wise.  When any row fails, or holds
    values other than plain JSON numbers, the array goes through
    :func:`_decode_candidates`, so the error raised is its located
    :class:`ProtocolError`, message and ``detail`` included.
    """
    if isinstance(value, list) and value and set(map(type, value)) == {dict}:
        try:
            raw_ids = [row["id"] for row in value]
            if not set(map(type, raw_ids)) <= {str, int}:
                raise TypeError("ids must be strings or integers")
            ids = tuple(map(str, raw_ids))
            eps = _float_column([row["error_rate"] for row in value])
            reqs = _float_column([row.get("requirement", 0.0) for row in value])
        except (KeyError, TypeError, ValueError, OverflowError):
            eps = reqs = None
        if eps is not None and reqs is not None:
            columns = JurorColumns(ids, eps, reqs)
            if columns.valid():
                return columns
    return JurorColumns.from_jurors(_decode_candidates(value, where))


# ----------------------------------------------------------------------
# ErrorInfo
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ErrorInfo:
    """A structured, wire-stable error: code + message (+ position detail).

    ``code`` comes from the registry in :mod:`repro.api.codes` and is the
    machine-readable half of the contract; ``message`` is human-readable and
    may be rephrased between releases.  ``detail``, when present, locates
    the failure (``where``/``field``/``position`` from protocol parsing).
    """

    code: str
    message: str
    detail: Mapping | None = None

    @classmethod
    def from_exception(cls, exc: BaseException, *, where: str | None = None) -> "ErrorInfo":
        """Map an exception to its stable code, preserving parser detail."""
        detail = getattr(exc, "detail", None)
        if where is not None and not (detail and "where" in detail):
            detail = {**(detail or {}), "where": where}
        return cls(code=error_code(exc), message=str(exc), detail=detail)

    def to_dict(self) -> dict:
        payload: dict = {"code": self.code, "message": self.message}
        if self.detail is not None:
            payload["detail"] = dict(self.detail)
        return payload

    @classmethod
    def from_dict(cls, obj: Mapping) -> "ErrorInfo":
        return cls(
            code=str(obj["code"]),
            message=str(obj["message"]),
            detail=dict(obj["detail"]) if "detail" in obj else None,
        )


# ----------------------------------------------------------------------
# SelectionRequest
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class SelectionRequest:
    """One "whom should we ask?" request (wire protocol v1).

    Exactly one candidate source must be given: inline ``candidates`` or a
    registry ``pool`` name.  Inline candidates are held as
    :class:`~repro.core.juror.JurorColumns` — decoded once into checked
    columns, with :class:`Juror` objects built only for the members an
    answer returns; a tuple of jurors is accepted and converted.
    ``explain=True`` asks for the physical plan instead of an executed
    selection (the response carries ``plan`` and no members).  Construction canonicalises the payload — the model string is
    parsed through the plan layer's single parser, numbers are coerced — so
    ``from_dict(request.to_dict()) == request`` holds for every valid
    request.
    """

    task_id: str = "task"
    candidates: JurorColumns | None = None
    pool: str | None = None
    model: str = "altr"
    budget: float | None = None
    max_size: int | None = None
    variant: str = "paper"
    method: str = "auto"
    explain: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "task_id", str(self.task_id))
        if self.candidates is not None:
            if not isinstance(self.candidates, JurorColumns):
                members = tuple(self.candidates)
                if not all(isinstance(j, Juror) for j in members):
                    raise ValueError("all candidates must be Juror instances")
                object.__setattr__(
                    self, "candidates", JurorColumns.from_jurors(members)
                )
            if not self.candidates:
                raise ValueError("'candidates' must be a non-empty array")
        if self.pool is not None and (
            not isinstance(self.pool, str) or not self.pool
        ):
            raise ValueError(f"'pool' must be a non-empty string, got {self.pool!r}")
        if (self.candidates is None) == (self.pool is None):
            raise ValueError(
                "give either 'pool' or 'candidates', not both"
                if self.candidates is not None
                else "request needs a 'pool' reference or inline 'candidates'"
            )
        object.__setattr__(self, "model", normalize_model(self.model))
        if self.budget is not None:
            object.__setattr__(self, "budget", float(self.budget))
        if self.max_size is not None:
            object.__setattr__(self, "max_size", int(self.max_size))
            if self.max_size < 1:
                raise ValueError(
                    f"'max_size' must be a positive integer, got {self.max_size}"
                )
        if self.model == "pay" and self.budget is None:
            raise ValueError("model 'pay' requires a budget")
        if self.variant not in _VARIANTS:
            raise ValueError(
                f"unknown variant {self.variant!r}; expected 'paper' or 'improved'"
            )
        if self.method not in _METHODS:
            raise ValueError(
                f"unknown method {self.method!r}; expected 'auto', 'enumerate' "
                "or 'branch-and-bound'"
            )
        object.__setattr__(self, "explain", bool(self.explain))

    def to_dict(self) -> dict:
        """Wire form; stable under ``from_dict`` round trips."""
        payload: dict = {"v": PROTOCOL_VERSION, "task": self.task_id}
        if self.pool is not None:
            payload["pool"] = self.pool
        else:
            columns = self.candidates
            payload["candidates"] = [
                {"id": juror_id, "error_rate": eps, "requirement": req}
                for juror_id, eps, req in zip(
                    columns.ids, columns.eps.tolist(), columns.reqs.tolist()
                )
            ]
        payload["model"] = self.model
        if self.budget is not None:
            payload["budget"] = self.budget
        if self.max_size is not None:
            payload["max_size"] = self.max_size
        payload["variant"] = self.variant
        payload["method"] = self.method
        if self.explain:
            payload["explain"] = True
        return payload

    @classmethod
    def from_dict(cls, obj: Mapping, *, where: str = "<request>") -> "SelectionRequest":
        """Parse one wire request, raising located :class:`ProtocolError`.

        This is the single request parser behind every transport: the batch
        JSONL query rows, the serve-session ``select`` commands, and the CSV
        single-query mode all build their requests here.
        """
        if not isinstance(obj, Mapping):
            raise _located(
                f"request must be a JSON object, got {type(obj).__name__}", where
            )
        candidates: JurorColumns | None = None
        pool: str | None = None
        if "pool" in obj and "candidates" in obj:
            raise _located("give either 'pool' or 'candidates', not both", where)
        if "pool" in obj:
            pool = _string(obj["pool"], "pool", where)
        elif "candidates" in obj:
            candidates = _decode_candidate_columns(obj["candidates"], where)
        else:
            raise _located(
                "request needs a 'pool' reference or inline 'candidates'", where
            )
        max_size = _size_cap(obj.get("max_size"), where)
        explain = _flag(obj, "explain", where)
        task_id = _string(obj["task"], "task", where) if "task" in obj else "task"
        try:
            return cls(
                task_id=task_id,
                candidates=candidates,
                pool=pool,
                model=obj.get("model", "altr"),
                budget=_budget(obj.get("budget"), where),
                max_size=max_size,
                variant=str(obj.get("variant", "paper")),
                method=str(obj.get("method", "auto")),
                explain=explain,
            )
        except (TypeError, ValueError, OverflowError) as exc:
            detail = getattr(exc, "detail", None)
            if detail is not None:  # already a located ProtocolError
                raise
            raise _located(str(exc), where) from exc


# ----------------------------------------------------------------------
# SelectionResponse
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class SelectionResponse:
    """The service's answer to one :class:`SelectionRequest`.

    ``status`` is ``"ok"`` or ``"error"``.  Ok responses carry the selection
    (or, for explain requests, the embedded ``plan`` and no members); error
    responses carry a structured :class:`ErrorInfo`.  ``elapsed_seconds`` is
    the per-response execution timing, serialized under ``"timings"`` so the
    envelope can grow more phases without a version bump.
    """

    task_id: str
    status: str
    model: str | None = None
    algorithm: str | None = None
    jer: float | None = None
    size: int | None = None
    total_cost: float | None = None
    budget: float | None = None
    members: tuple[Juror, ...] = ()
    pool_version: int | None = None
    plan: Mapping | None = None
    error: ErrorInfo | None = None
    elapsed_seconds: float = 0.0

    def __post_init__(self) -> None:
        if self.status not in ("ok", "error"):
            raise ValueError(f"status must be 'ok' or 'error', got {self.status!r}")
        if (self.status == "error") != (self.error is not None):
            raise ValueError("error responses carry ErrorInfo; ok responses do not")
        object.__setattr__(self, "members", tuple(self.members))

    @property
    def ok(self) -> bool:
        """True when the request produced a selection (or a plan)."""
        return self.status == "ok"

    @classmethod
    def from_result(
        cls,
        task_id: str,
        result: SelectionResult,
        *,
        elapsed_seconds: float = 0.0,
        pool_version: int | None = None,
    ) -> "SelectionResponse":
        """Wrap an executed :class:`SelectionResult`."""
        return cls(
            task_id=task_id,
            status="ok",
            model=result.model,
            algorithm=result.algorithm,
            jer=result.jer,
            size=result.size,
            total_cost=result.total_cost,
            budget=result.budget,
            members=tuple(result.jury),
            pool_version=pool_version,
            elapsed_seconds=elapsed_seconds,
        )

    @classmethod
    def from_answer(
        cls,
        task_id: str,
        answer: AltrAnswer,
        *,
        pool_version: int | None = None,
        elapsed_seconds: float = 0.0,
    ) -> "SelectionResponse":
        """Wrap an encoded AltrM answer (:class:`AltrAnswers`): a named
        pool's, with its version, or an inline pool's, with none.

        The response carries the answer's wire text, which :meth:`to_json`
        writes instead of encoding the fields again.  The text is not a
        field: a copy with any field changed (``dataclasses.replace``) is
        encoded from its fields.  The values are trusted, so the validating
        constructor, which would cost more than the rest of a ready hit's
        answer, is skipped.
        """
        response = object.__new__(cls)
        response.__dict__.update(
            task_id=task_id,
            status="ok",
            model="AltrM",
            algorithm="AltrALG",
            jer=answer.jer,
            size=len(answer.members),
            total_cost=answer.total_cost,
            budget=None,
            members=answer.members,
            pool_version=pool_version,
            plan=None,
            error=None,
            elapsed_seconds=float(elapsed_seconds),
            _text=answer.text,
        )
        return response

    @classmethod
    def from_plan(
        cls,
        task_id: str,
        plan: Mapping,
        *,
        pool_version: int | None = None,
        elapsed_seconds: float = 0.0,
    ) -> "SelectionResponse":
        """Wrap an EXPLAIN answer (a ``SelectionPlan.describe()`` mapping)."""
        return cls(
            task_id=task_id,
            status="ok",
            plan=dict(plan),
            pool_version=pool_version,
            elapsed_seconds=elapsed_seconds,
        )

    @classmethod
    def from_error(
        cls,
        task_id: str,
        error: ErrorInfo,
        *,
        elapsed_seconds: float = 0.0,
    ) -> "SelectionResponse":
        """Wrap a failure as a structured error response."""
        return cls(
            task_id=task_id,
            status="error",
            error=error,
            elapsed_seconds=elapsed_seconds,
        )

    def summary(self) -> str:
        """One-line human-readable description (the CLI text rendering)."""
        if self.status == "error":
            return f"error[{self.error.code}]: {self.error.message}"
        if self.plan is not None:
            return f"plan[{self.plan.get('operator')}]: task={self.task_id}"
        budget_txt = f", budget={self.budget:g}" if self.budget is not None else ""
        return (
            f"{self.algorithm}[{self.model}{budget_txt}]: size={self.size}, "
            f"JER={self.jer:.6g}, cost={self.total_cost:.6g}"
        )

    def _wire_fields(self) -> tuple[dict, tuple[Juror, ...] | None, dict]:
        """The wire fields in wire order: those before ``members``, the
        members (``None`` when the response carries none), those after."""
        head: dict = {
            "v": PROTOCOL_VERSION,
            "task": self.task_id,
            "status": self.status,
        }
        members = None
        if self.status == "error":
            head["error"] = self.error.to_dict()
        elif self.plan is not None:
            head["plan"] = dict(self.plan)
        else:
            head.update(
                model=self.model,
                algorithm=self.algorithm,
                jer=self.jer,
                size=self.size,
                total_cost=self.total_cost,
                budget=self.budget,
            )
            members = self.members
        tail: dict = {}
        if self.pool_version is not None:
            tail["pool_version"] = self.pool_version
        tail["timings"] = {"elapsed_seconds": self.elapsed_seconds}
        return head, members, tail

    def to_dict(self) -> dict:
        """Wire form; stable under ``from_dict`` round trips."""
        head, members, tail = self._wire_fields()
        if members is not None:
            head["members"] = [_encode_juror(j) for j in members]
        head.update(tail)
        return head

    def to_json(self) -> str:
        """The wire form as JSON text: exactly ``json.dumps(self.to_dict())``.

        A response made by :meth:`from_answer` writes the answer text its
        pool's encoder made, after the task, and the version only when the
        answer has one, as ``json.dumps`` does.  Otherwise the envelope goes
        through ``json.dumps``, and the members through :func:`member_texts`,
        which makes the calls ``json.dumps`` would make for them without
        building their dicts.
        """
        text = self.__dict__.get("_text")
        if text is not None:
            version = (
                "" if self.pool_version is None
                else f'"pool_version": {self.pool_version}, '
            )
            return (
                f'{{"v": {PROTOCOL_VERSION}, '
                f'"task": {encode_basestring_ascii(self.task_id)}, '
                f'"status": "ok", {text}, {version}'
                f'"timings": {{"elapsed_seconds": '
                f"{float.__repr__(self.elapsed_seconds)}}}}}"
            )
        head, members, tail = self._wire_fields()
        if members is None:
            head.update(tail)
            return json.dumps(head)
        body = ", ".join(member_texts(
            [j.juror_id for j in members],
            [j.error_rate for j in members],
            [j.requirement for j in members],
        ))
        return f'{json.dumps(head)[:-1]}, "members": [{body}], {json.dumps(tail)[1:]}'

    @classmethod
    def from_dict(cls, obj: Mapping, *, where: str = "<response>") -> "SelectionResponse":
        """Parse one wire response (the client half of the protocol)."""
        if not isinstance(obj, Mapping):
            raise _located(
                f"response must be a JSON object, got {type(obj).__name__}", where
            )
        timings = obj.get("timings") or {}
        try:
            return cls(
                task_id=str(obj.get("task", "task")),
                status=str(obj.get("status", "")),
                model=obj.get("model"),
                algorithm=obj.get("algorithm"),
                jer=obj.get("jer"),
                size=obj.get("size"),
                total_cost=obj.get("total_cost"),
                budget=obj.get("budget"),
                members=_decode_candidates(obj["members"], where, field_name="members")
                if obj.get("members")
                else (),
                pool_version=obj.get("pool_version"),
                plan=dict(obj["plan"]) if "plan" in obj else None,
                error=ErrorInfo.from_dict(obj["error"]) if "error" in obj else None,
                elapsed_seconds=float(timings.get("elapsed_seconds", 0.0)),
            )
        except (TypeError, ValueError, KeyError) as exc:
            detail = getattr(exc, "detail", None)
            if detail is not None:
                raise
            raise _located(str(exc), where) from exc


# ----------------------------------------------------------------------
# PoolCommand
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class PoolCommand:
    """A registry mutation: create, update or drop a live pool.

    ``updates`` holds the ``"set"`` entries as ``(juror_id, error_rate,
    requirement)`` triples where ``None`` means "keep the current value";
    the fill happens at apply time against the pool's live state, so the
    command itself stays a pure value object.  Each action takes only its
    own fields: ``create`` takes ``candidates`` and ``replace``, ``update``
    takes ``add``, ``remove`` and ``updates`` (``"set"``), and ``drop``
    none; a command given another action's field raises ``ValueError``.
    """

    action: str
    name: str
    candidates: tuple[Juror, ...] | JurorColumns | None = None
    add: tuple[Juror, ...] = ()
    remove: tuple[str, ...] = ()
    updates: tuple[tuple[str, float | None, float | None], ...] = ()
    replace: bool = False

    def __post_init__(self) -> None:
        if self.action not in _POOL_ACTIONS:
            raise ValueError(
                f"pool action must be 'create', 'update' or 'drop', "
                f"got {self.action!r}"
            )
        if not isinstance(self.name, str) or not self.name:
            raise ValueError("pool command needs a non-empty 'name'")
        if self.candidates is not None and not isinstance(
            self.candidates, JurorColumns
        ):
            object.__setattr__(self, "candidates", tuple(self.candidates))
        if self.action == "create" and not self.candidates:
            raise ValueError("pool create needs 'candidates'")
        object.__setattr__(self, "add", tuple(self.add))
        object.__setattr__(self, "remove", tuple(str(r) for r in self.remove))
        object.__setattr__(
            self,
            "updates",
            tuple(
                (
                    str(juror_id),
                    None if eps is None else float(eps),
                    None if req is None else float(req),
                )
                for juror_id, eps, req in self.updates
            ),
        )
        object.__setattr__(self, "replace", bool(self.replace))
        given = {
            "candidates": self.candidates is not None,
            "add": self.add,
            "remove": self.remove,
            "set": self.updates,
            "replace": self.replace,
        }
        for field_name in _POOL_FIELDS_REFUSED[self.action]:
            if given[field_name]:
                raise ValueError(f"pool {self.action} takes no {field_name!r}")

    def to_dict(self) -> dict:
        """Wire form; stable under ``from_dict`` round trips."""
        payload: dict = {
            "v": PROTOCOL_VERSION,
            "cmd": "pool",
            "action": self.action,
            "name": self.name,
        }
        if self.candidates is not None:
            payload["candidates"] = [_encode_juror(j) for j in self.candidates]
        if self.replace:
            payload["replace"] = True
        if self.add:
            payload["add"] = [_encode_juror(j) for j in self.add]
        if self.remove:
            payload["remove"] = list(self.remove)
        if self.updates:
            payload["set"] = [
                {"id": juror_id}
                | ({} if eps is None else {"error_rate": eps})
                | ({} if req is None else {"requirement": req})
                for juror_id, eps, req in self.updates
            ]
        return payload

    @classmethod
    def from_dict(cls, obj: Mapping, *, where: str = "<pool>") -> "PoolCommand":
        """Parse one wire pool command, raising located errors."""
        if not isinstance(obj, Mapping):
            raise _located(
                f"pool command must be a JSON object, got {type(obj).__name__}",
                where,
            )
        action = obj.get("action")
        if action not in _POOL_ACTIONS:
            raise _located(
                f"pool action must be 'create', 'update' or 'drop', "
                f"got {action!r}",
                where,
                field="action",
            )
        name = _string(obj.get("name", ""), "name", where)
        if not name:
            raise _located(
                "pool command needs a non-empty 'name'", where, field="name"
            )
        for field_name in _POOL_FIELDS_REFUSED[action]:
            if field_name in obj:
                raise _located(
                    f"pool {action} takes no '{field_name}'", where, field=field_name
                )
        candidates = None
        if action == "create":
            if "candidates" not in obj:
                raise _located(
                    "pool create needs 'candidates'", where, field="candidates"
                )
            candidates = _decode_candidate_columns(obj["candidates"], where)
        removes = obj.get("remove", [])
        adds = obj.get("add", [])
        sets = obj.get("set", [])
        for field_name, value in (("remove", removes), ("add", adds), ("set", sets)):
            if not isinstance(value, list):
                raise _located(
                    f"'{field_name}' must be an array, got {type(value).__name__}",
                    where,
                    field=field_name,
                )
        for position, juror_id in enumerate(removes):
            if not isinstance(juror_id, str):
                raise _located(
                    f"remove entry #{position} must be a string, "
                    f"got {type(juror_id).__name__}",
                    where,
                    field="remove",
                    position=position,
                )
        updates: list[tuple[str, float | None, float | None]] = []
        for position, entry in enumerate(sets):
            if not isinstance(entry, Mapping) or "id" not in entry:
                raise _located(
                    f"set entry #{position} must be an object with an 'id'",
                    where,
                    field="set",
                    position=position,
                )
            try:
                juror_id = entry["id"]
                if not isinstance(juror_id, str):
                    raise TypeError(
                        f"'id' must be a string, got {type(juror_id).__name__}"
                    )
                eps = entry.get("error_rate")
                req = entry.get("requirement")
                updates.append(
                    (
                        juror_id,
                        None if eps is None else _number(eps, "error_rate"),
                        None if req is None else _number(req, "requirement"),
                    )
                )
            except (TypeError, ValueError, OverflowError) as exc:
                raise _located(
                    f"set entry #{position}: {exc}",
                    where,
                    field="set",
                    position=position,
                ) from exc
        return cls(
            action=str(action),
            name=name,
            candidates=candidates,
            add=_decode_candidates(adds, where, field_name="add") if adds else (),
            remove=tuple(removes),
            updates=tuple(updates),
            replace=_flag(obj, "replace", where),
        )
