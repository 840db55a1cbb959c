"""Round-trip and validation properties of wire protocol v1.

The protocol's contract is ``from_dict(x.to_dict()) == x`` for every valid
value — including across an actual JSON encode/decode — plus located errors
for everything invalid.  The round trips are exercised property-style with
hypothesis so numeric edge cases (tiny/huge floats, long member lists) are
covered, not just the happy path.
"""

from __future__ import annotations

import asyncio
import dataclasses
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import (
    ErrorInfo,
    PoolCommand,
    PROTOCOL_VERSION,
    SelectionRequest,
    SelectionResponse,
)
from repro.api.protocol import AltrAnswers
from repro.api.server import HttpServer, http_call
from repro.core.juror import Juror, JurorColumns
from repro.errors import ProtocolError

# ----------------------------------------------------------------------
# strategies
# ----------------------------------------------------------------------

_ids = st.text(
    alphabet=st.characters(whitelist_categories=("L", "Nd"), max_codepoint=0x2FF),
    min_size=1,
    max_size=8,
)
_eps = st.floats(min_value=1e-9, max_value=1.0 - 1e-9, exclude_max=True)
_reqs = st.floats(min_value=0.0, max_value=1e6)


@st.composite
def jurors(draw) -> tuple[Juror, ...]:
    """Small candidate tuples with unique ids."""
    ids = draw(st.lists(_ids, min_size=1, max_size=6, unique=True))
    return tuple(
        Juror(draw(_eps), draw(_reqs), juror_id=juror_id) for juror_id in ids
    )


@st.composite
def selection_requests(draw) -> SelectionRequest:
    use_pool = draw(st.booleans())
    model = draw(st.sampled_from(["altr", "pay", "exact"]))
    budget = draw(_reqs) if model == "pay" or draw(st.booleans()) else None
    return SelectionRequest(
        task_id=draw(_ids),
        candidates=None if use_pool else draw(jurors()),
        pool=draw(_ids) if use_pool else None,
        model=model,
        budget=budget,
        max_size=draw(st.one_of(st.none(), st.integers(1, 99))),
        variant=draw(st.sampled_from(["paper", "improved"])),
        method=draw(st.sampled_from(["auto", "enumerate", "branch-and-bound"])),
        explain=draw(st.booleans()),
    )


@st.composite
def error_infos(draw) -> ErrorInfo:
    detail = draw(
        st.one_of(
            st.none(),
            st.dictionaries(_ids, st.one_of(_ids, st.integers(0, 9)), max_size=3),
        )
    )
    return ErrorInfo(code=draw(_ids), message=draw(_ids), detail=detail)


@st.composite
def selection_responses(draw) -> SelectionResponse:
    kind = draw(st.sampled_from(["ok", "plan", "error"]))
    elapsed = draw(st.floats(min_value=0.0, max_value=1e3))
    if kind == "error":
        return SelectionResponse.from_error(
            draw(_ids), draw(error_infos()), elapsed_seconds=elapsed
        )
    if kind == "plan":
        return SelectionResponse.from_plan(
            draw(_ids),
            {"operator": draw(_ids), "pool_size": draw(st.integers(1, 99))},
            pool_version=draw(st.one_of(st.none(), st.integers(0, 99))),
            elapsed_seconds=elapsed,
        )
    members = draw(jurors())
    return SelectionResponse(
        task_id=draw(_ids),
        status="ok",
        model=draw(st.sampled_from(["AltrM", "PayM"])),
        algorithm=draw(_ids),
        jer=draw(_eps),
        size=len(members),
        total_cost=draw(_reqs),
        budget=draw(st.one_of(st.none(), _reqs)),
        members=members,
        pool_version=draw(st.one_of(st.none(), st.integers(0, 99))),
        elapsed_seconds=elapsed,
    )


@st.composite
def pool_commands(draw) -> PoolCommand:
    action = draw(st.sampled_from(["create", "update", "drop"]))
    if action == "create":
        return PoolCommand(
            action=action,
            name=draw(_ids),
            candidates=draw(jurors()),
            replace=draw(st.booleans()),
        )
    if action == "drop":
        return PoolCommand(action=action, name=draw(_ids))
    updates = draw(
        st.lists(
            st.tuples(
                _ids,
                st.one_of(st.none(), _eps),
                st.one_of(st.none(), _reqs),
            ),
            max_size=3,
        )
    )
    return PoolCommand(
        action=action,
        name=draw(_ids),
        add=draw(st.one_of(st.just(()), jurors())),
        remove=tuple(draw(st.lists(_ids, max_size=3))),
        updates=tuple(updates),
    )


# ----------------------------------------------------------------------
# round-trip properties
# ----------------------------------------------------------------------


class TestRoundTrips:
    @given(request=selection_requests())
    @settings(max_examples=200, deadline=None)
    def test_request_round_trip_identity(self, request):
        wire = request.to_dict()
        assert wire["v"] == PROTOCOL_VERSION
        assert SelectionRequest.from_dict(wire) == request
        # ... and across an actual JSON encode/decode.
        assert SelectionRequest.from_dict(json.loads(json.dumps(wire))) == request

    @given(response=selection_responses())
    @settings(max_examples=200, deadline=None)
    def test_response_round_trip_identity(self, response):
        wire = response.to_dict()
        assert wire["v"] == PROTOCOL_VERSION
        assert SelectionResponse.from_dict(wire) == response
        assert SelectionResponse.from_dict(json.loads(json.dumps(wire))) == response

    @given(command=pool_commands())
    @settings(max_examples=200, deadline=None)
    def test_pool_command_round_trip_identity(self, command):
        wire = command.to_dict()
        assert wire["v"] == PROTOCOL_VERSION and wire["cmd"] == "pool"
        assert PoolCommand.from_dict(wire) == command
        assert PoolCommand.from_dict(json.loads(json.dumps(wire))) == command

    @given(info=error_infos())
    @settings(max_examples=100, deadline=None)
    def test_error_info_round_trip_identity(self, info):
        assert ErrorInfo.from_dict(json.loads(json.dumps(info.to_dict()))) == info


# ----------------------------------------------------------------------
# the text encoder: byte-identical to json.dumps(to_dict())
# ----------------------------------------------------------------------

_plain_text = st.text(st.characters(categories=("L", "N", "P", "S", "Zs", "Cc")), max_size=6)
#: Any text, lone surrogates included (``json.dumps`` escapes them).
_wire_text = st.one_of(
    _plain_text.filter(bool),
    st.builds(
        lambda left, surrogate, right: left + chr(surrogate) + right,
        _plain_text,
        st.integers(0xD800, 0xDFFF),
        _plain_text,
    ),
)
_edge_eps = st.one_of(_eps, st.sampled_from([5e-324, 1 - 2**-53]))
_edge_reqs = st.one_of(_reqs, st.just(-0.0))


@st.composite
def wire_responses(draw) -> SelectionResponse:
    """Responses of every kind over text and numbers at the encoders' edges."""
    kind = draw(st.sampled_from(["ok", "plan", "error"]))
    task = draw(_wire_text)
    version = draw(st.one_of(st.none(), st.integers(0, 2**40)))
    elapsed = draw(st.floats(min_value=0.0, max_value=1e3))
    if kind == "error":
        detail = draw(st.one_of(st.none(), st.dictionaries(_wire_text, _wire_text, max_size=2)))
        info = ErrorInfo(code=draw(_wire_text), message=draw(_wire_text), detail=detail)
        return SelectionResponse.from_error(task, info, elapsed_seconds=elapsed)
    if kind == "plan":
        plan = {"operator": draw(_wire_text), "cost": draw(_edge_eps)}
        return SelectionResponse.from_plan(
            task, plan, pool_version=version, elapsed_seconds=elapsed
        )
    members = tuple(
        Juror(draw(_edge_eps), draw(_edge_reqs), juror_id=juror_id)
        for juror_id in draw(st.lists(_wire_text, max_size=5))
    )
    return SelectionResponse(
        task_id=task,
        status="ok",
        model="AltrM",
        algorithm=draw(_wire_text),
        jer=draw(_edge_eps),
        size=len(members),
        total_cost=draw(_edge_reqs),
        budget=draw(st.one_of(st.none(), _edge_reqs)),
        members=members,
        pool_version=version,
        elapsed_seconds=elapsed,
    )


@st.composite
def answer_responses(draw) -> SelectionResponse:
    """Responses carrying the text a live pool keeps for an answer."""
    ids = draw(st.lists(_wire_text, min_size=1, max_size=12, unique=True))
    members = tuple(
        Juror(draw(_edge_eps), draw(_edge_reqs), juror_id=juror_id) for juror_id in ids
    )
    answers = AltrAnswers(JurorColumns.from_jurors(members))
    # Answers of other sizes first, so the members text is sliced and grown.
    for size in draw(st.lists(st.integers(1, len(members)), max_size=3)):
        answers(size, 0.5)
    size = draw(st.integers(1, len(members)))
    answer = answers(size, draw(_edge_eps))
    return SelectionResponse.from_answer(
        draw(_wire_text),
        answer,
        pool_version=draw(st.integers(0, 2**40)),
        elapsed_seconds=draw(st.floats(min_value=0.0, max_value=1e3)),
    )


class TestTextEncoder:
    @given(response=st.one_of(wire_responses(), answer_responses()))
    @settings(max_examples=300, deadline=None)
    def test_to_json_is_json_dumps_of_to_dict(self, response):
        assert response.to_json() == json.dumps(response.to_dict())
        # A second encode of the same response writes the same text.
        assert response.to_json() == json.dumps(response.to_dict())

    def test_carried_text_never_outlives_a_field_change(self):
        members = (Juror(0.1, 0.5, juror_id="a"), Juror(0.2, 0.25, juror_id="b"),
                   Juror(0.3, 0.0, juror_id="c"))
        answer = AltrAnswers(JurorColumns.from_jurors(members))(3, 0.125)
        response = SelectionResponse.from_answer("t", answer, pool_version=4)
        assert response == SelectionResponse(
            task_id="t", status="ok", model="AltrM", algorithm="AltrALG", jer=0.125,
            size=3, total_cost=0.75, budget=None, members=members, pool_version=4,
        )
        for changes in ({"task_id": "other"}, {"jer": 0.5}, {"members": members[:1]},
                        {"total_cost": 9.0}, {"pool_version": 5}, {"budget": 1.0}):
            changed = dataclasses.replace(response, **changes)
            assert changed.to_json() == json.dumps(changed.to_dict())
            assert changed.to_json() != response.to_json()

    def test_edge_values_and_a_member_encoded_twice(self):
        shared = Juror(5e-324, -0.0, juror_id="\ud800é")
        other = Juror(1 - 2**-53, 0.25, juror_id="日本\udfff")
        first, second = (
            SelectionResponse(
                task_id=task, status="ok", model="AltrM", algorithm="AltrALG",
                jer=0.5, size=2, total_cost=0.25, budget=None,
                members=members, pool_version=None,
            )
            for task, members in (("\udfff", (shared, other)), ("t2", (other, shared)))
        )
        for response in (first, second, first):
            assert response.to_json() == json.dumps(response.to_dict())
        assert '"requirement": -0.0' in first.to_json()
        assert '"error_rate": 5e-324' in first.to_json()
        assert '"budget": null' in first.to_json()
        assert "pool_version" not in first.to_json()

    def test_member_less_ok_response(self):
        empty = SelectionResponse(task_id="t", status="ok", members=(), pool_version=3)
        assert empty.to_json() == json.dumps(empty.to_dict())


# ----------------------------------------------------------------------
# canonicalisation + validation
# ----------------------------------------------------------------------


class TestRequestValidation:
    def test_model_aliases_are_canonicalised(self):
        request = SelectionRequest(pool="P", model="AltrM")
        assert request.model == "altr"
        assert SelectionRequest(pool="P", model="PayM", budget=1).budget == 1.0

    def test_both_sources_rejected(self):
        with pytest.raises(ValueError, match="not both"):
            SelectionRequest(candidates=(Juror(0.1, juror_id="a"),), pool="P")

    def test_neither_source_rejected(self):
        with pytest.raises(ValueError, match="pool"):
            SelectionRequest(task_id="t")

    def test_pay_requires_budget(self):
        with pytest.raises(ValueError, match="budget"):
            SelectionRequest(pool="P", model="pay")

    def test_from_dict_locates_bad_candidate(self):
        with pytest.raises(ProtocolError) as excinfo:
            SelectionRequest.from_dict(
                {"task": "t", "candidates": [{"id": "a", "error_rate": 0.2}, {"id": "b"}]},
                where="q.jsonl:7",
            )
        assert "q.jsonl:7" in str(excinfo.value)
        assert "candidate #1" in str(excinfo.value)
        assert excinfo.value.detail == {
            "where": "q.jsonl:7",
            "field": "candidates",
            "position": 1,
        }

    def test_from_dict_locates_unknown_model(self):
        with pytest.raises(ProtocolError, match=r"q\.jsonl:3.*model"):
            SelectionRequest.from_dict(
                {"task": "t", "candidates": [{"id": "a", "error_rate": 0.2}],
                 "model": "wat"},
                where="q.jsonl:3",
            )

    def test_from_dict_rejects_non_object(self):
        with pytest.raises(ProtocolError, match="object"):
            SelectionRequest.from_dict(["nope"], where="w")


_MODEL_FIELDS = {"altr": {}, "pay": {"budget": 2.0}, "exact": {"budget": 1.5}}
_CAPS = pytest.mark.parametrize("max_size", [0, -3])
_MODELS = pytest.mark.parametrize("model", sorted(_MODEL_FIELDS))


def _capped_request(model: str, max_size: int) -> dict:
    candidates = [
        {"id": f"c{i}", "error_rate": 0.1 + 0.05 * i, "requirement": 0.4}
        for i in range(5)
    ]
    return {"v": 1, "task": "t", "candidates": candidates, "model": model,
            "max_size": max_size, **_MODEL_FIELDS[model]}


class TestNonPositiveMaxSize:
    """A cap below one juror is a bad request at the edge, for every model."""

    @_MODELS
    @_CAPS
    def test_from_dict_locates_it(self, model, max_size):
        with pytest.raises(ProtocolError, match=r"q\.jsonl:2.*max_size") as excinfo:
            SelectionRequest.from_dict(_capped_request(model, max_size), where="q.jsonl:2")
        assert excinfo.value.detail == {"where": "q.jsonl:2"}

    @_MODELS
    @_CAPS
    def test_post_select_answers_400(self, model, max_size):
        async def post():
            async with HttpServer(port=0) as server:
                reader, writer = await asyncio.open_connection(server.host, server.port)
                try:
                    return await http_call(
                        reader, writer, "POST", "/v1/select",
                        _capped_request(model, max_size),
                    )
                finally:
                    writer.close()

        status, body = asyncio.run(post())
        assert status == 400
        assert body["error"]["code"] == "bad-request"
        assert "max_size" in body["error"]["message"]


def _post(path: str, *payloads: dict) -> list[tuple[int, dict]]:
    """POST each payload in turn over one connection to a fresh server."""

    async def run():
        async with HttpServer(port=0) as server:
            reader, writer = await asyncio.open_connection(server.host, server.port)
            try:
                return [
                    await http_call(reader, writer, "POST", path, payload)
                    for payload in payloads
                ]
            finally:
                writer.close()

    return asyncio.run(run())


_POOL_ROWS = [
    {"id": f"c{i}", "error_rate": 0.1 + 0.05 * i, "requirement": 0.4} for i in range(4)
]
_BAD_SELECT_FIELDS = pytest.mark.parametrize(
    "field,value",
    [
        ("explain", "false"),
        ("explain", 0),
        ("explain", None),
        ("max_size", 2.9),
        ("max_size", True),
        ("max_size", "3"),
        ("budget", True),
        ("budget", "2.5"),
    ],
)
_NOT_STRINGS = pytest.mark.parametrize("value", [None, 5, ["x"]], ids=repr)


class TestWireFlagsAndCaps:
    """Flags must be JSON booleans, ``max_size`` a JSON integer, ``budget`` a
    JSON number and names JSON strings; nothing is coerced, so ``"false"``
    can never mean true and ``null`` never names the pool ``"None"``."""

    @_BAD_SELECT_FIELDS
    def test_select_from_dict_rejects(self, field, value):
        row = {"task": "t", "candidates": _POOL_ROWS, field: value}
        with pytest.raises(ProtocolError, match=rf"q\.jsonl:4.*'{field}'") as excinfo:
            SelectionRequest.from_dict(row, where="q.jsonl:4")
        assert excinfo.value.detail == {"where": "q.jsonl:4", "field": field}

    @_BAD_SELECT_FIELDS
    def test_post_select_answers_400(self, field, value):
        [(status, body)] = _post(
            "/v1/select", {"task": "t", "candidates": _POOL_ROWS, field: value}
        )
        assert status == 400
        assert body["error"]["code"] == "bad-request"
        assert body["error"]["detail"]["field"] == field

    @_NOT_STRINGS
    def test_select_from_dict_rejects_non_string_pool(self, value):
        with pytest.raises(ProtocolError, match="'pool' must be a string") as excinfo:
            SelectionRequest.from_dict({"task": "t", "pool": value}, where="q.jsonl:4")
        assert excinfo.value.detail == {"where": "q.jsonl:4", "field": "pool"}

    @_NOT_STRINGS
    def test_post_select_non_string_pool_answers_400(self, value):
        # Pools named as str() of each value exist, so a coerced name would
        # answer 200 from one of them.
        async def run():
            async with HttpServer(port=0) as server:
                reader, writer = await asyncio.open_connection(server.host, server.port)
                try:
                    for name in ("None", "5", "['x']"):
                        create = {"action": "create", "name": name, "candidates": _POOL_ROWS}
                        status, _ = await http_call(reader, writer, "POST", "/v1/pool", create)
                        assert status == 200
                    select = {"task": "t", "pool": value}
                    return await http_call(reader, writer, "POST", "/v1/select", select)
                finally:
                    writer.close()

        status, body = asyncio.run(run())
        assert status == 400
        assert body["error"]["code"] == "bad-request"
        assert body["error"]["detail"]["field"] == "pool"

    @_NOT_STRINGS
    def test_pool_from_dict_rejects_non_string_name(self, value):
        row = {"action": "create", "name": value, "candidates": _POOL_ROWS}
        with pytest.raises(ProtocolError, match="'name' must be a string") as excinfo:
            PoolCommand.from_dict(row, where="POST /v1/pool")
        assert excinfo.value.detail == {"where": "POST /v1/pool", "field": "name"}

    @_NOT_STRINGS
    def test_post_pool_non_string_name_answers_400(self, value):
        create = {"cmd": "pool", "action": "create", "name": value, "candidates": _POOL_ROWS}
        [(status, body)] = _post("/v1/pool", create)
        assert status == 400
        assert body["error"]["code"] == "bad-request"
        assert body["error"]["detail"]["field"] == "name"

    def test_integral_float_cap_is_an_integer(self):
        request = SelectionRequest.from_dict(
            {"task": "t", "candidates": _POOL_ROWS, "max_size": 3.0}
        )
        assert request.max_size == 3 and isinstance(request.max_size, int)

    @pytest.mark.parametrize("value", ["false", 0, None])
    def test_pool_from_dict_rejects_non_boolean_replace(self, value):
        row = {"action": "create", "name": "P", "candidates": _POOL_ROWS, "replace": value}
        with pytest.raises(ProtocolError, match="'replace'") as excinfo:
            PoolCommand.from_dict(row, where="POST /v1/pool")
        assert excinfo.value.detail == {"where": "POST /v1/pool", "field": "replace"}

    def test_post_pool_replace_string_keeps_the_pool(self):
        create = {"cmd": "pool", "action": "create", "name": "P", "candidates": _POOL_ROWS[:1]}
        grow = {"cmd": "pool", "action": "update", "name": "P", "add": _POOL_ROWS[1:]}
        replace = {**create, "replace": "false"}
        (_, created), (_, grown), (status, body), (_, after) = _post(
            "/v1/pool", create, grow, replace, {**grow, "add": [], "remove": []}
        )
        assert created["version"] == 0 and grown["version"] == 3
        assert status == 400
        assert body["error"]["code"] == "bad-request"
        assert body["error"]["detail"]["field"] == "replace"
        assert (after["version"], after["size"]) == (3, 4)


    # Numbers and names that used to be coerced with float() / str().
    _NON_NUMBERS = pytest.mark.parametrize("value", [True, "0.1"], ids=repr)
    _NUMBER_FIELDS = pytest.mark.parametrize("name", ["error_rate", "requirement"])

    @staticmethod
    def _rows_with(name: str, value) -> list[dict]:
        rows = [dict(row) for row in _POOL_ROWS]
        rows[2][name] = value
        return rows

    @_NON_NUMBERS
    @_NUMBER_FIELDS
    def test_candidate_numbers_must_be_numbers(self, name, value):
        rows = self._rows_with(name, value)
        for parse, obj, field in (
            (SelectionRequest.from_dict, {"task": "t", "candidates": rows}, "candidates"),
            (PoolCommand.from_dict, {"action": "create", "name": "P", "candidates": rows},
             "candidates"),
            (PoolCommand.from_dict, {"action": "update", "name": "P", "add": rows}, "add"),
        ):
            with pytest.raises(ProtocolError, match=f"candidate #2: '{name}' must be a number"
                               ) as excinfo:
                parse(obj, where="w")
            assert excinfo.value.detail == {"where": "w", "field": field, "position": 2}

    @_NON_NUMBERS
    @_NUMBER_FIELDS
    def test_post_candidate_numbers_answer_400(self, name, value):
        rows = self._rows_with(name, value)
        [select] = _post("/v1/select", {"task": "t", "candidates": rows})
        create, (status, after) = _post(
            "/v1/pool",
            {"action": "create", "name": "P", "candidates": rows},
            {"action": "update", "name": "P"},
        )
        for status_, body in (select, create):
            assert status_ == 400
            assert body["error"]["code"] == "bad-request"
            assert body["error"]["detail"]["field"] == "candidates"
            assert body["error"]["detail"]["position"] == 2
        assert (status, after["error"]["code"]) == (404, "pool-not-found")

    # Ids that used to become jurors "None", "True", "{'a': 1}", ...
    _NON_IDS = pytest.mark.parametrize("value", [None, True, 1.5, {"a": 1}, ["x"]], ids=repr)

    @_NON_IDS
    def test_candidate_ids_must_be_strings_or_integers(self, value):
        rows = self._rows_with("id", value)
        for parse, obj, field in (
            (SelectionRequest.from_dict, {"task": "t", "candidates": rows}, "candidates"),
            (PoolCommand.from_dict, {"action": "create", "name": "P", "candidates": rows},
             "candidates"),
            (PoolCommand.from_dict, {"action": "update", "name": "P", "add": rows}, "add"),
        ):
            with pytest.raises(
                ProtocolError, match="candidate #2: 'id' must be a string or an integer"
            ) as excinfo:
                parse(obj, where="w")
            assert excinfo.value.detail == {"where": "w", "field": field, "position": 2}

    @_NON_IDS
    def test_post_candidate_ids_answer_400(self, value):
        rows = self._rows_with("id", value)
        [select] = _post("/v1/select", {"task": "t", "candidates": rows})
        create, (_, created), add, (_, after) = _post(
            "/v1/pool",
            {"action": "create", "name": "P", "candidates": rows},
            {"action": "create", "name": "P", "candidates": _POOL_ROWS[:2]},
            {"action": "update", "name": "P", "add": rows[2:]},
            {"action": "update", "name": "P"},
        )
        for (status, body), field, position in (
            (select, "candidates", 2), (create, "candidates", 2), (add, "add", 0)
        ):
            assert status == 400
            assert body["error"]["code"] == "bad-request"
            assert body["error"]["detail"]["field"] == field
            assert body["error"]["detail"]["position"] == position
        assert (created["version"], after["version"], after["size"]) == (0, 0, 2)

    @_NON_NUMBERS
    @_NUMBER_FIELDS
    def test_set_numbers_must_be_numbers(self, name, value):
        row = {"action": "update", "name": "P", "set": [{"id": "c0"}, {"id": "c1", name: value}]}
        with pytest.raises(ProtocolError, match=f"set entry #1: '{name}' must be a number"
                           ) as excinfo:
            PoolCommand.from_dict(row, where="w")
        assert excinfo.value.detail == {"where": "w", "field": "set", "position": 1}

    def test_post_set_boolean_requirement_keeps_the_pool(self):
        create = {"action": "create", "name": "P", "candidates": _POOL_ROWS}
        update = {"action": "update", "name": "P", "set": [{"id": "c1", "requirement": True}]}
        (_, created), (status, body), (_, after) = _post(
            "/v1/pool", create, update, {"action": "update", "name": "P"}
        )
        assert created["version"] == 0
        assert status == 400
        assert body["error"]["detail"] == {
            "where": "POST /v1/pool", "field": "set", "position": 0
        }
        assert after["version"] == 0

    @_NOT_STRINGS
    def test_task_must_be_a_string(self, value):
        with pytest.raises(ProtocolError, match="'task' must be a string") as excinfo:
            SelectionRequest.from_dict({"task": value, "pool": "P"}, where="w")
        assert excinfo.value.detail == {"where": "w", "field": "task"}

    @_NOT_STRINGS
    def test_post_non_string_task_answers_400(self, value):
        [(status, body)] = _post("/v1/select", {"task": value, "candidates": _POOL_ROWS})
        assert status == 400
        assert body["error"]["code"] == "bad-request"
        assert body["error"]["detail"]["field"] == "task"

    def test_absent_task_keeps_its_default(self):
        assert SelectionRequest.from_dict({"pool": "P"}).task_id == "task"

    @_NOT_STRINGS
    def test_remove_entries_must_be_strings(self, value):
        row = {"action": "update", "name": "P", "remove": ["c0", value]}
        with pytest.raises(ProtocolError, match="remove entry #1 must be a string") as excinfo:
            PoolCommand.from_dict(row, where="w")
        assert excinfo.value.detail == {"where": "w", "field": "remove", "position": 1}

    @_NOT_STRINGS
    def test_set_ids_must_be_strings(self, value):
        row = {"action": "update", "name": "P", "set": [{"id": value, "error_rate": 0.2}]}
        with pytest.raises(ProtocolError, match="set entry #0: 'id' must be a string"
                           ) as excinfo:
            PoolCommand.from_dict(row, where="w")
        assert excinfo.value.detail == {"where": "w", "field": "set", "position": 0}

    @_NOT_STRINGS
    def test_post_non_string_juror_names_keep_the_pool(self, value):
        # Jurors named as str() of each value exist, so a coerced name would
        # remove or re-estimate one of them.
        rows = [{"id": name, "error_rate": 0.1 + 0.1 * i}
                for i, name in enumerate(("None", "5", "['x']"))]
        create = {"action": "create", "name": "P", "candidates": rows}
        remove = {"action": "update", "name": "P", "remove": [value]}
        reset = {"action": "update", "name": "P", "set": [{"id": value, "error_rate": 0.4}]}
        noop = {"action": "update", "name": "P"}
        (_, created), (removed, body), (reset_status, reset_body), (_, after) = _post(
            "/v1/pool", create, remove, reset, noop
        )
        assert created["size"] == 3
        assert (removed, reset_status) == (400, 400)
        assert body["error"]["detail"]["field"] == "remove"
        assert reset_body["error"]["detail"]["field"] == "set"
        assert (after["version"], after["size"]) == (0, 3)


class TestResponseValidation:
    def test_status_must_be_known(self):
        with pytest.raises(ValueError, match="status"):
            SelectionResponse(task_id="t", status="meh")

    def test_error_status_requires_error_info(self):
        with pytest.raises(ValueError, match="ErrorInfo"):
            SelectionResponse(task_id="t", status="error")
        with pytest.raises(ValueError, match="ErrorInfo"):
            SelectionResponse(
                task_id="t", status="ok", error=ErrorInfo("x", "y")
            )

    def test_ok_property(self):
        ok = SelectionResponse.from_plan("t", {"operator": "altr-sweep"})
        bad = SelectionResponse.from_error("t", ErrorInfo("internal", "boom"))
        assert ok.ok and not bad.ok


class TestPoolCommandValidation:
    def test_unknown_action(self):
        with pytest.raises(ProtocolError, match="explode"):
            PoolCommand.from_dict({"action": "explode", "name": "P"}, where="w")

    def test_create_needs_candidates(self):
        with pytest.raises(ProtocolError, match="candidates"):
            PoolCommand.from_dict({"action": "create", "name": "P"}, where="w")

    def test_scalar_update_fields_rejected(self):
        with pytest.raises(ProtocolError, match="'remove' must be an array"):
            PoolCommand.from_dict(
                {"action": "update", "name": "P", "remove": "c0"}, where="w"
            )

    def test_set_entry_needs_id(self):
        with pytest.raises(ProtocolError, match="set entry #0"):
            PoolCommand.from_dict(
                {"action": "update", "name": "P", "set": [{"error_rate": 0.5}]},
                where="w",
            )


# Each pool action's misplaced fields, as a wire value and as the
# constructor's keyword argument.
_MISPLACED_POOL_FIELDS = pytest.mark.parametrize(
    "action, field",
    [
        ("create", "add"), ("create", "remove"), ("create", "set"),
        ("update", "candidates"), ("update", "replace"),
        ("drop", "candidates"), ("drop", "add"), ("drop", "remove"),
        ("drop", "set"), ("drop", "replace"),
    ],
)
_WIRE_VALUES = {
    "candidates": _POOL_ROWS[:1],
    "add": _POOL_ROWS[:1],
    "remove": ["c0"],
    "set": [{"id": "c0", "error_rate": 0.4}],
    "replace": True,
}
_KWARGS = {
    "candidates": ("candidates", (Juror(0.1, juror_id="c0"),)),
    "add": ("add", (Juror(0.1, juror_id="c0"),)),
    "remove": ("remove", ("c0",)),
    "set": ("updates", (("c0", 0.4, None),)),
    "replace": ("replace", True),
}


class TestMisplacedPoolFields:
    """A pool command carrying a field its action never applies is refused:
    ``create`` takes no ``add``/``remove``/``set``, ``update`` no
    ``candidates``/``replace``, ``drop`` none of the five.  Acknowledging
    such a command would claim a change that never happened."""

    @_MISPLACED_POOL_FIELDS
    def test_from_dict_refuses_the_field(self, action, field):
        row = {"action": action, "name": "P", field: _WIRE_VALUES[field]}
        if action == "create":
            row["candidates"] = _POOL_ROWS
        with pytest.raises(ProtocolError, match=f"pool {action} takes no '{field}'"
                           ) as excinfo:
            PoolCommand.from_dict(row, where="w")
        assert excinfo.value.detail == {"where": "w", "field": field}

    @pytest.mark.parametrize("action, field", [("create", "remove"), ("update", "replace")])
    def test_from_dict_refuses_an_empty_or_false_field_too(self, action, field):
        row = {"action": action, "name": "P", field: [] if field == "remove" else False}
        if action == "create":
            row["candidates"] = _POOL_ROWS
        with pytest.raises(ProtocolError, match=f"takes no '{field}'"):
            PoolCommand.from_dict(row, where="w")

    @_MISPLACED_POOL_FIELDS
    def test_constructor_refuses_the_field(self, action, field):
        name, value = _KWARGS[field]
        kwargs = {name: value}
        if action == "create":
            kwargs["candidates"] = (Juror(0.2, juror_id="c1"),)
        with pytest.raises(ValueError, match=f"pool {action} takes no '{field}'"):
            PoolCommand(action=action, name="P", **kwargs)

    def test_post_create_with_remove_and_set_creates_nothing(self):
        create = {"action": "create", "name": "P", "candidates": [
            {"id": "A", "error_rate": 0.1}, {"id": "B", "error_rate": 0.2},
        ]}
        stray = {**create, "remove": ["B"], "set": [{"id": "A", "error_rate": 0.4}]}
        (status, body), (_, created) = _post("/v1/pool", stray, create)
        assert status == 400
        assert body["error"]["code"] == "bad-request"
        assert body["error"]["detail"] == {"where": "POST /v1/pool", "field": "remove"}
        # No pool was made, so a plain create of the name still succeeds.
        assert (created["ok"], created["version"], created["size"]) == (True, 0, 2)

    def test_post_misplaced_fields_keep_the_pool(self):
        create = {"action": "create", "name": "P", "candidates": _POOL_ROWS}
        update = {"action": "update", "name": "P", "candidates": _POOL_ROWS[:1], "replace": True}
        drop = {"action": "drop", "name": "P", "add": [{"id": "z", "error_rate": 0.3}]}
        (_, created), (update_status, update_body), (drop_status, drop_body), (_, after) = _post(
            "/v1/pool", create, update, drop, {"action": "update", "name": "P"}
        )
        assert created["version"] == 0
        for status, body, field in (
            (update_status, update_body, "candidates"), (drop_status, drop_body, "add")
        ):
            assert status == 400
            assert body["error"]["code"] == "bad-request"
            assert body["error"]["detail"] == {"where": "POST /v1/pool", "field": field}
        assert (after["version"], after["size"]) == (0, len(_POOL_ROWS))
