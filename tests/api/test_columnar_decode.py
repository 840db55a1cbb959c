"""The columnar candidate decoder against the scalar one.

``SelectionRequest.from_dict`` decodes inline candidates straight into
checked columns.  The scalar decoder (one validated ``Juror`` per row) is
the oracle: on every input, valid or not, the column decoder must produce
the same ids, error rates and requirements, bit for bit, or raise the
identical located ``ProtocolError``, message and ``detail`` included.
Numbers out of float range are bad requests (HTTP 400), not internal
errors.
"""

from __future__ import annotations

import asyncio
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import SelectionRequest
from repro.api.protocol import _decode_candidate_columns, _decode_candidates
from repro.api.server import HttpServer, http_call
from repro.core.juror import Juror, JurorColumns
from repro.errors import ProtocolError

WHERE = "test:1"

numbers = st.one_of(
    st.floats(min_value=0.001, max_value=0.999),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, -0.0, 1.0, 0.5, -1e-300, 5e-324, 1e308]),
    st.integers(min_value=-3, max_value=3),
    st.sampled_from([10**400, -(10**400), 2**63 + 1]),
)
odd_values = st.one_of(
    st.none(),
    st.booleans(),
    st.sampled_from(["0.5", "", "abc", "nan", "1e400"]),
    st.lists(st.integers(), max_size=2),
)
ids = st.one_of(
    st.text(max_size=4),
    st.sampled_from(["", "a\x00", "\x00", "\ud800", "x\udfff", "5"]),
    st.integers(min_value=-5, max_value=10**20),
    st.floats(allow_nan=False),
    st.none(),
    st.booleans(),
)
good_rows = st.fixed_dictionaries(
    {
        "id": st.text(min_size=1, max_size=4),
        "error_rate": st.floats(min_value=0.001, max_value=0.999),
    },
    optional={"requirement": st.floats(min_value=0.0, max_value=10.0)},
)
any_rows = st.fixed_dictionaries(
    {},
    optional={
        "id": ids,
        "error_rate": st.one_of(numbers, odd_values),
        "requirement": st.one_of(numbers, odd_values),
    },
)
not_rows = st.one_of(st.none(), st.integers(), st.text(max_size=3), st.lists(st.integers(), max_size=2))
#: The values at the edges of each check, tried in every field and position.
EDGE_VALUES = [
    0.0, -0.0, 1.0, 0, 1, -1, 0.5, 5e-324, math.nan, math.inf, -math.inf,
    10**400, -(10**400), 2**63 + 1, True, False, None, "0.5", "", [1],
]
EDGE_IDS = ["", "a\x00", "\ud800", 5, 1.5, None, True, [1]]


@st.composite
def one_defect(draw):
    """Valid rows with exactly one row broken in one way."""
    rows = draw(st.lists(good_rows, min_size=1, max_size=6))
    k = draw(st.integers(min_value=0, max_value=len(rows) - 1))
    kind = draw(st.sampled_from(["id", "error_rate", "requirement", "missing", "row"]))
    if kind == "row":
        rows[k] = draw(not_rows)
    elif kind == "missing":
        dropped = draw(st.sampled_from(["id", "error_rate"]))
        rows[k] = {key: v for key, v in rows[k].items() if key != dropped}
    else:
        bad = ids if kind == "id" else st.one_of(numbers, odd_values)
        rows[k] = {**rows[k], kind: draw(bad)}
    return rows


arrays = st.one_of(
    one_defect(),
    st.lists(good_rows, min_size=1, max_size=6),
    st.lists(st.one_of(good_rows, any_rows), min_size=1, max_size=6),
    st.lists(st.one_of(good_rows, any_rows, not_rows), max_size=6),
    st.one_of(st.none(), st.integers(), st.text(max_size=3), st.dictionaries(st.text(max_size=2), st.integers(), max_size=2)),
)


def _bits(values) -> list[int]:
    return np.asarray(values, dtype=np.float64).view(np.uint64).tolist()


def _assert_matches_scalar(value) -> None:
    try:
        jurors = _decode_candidates(value, WHERE)
    except ProtocolError as expected:
        with pytest.raises(ProtocolError) as raised:
            _decode_candidate_columns(value, WHERE)
        assert str(raised.value) == str(expected)
        assert raised.value.detail == expected.detail
        return
    columns = _decode_candidate_columns(value, WHERE)
    assert isinstance(columns, JurorColumns)
    assert columns.ids == tuple(j.juror_id for j in jurors)
    assert _bits(columns.eps) == _bits([j.error_rate for j in jurors])
    assert _bits(columns.reqs) == _bits([j.requirement for j in jurors])
    assert columns == jurors


class TestDecoderOracle:
    @given(arrays)
    @settings(max_examples=400, deadline=None)
    def test_columns_match_the_scalar_decoder(self, value):
        _assert_matches_scalar(value)

    def test_every_edge_value_in_every_field_and_position(self):
        defects = [{"id": v} for v in EDGE_IDS]
        defects += [{"error_rate": v} for v in EDGE_VALUES]
        defects += [{"requirement": v} for v in EDGE_VALUES]
        for position in range(3):
            for defect in defects:
                rows = [{"id": f"j{k}", "error_rate": 0.25} for k in range(3)]
                rows[position] = {**rows[position], **defect}
                _assert_matches_scalar(rows)
            for key in ("id", "error_rate"):
                rows = [{"id": f"j{k}", "error_rate": 0.25} for k in range(3)]
                del rows[position][key]
                _assert_matches_scalar(rows)
            for row in (None, 3, "row", [1, 2]):
                rows = [{"id": f"j{k}", "error_rate": 0.25} for k in range(3)]
                rows[position] = row
                _assert_matches_scalar(rows)

    def test_numeric_ids_are_coerced_like_the_scalar_path(self):
        columns = _decode_candidate_columns([{"id": 5, "error_rate": 0.2}], WHERE)
        assert columns.ids == ("5",)
        assert columns[0] == Juror(0.2, juror_id="5")

    def test_first_bad_row_is_located(self):
        rows = [{"id": "a", "error_rate": 0.2}, {"id": "b", "error_rate": 1.5}]
        with pytest.raises(ProtocolError) as raised:
            SelectionRequest.from_dict({"candidates": rows}, where=WHERE)
        assert raised.value.detail == {
            "where": WHERE, "field": "candidates", "position": 1,
        }

    def test_request_round_trips_through_the_wire_form(self):
        jurors = (Juror(0.3, 1.0, juror_id="b"), Juror(0.1, juror_id="a\x00"))
        request = SelectionRequest(task_id="t", candidates=jurors, model="pay", budget=2)
        assert isinstance(request.candidates, JurorColumns)
        assert request.candidates == jurors
        again = SelectionRequest.from_dict(request.to_dict())
        assert again == request
        assert again.to_dict() == request.to_dict()

    def test_members_are_built_on_access_and_cached(self):
        request = SelectionRequest.from_dict(
            {"candidates": [{"id": "a", "error_rate": 0.2, "requirement": 1}]}
        )
        first = request.candidates[0]
        assert first is request.candidates[0]
        assert first == Juror(0.2, 1.0, juror_id="a")


OVERFLOW = 10**400


class TestOutOfRangeNumbersAre400:
    """``float()``/``int()`` overflow is a located bad request, per field."""

    @staticmethod
    def _post(path, payload):
        async def run():
            async with HttpServer(port=0) as server:
                reader, writer = await asyncio.open_connection(server.host, server.port)
                try:
                    return await http_call(reader, writer, "POST", path, payload)
                finally:
                    writer.close()

        return asyncio.run(run())

    def _assert_bad_request(self, path, payload, **detail):
        status, body = self._post(path, payload)
        assert status == 400
        assert body["error"]["code"] == "bad-request"
        for key, value in detail.items():
            assert body["error"]["detail"][key] == value

    @staticmethod
    def _select(**fields):
        row = {"id": "a", "error_rate": 0.2}
        row.update(fields.pop("row", {}))
        return {"v": 1, "task": "t", "candidates": [row], **fields}

    def test_select_error_rate(self):
        self._assert_bad_request(
            "/v1/select", self._select(row={"error_rate": OVERFLOW}),
            field="candidates", position=0,
        )

    def test_select_requirement(self):
        self._assert_bad_request(
            "/v1/select", self._select(row={"requirement": -OVERFLOW}),
            field="candidates", position=0,
        )

    def test_select_budget(self):
        self._assert_bad_request(
            "/v1/select", self._select(model="pay", budget=OVERFLOW),
            where="POST /v1/select",
        )

    def test_select_max_size_infinity(self):
        self._assert_bad_request(
            "/v1/select", self._select(max_size=math.inf), where="POST /v1/select"
        )

    def test_pool_set_entry(self):
        self._assert_bad_request(
            "/v1/pool",
            {"v": 1, "cmd": "pool", "action": "update", "name": "P",
             "set": [{"id": "a", "error_rate": OVERFLOW}]},
            field="set", position=0,
        )

    def test_pool_add_entry(self):
        self._assert_bad_request(
            "/v1/pool",
            {"v": 1, "cmd": "pool", "action": "update", "name": "P",
             "add": [{"id": "z", "error_rate": 0.2, "requirement": OVERFLOW}]},
            field="add", position=0,
        )
