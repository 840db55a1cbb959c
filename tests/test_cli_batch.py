"""Tests for the ``repro-select batch`` CLI subcommand."""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.core.juror import Juror
from repro.core.selection.altr import select_jury_altr
from repro.core.selection.pay import select_jury_pay

FIGURE1 = [
    ("A", 0.1, 0.20),
    ("B", 0.2, 0.20),
    ("C", 0.2, 0.20),
    ("D", 0.3, 0.40),
    ("E", 0.3, 0.65),
    ("F", 0.4, 0.10),
    ("G", 0.4, 0.10),
]

#: Key sets the JSONL output schema is pinned to; extending them is a
#: breaking change for downstream consumers and must be deliberate.
#: Protocol v1 (repro.api): rows carry the "v" wire tag and per-response
#: "timings"; error rows carry a structured {"code", "message"} object.
OK_ROW_KEYS = {
    "v", "task", "status", "model", "algorithm", "jer", "size",
    "total_cost", "budget", "members", "timings",
}
ERROR_ROW_KEYS = {"v", "task", "status", "line", "error"}
ERROR_INFO_KEYS = {"code", "message"}  # + optional "detail"
MEMBER_KEYS = {"id", "error_rate", "requirement"}


def _candidates_json():
    return [
        {"id": cid, "error_rate": eps, "requirement": req}
        for cid, eps, req in FIGURE1
    ]


def _jurors():
    return [Juror(eps, req, juror_id=cid) for cid, eps, req in FIGURE1]


def _write_jsonl(tmp_path, rows, name="queries.jsonl"):
    path = tmp_path / name
    path.write_text("\n".join(json.dumps(r) if isinstance(r, dict) else r for r in rows) + "\n")
    return path


def _parse_output(capsys):
    out = capsys.readouterr().out
    return [json.loads(line) for line in out.strip().splitlines()]


class TestRoundTrip:
    def test_shared_pool_round_trip(self, tmp_path, capsys):
        path = _write_jsonl(
            tmp_path,
            [
                {"pool": "P1", "candidates": _candidates_json()},
                {"task": "t1", "pool": "P1"},
                {"task": "t2", "pool": "P1", "model": "pay", "budget": 1.0},
                {"task": "t3", "pool": "P1", "model": "exact", "budget": 1.0},
            ],
        )
        assert main(["batch", str(path)]) == 0
        rows = _parse_output(capsys)
        assert [r["task"] for r in rows] == ["t1", "t2", "t3"]
        assert all(r["status"] == "ok" for r in rows)

        altr = select_jury_altr(_jurors())
        assert rows[0]["jer"] == pytest.approx(altr.jer)
        assert {m["id"] for m in rows[0]["members"]} == set(altr.juror_ids)

        pay = select_jury_pay(_jurors(), budget=1.0)
        assert rows[1]["jer"] == pytest.approx(pay.jer)
        assert rows[1]["budget"] == 1.0

        assert rows[2]["algorithm"].startswith("OPT")
        assert rows[2]["jer"] <= rows[1]["jer"] + 1e-12

    def test_inline_candidates_and_max_size(self, tmp_path, capsys):
        path = _write_jsonl(
            tmp_path,
            [{"task": "t1", "candidates": _candidates_json(), "max_size": 3}],
        )
        assert main(["batch", str(path)]) == 0
        (row,) = _parse_output(capsys)
        assert row["size"] <= 3
        single = select_jury_altr(_jurors(), max_size=3)
        assert row["jer"] == pytest.approx(single.jer)

    def test_output_file(self, tmp_path, capsys):
        path = _write_jsonl(
            tmp_path, [{"task": "t1", "candidates": _candidates_json()}]
        )
        out = tmp_path / "results.jsonl"
        assert main(["batch", str(path), "--out", str(out)]) == 0
        assert capsys.readouterr().out == ""
        rows = [json.loads(line) for line in out.read_text().strip().splitlines()]
        assert rows[0]["task"] == "t1" and rows[0]["status"] == "ok"

    def test_comments_and_blank_lines_skipped(self, tmp_path, capsys):
        path = _write_jsonl(
            tmp_path,
            [
                "# a comment",
                "",
                {"task": "t1", "candidates": _candidates_json()},
            ],
        )
        assert main(["batch", str(path)]) == 0
        assert len(_parse_output(capsys)) == 1


class TestSchemaStability:
    def test_ok_row_schema(self, tmp_path, capsys):
        path = _write_jsonl(
            tmp_path, [{"task": "t1", "candidates": _candidates_json()}]
        )
        assert main(["batch", str(path)]) == 0
        (row,) = _parse_output(capsys)
        assert set(row) == OK_ROW_KEYS
        for member in row["members"]:
            assert set(member) == MEMBER_KEYS

    def test_error_row_schema(self, tmp_path, capsys):
        path = _write_jsonl(tmp_path, ["{broken json"])
        assert main(["batch", str(path)]) == 2
        (row,) = _parse_output(capsys)
        assert set(row) == ERROR_ROW_KEYS
        assert row["status"] == "error"
        assert row["v"] == 1
        assert set(row["error"]) - {"detail"} == ERROR_INFO_KEYS
        assert row["error"]["code"] == "invalid-json"


class TestDiagnosticsAndExitCodes:
    def test_malformed_rows_reported_with_line_numbers(self, tmp_path, capsys):
        path = _write_jsonl(
            tmp_path,
            [
                {"task": "good", "candidates": _candidates_json()},
                "this is not json",
                {"task": "orphan", "pool": "UNDEFINED"},
                {"task": "noval"},
                {"task": "badeps", "candidates": [{"id": "x", "error_rate": 7.0}]},
            ],
        )
        assert main(["batch", str(path)]) == 2
        captured = capsys.readouterr()
        rows = [json.loads(line) for line in captured.out.strip().splitlines()]
        assert len(rows) == 5
        assert rows[0]["status"] == "ok"
        assert [r["status"] for r in rows[1:]] == ["error"] * 4
        assert rows[1]["line"] == 2
        assert rows[2]["line"] == 3 and "UNDEFINED" in rows[2]["error"]["message"]
        assert rows[2]["error"]["code"] == "pool-not-found"
        assert rows[3]["line"] == 4 and "pool" in rows[3]["error"]["message"]
        assert rows[4]["line"] == 5
        # Parser errors locate the offending field machine-readably.
        assert rows[4]["error"]["code"] == "bad-request"
        assert rows[4]["error"]["detail"]["position"] == 0
        # stderr diagnostics carry file:line locations
        assert f"{path}:2" in captured.err
        assert f"{path}:3" in captured.err

    def test_infeasible_query_sets_exit_code_2(self, tmp_path, capsys):
        path = _write_jsonl(
            tmp_path,
            [
                {"task": "t1", "candidates": [
                    {"id": "x", "error_rate": 0.2, "requirement": 9.0}],
                 "model": "pay", "budget": 1.0},
            ],
        )
        assert main(["batch", str(path)]) == 2
        (row,) = _parse_output(capsys)
        assert row["status"] == "error"
        assert "affordable" in row["error"]["message"]
        assert row["error"]["code"] == "infeasible-selection"
        assert row["line"] == 1  # engine failures carry the input line too

    def test_missing_input_is_fatal(self, tmp_path, capsys):
        assert main(["batch", str(tmp_path / "nope.jsonl")]) == 1
        assert "error:" in capsys.readouterr().err

    def test_no_query_rows_is_fatal(self, tmp_path, capsys):
        path = _write_jsonl(
            tmp_path, [{"pool": "P1", "candidates": _candidates_json()}]
        )
        assert main(["batch", str(path)]) == 1
        assert "no query rows" in capsys.readouterr().err

    def test_pay_without_budget_is_row_error(self, tmp_path, capsys):
        path = _write_jsonl(
            tmp_path,
            [{"task": "t1", "candidates": _candidates_json(), "model": "pay"}],
        )
        assert main(["batch", str(path)]) == 2
        (row,) = _parse_output(capsys)
        assert row["status"] == "error" and "budget" in row["error"]["message"]

    @pytest.mark.parametrize("value", [None, 5, ["x"]], ids=repr)
    def test_pool_definition_rejects_non_string_name(self, value, tmp_path, capsys):
        """A pool-definition row's ``pool`` is checked like a query row's:
        a JSON string, never coerced into a pool named ``str(value)``."""
        path = _write_jsonl(
            tmp_path,
            [
                {"pool": value, "candidates": _candidates_json()},
                {"task": "t", "pool": str(value)},
            ],
        )
        assert main(["batch", str(path)]) == 2
        captured = capsys.readouterr()
        definition, query = [json.loads(line) for line in captured.out.splitlines()]
        assert definition["line"] == 1
        assert definition["error"]["code"] == "bad-request"
        assert definition["error"]["detail"] == {"where": f"{path}:1", "field": "pool"}
        assert "'pool' must be a string" in definition["error"]["message"]
        assert f"{path}:1: 'pool' must be a string" in captured.err
        # Nothing was created under the coerced name.
        assert query["error"]["code"] == "pool-not-found"

    def test_unknown_model_is_row_error(self, tmp_path, capsys):
        path = _write_jsonl(
            tmp_path,
            [{"task": "t1", "candidates": _candidates_json(), "model": "wat"}],
        )
        assert main(["batch", str(path)]) == 2
        (row,) = _parse_output(capsys)
        assert "model" in row["error"]["message"]


class TestLegacyModeUnaffected:
    def test_csv_mode_still_works(self, tmp_path, capsys):
        csv_path = tmp_path / "c.csv"
        csv_path.write_text(
            "id,error_rate,requirement\n"
            + "\n".join(f"{c},{e},{r}" for c, e, r in FIGURE1)
            + "\n"
        )
        assert main([str(csv_path), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["model"] == "AltrM" and payload["size"] == 5


class TestWorkerReaping:
    def test_batch_closes_its_service_on_exit(self, tmp_path, capsys, monkeypatch):
        """run_batch closes the service on every exit path, including
        row-error exits."""
        from repro.api import JuryService

        closed = []
        original = JuryService.close
        monkeypatch.setattr(
            JuryService, "close", lambda self: (closed.append(True), original(self))[1]
        )
        path = _write_jsonl(tmp_path, [{"task": "t1", "candidates": _candidates_json()}])
        assert main(["batch", str(path)]) == 0
        assert closed == [True]

        closed.clear()
        bad = _write_jsonl(tmp_path, [{"task": "t1", "model": "wat"}], name="bad.jsonl")
        assert main(["batch", str(bad)]) == 2
        assert closed == [True]

    def test_single_query_and_explain_close_their_service(self, tmp_path, capsys, monkeypatch):
        from repro.api import JuryService

        closed = []
        original = JuryService.close
        monkeypatch.setattr(
            JuryService, "close", lambda self: (closed.append(True), original(self))[1]
        )
        csv_path = tmp_path / "c.csv"
        csv_path.write_text(
            "id,error_rate,requirement\n"
            + "\n".join(f"{c},{e},{r}" for c, e, r in FIGURE1)
            + "\n"
        )
        assert main([str(csv_path)]) == 0
        assert closed == [True]
        closed.clear()
        assert main(["explain", str(csv_path)]) == 0
        assert closed == [True]
