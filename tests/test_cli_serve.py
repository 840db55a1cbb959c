"""Tests for the ``repro-select serve`` JSONL session."""

from __future__ import annotations

import io
import json
from types import SimpleNamespace

from repro.cli import _build_serve_parser, run_serve
from repro.core.juror import Juror
from repro.core.selection.altr import select_jury_altr


def _drive(lines: list[dict | str], **options) -> tuple[list[dict], int]:
    """Run a serve session over the given command rows; returns (rows, exit)."""
    text = "\n".join(
        line if isinstance(line, str) else json.dumps(line) for line in lines
    )
    args = SimpleNamespace(**options)
    out = io.StringIO()
    code = run_serve(args, stdin=io.StringIO(text + "\n"), stdout=out)
    rows = [json.loads(line) for line in out.getvalue().splitlines()]
    return rows, code


def _pool_create(name="P1", eps=(0.1, 0.2, 0.2, 0.3, 0.3)):
    return {
        "cmd": "pool",
        "action": "create",
        "name": name,
        "candidates": [
            {"id": f"c{i}", "error_rate": e} for i, e in enumerate(eps)
        ],
    }


class TestServeSession:
    def test_create_select_roundtrip(self):
        rows, code = _drive([_pool_create(), {"cmd": "select", "task": "t1", "pool": "P1"}])
        assert code == 0
        assert rows[0] == {
            "v": 1, "ok": True, "cmd": "pool", "action": "create",
            "name": "P1", "version": 0, "size": 5,
        }
        selection = rows[1]
        assert selection["ok"] and selection["task"] == "t1"
        assert selection["pool_version"] == 0
        expected = select_jury_altr(
            [Juror(e, juror_id=f"c{i}") for i, e in enumerate((0.1, 0.2, 0.2, 0.3, 0.3))]
        )
        assert selection["jer"] == expected.jer
        assert [m["id"] for m in selection["members"]] == list(expected.juror_ids)

    def test_interleaved_updates_are_visible_immediately(self):
        rows, code = _drive(
            [
                _pool_create(),
                {"cmd": "select", "task": "before", "pool": "P1"},
                {
                    "cmd": "pool", "action": "update", "name": "P1",
                    "add": [{"id": "ace", "error_rate": 0.02}],
                    "set": [{"id": "c4", "error_rate": 0.45}],
                },
                {"cmd": "select", "task": "after", "pool": "P1"},
                {"cmd": "pool", "action": "update", "name": "P1", "remove": ["ace"]},
                {"cmd": "select", "task": "reverted", "pool": "P1"},
            ]
        )
        assert code == 0
        update = rows[2]
        assert update["version"] == 2 and update["size"] == 6
        before, after, reverted = rows[1], rows[3], rows[5]
        assert after["pool_version"] == 2
        assert "ace" in [m["id"] for m in after["members"]]
        assert after["jer"] < before["jer"]
        assert reverted["pool_version"] == 3
        assert "ace" not in [m["id"] for m in reverted["members"]]

    def test_versions_count_each_mutation(self):
        rows, _ = _drive(
            [
                _pool_create(),
                {
                    "cmd": "pool", "action": "update", "name": "P1",
                    "add": [
                        {"id": "a1", "error_rate": 0.11},
                        {"id": "a2", "error_rate": 0.12},
                    ],
                    "remove": ["c0"],
                    "set": [{"id": "c1", "error_rate": 0.21}],
                },
            ]
        )
        assert rows[1]["version"] == 4  # 1 remove + 2 adds + 1 set

    def test_select_with_inline_candidates(self):
        rows, code = _drive(
            [{"cmd": "select", "task": "t", "candidates": [
                {"id": "solo", "error_rate": 0.4}]}]
        )
        assert code == 0
        assert rows[0]["size"] == 1 and "pool_version" not in rows[0]

    def test_pay_select_over_live_pool(self):
        create = _pool_create()
        for i, member in enumerate(create["candidates"]):
            member["requirement"] = 0.1 * (i + 1)
        rows, code = _drive(
            [create, {"cmd": "select", "task": "t", "pool": "P1",
                      "model": "pay", "budget": 0.6}]
        )
        assert code == 0
        assert rows[1]["ok"] and rows[1]["total_cost"] <= 0.6 + 1e-12

    def test_errors_do_not_end_the_session(self):
        rows, code = _drive(
            [
                {"cmd": "select", "task": "t", "pool": "ghost"},
                "this is not json",
                {"cmd": "pool", "action": "explode", "name": "X"},
                {"cmd": "pool", "action": "create", "name": "P"},  # no candidates
                _pool_create("P2", (0.2, 0.3, 0.4)),
                {"cmd": "select", "task": "works", "pool": "P2"},
            ]
        )
        assert code == 2
        assert [row["ok"] for row in rows] == [False, False, False, False, True, True]
        assert "ghost" in rows[0]["error"]["message"]
        assert rows[0]["error"]["code"] == "pool-not-found"
        assert "invalid JSON" in rows[1]["error"]["message"]
        assert rows[1]["error"]["code"] == "invalid-json"
        assert rows[-1]["task"] == "works"

    def test_string_remove_field_rejected_not_iterated(self):
        """A bare string must not be iterated character by character."""
        rows, code = _drive(
            [
                _pool_create("P", (0.1, 0.2, 0.3)),
                {"cmd": "pool", "action": "update", "name": "P", "remove": "c0"},
                {"cmd": "stats"},
            ]
        )
        assert code == 2
        assert not rows[1]["ok"]
        assert "'remove' must be an array" in rows[1]["error"]["message"]
        assert rows[2]["pools"]["P"] == {"version": 0, "size": 3}  # untouched

    def test_failed_update_is_atomic(self):
        """A bad entry anywhere in an update must leave the pool untouched."""
        rows, code = _drive(
            [
                _pool_create("P", (0.1, 0.2, 0.3)),
                {"cmd": "pool", "action": "update", "name": "P",
                 "remove": ["c0", "ghost"]},
                {"cmd": "pool", "action": "update", "name": "P",
                 "add": [{"id": "n1", "error_rate": 0.15}],
                 "set": [{"id": "c1", "error_rate": 7.0}]},
                {"cmd": "stats"},
            ]
        )
        assert code == 2
        assert not rows[1]["ok"] and "ghost" in rows[1]["error"]["message"]
        assert not rows[2]["ok"] and "set entry #0" in rows[2]["error"]["message"]
        assert rows[3]["pools"]["P"] == {"version": 0, "size": 3}  # untouched

    def test_empty_pool_name_is_a_per_command_error(self):
        """A bad name must not crash the session (errors are per-command)."""
        rows, code = _drive(
            [
                {"cmd": "pool", "action": "create", "name": "",
                 "candidates": [{"id": "a", "error_rate": 0.2}]},
                _pool_create("P", (0.2, 0.3, 0.4)),
                {"cmd": "select", "task": "still-alive", "pool": "P"},
            ]
        )
        assert code == 2
        assert not rows[0]["ok"] and "name" in rows[0]["error"]["message"]
        assert rows[2]["ok"] and rows[2]["task"] == "still-alive"

    def test_drop_invalidates_cached_profile(self):
        """A dropped pool takes its profile and frontier with it: re-created
        under the same name, again at version 0, it is swept afresh and
        answers from its new candidates."""
        rows, code = _drive(
            [
                _pool_create("P", (0.2, 0.3, 0.4)),
                {"cmd": "select", "task": "warm", "pool": "P"},
                {"cmd": "pool", "action": "drop", "name": "P"},
                _pool_create("P", (0.05, 0.3, 0.4)),
                {"cmd": "select", "task": "fresh", "pool": "P"},
                {"cmd": "stats"},
            ]
        )
        assert code == 0
        warm, fresh, stats = rows[1], rows[4], rows[5]
        assert warm["pool_version"] == fresh["pool_version"] == 0
        expected = select_jury_altr(
            [Juror(e, juror_id=f"c{i}") for i, e in enumerate((0.05, 0.3, 0.4))]
        )
        assert fresh["jer"] == expected.jer != warm["jer"]
        assert stats["frontier"]["builds"] == 2 and stats["frontier"]["hits"] == 0

    def test_drop_then_select_fails_cleanly(self):
        rows, code = _drive(
            [
                _pool_create(),
                {"cmd": "pool", "action": "drop", "name": "P1"},
                {"cmd": "select", "task": "t", "pool": "P1"},
            ]
        )
        assert code == 2
        assert rows[1]["ok"] and rows[1]["action"] == "drop"
        assert not rows[2]["ok"] and "P1" in rows[2]["error"]["message"]

    def test_quit_stops_processing(self):
        rows, code = _drive(
            [_pool_create(), {"cmd": "quit"}, {"cmd": "select", "task": "t", "pool": "P1"}]
        )
        assert code == 0
        assert rows[-1] == {"ok": True, "cmd": "quit"}
        assert len(rows) == 2  # the trailing select was never processed

    def test_stats_reports_pools_and_cache(self):
        rows, _ = _drive(
            [
                _pool_create(),
                {"cmd": "select", "task": "a", "pool": "P1"},
                {"cmd": "select", "task": "b", "pool": "P1"},
                {"cmd": "stats"},
            ]
        )
        stats = rows[-1]
        assert stats["pools"] == {"P1": {"version": 0, "size": 5}}
        assert stats["queries_run"] == 2
        assert stats["live_profiles"] == 1
        # The first select builds the version's answer frontier; the
        # repeat is answered from it.  Named pools never reach the in-pass
        # profile counters.
        assert stats["frontier"]["hits"] == 1
        assert stats["frontier"]["builds"] == 1
        assert stats["engine"]["frontier_hits"] == 1
        assert stats["cache"] == {"hits": 0, "misses": 0}
        # Every counter block is surfaced, planner included.
        assert {"hits", "misses", "entries", "maxsize"} <= stats["planner"].keys()

    def test_comments_and_blank_lines_are_skipped(self):
        rows, code = _drive(["# warm-up", "", json.dumps(_pool_create())])
        assert code == 0 and len(rows) == 1

    def test_parser_defaults(self):
        assert vars(_build_serve_parser().parse_args([])) == {"data_dir": None}


class TestServeViaMain:
    def test_main_dispatches_serve(self, monkeypatch, capsys):
        import repro.cli as cli

        monkeypatch.setattr(
            "sys.stdin", io.StringIO(json.dumps(_pool_create()) + "\n")
        )
        code = cli.main(["serve"])
        captured = capsys.readouterr()
        assert code == 0
        assert json.loads(captured.out.splitlines()[0])["ok"] is True


class TestWorkerReaping:
    """EOF, quit and Ctrl-C all close the service."""

    @staticmethod
    def _count_closes(monkeypatch):
        from repro.api import JuryService

        closed = []
        original = JuryService.close
        monkeypatch.setattr(
            JuryService, "close", lambda self: (closed.append(True), original(self))[1]
        )
        return closed

    def test_eof_closes_the_service(self, monkeypatch):
        closed = self._count_closes(monkeypatch)
        _, code = _drive([{"cmd": "stats"}])
        assert code == 0 and closed == [True]

    def test_quit_closes_the_service(self, monkeypatch):
        closed = self._count_closes(monkeypatch)
        _, code = _drive([{"cmd": "quit"}])
        assert code == 0 and closed == [True]

    def test_keyboard_interrupt_closes_the_service_and_exits_130(self, monkeypatch):
        closed = self._count_closes(monkeypatch)

        class InterruptingStdin:
            def __iter__(self):
                return self

            def __next__(self):
                raise KeyboardInterrupt

        args = SimpleNamespace()
        code = run_serve(args, stdin=InterruptingStdin(), stdout=io.StringIO())
        assert code == 130 and closed == [True]
