"""The serve/http CLI over a durable catalog, including the kill -9 smoke.

The crash smoke is the PR's end-to-end bar: a real ``serve`` subprocess
with ``--data-dir`` is killed with SIGKILL mid-churn — no drain, no
``close()`` — and a fresh process over the same directory must answer
selections bit-identically to an in-memory oracle that replays exactly the
mutations the dead process had *acknowledged* (fsync-per-record makes every
acked mutation durable by contract).
"""

from __future__ import annotations

import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

from repro.api import JuryService, SelectionRequest
from repro.cli import _build_http_parser, _build_serve_parser, run_serve
from repro.core.juror import Juror
from repro.service.registry import LivePool
from repro.service import BatchSelectionEngine, PoolRegistry, SelectionQuery

EPS = (0.1, 0.2, 0.2, 0.3, 0.3)


def _drive(lines, **options):
    text = "\n".join(
        line if isinstance(line, str) else json.dumps(line) for line in lines
    )
    args = SimpleNamespace(**options)
    out = io.StringIO()
    code = run_serve(args, stdin=io.StringIO(text + "\n"), stdout=out)
    rows = [json.loads(line) for line in out.getvalue().splitlines()]
    return rows, code


def _pool_create(name="P1", eps=EPS):
    return {
        "cmd": "pool",
        "action": "create",
        "name": name,
        "candidates": [
            {"id": f"c{i}", "error_rate": e} for i, e in enumerate(eps)
        ],
    }


class TestServeDataDir:
    def test_parser_accepts_data_dir(self):
        args = _build_serve_parser().parse_args(["--data-dir", "/tmp/x"])
        assert args.data_dir == "/tmp/x"
        assert _build_serve_parser().parse_args([]).data_dir is None
        http_args = _build_http_parser().parse_args(["--data-dir", "/tmp/y"])
        assert http_args.data_dir == "/tmp/y"

    def test_sessions_share_state_across_restarts(self, tmp_path):
        data_dir = str(tmp_path / "cat")
        rows, code = _drive(
            [
                _pool_create(),
                {"cmd": "pool", "action": "update", "name": "P1",
                 "add": [{"id": "x", "error_rate": 0.15}]},
                {"cmd": "select", "task": "before", "pool": "P1"},
            ],
            data_dir=data_dir,
        )
        assert code == 0
        before = rows[-1]

        rows2, code2 = _drive(
            [{"cmd": "select", "task": "after", "pool": "P1"}],
            data_dir=data_dir,
        )
        assert code2 == 0
        after = rows2[-1]
        assert after["ok"]
        for key in ("members", "jer", "size", "pool_version"):
            assert before[key] == after[key]

    def test_drop_survives_restart(self, tmp_path):
        data_dir = str(tmp_path / "cat")
        rows, code = _drive(
            [_pool_create(), {"cmd": "pool", "action": "drop", "name": "P1"}],
            data_dir=data_dir,
        )
        assert code == 0 and rows[-1]["ok"]

        rows2, code2 = _drive(
            [{"cmd": "select", "task": "t", "pool": "P1"}], data_dir=data_dir
        )
        assert code2 == 2  # per-command error, session survives to EOF
        assert rows2[-1]["error"]["code"] == "pool-not-found"

    def test_env_var_supplies_default(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_DATA_DIR", str(tmp_path / "env-cat"))
        _drive([_pool_create()])
        rows, code = _drive([{"cmd": "select", "task": "t", "pool": "P1"}])
        assert code == 0 and rows[-1]["ok"]

    def test_stats_includes_catalog_block(self, tmp_path):
        rows, code = _drive(
            [_pool_create(), {"cmd": "stats"}],
            data_dir=str(tmp_path / "cat"),
        )
        assert code == 0
        catalog = rows[-1]["catalog"]
        assert catalog["wal_appends"] == 1
        assert catalog["pools"] == 1 and catalog["resident"] == 1


class TestCrashRecoverySmoke:
    def test_kill_dash_nine_mid_churn(self, tmp_path):
        """SIGKILL a serve process mid-churn; a restart must serve selections
        bit-identical to an oracle replaying the acknowledged mutations."""
        data_dir = str(tmp_path / "cat")
        env = dict(os.environ)
        env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
        proc = subprocess.Popen(
            [
                sys.executable, "-c",
                "import sys; from repro.cli import main; "
                "sys.exit(main(['serve', '--data-dir', sys.argv[1]]))",
                data_dir,
            ],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            env=env,
            text=True,
        )
        try:
            acked: list[dict] = []

            def send(command: dict) -> dict:
                proc.stdin.write(json.dumps(command) + "\n")
                proc.stdin.flush()
                row = json.loads(proc.stdout.readline())
                assert row.get("ok"), row
                return row

            send(_pool_create())
            acked.append({"op": "create"})
            for i in range(8):
                send(
                    {
                        "cmd": "pool", "action": "update", "name": "P1",
                        "add": [{"id": f"n{i}", "error_rate": 0.11 + i / 100}],
                    }
                )
                acked.append({"op": "add", "id": f"n{i}", "e": 0.11 + i / 100})
            # Fire one more mutation and kill without reading the ack: it
            # may or may not have landed — both outcomes must recover.
            proc.stdin.write(
                json.dumps(
                    {
                        "cmd": "pool", "action": "update", "name": "P1",
                        "remove": ["c0"],
                    }
                )
                + "\n"
            )
            proc.stdin.flush()
            time.sleep(0.05)
        finally:
            proc.kill()  # SIGKILL: no drain, no flush, no close
            proc.wait(timeout=10)

        service = JuryService(data_dir=data_dir)
        try:
            response = service.select(
                SelectionRequest(task_id="t", pool="P1")
            ).to_dict()
            recovered_version = service.registry.get("P1").version
        finally:
            service.close()

        # Oracle: the acked mutations, plus the unacked remove iff the
        # recovered version says it landed before the kill.
        oracle = LivePool(
            [Juror(e, juror_id=f"c{i}") for i, e in enumerate(EPS)],
            pool_id="P1",
        )
        for mutation in acked[1:]:
            oracle.add_juror(Juror(mutation["e"], juror_id=mutation["id"]))
        assert recovered_version in (len(acked) - 1, len(acked))
        if recovered_version == len(acked):
            oracle.remove_juror("c0")

        registry = PoolRegistry()
        registry._pools["P1"] = oracle
        engine = BatchSelectionEngine(registry=registry)
        outcome = engine.run([SelectionQuery(task_id="t", pool_name="P1")])[0]
        assert outcome.ok
        assert response["jer"] == outcome.result.jer  # bitwise
        assert [m["id"] for m in response["members"]] == [
            j.juror_id for j in outcome.result.jury
        ]
