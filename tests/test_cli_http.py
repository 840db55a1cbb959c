"""Tests for the ``repro-select http`` network server subcommand.

The in-process protocol behaviour is covered by ``tests/api/test_server.py``;
these tests cover the CLI shell around it: argument defaults, the announce
line, and the real-process lifecycle — SIGTERM drains gracefully and exits 0.
"""

from __future__ import annotations

import json
import os
import select
import signal
import subprocess
import sys
import urllib.request
from pathlib import Path

import pytest

import repro
from repro.cli import _build_http_parser

#: The installed package's source root, so the subprocess imports the same
#: code under test regardless of the pytest invocation directory.
SRC = str(Path(repro.__file__).resolve().parents[1])

CANDIDATES = [
    {"id": f"c{i}", "error_rate": 0.05 + 0.03 * i, "requirement": 0.1 * (i % 4)}
    for i in range(9)
]


def _read_line(proc: subprocess.Popen, timeout: float = 60.0) -> str:
    ready, _, _ = select.select([proc.stdout], [], [], timeout)
    assert ready, "server never printed its announce line"
    return proc.stdout.readline().strip()


def _post(base: str, path: str, payload: dict) -> dict:
    request = urllib.request.Request(
        base + path,
        data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request, timeout=30) as response:
        return json.load(response)


def _get(base: str, path: str) -> dict:
    with urllib.request.urlopen(base + path, timeout=30) as response:
        return json.load(response)


class TestParser:
    def test_defaults(self):
        args = _build_http_parser().parse_args([])
        assert args.host == "127.0.0.1" and args.port == 8732
        assert args.max_batch == 128 and args.max_pending == 1024
        assert args.max_connections == 512
        assert "cache_size" not in vars(args) and "no_frontier" not in vars(args)

    def test_knobs_parse(self):
        args = _build_http_parser().parse_args(["--port", "0", "--max-pending", "7"])
        assert args.port == 0 and args.max_pending == 7


class TestServerProcess:
    @pytest.fixture
    def server(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli", "http", "--port", "0",
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
        )
        announce = _read_line(proc)
        assert announce.startswith("serving on http://"), announce
        try:
            yield proc, announce.split()[-1]
        finally:
            if proc.poll() is None:
                proc.kill()
            proc.wait(timeout=30)

    def test_sigterm_drains_and_exits_zero(self, server):
        proc, base = server
        answer = _post(
            base,
            "/v1/select",
            {"v": 1, "task": "t1", "candidates": CANDIDATES},
        )
        assert answer["status"] == "ok" and answer["task"] == "t1"

        stats = _get(base, "/v1/stats")
        assert stats["async"]["answered"] == 1
        assert stats["server"]["requests_served"] >= 1

        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=60) == 0
        assert "drained, shutting down" in proc.stderr.read()

    def test_healthz_and_bit_identity_over_subprocess(self, server):
        proc, base = server
        health = _get(base, "/healthz")
        assert health["ok"] is True and health["status"] == "serving"

        # Same request twice — deterministic answer.
        payload = {"v": 1, "task": "t", "candidates": CANDIDATES}
        first = _post(base, "/v1/select", payload)
        second = _post(base, "/v1/select", payload)
        first.pop("timings"), second.pop("timings")
        assert first == second

        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=60) == 0
