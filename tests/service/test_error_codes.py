"""Error-code threading: every registered ``ReproError`` raised while a plan
executes surfaces its registered wire code — never the generic ``internal`` —
through the engine, the sync and async services, a ``serve`` row and an
HTTP ``POST /v1/select`` response."""

from __future__ import annotations

import asyncio
import io
import json
from types import SimpleNamespace

import pytest

import repro.service.batch as batch_module
from repro.api import ERROR_CODES, AsyncJuryService, JuryService, SelectionRequest
from repro.api.codes import error_code
from repro.api.server import HttpServer, http_call
from repro.cli import run_serve
from repro.core.juror import Juror, jurors_from_arrays
from repro.errors import InfeasibleSelectionError, ReproError
from repro.service import BatchSelectionEngine, SelectionQuery

#: Every registered ReproError subclass and its wire code.
REPRO_ERROR_CODES = sorted(
    (
        (cls, code)
        for cls, code in ERROR_CODES.items()
        if isinstance(cls, type) and issubclass(cls, ReproError)
    ),
    key=lambda pair: pair[0].__name__,
)

#: ``task_id`` prefix the patched ``execute_plan`` turns into a raise; the
#: suffix names the ReproError subclass, e.g. ``"fault:InvalidJuryError"``.
MARKER = "fault:"

CANDIDATES = tuple(jurors_from_arrays([0.1, 0.2, 0.3]))


@pytest.fixture(autouse=True)
def raising_execute_plan(monkeypatch):
    """Make ``execute_plan`` raise the class a marked task id names."""
    classes = {cls.__name__: cls for cls, _ in REPRO_ERROR_CODES}
    real = batch_module.execute_plan

    def execute(plan, **kwargs):
        if plan.task_id.startswith(MARKER):
            name = plan.task_id[len(MARKER):]
            raise classes[name](f"injected {name}")
        return real(plan, **kwargs)

    monkeypatch.setattr(batch_module, "execute_plan", execute)


def _fault_request(cls: type[BaseException]) -> SelectionRequest:
    return SelectionRequest(task_id=f"{MARKER}{cls.__name__}", candidates=CANDIDATES)


def _ids(pair):
    return getattr(pair, "__name__", pair)


class TestErrorCodeThreading:
    @pytest.mark.parametrize("cls,code", REPRO_ERROR_CODES, ids=_ids)
    def test_engine_outcome_carries_registered_code(self, cls, code):
        engine = BatchSelectionEngine()
        query = SelectionQuery(
            task_id=f"{MARKER}{cls.__name__}", candidates=CANDIDATES, model="exact"
        )
        outcome = engine.run([query])[0]
        assert not outcome.ok
        assert type(outcome.exception) is cls
        assert outcome.error_info.code == code
        assert code != "internal"

    @pytest.mark.parametrize("cls,code", REPRO_ERROR_CODES, ids=_ids)
    def test_select_many_response_carries_registered_code(self, cls, code):
        fine = SelectionRequest(task_id="fine", candidates=CANDIDATES, model="exact")
        failed, ok = JuryService().select_many([_fault_request(cls), fine])
        assert failed.status == "error"
        assert failed.error.code == code
        assert ok.status == "ok"

    @pytest.mark.parametrize("cls,code", REPRO_ERROR_CODES, ids=_ids)
    def test_async_service_carries_registered_code(self, cls, code):
        async def drive():
            service = AsyncJuryService()
            fine = SelectionRequest(task_id="fine", candidates=CANDIDATES)
            try:
                return await asyncio.gather(
                    service.select(_fault_request(cls)), service.select(fine)
                )
            finally:
                await service.aclose()

        failed, fine = asyncio.run(drive())
        assert failed.status == "error" and failed.error.code == code
        assert fine.status == "ok"

    @pytest.mark.parametrize("cls,code", REPRO_ERROR_CODES, ids=_ids)
    def test_http_select_body_carries_registered_code(self, cls, code):
        async def drive():
            async with HttpServer(port=0) as server:
                reader, writer = await asyncio.open_connection(server.host, server.port)
                try:
                    return await http_call(
                        reader, writer, "POST", "/v1/select", _fault_request(cls).to_dict()
                    )
                finally:
                    writer.close()

        status, body = asyncio.run(drive())
        # A failed selection is an answer, not a transport failure.
        assert status == 200
        assert body["status"] == "error"
        assert body["error"]["code"] == code

    def test_genuine_infeasible_budget_threads_its_own_code(self):
        """A real domain failure (infeasible budget) carries its own class
        and code; the patched ``execute_plan`` is not involved."""
        pricey = (Juror(0.2, 99.0, juror_id="rich"),)
        outcome = BatchSelectionEngine().run(
            [SelectionQuery(task_id="bad", candidates=pricey, model="pay", budget=1.0)]
        )[0]
        assert isinstance(outcome.exception, InfeasibleSelectionError)
        assert outcome.error_info.code == error_code(InfeasibleSelectionError)

    @pytest.mark.parametrize("cls,code", REPRO_ERROR_CODES, ids=_ids)
    def test_serve_cli_row_carries_registered_code(self, cls, code):
        commands = [
            {
                "cmd": "select",
                "task": f"{MARKER}{cls.__name__}",
                "candidates": [
                    {"id": "a", "error_rate": 0.1},
                    {"id": "b", "error_rate": 0.2},
                    {"id": "c", "error_rate": 0.3},
                ],
            },
            {"cmd": "quit"},
        ]
        stdin = io.StringIO("\n".join(json.dumps(c) for c in commands) + "\n")
        stdout = io.StringIO()
        exit_code = run_serve(SimpleNamespace(), stdin=stdin, stdout=stdout)
        rows = [json.loads(line) for line in stdout.getvalue().splitlines()]
        assert exit_code == 2  # the failed select marks the session
        assert rows[0]["ok"] is False
        assert rows[0]["error"]["code"] == code
