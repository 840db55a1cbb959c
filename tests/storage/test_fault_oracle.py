"""The standing fault oracle: a scripted session failed at every storage call.

A scripted session (two creates, single ``set`` updates, remove + add
pairs, one command that crosses a snapshot and a compaction, a ``create``
with ``replace``, a drop, a reopen) runs through
``JuryService(catalog=PoolCatalog(dir, snapshot_interval=4))``.  It is then
rerun once for every storage call it makes — every ``os.write``,
``os.fsync``, ``os.ftruncate`` and ``os.replace`` of ``repro.storage.wal``,
``repro.storage.snapshot`` and ``repro.storage.catalog``, and every
``np.save`` of a snapshot — with that call failed by each of five faults:
ENOSPC, EIO, a short write, a failed fsync, and a crash (an exception that
abandons the process's state; nothing after it reaches the disk, and
recovery runs on a copy of the data directory).  After each failure:

* every acknowledged command is recovered;
* the unacknowledged command is absent or fully applied, never half
  applied;
* memory equals a recovery of a copy of the directory — except after a
  failed WAL fsync, whose pool keeps its last acknowledged version in
  memory and refuses writes until restart;
* the other pools keep answering;
* every error the client saw is ``storage-unavailable``, a registered code.

The faults of a ``create`` with ``replace`` are checked apart, as a strict
xfail: the old pool is dropped before the new one is written into the same
directory, so a failure between the two leaves neither.
"""

from __future__ import annotations

import asyncio
import errno
import functools
import io
import json
import os
import shutil
from types import SimpleNamespace

import numpy as np
import pytest

import repro.storage.catalog as catalog_module
import repro.storage.snapshot as snapshot_module
import repro.storage.wal as wal_module
from repro.api import (
    ERROR_CODES,
    AsyncJuryService,
    ErrorInfo,
    JuryService,
    PoolCommand,
    SelectionRequest,
)
from repro.api.server import HttpServer, http_call
from repro.cli import run_serve
from repro.core.juror import Juror
from repro.errors import PoolNotFoundError, StorageUnavailableError
from repro.storage import PoolCatalog, list_snapshot_versions, pool_slug
from repro.storage.wal import MAGIC

OS_CALLS = frozenset({"write", "fsync", "ftruncate", "replace"})
KINDS = ("enospc", "eio", "short-write", "fsync", "crash")


class Crash(BaseException):
    """The process dies at this storage call."""


class Faults:
    """Logs the storage calls the storage modules make, failing one on demand."""

    def __init__(self) -> None:
        self.log: list[str] = []
        self.kind: str | None = None
        self.when = None
        self.crashed = False

    def arm(self, kind: str, when) -> None:
        """Fail the first call for which ``when(index, name, args)`` holds."""
        self.kind, self.when = kind, when

    def disarm(self) -> None:
        self.kind = self.when = None
        self.crashed = False

    def call(self, name: str, real, *args, **kwargs):
        if self.crashed:
            raise Crash
        index = len(self.log)
        self.log.append(name)
        if self.when is None or not self.when(index, name, args):
            return real(*args, **kwargs)
        kind, self.when = self.kind, None
        if kind == "crash":
            self.crashed = True
            if name == "write":  # the page cache keeps what was written
                real(args[0], args[1][: len(args[1]) // 2])
            raise Crash
        if kind == "short-write":
            return real(args[0], args[1][: len(args[1]) // 2])
        code = errno.ENOSPC if kind == "enospc" else errno.EIO
        raise OSError(code, os.strerror(code))


class _Proxy:
    """A module whose ``names`` go through :meth:`Faults.call`."""

    def __init__(self, module, faults: Faults, names) -> None:
        self._module, self._faults, self._names = module, faults, names

    def __getattr__(self, attr):
        value = getattr(self._module, attr)
        if attr in self._names:
            return functools.partial(self._faults.call, attr, value)
        return value


def _patch(monkeypatch, faults: Faults) -> Faults:
    for module in (wal_module, snapshot_module, catalog_module):
        monkeypatch.setattr(module, "os", _Proxy(os, faults, OS_CALLS))
    monkeypatch.setattr(snapshot_module, "np", _Proxy(np, faults, {"save"}))
    return faults


@pytest.fixture
def faults(monkeypatch) -> Faults:
    return _patch(monkeypatch, Faults())


def _members(prefix: str, rates) -> tuple[Juror, ...]:
    return tuple(
        Juror(e, 0.5 + k / 10, juror_id=f"{prefix}{k}") for k, e in enumerate(rates)
    )


def _update(name, *, remove=(), add=(), updates=()) -> PoolCommand:
    return PoolCommand(action="update", name=name, remove=remove, add=add, updates=updates)


#: The scripted session: (label, the pool it touches, its command).  ``None``
#: is the reopen.  P's fourth record takes its first snapshot; its tenth,
#: the three-mutation command, takes the second and compacts the log.
SESSION = [
    ("create P", "P", PoolCommand(action="create", name="P",
                                  candidates=_members("p", (0.1, 0.15, 0.2, 0.25, 0.3, 0.35)))),
    ("create Q", "Q", PoolCommand(action="create", name="Q",
                                  candidates=_members("q", (0.12, 0.22, 0.32)))),
    ("set", "P", _update("P", updates=(("p0", 0.11, None),))),
    ("set requirement", "P", _update("P", updates=(("p1", None, 2.0),))),
    ("remove + add", "P", _update("P", remove=("p2",), add=_members("z", (0.21,)))),
    ("set other pool", "Q", _update("Q", updates=(("q1", 0.23, 1.0),))),
    ("remove + add again", "P", _update("P", remove=("p3",), add=_members("y", (0.05,)))),
    ("set again", "P", _update("P", updates=(("p4", 0.26, None),))),
    ("set head", "P", _update("P", updates=(("y0", 0.06, 0.1),))),
    ("snapshot + compaction", "P", _update("P", remove=("p5",), add=_members("w", (0.31,)),
                                           updates=(("z0", 0.19, None),))),
    ("create with replace", "Q", PoolCommand(action="create", name="Q", replace=True,
                                             candidates=_members("r", (0.13, 0.17, 0.24, 0.4)))),
    ("remove + add after replace", "Q", _update("Q", remove=("r3",), add=_members("v", (0.14,)))),
    ("drop", "P", PoolCommand(action="drop", name="P")),
    ("reopen", None, None),
    ("set after reopen", "Q", _update("Q", updates=(("r0", 0.16, None),))),
]
REPLACE = [label for label, _, _ in SESSION].index("create with replace")
NAMES = ("P", "Q")


class Session:
    """One run of the scripted session over a fresh data directory."""

    def __init__(self, data_dir) -> None:
        self.data_dir = data_dir
        self.service = self._open()

    def _open(self) -> JuryService:
        return JuryService(catalog=PoolCatalog(self.data_dir, snapshot_interval=4))

    def run(self, step: int) -> None:
        _, _, command = SESSION[step]
        if command is None:
            self.close()
            self.service = self._open()
        else:
            self.service.pool(command)

    def close(self) -> None:
        self.service.close()
        self.service.catalog.close()


def _state(catalog: PoolCatalog, name: str):
    """``(version, fingerprint)`` of a pool, recovered on access; ``None`` if absent."""
    try:
        pool = catalog.open(name)
    except PoolNotFoundError:
        return None
    return pool.version, pool.fingerprint


def _recovered(data_dir, copy_dir) -> dict:
    """The pools a fresh catalog recovers from a copy of ``data_dir``."""
    shutil.copytree(data_dir, copy_dir)
    catalog = PoolCatalog(copy_dir, snapshot_interval=4)
    try:
        return {name: _state(catalog, name) for name in NAMES}
    finally:
        catalog.close()


def _assert_registered(exc: BaseException) -> None:
    info = ErrorInfo.from_exception(exc)
    assert info.code == "storage-unavailable", (type(exc), exc)
    assert info.code in set(ERROR_CODES.values())


@pytest.fixture(scope="module")
def reference(tmp_path_factory):
    """The session without faults: each step's call span and the states after it."""
    with pytest.MonkeyPatch.context() as monkeypatch:
        faults = _patch(monkeypatch, Faults())
        session = Session(tmp_path_factory.mktemp("reference"))
        spans, states = [], [dict.fromkeys(NAMES)]
        for step in range(len(SESSION)):
            start = len(faults.log)
            session.run(step)
            spans.append(range(start, len(faults.log)))
            states.append({name: _state(session.service.catalog, name) for name in NAMES})
        session.close()
    return {"log": faults.log, "spans": spans, "states": states}


def _applies(kind: str, name: str) -> bool:
    return {"short-write": name == "write", "fsync": name == "fsync"}.get(kind, True)


def _run_failing(tmp_path, faults: Faults, kind: str, index: int, reference) -> None:
    """Run the session failing call ``index`` with ``kind``; check the invariants."""
    states = reference["states"]
    step = next(s for s, span in enumerate(reference["spans"]) if index in span)
    _, touched, _ = SESSION[step]
    before, after = states[step], states[step + 1]
    faults.log.clear()
    faults.arm(kind, lambda i, name, args: i == index)
    session = Session(tmp_path / "data")
    failure = None
    for current in range(len(SESSION)):
        try:
            session.run(current)
        except (StorageUnavailableError, Crash) as exc:
            failure = exc
            break
        acked = states[current + 1]
        if faults.when is not None:
            continue
        # The fault fired inside a call the storage tier shrugs off (a
        # directory fsync, a tombstone): the session goes on as if nothing
        # happened, and the step must still be whole.
        assert {n: _state(session.service.catalog, n) for n in NAMES} == acked
    faults.disarm()
    if failure is None:
        # Nothing surfaced: the session completed and matches the reference.
        copy = _recovered(session.data_dir, tmp_path / "copy")
        assert copy == states[-1]
        session.close()
        return
    assert current == step, (current, step)
    if isinstance(failure, Crash):
        copy = _recovered(session.data_dir, tmp_path / "copy")
        session.service.catalog.close()
        for name in NAMES:
            assert copy[name] in (before[name], after[name]), name
            if name != touched:
                assert copy[name] == before[name], name
        return
    _assert_registered(failure)
    catalog = session.service.catalog
    memory = {name: _state(catalog, name) for name in NAMES}
    copy = _recovered(session.data_dir, tmp_path / "copy")
    read_only = catalog.stats.read_only > 0
    for name in NAMES:
        assert memory[name] in (before[name], after[name]), name
        assert copy[name] in (before[name], after[name]), name
        if name != touched:
            assert memory[name] == copy[name] == before[name], name
        elif read_only:
            # A failed WAL fsync: the last acknowledged version stays in
            # memory, and the pool refuses writes until restart.
            assert memory[name] == before[name]
            member = catalog.open(name).columns.ids[0]
            with pytest.raises(StorageUnavailableError, match="until restart") as refused:
                session.service.pool(_update(name, updates=((member, 0.3, None),)))
            _assert_registered(refused.value)
        else:
            assert memory[name] == copy[name], name
    # Every pool that exists keeps answering, at its version in memory.
    for name in NAMES:
        if memory[name] is None:
            continue
        response = session.service.select(SelectionRequest(task_id="t", pool=name))
        assert response.status == "ok", response.error
        assert response.pool_version == memory[name][0]
    # The failed pool takes the next command, which a restart recovers too.
    if memory[touched] is not None and not read_only:
        member = catalog.open(touched).columns.ids[0]
        ack = session.service.pool(_update(touched, updates=((member, 0.3, None),)))
        assert ack["version"] == memory[touched][0] + 1
        memory[touched] = _state(catalog, touched)
    session.close()
    # A restart recovers what memory held (or, after a failed fsync, either side).
    restarted = _recovered(session.data_dir, tmp_path / "restart")
    for name in NAMES:
        if read_only and name == touched:
            assert restarted[name] in (before[name], after[name])
        else:
            assert restarted[name] == memory[name], name


def _indices(reference, kind: str, steps) -> list[int]:
    return [
        index
        for step in steps
        for index in reference["spans"][step]
        if _applies(kind, reference["log"][index])
    ]


def test_session_covers_every_fault_site(reference):
    """The scripted session reaches everything the oracle claims to fail."""
    log, spans = reference["log"], reference["spans"]
    assert {"write", "fsync", "ftruncate", "replace", "save"} <= set(log)
    assert log.count("save") == 2 * 4  # two snapshots of four blobs
    compaction = SESSION.index(next(s for s in SESSION if s[0] == "snapshot + compaction"))
    assert "replace" in [log[i] for i in spans[compaction]]
    # One WAL write and one fsync per update command, with no snapshot due.
    assert [log[i] for i in spans[2]] == ["write", "fsync"]
    assert [log[i] for i in spans[5]] == ["write", "fsync"]
    assert len(log) < 200


@pytest.mark.parametrize("kind", KINDS)
def test_every_storage_call_failed_once(tmp_path_factory, reference, faults, kind):
    steps = [step for step in range(len(SESSION)) if step != REPLACE]
    indices = _indices(reference, kind, steps)
    assert indices
    for index in indices:
        _run_failing(tmp_path_factory.mktemp(f"{kind}-{index}"), faults, kind, index, reference)


@pytest.mark.xfail(
    strict=True,
    reason="create with replace drops the old pool before it writes the new one "
    "into the same directory; a failure between the two leaves neither",
)
def test_failed_replace_keeps_one_of_the_two_pools(tmp_path_factory, reference, faults):
    for kind in KINDS:
        for index in _indices(reference, kind, [REPLACE]):
            _run_failing(
                tmp_path_factory.mktemp(f"replace-{kind}-{index}"), faults, kind, index, reference
            )


# ----------------------------------------------------------------------
# The faults measured one by one, each named
# ----------------------------------------------------------------------
def _catalog_service(path, **options) -> JuryService:
    return JuryService(catalog=PoolCatalog(path, **options))


def _reopen(path, name):
    catalog = PoolCatalog(path)
    try:
        return catalog.open(name)
    finally:
        catalog.close()


def test_enospc_on_a_wal_write_keeps_memory_equal_to_disk(tmp_path, faults):
    service = _catalog_service(tmp_path)
    service.pool(PoolCommand(action="create", name="P", candidates=_members("c", (0.1, 0.2, 0.3))))
    faults.arm("enospc", lambda i, name, args: name == "write")
    with pytest.raises(StorageUnavailableError) as failed:
        service.pool(_update("P", add=_members("x", (0.15,))))
    _assert_registered(failed.value)
    assert service.registry.get("P").version == 0
    ack = service.pool(_update("P", add=_members("y", (0.25,))))
    assert ack["version"] == 1
    service.close()
    service.catalog.close()
    recovered = _reopen(tmp_path, "P")
    assert recovered.version == 1
    assert "y0" in recovered and "x0" not in recovered


def test_a_crash_never_recovers_half_a_command(tmp_path, faults):
    """A remove + add crashed at any of its storage calls (the second WAL
    write among them, when each mutation had its own record) recovers whole
    or not at all."""
    create = PoolCommand(action="create", name="P", candidates=_members("c", (0.1, 0.2, 0.3)))
    command = _update("P", remove=("c0",), add=_members("z", (0.4,)))
    before, after = (0, {"c0", "c1", "c2"}), (2, {"c1", "c2", "z0"})
    calls = None
    for call in range(16):
        data = tmp_path / f"data-{call}"
        service = _catalog_service(data, snapshot_interval=0)
        service.pool(create)
        start = len(faults.log)
        if calls is not None and call >= calls:
            break
        faults.arm("crash", lambda i, name, args: i == start + call)
        try:
            service.pool(command)
        except Crash:
            pass
        else:
            calls = call  # no call left to crash at
            faults.disarm()
            service.catalog.close()
            continue
        faults.disarm()
        copy = tmp_path / f"copy-{call}"
        shutil.copytree(data, copy)
        service.catalog.close()
        recovered = _reopen(copy, "P")
        assert (recovered.version, set(recovered.columns.ids)) in (before, after), call
    assert calls is not None and calls >= 2  # the command's write and fsync were both crashed


def test_a_short_write_is_not_acknowledged(tmp_path, faults):
    service = _catalog_service(tmp_path)
    service.pool(PoolCommand(action="create", name="P", candidates=_members("c", (0.1, 0.2, 0.3))))
    faults.arm("short-write", lambda i, name, args: name == "write")
    with pytest.raises(StorageUnavailableError) as failed:
        service.pool(_update("P", updates=(("c0", 0.11, None),)))
    _assert_registered(failed.value)
    versions = [service.pool(_update("P", updates=(("c1", 0.21 + k / 100, None),)))["version"]
                for k in range(2)]
    assert versions == [1, 2]
    service.close()
    service.catalog.close()
    recovered = _reopen(tmp_path, "P")
    assert recovered.version == 2
    assert recovered.get("c0").error_rate == 0.1 and recovered.get("c1").error_rate == 0.22


def test_a_failed_compaction_keeps_the_old_log_and_writer(tmp_path, faults):
    """ENOSPC on the replacement log: the live log is untouched, and every
    later command is acknowledged at the next version and recovered."""
    service = _catalog_service(tmp_path, snapshot_interval=4)
    service.pool(PoolCommand(action="create", name="P", candidates=_members("c", (0.1, 0.2, 0.3))))
    # The second snapshot (blobs 5 to 8) compacts the log: fail its first
    # write after them, the snapshot's own manifest aside.
    faults.arm("enospc", lambda i, name, args: name == "write"
               and faults.log.count("save") >= 8 and not args[1].startswith(b"{"))
    failures = 0
    for k in range(12):
        try:
            ack = service.pool(_update("P", updates=(("c0", 0.1 + (k + 1) / 1000, None),)))
        except StorageUnavailableError as exc:
            _assert_registered(exc)
            failures += 1
            # The record was durable before the compaction failed.
            assert service.registry.get("P").version == k + 1
        else:
            assert ack["version"] == k + 1
    assert failures == 1 and faults.when is None
    fingerprint = service.registry.get("P").fingerprint
    service.close()
    service.catalog.close()
    recovered = _reopen(tmp_path, "P")
    assert (recovered.version, recovered.fingerprint) == (12, fingerprint)


def test_a_failed_create_leaves_no_pool(tmp_path, faults):
    service = _catalog_service(tmp_path)
    faults.arm("enospc", lambda i, name, args: name == "write" and args[1] != MAGIC)
    with pytest.raises(StorageUnavailableError) as failed:
        service.pool(PoolCommand(action="create", name="P",
                                 candidates=_members("c", (0.1, 0.2, 0.3))))
    _assert_registered(failed.value)
    assert "P" not in service.registry.names()
    faults.disarm()
    service.close()
    service.catalog.close()
    restarted = _catalog_service(tmp_path)
    assert restarted.registry.names() == ()
    response = restarted.select(SelectionRequest(task_id="t", pool="P"))
    assert response.error.code == "pool-not-found"
    restarted.catalog.close()


def test_snapshots_come_every_interval_records(tmp_path):
    """The trigger counts records since the last snapshot: one snapshot per
    ``snapshot_interval`` records, never two back to back."""
    catalog = PoolCatalog(tmp_path, snapshot_interval=4)
    pool = catalog.create("P", _members("c", (0.1, 0.2, 0.3)))
    for k in range(15):  # records 2..16 after the create
        pool.update_juror("c0", error_rate=0.1 + (k + 1) / 1000)
    assert catalog.stats.snapshots == 4
    assert list_snapshot_versions(tmp_path / "pools" / pool_slug("P")) == [15, 11]
    catalog.close()


def test_a_multi_mutation_command_is_one_record_and_one_fsync(tmp_path):
    catalog = PoolCatalog(tmp_path, snapshot_interval=0)
    service = JuryService(catalog=catalog)
    service.pool(PoolCommand(action="create", name="P", candidates=_members("c", (0.1, 0.2, 0.3))))
    appends, fsyncs = catalog.stats.wal_appends, catalog.stats.fsyncs
    ack = service.pool(_update("P", remove=("c0",), add=_members("z", (0.4,)),
                               updates=(("c1", None, 3.0),)))
    assert ack["version"] == 3
    assert (catalog.stats.wal_appends - appends, catalog.stats.fsyncs - fsyncs) == (1, 1)
    assert service.pool(_update("P"))["version"] == 3  # an empty command writes nothing
    assert catalog.stats.wal_appends - appends == 1
    catalog.close()


# ----------------------------------------------------------------------
# Over HTTP
# ----------------------------------------------------------------------
def test_http_storage_failure_is_a_503_and_other_pools_answer(tmp_path, faults):
    catalog = PoolCatalog(tmp_path)
    service = JuryService(catalog=catalog)
    for name in ("P", "Q"):
        service.pool(PoolCommand(action="create", name=name,
                                 candidates=_members("c", (0.1, 0.2, 0.3))))
    service.pool(_update("P", updates=(("c0", 0.12, None),)))

    async def drive():
        async with HttpServer(AsyncJuryService(service), port=0) as server:
            first = await asyncio.open_connection(server.host, server.port)
            second = await asyncio.open_connection(server.host, server.port)
            try:
                faults.arm("enospc", lambda i, name, args: name == "write")
                update = _update("P", add=_members("x", (0.15,))).to_dict()
                failed = await http_call(*first, "POST", "/v1/pool", update)
                other = await http_call(
                    *second, "POST", "/v1/select", {"task": "t", "pool": "Q"}
                )
                again = await http_call(
                    *first, "POST", "/v1/select", {"task": "t", "pool": "P"}
                )
                return failed, other, again
            finally:
                for _, writer in (first, second):
                    writer.close()

    (status, body), (other_status, other), (again_status, again) = asyncio.run(drive())
    assert status == 503
    assert body["error"]["code"] == "storage-unavailable"
    assert other_status == 200 and other["status"] == "ok" and other["pool_version"] == 0
    assert again_status == 200 and again["status"] == "ok" and again["pool_version"] == 1
    catalog.close()


def test_serve_session_answers_a_storage_failure_with_its_error_row(tmp_path, faults):
    """The serve session keeps running: the failed update is one error row."""
    commands = [
        PoolCommand(action="create", name="P", candidates=_members("c", (0.1, 0.2, 0.3))).to_dict(),
        _update("P", add=_members("x", (0.15,))).to_dict(),
        {"cmd": "select", "task": "t", "pool": "P"},
        {"cmd": "quit"},
    ]
    faults.arm("enospc", lambda i, name, args: name == "write" and b"x0" in args[1])
    stdin = io.StringIO("\n".join(json.dumps(c) for c in commands) + "\n")
    stdout = io.StringIO()
    exit_code = run_serve(SimpleNamespace(data_dir=tmp_path), stdin=stdin, stdout=stdout)
    rows = [json.loads(line) for line in stdout.getvalue().splitlines()]
    assert exit_code == 2
    assert rows[1]["ok"] is False and rows[1]["error"]["code"] == "storage-unavailable"
    assert rows[2]["ok"] is True and rows[2]["pool_version"] == 0
