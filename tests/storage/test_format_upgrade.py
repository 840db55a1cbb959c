"""Snapshot format 2: old catalogs still open, and every ``str`` id survives.

A catalog written in format 1 (``fixtures/catalog_v1``) must recover to the
members and versions recorded when it was written, then write format 2
snapshots that reopen.  Format 2 keeps ids that format 1 could not: a
trailing NUL (which the fixed-width unicode column dropped, making the pool
unrecoverable after its first snapshot) and lone surrogates (which the old
fingerprint could not even hash).
"""

from __future__ import annotations

import json
import shutil
from pathlib import Path

import pytest

from repro.api import JuryService, PoolCommand, SelectionRequest
from repro.core.juror import Juror
from repro.errors import PoolNotFoundError
from repro.service.registry import LivePool
from repro.storage import PoolCatalog, list_snapshot_versions, snapshot_dir

FIXTURE = Path(__file__).parent / "fixtures" / "catalog_v1"


def _members(pool) -> list[list]:
    return [[j.juror_id, j.error_rate, j.requirement] for j in pool.ordered]


def _manifest(pool_dir: Path) -> dict:
    newest = list_snapshot_versions(pool_dir)[0]
    return json.loads((snapshot_dir(pool_dir, newest) / "MANIFEST.json").read_text())


@pytest.fixture
def v1_catalog(tmp_path) -> Path:
    data = tmp_path / "data"
    shutil.copytree(FIXTURE / "data", data)
    return data


class TestFormat1Catalog:
    expected = json.loads((FIXTURE / "expected.json").read_text())["pools"]

    def test_recovers_recorded_members_and_versions(self, v1_catalog):
        catalog = PoolCatalog(v1_catalog, snapshot_interval=0)
        try:
            assert set(catalog.names()) == {"snapped", "wal-only", "dropped"}
            for name, recorded in self.expected.items():
                pool = catalog.open(name)
                assert pool.version == recorded["version"]
                assert _members(pool) == recorded["members"]
            # The format 1 snapshot verified; only its WAL tail replayed.
            assert catalog.stats.snapshot_fallbacks == 0
            assert catalog.stats.records_replayed == 2 + 3
            with pytest.raises(PoolNotFoundError):
                catalog.open("dropped")
            assert "dropped" not in catalog.names()
        finally:
            catalog.close()

    def test_writes_format_2_snapshots_that_reopen(self, v1_catalog):
        recorded = self.expected["snapped"]
        oracle = LivePool(
            [Juror(e, r, juror_id=i) for i, e, r in recorded["members"]],
            start_version=recorded["version"],
        )
        oracle.update_juror("s-é3", error_rate=0.42)
        catalog = PoolCatalog(v1_catalog, snapshot_interval=1)
        try:
            catalog.open("snapped").update_juror("s-é3", error_rate=0.42)
            pool_dir = catalog._index["snapped"]
        finally:
            catalog.close()
        assert _manifest(pool_dir)["v"] == 2
        reopened = PoolCatalog(v1_catalog, snapshot_interval=0)
        try:
            pool = reopened.open("snapped")
            assert reopened.stats.snapshot_fallbacks == 0
            assert reopened.stats.records_replayed == 0
            assert pool.version == oracle.version
            assert _members(pool) == _members(oracle)
            assert pool.fingerprint == oracle.fingerprint
        finally:
            reopened.close()


ODD_IDS = ("a\x00", "\x00", "\ud800", "b\udfff\x00", "plain")


def _rows() -> list[dict]:
    rows = [
        {"id": juror_id, "error_rate": 0.1 + 0.01 * k, "requirement": 0.25 * k}
        for k, juror_id in enumerate(ODD_IDS)
    ]
    # Through the JSON text a client sends: lone surrogates travel escaped.
    return json.loads(json.dumps(rows))


def _wire(response) -> dict:
    row = response.to_dict()
    row.pop("timings")
    row.pop("task")
    row.pop("pool_version", None)
    return row


def test_every_str_id_survives_snapshot_and_recovery(tmp_path):
    rows = _rows()
    inline = SelectionRequest.from_dict({"task": "inline", "candidates": rows})
    expected = _wire(JuryService().select(inline))
    assert [m["id"] for m in expected["members"]] == list(ODD_IDS)

    catalog = PoolCatalog(tmp_path, snapshot_interval=1)
    service = JuryService(catalog=catalog)
    service.pool(
        PoolCommand.from_dict(
            {"cmd": "pool", "action": "create", "name": "P", "candidates": rows}
        )
    )
    catalog.close()
    assert _manifest(catalog._index["P"])["v"] == 2

    catalog = PoolCatalog(tmp_path, snapshot_interval=0)
    service = JuryService(catalog=catalog)
    try:
        by_name, by_rows = service.select_many(
            [SelectionRequest(task_id="named", pool="P"), inline]
        )
        assert catalog.stats.snapshot_fallbacks == 0
        assert catalog.stats.records_replayed == 0
        assert _wire(by_name) == expected
        assert _wire(by_rows) == expected
        # The HTTP encoder escapes what it cannot send raw.
        assert json.loads(json.dumps(by_rows.to_dict()))["members"] == expected["members"]
    finally:
        catalog.close()
