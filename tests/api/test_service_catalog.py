"""JuryService / AsyncJuryService over a durable catalog."""

from __future__ import annotations

import asyncio
import itertools
import sys
import threading
import time

import pytest

from repro.api import JuryService, PoolCommand, SelectionRequest
from repro.core.juror import jurors_from_arrays
from repro.storage import PoolCatalog

EPS = (0.1, 0.2, 0.2, 0.3, 0.3)


def _create(name="P1"):
    return PoolCommand(
        action="create", name=name, candidates=tuple(jurors_from_arrays(EPS))
    )


def test_data_dir_builds_owned_catalog(tmp_path):
    service = JuryService(data_dir=tmp_path / "cat")
    assert service.catalog is not None
    assert service.registry.catalog is service.catalog
    service.pool(_create())
    service.close()
    assert service.catalog.closed  # owned: close() closes it


def test_adopted_catalog_stays_open(tmp_path):
    catalog = PoolCatalog(tmp_path / "cat")
    service = JuryService(catalog=catalog)
    service.pool(_create())
    service.close()
    assert not catalog.closed  # adopted: flushed, not closed
    catalog.close()


def test_env_fallback_only_without_explicit_wiring(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_DATA_DIR", str(tmp_path / "env-cat"))
    implicit = JuryService()
    assert implicit.catalog is not None
    assert str(implicit.catalog.data_dir) == str(tmp_path / "env-cat")
    implicit.close()

    from repro.service import PoolRegistry

    explicit = JuryService(registry=PoolRegistry())
    assert explicit.catalog is None  # explicit registry wins over env
    explicit.close()


def test_conflicting_wiring_rejected(tmp_path):
    catalog = PoolCatalog(tmp_path / "cat")
    from repro.service import PoolRegistry

    with pytest.raises(ValueError):
        JuryService(data_dir=tmp_path / "x", catalog=catalog)
    with pytest.raises(ValueError):
        JuryService(registry=PoolRegistry(), data_dir=tmp_path / "x")
    catalog.close()


def test_restart_selections_bit_identical(tmp_path):
    service = JuryService(data_dir=tmp_path / "cat")
    service.pool(_create())
    service.pool(
        PoolCommand(
            action="update", name="P1",
            add=tuple(jurors_from_arrays([0.15], id_prefix="new")),
        )
    )
    before = service.select(SelectionRequest(task_id="t", pool="P1")).to_dict()
    service.close()

    service2 = JuryService(data_dir=tmp_path / "cat")
    after = service2.select(SelectionRequest(task_id="t", pool="P1")).to_dict()
    for key in ("members", "jer", "size", "total_cost", "pool_version"):
        assert before[key] == after[key]
    service2.close()


def test_stats_reports_catalog_block_and_resident_pools_only(tmp_path):
    service = JuryService(data_dir=tmp_path / "cat")
    service.pool(_create("P1"))
    service.pool(_create("P2"))
    service.close()

    service2 = JuryService(data_dir=tmp_path / "cat")
    service2.select(SelectionRequest(task_id="t", pool="P2"))
    stats = service2.stats()
    catalog = stats["catalog"]
    assert catalog["pools"] == 2  # durable namespace spans cold pools
    assert catalog["resident"] == 1  # only P2 was paged in
    assert catalog["lazy_loads"] == 1
    assert catalog["replays"] == 1
    assert catalog["wal_appends"] == 0  # no mutations this process
    assert catalog["recovery_ms"] >= 0
    assert list(stats["pools"]) == ["P2"]  # stats never pages cold pools
    service2.close()


def test_stats_has_no_catalog_block_in_memory_mode(monkeypatch):
    monkeypatch.delenv("REPRO_DATA_DIR", raising=False)
    service = JuryService()
    assert "catalog" not in service.stats()
    service.close()


def test_drop_survives_restart(tmp_path):
    service = JuryService(data_dir=tmp_path / "cat")
    service.pool(_create())
    service.pool(PoolCommand(action="drop", name="P1"))
    service.close()

    service2 = JuryService(data_dir=tmp_path / "cat")
    response = service2.select(SelectionRequest(task_id="t", pool="P1"))
    assert response.status == "error"
    assert response.error.code == "pool-not-found"
    service2.close()


def test_async_service_flushes_on_aclose(tmp_path):
    from repro.api.aio import AsyncJuryService

    async def scenario():
        service = AsyncJuryService(data_dir=tmp_path / "cat")
        await asyncio.to_thread(service.service.pool, _create())
        response = await service.select(
            SelectionRequest(task_id="t", pool="P1")
        )
        assert response.status == "ok"
        snapshot = service.stats_snapshot()
        assert snapshot["catalog"]["wal_appends"] == 1
        await service.aclose()

    asyncio.run(scenario())

    verify = JuryService(data_dir=tmp_path / "cat")
    assert verify.select(SelectionRequest(task_id="t", pool="P1")).status == "ok"
    verify.close()


def test_stats_reads_resident_pools_lock_free_under_churn(tmp_path):
    """stats() lists the resident pools without the catalog lock while
    three threads keep loading and evicting pools under it."""
    catalog = PoolCatalog(tmp_path / "cat", max_resident=2)
    service = JuryService(catalog=catalog)
    names = [f"P{i}" for i in range(6)]
    for name in names:
        service.pool(_create(name))
    stop = threading.Event()
    errors: list[BaseException] = []
    listings: list[dict] = []

    def churn(offset: int) -> None:
        try:
            for i in itertools.count(offset):
                if stop.is_set():
                    return
                request = SelectionRequest(task_id="t", pool=names[i % len(names)])
                assert service.select(request).ok
        except BaseException as exc:  # noqa: BLE001 - reported below
            errors.append(exc)

    def probe() -> None:
        try:
            while not stop.is_set():
                listings.append(service.stats()["pools"])
        except BaseException as exc:  # noqa: BLE001 - reported below
            errors.append(exc)

    threads = [threading.Thread(target=churn, args=(i,)) for i in range(3)]
    threads.append(threading.Thread(target=probe))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        time.sleep(0.5)
        stop.set()
        for thread in threads:
            thread.join(timeout=10)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert listings and catalog.stats.evictions > 0
    for pools in listings:
        # max_resident, plus the one a load adds before it evicts the coldest
        assert len(pools) <= 3 and set(pools) <= set(names)
        assert all(entry == {"version": 0, "size": len(EPS)} for entry in pools.values())
    service.close()
    catalog.close()
