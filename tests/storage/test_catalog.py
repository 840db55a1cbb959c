"""PoolCatalog behaviour: durability, laziness, residency, tombstones."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.juror import Juror
from repro.errors import InvalidJuryError, PoolNotFoundError, StorageError, StorageUnavailableError
from repro.core.selection.base import columns_fingerprint
from repro.service.registry import LivePool
from repro.storage import PoolCatalog, pool_slug, scan_wal
from repro.storage.snapshot import list_snapshot_versions, write_snapshot
from repro.storage.wal import WalWriter


def _j(e, r, i):
    return Juror(e, r, juror_id=i)


SEED = [_j(0.1, 1.0, "a"), _j(0.2, 2.0, "b"), _j(0.3, 1.5, "c")]


def _churn(pool, rounds=5):
    for i in range(rounds):
        pool.add_juror(_j(0.11 + i / 100, 1.0 + i, f"n{i}"))
        pool.update_juror("a", error_rate=0.1 + i / 1000)
        if i % 2:
            pool.remove_juror(f"n{i - 1}")


def test_create_and_reopen_bit_identical(tmp_path):
    cat = PoolCatalog(tmp_path)
    pool = cat.create("alpha", SEED)
    _churn(pool)
    fingerprint, version = pool.fingerprint, pool.version
    ns, jers = pool.sweep_profile()
    cat.close()

    cat2 = PoolCatalog(tmp_path)
    recovered = cat2.open("alpha")
    assert recovered.fingerprint == fingerprint
    assert recovered.version == version
    ns2, jers2 = recovered.sweep_profile()
    assert np.array_equal(ns, ns2) and np.array_equal(jers, jers2)
    cat2.close()


def test_duplicate_create_raises_and_replace_restarts(tmp_path):
    cat = PoolCatalog(tmp_path)
    cat.create("alpha", SEED)
    with pytest.raises(InvalidJuryError):
        cat.create("alpha", SEED)
    fresh = cat.create("alpha", SEED[:1], replace=True)
    assert fresh.version == 0 and fresh.size == 1
    cat.close()
    cat2 = PoolCatalog(tmp_path)
    assert cat2.open("alpha").size == 1
    cat2.close()


def test_lazy_loading_counts_and_is_idempotent(tmp_path):
    cat = PoolCatalog(tmp_path)
    for i in range(4):
        cat.create(f"pool-{i}", SEED)
    cat.close()

    cat2 = PoolCatalog(tmp_path)
    assert cat2.stats.lazy_loads == 0 and cat2.resident == 0
    assert len(cat2) == 4  # indexed without loading
    first = cat2.open("pool-2")
    assert cat2.stats.lazy_loads == 1
    assert cat2.open("pool-2") is first  # resident: no second load
    assert cat2.stats.lazy_loads == 1
    cat2.close()


def test_lru_eviction_bounds_residency(tmp_path):
    cat = PoolCatalog(tmp_path, max_resident=3)
    for i in range(8):
        cat.create(f"pool-{i}", SEED)
    assert cat.resident == 3
    assert cat.stats.evictions == 5
    assert len(cat) == 8
    # Evicted pools transparently reload, evicting the now-coldest.
    pool = cat.open("pool-0")
    assert pool.size == len(SEED)
    assert cat.resident == 3
    cat.close()


def test_evicted_pool_mutations_were_flushed(tmp_path):
    cat = PoolCatalog(tmp_path, max_resident=1, fsync_batch=100)
    pool = cat.create("alpha", SEED)
    pool.add_juror(_j(0.15, 1.0, "x"))  # pending in the fsync batch
    cat.create("beta", SEED)  # evicts alpha -> flush + close
    reloaded = cat.open("alpha")
    assert "x" in reloaded
    cat.close()


def test_snapshot_interval_compacts_wal(tmp_path):
    cat = PoolCatalog(tmp_path, snapshot_interval=4)
    pool = cat.create("alpha", SEED)
    _churn(pool, rounds=6)
    assert cat.stats.snapshots >= 2
    directory = tmp_path / "pools" / pool_slug("alpha")
    assert list_snapshot_versions(directory)
    # The WAL holds only the tail the kept snapshots cannot reproduce.
    assert len(scan_wal(directory / "wal.log").records) <= 8
    fingerprint = pool.fingerprint
    cat.close()
    cat2 = PoolCatalog(tmp_path)
    assert cat2.open("alpha").fingerprint == fingerprint
    cat2.close()


def test_recovery_prefers_snapshot_and_replays_tail(tmp_path):
    cat = PoolCatalog(tmp_path, snapshot_interval=4)
    pool = cat.create("alpha", SEED)
    _churn(pool, rounds=3)  # crosses one interval, then trails
    version = pool.version
    cat.close()
    cat2 = PoolCatalog(tmp_path, snapshot_interval=4)
    recovered = cat2.open("alpha")
    assert recovered.version == version
    assert cat2.stats.replays == 1
    assert cat2.stats.records_replayed < 1 + 3 * 3  # tail only, not the log
    assert cat2.stats.last_recovery_ms > 0
    cat2.close()


def test_corrupt_snapshot_falls_back_to_older(tmp_path):
    cat = PoolCatalog(tmp_path, snapshot_interval=3, keep_snapshots=2)
    pool = cat.create("alpha", SEED)
    _churn(pool, rounds=4)
    fingerprint, version = pool.fingerprint, pool.version
    cat.close()

    directory = tmp_path / "pools" / pool_slug("alpha")
    newest = list_snapshot_versions(directory)[0]
    blob = directory / f"snap-{newest:012d}" / "eps.npy"
    data = bytearray(blob.read_bytes())
    data[-1] ^= 0xFF
    blob.write_bytes(bytes(data))

    cat2 = PoolCatalog(tmp_path)
    recovered = cat2.open("alpha")
    assert recovered.fingerprint == fingerprint
    assert recovered.version == version
    assert cat2.stats.snapshot_fallbacks == 1
    cat2.close()


def test_truncated_wal_tail_recovers_prefix(tmp_path):
    cat = PoolCatalog(tmp_path, snapshot_interval=0, fsync_batch=0)
    pool = cat.create("alpha", SEED)
    pool.add_juror(_j(0.4, 1.0, "x"))
    pool.add_juror(_j(0.5, 1.0, "y"))
    cat.close()
    directory = tmp_path / "pools" / pool_slug("alpha")
    wal = directory / "wal.log"
    wal.write_bytes(wal.read_bytes()[:-7])  # tear the final record

    cat2 = PoolCatalog(tmp_path)
    recovered = cat2.open("alpha")
    assert recovered.version == 1  # the torn 'y' append rolled back
    assert "x" in recovered and "y" not in recovered
    assert cat2.stats.recovered_truncated == 1
    # The replacement tail appends cleanly after the recovered prefix.
    recovered.add_juror(_j(0.5, 1.0, "z"))
    cat2.close()
    cat3 = PoolCatalog(tmp_path)
    assert "z" in cat3.open("alpha")
    assert cat3.stats.recovered_truncated == 0
    cat3.close()


def test_never_silently_wrong_pool(tmp_path):
    """Non-tail inconsistency must refuse loudly, not serve a maybe-pool."""
    cat = PoolCatalog(tmp_path, snapshot_interval=0)
    pool = cat.create("alpha", SEED)
    pool.add_juror(_j(0.4, 1.0, "x"))
    cat.close()
    directory = tmp_path / "pools" / pool_slug("alpha")
    wal = directory / "wal.log"
    # Duplicate the add record: a perfectly checksummed log that no single
    # pool history could have produced (the juror is added twice).
    from repro.storage.wal import _encode

    wal.write_bytes(wal.read_bytes() + _encode(scan_wal(wal).records[-1]))
    cat2 = PoolCatalog(tmp_path)
    with pytest.raises(StorageError):
        cat2.open("alpha")
    cat2.close()


def test_recovery_refuses_invalid_members(tmp_path):
    """Members read back from disk are checked as jurors are: a snapshot
    whose checksums and fingerprint hold but whose error rate is 1.5, or a
    WAL create record with a negative requirement, is refused."""
    cat = PoolCatalog(tmp_path, snapshot_interval=0)
    cat.create("alpha", SEED)
    cat.create("beta", SEED)
    cat.close()
    ids, eps, reqs = ("a", "b", "c"), np.array([0.1, 0.2, 1.5]), np.zeros(3)
    write_snapshot(tmp_path / "pools" / pool_slug("alpha"), version=0,
                   fingerprint=columns_fingerprint(ids, eps, reqs), eps=eps, reqs=reqs, ids=ids)
    wal = tmp_path / "pools" / pool_slug("beta") / "wal.log"
    wal.unlink()
    writer = WalWriter(wal)
    writer.append({"v": 1, "op": "create", "ver": 0, "members": [["a", 0.1, -1.0]]})
    writer.close()
    cat2 = PoolCatalog(tmp_path)
    for name in ("alpha", "beta"):
        with pytest.raises(StorageError, match="fail validation"):
            cat2.open(name)
    cat2.close()


def test_drop_tombstones_across_restart(tmp_path):
    cat = PoolCatalog(tmp_path)
    cat.create("alpha", SEED)
    cat.create("beta", SEED)
    cat.drop("alpha")
    assert cat.stats.tombstones == 1
    with pytest.raises(PoolNotFoundError):
        cat.open("alpha")
    cat.close()
    cat2 = PoolCatalog(tmp_path)
    assert cat2.names() == ("beta",)
    with pytest.raises(PoolNotFoundError):
        cat2.open("alpha")
    cat2.close()


def test_drop_of_cold_pool(tmp_path):
    cat = PoolCatalog(tmp_path)
    cat.create("alpha", SEED)
    cat.close()
    cat2 = PoolCatalog(tmp_path)
    cat2.drop("alpha")  # never opened in this process
    cat2.close()
    cat3 = PoolCatalog(tmp_path)
    assert "alpha" not in cat3
    cat3.close()


def test_crashed_drop_directory_is_gced(tmp_path):
    """A drop that crashed after the WAL record but before rmtree must not
    resurrect the pool on restart."""
    cat = PoolCatalog(tmp_path, snapshot_interval=0)
    pool = cat.create("alpha", SEED)
    directory = tmp_path / "pools" / pool_slug("alpha")
    # Simulate the crash window: append the drop record directly, leave
    # every file in place.
    from repro.storage.wal import WalWriter

    scan = scan_wal(directory / "wal.log")
    cat.close()
    writer = WalWriter(directory / "wal.log")
    writer.append({"v": 1, "op": "drop", "ver": pool.version + 1})
    writer.close()

    cat2 = PoolCatalog(tmp_path)
    with pytest.raises(PoolNotFoundError):
        cat2.open("alpha")
    assert not directory.exists()  # reclaimed during the failed open
    cat2.close()


def test_distinct_names_never_share_a_directory(tmp_path):
    cat = PoolCatalog(tmp_path)
    # Sanitisation collides ("p/x" and "p_x" both sanitise to "p_x"); the
    # content hash must keep the directories apart.
    cat.create("p/x", SEED)
    cat.create("p_x", SEED[:1])
    cat.close()
    cat2 = PoolCatalog(tmp_path)
    assert cat2.open("p/x").size == 3
    assert cat2.open("p_x").size == 1
    cat2.close()


def test_closed_catalog_refuses_work(tmp_path):
    cat = PoolCatalog(tmp_path)
    cat.create("alpha", SEED)
    cat.close()
    cat.close()  # idempotent
    with pytest.raises(StorageError):
        cat.open("alpha")
    with pytest.raises(StorageError):
        cat.create("beta", SEED)


def test_stats_snapshot_shape(tmp_path):
    cat = PoolCatalog(tmp_path)
    pool = cat.create("alpha", SEED)
    pool.add_juror(_j(0.4, 1.0, "x"))
    snapshot = cat.stats_snapshot()
    for key in (
        "data_dir", "pools", "resident", "max_resident", "wal_appends",
        "fsyncs", "snapshots", "replays", "records_replayed", "lazy_loads",
        "recovered_truncated", "evictions", "tombstones", "recovery_ms",
        "last_recovery_ms", "snapshot_fallbacks",
    ):
        assert key in snapshot
    assert snapshot["wal_appends"] == 2  # create + add
    assert snapshot["fsyncs"] >= 2
    cat.close()


def test_log_mixing_per_juror_records_with_commands_recovers(tmp_path):
    """A log written one record per juror mutation, as older code wrote it,
    then extended with one-record commands, replays through the same apply
    call to the state an in-memory pool reaches."""
    directory = tmp_path / "pools" / pool_slug("alpha")
    directory.mkdir(parents=True)
    (directory / "META.json").write_text('{"v": 1, "name": "alpha"}\n')
    writer = WalWriter(directory / "wal.log")
    for record in (
        {"v": 1, "op": "create", "ver": 0, "members": [[j.juror_id, j.error_rate, j.requirement]
                                                       for j in SEED]},
        {"v": 1, "op": "add", "ver": 1, "id": "x", "e": 0.15, "r": 1.0},
        {"v": 1, "op": "remove", "ver": 2, "id": "b"},
        {"v": 1, "op": "update", "ver": 3, "id": "a", "e": 0.12, "r": 1.0},
    ):
        writer.append(record)
    writer.close()
    oracle = LivePool(SEED, pool_id="alpha")
    oracle.add_juror(_j(0.15, 1.0, "x"))
    oracle.remove_juror("b")
    oracle.update_juror("a", error_rate=0.12)

    cat = PoolCatalog(tmp_path, snapshot_interval=0)
    pool = cat.open("alpha")
    assert (pool.version, pool.fingerprint) == (oracle.version, oracle.fingerprint)
    command = (("x",), (_j(0.4, 2.0, "y"),), (("c", None, 3.0), ("y", 0.35, None)))
    assert pool.apply(*command) == oracle.apply(*command) == 7
    cat.close()
    records = scan_wal(directory / "wal.log").records
    assert [r["op"] for r in records] == ["create", "add", "remove", "update", "cmd"]
    assert records[-1] == {"v": 1, "op": "cmd", "ver": 7, "remove": ["x"],
                           "add": [["y", 0.4, 2.0]], "set": [["c", 0.3, 3.0], ["y", 0.35, 2.0]]}
    cat2 = PoolCatalog(tmp_path)
    recovered = cat2.open("alpha")
    assert (recovered.version, recovered.fingerprint) == (7, oracle.fingerprint)
    assert cat2.stats.records_replayed == 5
    cat2.close()


@pytest.mark.parametrize(
    "record, message",
    [
        ({"v": 1, "op": "cmd", "ver": 2, "remove": ["ghost"]}, "cannot be replayed"),
        ({"v": 1, "op": "cmd", "ver": 3, "remove": ["a"]}, "discontinuity"),
        ({"v": 1, "op": "cmd", "ver": 2, "set": [["a", 1.5, 1.0]]}, "cannot be replayed"),
        ({"v": 1, "op": "merge", "ver": 2}, "unknown WAL op"),
    ],
)
def test_command_records_that_cannot_replay_refuse_the_pool(tmp_path, record, message):
    cat = PoolCatalog(tmp_path, snapshot_interval=0)
    cat.create("alpha", SEED).add_juror(_j(0.4, 1.0, "x"))
    cat.close()
    writer = WalWriter(tmp_path / "pools" / pool_slug("alpha") / "wal.log")
    writer.append(record)
    writer.close()
    cat2 = PoolCatalog(tmp_path)
    with pytest.raises(StorageError, match=message):
        cat2.open("alpha")
    cat2.close()


def test_a_stale_handle_of_an_evicted_pool_refuses_commands(tmp_path):
    """Eviction closes a pool's store; a command through a handle taken
    before it is refused, where it used to be applied in memory alone and
    lost on reopen."""
    cat = PoolCatalog(tmp_path, max_resident=1)
    stale = cat.create("alpha", SEED)
    cat.create("beta", SEED)  # evicts alpha
    with pytest.raises(StorageUnavailableError, match="evicted"):
        stale.add_juror(_j(0.4, 1.0, "x"))
    assert stale.version == 0 and "x" not in stale
    assert cat.open("alpha").add_juror(_j(0.4, 1.0, "x")) == 1
    cat.close()
    cat2 = PoolCatalog(tmp_path)
    assert "x" in cat2.open("alpha")
    cat2.close()
