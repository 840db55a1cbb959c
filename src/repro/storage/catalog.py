"""The durable pool catalog: WAL + snapshots + lazy residency.

:class:`PoolCatalog` is the storage tier under the service layer's
:class:`~repro.service.registry.PoolRegistry`.  It implements the HTAP
split the ROADMAP names (Polynesia's transactional/analytical separation):

* the **mutation path** is an append-only WAL per pool
  (:mod:`repro.storage.wal`) — every ``add``/``remove``/``update`` the live
  pool applies is recorded, checksummed and fsync-batched *after* the
  in-memory mutation succeeds, so the log never contains a mutation the
  pool rejected;
* the **analytical path** is periodic columnar snapshots
  (:mod:`repro.storage.snapshot`) of exactly the struct-of-arrays layout
  the sweep kernels consume, written every ``snapshot_interval`` WAL
  records and on clean close;
* **recovery** loads the newest verifiable snapshot and replays the WAL
  tail through the ordinary :class:`~repro.service.registry.LivePool`
  mutation methods — which means the Lemma 3 order, the sweep profile and
  the answer frontier are all rebuilt exactly as they would have been in
  the original process.  A recovered pool is **bit-identical** to the
  pre-crash pool: same fingerprint (verified against the snapshot
  manifest), same sweep profile, same selections.

On-disk layout::

    <data_dir>/
      CATALOG.json                  # format marker
      pools/
        <slug>/                     # slug = sanitised name + content hash
          META.json                 # {"v": 1, "name": ..., "dropped": ...}
          wal.log                   # repro.storage.wal format
          snap-000000000042/        # repro.storage.snapshot format
            MANIFEST.json  eps.npy  reqs.npy  ids.npy  id_lengths.npy

Residency is an LRU of at most ``max_resident`` open pools: the catalog
can index far more pools than fit in RAM, opening each on first access
(``lazy_loads`` counter) and evicting the coldest (flushing its WAL) when
the bound is exceeded.  Every counter a fleet operator needs — WAL
appends, fsyncs, snapshots, replays, truncated-tail recoveries, evictions,
recovery milliseconds — is surfaced through :meth:`PoolCatalog.stats_snapshot`
and, one level up, every ``stats()`` tier of the service stack.
"""

from __future__ import annotations

import hashlib
import json
import re
import shutil
import threading
import time
from collections import OrderedDict
from collections.abc import Iterable
from dataclasses import dataclass
from pathlib import Path

from repro.core.juror import Juror, JurorColumns
from repro.errors import InvalidJuryError, PoolNotFoundError, StorageError
from repro.service.registry import LivePool
from repro.storage.snapshot import (
    SnapshotData,
    gc_snapshots,
    list_snapshot_versions,
    load_snapshot,
    snapshot_dir,
    write_snapshot,
)
from repro.storage.wal import MAGIC, WalWriter, scan_wal

__all__ = [
    "DEFAULT_MAX_RESIDENT",
    "DEFAULT_SNAPSHOT_INTERVAL",
    "CatalogStats",
    "PoolCatalog",
    "PoolStore",
]

#: WAL records between automatic columnar snapshots.
DEFAULT_SNAPSHOT_INTERVAL = 256

#: Resident (open) pools the LRU keeps before evicting the coldest.
DEFAULT_MAX_RESIDENT = 128

#: Snapshot generations kept per pool; the WAL is compacted to the span
#: the *oldest kept* generation still needs, so every kept snapshot is a
#: valid recovery base.
DEFAULT_KEEP_SNAPSHOTS = 2

_WAL_NAME = "wal.log"
_META_NAME = "META.json"
_SLUG_SAFE = re.compile(r"[^A-Za-z0-9._-]")


def pool_slug(name: str) -> str:
    """Deterministic filesystem-safe directory name for a pool.

    A readable sanitised prefix plus a content hash of the exact name, so
    distinct names never share a directory and renames never alias.
    """
    safe = _SLUG_SAFE.sub("_", name)[:40] or "pool"
    digest = hashlib.blake2s(name.encode("utf-8"), digest_size=6).hexdigest()
    return f"{safe}-{digest}"


@dataclass
class CatalogStats:
    """Monotonic counters describing the catalog's durability work."""

    wal_appends: int = 0
    fsyncs: int = 0
    snapshots: int = 0
    snapshot_fallbacks: int = 0
    replays: int = 0
    records_replayed: int = 0
    lazy_loads: int = 0
    recovered_truncated: int = 0
    evictions: int = 0
    tombstones: int = 0
    recovery_ms: float = 0.0
    last_recovery_ms: float = 0.0


def _recovered(name: str, ids, eps, reqs) -> JurorColumns:
    """Members read back from disk (input from outside), checked column-wise."""
    columns = JurorColumns(ids, eps, reqs)
    if not columns.valid():
        raise StorageError(f"pool {name!r}: recovered members fail validation")
    return columns


class PoolStore:
    """Per-pool durable state: the WAL writer plus snapshot bookkeeping.

    A store is bound to its :class:`LivePool` via
    :meth:`LivePool.bind_store`; the pool calls :meth:`on_mutation` *after*
    each successful mutation, so the log records exactly the mutations the
    pool accepted, in order, tagged with the post-mutation version.
    """

    def __init__(
        self,
        catalog: "PoolCatalog",
        name: str,
        directory: Path,
        writer: WalWriter,
        *,
        records: list[dict] | None = None,
        snapshot_version: int = -1,
    ) -> None:
        self._catalog = catalog
        self.name = name
        self.directory = directory
        self._writer = writer
        self._fsyncs_seen = writer.fsyncs
        # In-memory mirror of the live WAL records, needed so compaction
        # can rewrite the log without re-reading it.  Bounded: compaction
        # trims it in lockstep with the file.
        self._records: list[dict] = list(records or ())
        self._snapshot_version = snapshot_version

    # -- record hooks (called by LivePool after each mutation) ---------
    def on_mutation(
        self, pool: LivePool, leaving: Juror | None, joining: Juror | None
    ) -> None:
        """Log an add (no ``leaving``), a remove (no ``joining``) or an update."""
        if joining is None:
            record = {"v": 1, "op": "remove", "ver": pool.version, "id": leaving.juror_id}
        else:
            record = {"v": 1, "op": "add" if leaving is None else "update",
                      "ver": pool.version, "id": joining.juror_id,
                      "e": joining.error_rate, "r": joining.requirement}
        self._append(pool, record)

    def record_create(self, pool: LivePool) -> None:
        columns = pool.columns
        self._append(
            pool,
            {
                "v": 1,
                "op": "create",
                "ver": pool.version,
                "members": list(
                    zip(columns.ids, columns.eps.tolist(), columns.reqs.tolist())
                ),
            },
        )
        self._writer.flush()
        self._sync_counters()

    def record_drop(self, version: int) -> None:
        self._writer.append({"v": 1, "op": "drop", "ver": version})
        self._writer.flush()
        self._catalog.stats.wal_appends += 1
        self._sync_counters()

    # -- snapshot / lifecycle ------------------------------------------
    def take_snapshot(self, pool: LivePool) -> None:
        """Freeze the pool's current columns and compact the WAL."""
        columns = pool.columns
        write_snapshot(
            self.directory,
            version=pool.version,
            fingerprint=pool.fingerprint,
            eps=columns.eps,
            reqs=columns.reqs,
            ids=columns.ids,
        )
        self._snapshot_version = pool.version
        self._catalog.stats.snapshots += 1
        gc_snapshots(self.directory, keep=self._catalog.keep_snapshots)
        # Compact: every kept snapshot must stay a usable recovery base,
        # so records are dropped only up to the *oldest kept* generation.
        kept = list_snapshot_versions(self.directory)
        cutoff = min(kept) if len(kept) >= 2 else -1
        survivors = [r for r in self._records if r["ver"] > cutoff]
        if len(survivors) != len(self._records):
            self._records = survivors
            self._rewrite_wal()
        self._sync_counters()

    def flush(self) -> None:
        self._writer.flush()
        self._sync_counters()

    def close(self) -> None:
        self._writer.close()
        self._sync_counters()

    # -- internals ------------------------------------------------------
    def _append(self, pool: LivePool, record: dict) -> None:
        self._writer.append(record)
        self._records.append(record)
        self._catalog.stats.wal_appends += 1
        self._sync_counters()
        if (
            self._catalog.snapshot_interval
            and len(self._records) >= self._catalog.snapshot_interval
        ):
            self.take_snapshot(pool)

    def _rewrite_wal(self) -> None:
        """Rewrite the log to hold exactly ``self._records``, atomically."""
        fsync_batch = self._writer.fsync_batch
        self._writer.close()
        tmp = self.directory / f".tmp-{_WAL_NAME}"
        writer = WalWriter(tmp, fsync_batch=0)
        try:
            for record in self._records:
                writer.append(record)
        finally:
            writer.close()
        (tmp).replace(self.directory / _WAL_NAME)
        self._writer = WalWriter(
            self.directory / _WAL_NAME, fsync_batch=fsync_batch
        )
        self._fsyncs_seen = self._writer.fsyncs

    def _sync_counters(self) -> None:
        delta = self._writer.fsyncs - self._fsyncs_seen
        if delta > 0:
            self._catalog.stats.fsyncs += delta
            self._fsyncs_seen = self._writer.fsyncs


class PoolCatalog:
    """Durable, lazily-loaded namespace of :class:`LivePool` state.

    Parameters
    ----------
    data_dir:
        Root directory (created if absent).  One catalog per directory;
        the layout is documented in the module docstring.
    snapshot_interval:
        WAL records per pool between automatic columnar snapshots
        (``0`` disables automatic snapshots; recovery then replays the
        whole log).
    fsync_batch:
        WAL records per fsync — ``1`` (default) makes every acknowledged
        mutation durable, ``N`` group-commits, ``0`` leaves durability to
        the OS page cache (the benchmark's "durability off" mode).
    max_resident:
        LRU bound on simultaneously open pools; the coldest pool is
        flushed and evicted past it, so a catalog of thousands of pools
        needs memory only for the hot set.
    keep_snapshots:
        Snapshot generations retained per pool (older ones are GC'd).
    """

    def __init__(
        self,
        data_dir: str | Path,
        *,
        snapshot_interval: int = DEFAULT_SNAPSHOT_INTERVAL,
        fsync_batch: int = 1,
        max_resident: int = DEFAULT_MAX_RESIDENT,
        keep_snapshots: int = DEFAULT_KEEP_SNAPSHOTS,
    ) -> None:
        if snapshot_interval < 0:
            raise ValueError(
                f"snapshot_interval must be >= 0, got {snapshot_interval}"
            )
        if max_resident < 1:
            raise ValueError(f"max_resident must be >= 1, got {max_resident}")
        if keep_snapshots < 1:
            raise ValueError(f"keep_snapshots must be >= 1, got {keep_snapshots}")
        self.data_dir = Path(data_dir)
        self.snapshot_interval = snapshot_interval
        self.fsync_batch = fsync_batch
        self.max_resident = max_resident
        self.keep_snapshots = keep_snapshots
        self.stats = CatalogStats()
        self._lock = threading.RLock()
        self._resident: OrderedDict[str, tuple[LivePool, PoolStore]] = (
            OrderedDict()
        )
        self._closed = False
        self._pools_dir = self.data_dir / "pools"
        self._pools_dir.mkdir(parents=True, exist_ok=True)
        marker = self.data_dir / "CATALOG.json"
        if not marker.exists():
            marker.write_text(
                json.dumps({"v": 1, "format": "repro-pool-catalog"}) + "\n",
                encoding="utf-8",
            )
        self._index: dict[str, Path] = {}
        self._build_index()

    # ------------------------------------------------------------------
    # namespace
    # ------------------------------------------------------------------
    def names(self) -> tuple[str, ...]:
        """Every pool the catalog knows — resident *and* cold on disk."""
        with self._lock:
            return tuple(self._index)

    def __contains__(self, name: str) -> bool:
        return name in self._index

    def __len__(self) -> int:
        return len(self._index)

    @property
    def resident(self) -> int:
        """Pools currently open in memory."""
        return len(self._resident)

    def resident_items(self) -> list[tuple[str, LivePool]]:
        """Snapshot of the resident (open) pools, coldest first.

        Lock-free, so a stats probe never waits behind a recovery, a
        create's fsync or a drop that holds the catalog lock.  The copy is
        one call; if another thread resizes the mapping during it, it
        raises :class:`RuntimeError` and the caller retries.
        """
        return [(name, pool) for name, (pool, _) in list(self._resident.items())]

    def resident_pool(self, name: str) -> LivePool | None:
        """The named pool if it is open in memory, else ``None``.

        Lock-free and without side effects: it never loads a pool, moves it
        in the LRU or counts a lazy load.
        """
        entry = self._resident.get(name)
        return None if entry is None else entry[0]

    # ------------------------------------------------------------------
    # lifecycle of individual pools
    # ------------------------------------------------------------------
    def create(
        self,
        name: str,
        candidates: Iterable[Juror] = (),
        *,
        replace: bool = False,
    ) -> LivePool:
        """Register a new durable pool; same semantics as the registry."""
        if not isinstance(name, str) or not name:
            raise ValueError(f"pool name must be a non-empty string, got {name!r}")
        with self._lock:
            self._check_open()
            if name in self._index:
                if not replace:
                    raise InvalidJuryError(
                        f"pool {name!r} already exists in the registry"
                    )
                self.drop(name)
            pool = LivePool(candidates, pool_id=name)
            directory = self._pools_dir / pool_slug(name)
            if directory.exists():  # leftover debris from a crashed drop
                shutil.rmtree(directory)
            directory.mkdir(parents=True)
            meta = directory / _META_NAME
            meta.write_text(
                json.dumps({"v": 1, "name": name}) + "\n", encoding="utf-8"
            )
            writer = WalWriter(
                directory / _WAL_NAME, fsync_batch=self.fsync_batch
            )
            store = PoolStore(self, name, directory, writer)
            store.record_create(pool)
            pool.bind_store(store)
            self._index[name] = directory
            self._resident[name] = (pool, store)
            self._resident.move_to_end(name)
            self._evict_over_limit()
            return pool

    def open(self, name: str) -> LivePool:
        """The named pool, loading (and recovering) it on first access."""
        with self._lock:
            self._check_open()
            entry = self._resident.get(name)
            if entry is not None:
                self._resident.move_to_end(name)
                return entry[0]
            directory = self._index.get(name)
            if directory is None:
                raise PoolNotFoundError(
                    f"no pool named {name!r} in the registry"
                )
            pool, store = self._recover(name, directory)
            self._resident[name] = (pool, store)
            self._resident.move_to_end(name)
            self._evict_over_limit()
            return pool

    def drop(self, name: str) -> None:
        """Tombstone a pool: durable WAL record, snapshot GC, dir removal.

        The drop record is fsynced *before* any file is deleted, so a
        crash mid-drop can only leave a tombstoned directory — which the
        next open or index build garbage-collects — never a resurrected
        pool.
        """
        with self._lock:
            self._check_open()
            directory = self._index.get(name)
            if directory is None:
                raise PoolNotFoundError(
                    f"no pool named {name!r} in the registry"
                )
            entry = self._resident.pop(name, None)
            if entry is not None:
                pool, store = entry
                store.record_drop(pool.version + 1)
                store.close()
                pool.bind_store(None)
            else:
                scan = scan_wal(directory / _WAL_NAME)
                last_ver = scan.records[-1]["ver"] if scan.records else 0
                writer = WalWriter(
                    directory / _WAL_NAME,
                    fsync_batch=1,
                    valid_bytes=scan.valid_bytes,
                )
                try:
                    writer.append({"v": 1, "op": "drop", "ver": last_ver + 1})
                finally:
                    writer.close()
                self.stats.wal_appends += 1
                self.stats.fsyncs += writer.fsyncs
            # Durable tombstone in place; now reclaim, marking META first
            # so a partially-deleted directory is recognisably dead.
            self._write_tombstone_meta(directory, name)
            gc_snapshots(directory, keep=0)
            shutil.rmtree(directory, ignore_errors=True)
            del self._index[name]
            self.stats.tombstones += 1

    # ------------------------------------------------------------------
    # whole-catalog lifecycle
    # ------------------------------------------------------------------
    def flush(self) -> None:
        """Fsync every resident pool's WAL (the drain/SIGTERM path)."""
        with self._lock:
            for _, store in self._resident.values():
                store.flush()

    def close(self) -> None:
        """Flush and close every resident store.  Idempotent and terminal."""
        with self._lock:
            if self._closed:
                return
            for _, store in self._resident.values():
                store.flush()
                store.close()
            for pool, _ in self._resident.values():
                pool.bind_store(None)
            self._resident.clear()
            self._closed = True

    @property
    def closed(self) -> bool:
        return self._closed

    def stats_snapshot(self) -> dict:
        """The catalog counter block every ``stats()`` tier embeds."""
        s = self.stats
        return {
            "data_dir": str(self.data_dir),
            "pools": len(self._index),
            "resident": len(self._resident),
            "max_resident": self.max_resident,
            "snapshot_interval": self.snapshot_interval,
            "fsync_batch": self.fsync_batch,
            "wal_appends": s.wal_appends,
            "fsyncs": s.fsyncs,
            "snapshots": s.snapshots,
            "snapshot_fallbacks": s.snapshot_fallbacks,
            "replays": s.replays,
            "records_replayed": s.records_replayed,
            "lazy_loads": s.lazy_loads,
            "recovered_truncated": s.recovered_truncated,
            "evictions": s.evictions,
            "tombstones": s.tombstones,
            "recovery_ms": round(s.recovery_ms, 3),
            "last_recovery_ms": round(s.last_recovery_ms, 3),
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"PoolCatalog({str(self.data_dir)!r}, pools={len(self._index)}, "
            f"resident={len(self._resident)})"
        )

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _check_open(self) -> None:
        if self._closed:
            raise StorageError(f"catalog at {self.data_dir} is closed")

    def _build_index(self) -> None:
        for entry in sorted(self._pools_dir.iterdir()):
            if not entry.is_dir():
                continue
            meta_path = entry / _META_NAME
            try:
                meta = json.loads(meta_path.read_text(encoding="utf-8"))
            except (OSError, json.JSONDecodeError):
                # A directory without readable META is debris from a
                # crashed drop (META is the first file deleted state
                # passes through) — reclaim it.
                shutil.rmtree(entry, ignore_errors=True)
                continue
            if meta.get("dropped"):
                shutil.rmtree(entry, ignore_errors=True)
                continue
            name = meta.get("name")
            if isinstance(name, str) and name:
                self._index[name] = entry

    def _write_tombstone_meta(self, directory: Path, name: str) -> None:
        try:
            (directory / _META_NAME).write_text(
                json.dumps({"v": 1, "name": name, "dropped": True}) + "\n",
                encoding="utf-8",
            )
        except OSError:  # pragma: no cover - directory already gone
            pass

    def _evict_over_limit(self) -> None:
        while len(self._resident) > self.max_resident:
            _, (pool, store) = self._resident.popitem(last=False)
            store.flush()
            store.close()
            pool.bind_store(None)
            self.stats.evictions += 1

    def _load_snapshot_base(
        self, directory: Path
    ) -> tuple[SnapshotData | None, int]:
        """Newest verifiable snapshot (or None) + how many failed first."""
        failures = 0
        for version in list_snapshot_versions(directory):
            try:
                return load_snapshot(snapshot_dir(directory, version)), failures
            except StorageError:
                failures += 1
                continue
        return None, failures

    def _recover(self, name: str, directory: Path) -> tuple[LivePool, PoolStore]:
        """Snapshot + WAL-tail replay; the crash-recovery path."""
        started = time.perf_counter()
        base, fallbacks = self._load_snapshot_base(directory)
        self.stats.snapshot_fallbacks += fallbacks
        scan = scan_wal(directory / _WAL_NAME)
        if scan.truncated:
            self.stats.recovered_truncated += 1

        pool: LivePool | None = None
        snapshot_version = -1
        if base is not None:
            pool = LivePool(
                _recovered(name, base.ids, base.eps, base.reqs),
                pool_id=name,
                start_version=base.version,
            )
            if pool.fingerprint != base.fingerprint:
                raise StorageError(
                    f"pool {name!r}: snapshot fingerprint mismatch "
                    f"({pool.fingerprint} != manifest {base.fingerprint}) — "
                    "refusing to serve unverifiable state"
                )
            snapshot_version = base.version

        replayed = 0
        for record in scan.records:
            version = record.get("ver", -1)
            op = record.get("op")
            if op == "drop":
                # Tombstoned pool whose directory survived a crashed drop.
                self._gc_tombstoned(name, directory)
                raise PoolNotFoundError(
                    f"no pool named {name!r} in the registry"
                )
            if version <= snapshot_version:
                continue  # already folded into the snapshot base
            if op == "create":
                members = record.get("members")
                ids, eps, reqs = zip(*members) if members else ((), (), ())
                # The WAL mirror keeps rows as tuples, which the GC stops tracking.
                record["members"] = list(zip(ids, eps, reqs))
                pool = LivePool(
                    _recovered(name, tuple(map(str, ids)), eps, reqs),
                    pool_id=name,
                    start_version=version,
                )
                replayed += 1
                continue
            if pool is None:
                raise StorageError(
                    f"pool {name!r}: WAL names version {version} but no "
                    "snapshot or create record provides a base state"
                )
            try:
                if op == "add":
                    pool.add_juror(
                        Juror(
                            float(record["e"]),
                            float(record["r"]),
                            juror_id=str(record["id"]),
                        )
                    )
                elif op == "remove":
                    pool.remove_juror(str(record["id"]))
                elif op == "update":
                    pool.update_juror(
                        str(record["id"]),
                        error_rate=float(record["e"]),
                        requirement=float(record["r"]),
                    )
                else:
                    raise StorageError(
                        f"pool {name!r}: unknown WAL op {op!r}"
                    )
            except (KeyError, InvalidJuryError, TypeError, ValueError) as exc:
                raise StorageError(
                    f"pool {name!r}: WAL record at version {version} cannot "
                    f"be replayed ({exc}) — refusing to serve divergent state"
                ) from exc
            if pool.version != version:
                raise StorageError(
                    f"pool {name!r}: WAL version discontinuity (expected "
                    f"{pool.version}, record says {version})"
                )
            replayed += 1
        if pool is None:
            raise StorageError(
                f"pool {name!r}: no snapshot and no valid WAL records"
            )

        writer = WalWriter(
            directory / _WAL_NAME,
            fsync_batch=self.fsync_batch,
            valid_bytes=max(scan.valid_bytes, len(MAGIC)),
        )
        store = PoolStore(
            self,
            name,
            directory,
            writer,
            records=scan.records,
            snapshot_version=snapshot_version,
        )
        pool.bind_store(store)
        elapsed_ms = (time.perf_counter() - started) * 1e3
        self.stats.lazy_loads += 1
        self.stats.replays += 1
        self.stats.records_replayed += replayed
        self.stats.recovery_ms += elapsed_ms
        self.stats.last_recovery_ms = elapsed_ms
        return pool, store

    def _gc_tombstoned(self, name: str, directory: Path) -> None:
        self._write_tombstone_meta(directory, name)
        shutil.rmtree(directory, ignore_errors=True)
        self._index.pop(name, None)
