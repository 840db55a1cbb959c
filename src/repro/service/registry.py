"""Live pool registry: versioned candidate pools under churn.

The paper's platform continuously re-estimates juror error rates from the
microblog stream, so the population a selection query draws from is never
frozen: jurors arrive, leave, and drift.  :class:`CandidatePool` snapshots
are immutable — every churn event would force a new pool and a full
re-sort.  This module keeps the *update path* cheap without giving up
anything on the *query path*:

:class:`LivePool`
    A mutable candidate pool whose every mutation (``add_juror`` /
    ``remove_juror`` / ``update_juror``) produces a monotonically increasing
    ``version``.  A version is one set of Lemma 3-sorted
    :class:`~repro.core.juror.JurorColumns` plus an id -> error-rate index,
    with no object per juror: a mutation finds its row by binary search on
    the error-rate column, ids breaking ties as in :func:`lemma3_order`, and
    splices the next version's columns (``O(n)``).  The odd-prefix JER
    profile of a version is swept on first request with
    :func:`repro.core.jer.batch_prefix_jer_sweep`, the call the batch engine
    makes for frozen pools, so live profiles are **bit-identical** to a
    fresh :class:`CandidatePool`'s.  One level up, the pool owns its
    :class:`~repro.plan.frontier.AnswerFrontier`
    (:meth:`LivePool.answer_frontier`), from which the batch engine answers
    every AltrM select of the pool; each version's frontier is built whole
    from its profile on the version's first AltrM select.  One level
    further up, the pool keeps its version's answer encoder
    (:meth:`LivePool.answer`): by Lemma 3 an AltrM answer is the first
    ``size`` rows, fixed by the version and the size alone.  A mutation
    leaves profile, frontier and encoder behind.

:class:`PoolRegistry`
    A name -> :class:`LivePool` namespace shared by the batch engine
    (``SelectionQuery(pool_name=...)``), the estimation pipeline
    (:func:`repro.estimation.pipeline.sync_pool_with_estimate`) and the
    ``repro-select serve`` session.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass
from typing import TypeVar

import numpy as np

from repro.core.jer import batch_prefix_jer_sweep
from repro.core.juror import Juror, JurorColumns
from repro.core.selection.base import columns_fingerprint, lemma3_order
from repro.errors import EmptyCandidateSetError, InvalidJuryError, PoolNotFoundError
from repro.plan.frontier import AnswerFrontier
from repro.plan.pool import CandidatePool

__all__ = ["LivePool", "LivePoolStats", "PoolRegistry"]

T = TypeVar("T")


@dataclass
class LivePoolStats:
    """Counters describing the sweep and frontier work a pool has performed."""

    mutations: int = 0
    #: Profile sweeps.  Every sweep covers the whole pool, so
    #: ``full_rebuilds`` always equals ``repairs``.
    repairs: int = 0
    full_rebuilds: int = 0
    #: Answer frontiers built, one per version selected from (see
    #: :meth:`LivePool.answer_frontier`).
    frontier_builds: int = 0


class LivePool:
    """A mutable, versioned candidate pool with per-version sweep state.

    Parameters
    ----------
    candidates:
        Initial members, as jurors or columns; the pool keeps their values
        in Lemma 3 order, not the jurors.  The initial population counts as
        version ``start_version``, not as one mutation per juror.
    pool_id:
        Human-readable label (e.g. the registry name).
    start_version:
        The version the initial population represents.  ``0`` for a fresh
        pool; the snapshot version when the catalog rebuilds a pool from a
        columnar snapshot, so replayed WAL records line up with the
        versions they were logged under.

    Examples
    --------
    >>> from repro.core.juror import jurors_from_arrays
    >>> pool = LivePool(jurors_from_arrays([0.3, 0.1, 0.2]))
    >>> pool.version, pool.size
    (0, 3)
    >>> pool.add_juror(Juror(0.15, juror_id="new"))
    1
    >>> [j.error_rate for j in pool.ordered]
    [0.1, 0.15, 0.2, 0.3]
    """

    def __init__(
        self,
        candidates: JurorColumns | Iterable[Juror] = (),
        *,
        pool_id: str | None = None,
        start_version: int = 0,
    ) -> None:
        if start_version < 0:
            raise ValueError(
                f"start_version must be >= 0, got {start_version!r}"
            )
        self.pool_id = pool_id
        given = JurorColumns.from_jurors(candidates)
        order = lemma3_order(given.ids, given.eps)
        # The current version's read-only columns, replaced (never
        # rewritten) by each mutation, and each member's error rate by id.
        self._columns = JurorColumns(
            tuple(map(given.ids.__getitem__, order.tolist())), given.eps[order], given.reqs[order]
        )
        self._index = dict(zip(given.ids, given.eps.tolist()))
        if len(self._index) != len(given):
            seen: set[str] = set()
            duplicate = next(i for i in given.ids if i in seen or seen.add(i))
            raise InvalidJuryError(f"juror {duplicate!r} is already in the pool")
        self._version = start_version
        self._fingerprint: str | None = None
        self._profile: tuple[int, np.ndarray, np.ndarray] | None = None
        # The last answer frontier built for this pool, labelled with its
        # version.
        self._frontier: AnswerFrontier | None = None
        # The current version's answer encoder, made on its first answer.
        self._answers: Callable | None = None
        # Durability hook: when a catalog store is bound, every successful
        # mutation is reported to it (post-bump, so the record carries the
        # new version).  ``None`` keeps the pool purely in-memory.
        self._store = None
        self.stats = LivePoolStats()

    # ------------------------------------------------------------------
    # read access
    # ------------------------------------------------------------------
    @property
    def version(self) -> int:
        """Monotonically increasing state counter; +1 per mutation."""
        return self._version

    @property
    def size(self) -> int:
        """Current number of candidates."""
        return len(self._index)

    def __len__(self) -> int:
        return len(self._index)

    def __contains__(self, juror_id: str) -> bool:
        return juror_id in self._index

    def __iter__(self) -> Iterator[Juror]:
        return iter(self._columns)

    @property
    def ordered(self) -> JurorColumns:
        """Members in Lemma 3 (ascending error-rate) order: :attr:`columns`."""
        return self._columns

    def get(self, juror_id: str) -> Juror | None:
        """The member with this id, built for this call, or ``None``."""
        error_rate = self._index.get(juror_id)
        if error_rate is None:
            return None
        columns = self._columns
        row = _row(columns.ids, columns.eps, error_rate, juror_id)
        return Juror._trusted(error_rate, float(columns.reqs[row]), juror_id)

    @property
    def columns(self) -> JurorColumns:
        """The current version's members as read-only Lemma 3 columns.

        A mutation replaces them, never rewrites them, so snapshots and the
        catalog share them without copying.
        """
        return self._columns

    @property
    def error_rates(self) -> np.ndarray:
        """Error-rate vector in sweep order (the read-only ``eps`` column)."""
        return self._columns.eps

    @property
    def fingerprint(self) -> str:
        """Content hash of the current version (cached until the next mutation).

        Identical members always produce the identical fingerprint, whatever
        mutation path led there; the catalog's snapshots record it, and
        recovery checks it.
        """
        if self._fingerprint is None:
            columns = self._columns
            self._fingerprint = columns_fingerprint(
                columns.ids, columns.eps, columns.reqs
            )
        return self._fingerprint

    def snapshot(self) -> CandidatePool:
        """Freeze the current version as an immutable :class:`CandidatePool`.

        O(1): the pool wraps this version's :attr:`columns`, and adopts the
        fingerprint only if it is already known; it never hashes.
        """
        if not self._index:
            raise EmptyCandidateSetError("cannot snapshot an empty live pool")
        return CandidatePool._sorted(
            self._columns, fingerprint=self._fingerprint, pool_id=self.pool_id
        )

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------
    def add_juror(self, juror: Juror) -> int:
        """Add a candidate; returns the new version.  O(n) per call."""
        if not isinstance(juror, Juror):
            raise InvalidJuryError("only Juror instances can join a pool")
        if juror.juror_id in self._index:
            raise InvalidJuryError(f"juror {juror.juror_id!r} is already in the pool")
        return self._commit(None, juror)

    def remove_juror(self, juror_id: str) -> Juror:
        """Remove a candidate by id and return it.  O(n) per call."""
        juror = self._member(juror_id)
        self._commit(juror, None)
        return juror

    def update_juror(
        self,
        juror_id: str,
        *,
        error_rate: float | None = None,
        requirement: float | None = None,
    ) -> int:
        """Re-estimate a member in place; returns the new version.

        Equivalent to remove + re-add of a juror with the same id, but counts
        as a single version bump (one churn event, as produced by a pipeline
        re-estimation).
        """
        current = self._member(juror_id)
        replacement = Juror(
            current.error_rate if error_rate is None else error_rate,
            current.requirement if requirement is None else requirement,
            juror_id=juror_id,
        )
        return self._commit(current, replacement)

    def update_error_rate(self, juror_id: str, error_rate: float) -> int:
        """Drift a member's error-rate estimate; returns the new version."""
        return self.update_juror(juror_id, error_rate=error_rate)

    def bind_store(self, store) -> None:
        """Attach (or detach, with ``None``) a durable catalog store.

        While bound, every successful mutation is reported to the store
        *after* it is applied in memory, so the WAL only ever records
        mutations the pool accepted.  The catalog binds a store after
        create/recovery and detaches it on eviction and close.
        """
        self._store = store

    # ------------------------------------------------------------------
    # per-version sweep profile
    # ------------------------------------------------------------------
    def sweep_profile(self) -> tuple[np.ndarray, np.ndarray]:
        """Odd-prefix JER profile ``(ns, jers)`` of the current version.

        Sweeps the current Lemma 3 order with
        :func:`repro.core.jer.batch_prefix_jer_sweep`, the call the batch
        engine makes for frozen pools.  The arrays are read-only and stable
        for this version — repeated calls at the same version return the
        cached pair.
        """
        if not self._index:
            raise EmptyCandidateSetError("cannot sweep an empty live pool")
        if self._profile is not None and self._profile[0] == self._version:
            return self._profile[1], self._profile[2]

        ns, jer_matrix = batch_prefix_jer_sweep(self.error_rates[np.newaxis, :])
        jers = jer_matrix[0]
        self.stats.repairs += 1
        self.stats.full_rebuilds += 1
        ns.flags.writeable = False
        jers.flags.writeable = False
        self._profile = (self._version, ns, jers)
        return ns, jers

    @property
    def frontier_ready(self) -> bool:
        """Whether the current version's answer frontier is already built.

        O(1) and side-effect free: it never sweeps, hashes or builds.
        """
        frontier = self._frontier
        return frontier is not None and frontier.version == self._version

    def answer_frontier(self) -> tuple[AnswerFrontier, str]:
        """The answer frontier of the current version.

        Returns ``(frontier, mode)`` where ``mode`` is ``"cached"`` (built
        earlier for this version) or ``"built"`` (built now, whole, by
        :meth:`AnswerFrontier.build` from :meth:`sweep_profile`).  The
        frontier's probes are bit-identical to
        :func:`repro.core.jer.best_odd_prefix` over that profile.  No
        fingerprint is computed.
        """
        frontier = self._frontier
        if frontier is not None and frontier.version == self._version:
            return frontier, "cached"
        ns, jers = self.sweep_profile()
        self._frontier = frontier = AnswerFrontier.build(ns, jers, version=self._version)
        self.stats.frontier_builds += 1
        return frontier, "built"

    def answer(
        self, size: int, jer: float, encoder: Callable[[JurorColumns], Callable[[int, float], T]]
    ) -> T:
        """The current version's ``size``-member AltrM answer, encoded.

        By Lemma 3 that answer is the first ``size`` rows of :attr:`columns`,
        and its JER ``jer`` is fixed by the version and the size alone.
        ``encoder(columns)`` makes the version's encoder on its first answer,
        kept with the text it keeps until the next mutation; each answer is
        ``encode(size, jer)``.  Callers hold the engine lock.
        """
        encode = self._answers
        if encode is None:
            encode = self._answers = encoder(self._columns)
        return encode(size, jer)

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _member(self, juror_id: str) -> Juror:
        juror = self.get(juror_id)
        if juror is None:
            raise InvalidJuryError(f"juror {juror_id!r} is not in the pool")
        return juror

    def _splice(self, leaving: Juror | None, joining: Juror | None) -> None:
        """Make the next version's columns: ``leaving`` out, ``joining`` in."""
        ids, eps, reqs = self._columns.ids, self._columns.eps, self._columns.reqs
        if leaving is not None:
            row = _row(ids, eps, leaving.error_rate, leaving.juror_id)
            ids = ids[:row] + ids[row + 1 :]
            eps = np.concatenate((eps[:row], eps[row + 1 :]))
            reqs = np.concatenate((reqs[:row], reqs[row + 1 :]))
            del self._index[leaving.juror_id]
        if joining is not None:
            row = _row(ids, eps, joining.error_rate, joining.juror_id)
            ids = ids[:row] + (joining.juror_id,) + ids[row:]
            eps = np.concatenate((eps[:row], [joining.error_rate], eps[row:]))
            reqs = np.concatenate((reqs[:row], [joining.requirement], reqs[row:]))
            self._index[joining.juror_id] = joining.error_rate
        self._columns = JurorColumns(ids, eps, reqs)

    def _commit(self, leaving: Juror | None, joining: Juror | None) -> int:
        """Apply one mutation as the next version and report it to the store."""
        self._splice(leaving, joining)
        self._version += 1
        self._fingerprint = None
        self._answers = None
        self.stats.mutations += 1
        if self._store is not None:
            self._store.on_mutation(self, leaving, joining)
        return self._version

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        label = f" id={self.pool_id!r}" if self.pool_id else ""
        return f"LivePool(size={self.size}, version={self._version}{label})"


def _row(ids: tuple[str, ...], eps: np.ndarray, error_rate: float, juror_id: str) -> int:
    """The row of ``(error_rate, juror_id)`` in sorted columns, or where it goes:
    past smaller error rates and, among equal ones, past smaller ids."""
    first, last = eps.searchsorted(error_rate, "left"), eps.searchsorted(error_rate, "right")
    return bisect_left(ids, juror_id, int(first), int(last))


class PoolRegistry:
    """Named :class:`LivePool` namespace for the service layer.

    By default the namespace is purely in-memory.  Constructed with a
    :class:`repro.storage.PoolCatalog`, every operation delegates to the
    catalog instead: creates and mutations are WAL-logged, lookups lazily
    load (and crash-recover) pools from disk, and ``names()`` spans the
    whole durable namespace — including pools not currently resident.

    Examples
    --------
    >>> from repro.core.juror import jurors_from_arrays
    >>> registry = PoolRegistry()
    >>> pool = registry.create("P1", jurors_from_arrays([0.1, 0.2, 0.3]))
    >>> registry.get("P1") is pool
    True
    """

    def __init__(self, *, catalog=None) -> None:
        self._pools: dict[str, LivePool] = {}
        self._catalog = catalog

    @property
    def catalog(self):
        """The bound :class:`~repro.storage.PoolCatalog`, or ``None``."""
        return self._catalog

    def create(
        self,
        name: str,
        candidates: Iterable[Juror] = (),
        *,
        replace: bool = False,
    ) -> LivePool:
        """Register a new live pool under ``name``.

        With ``replace=False`` (default) an existing name raises; with
        ``replace=True`` the previous pool is dropped first, and the new pool
        starts at version 0.
        """
        if self._catalog is not None:
            return self._catalog.create(name, candidates, replace=replace)
        if not isinstance(name, str) or not name:
            raise ValueError(f"pool name must be a non-empty string, got {name!r}")
        if name in self._pools and not replace:
            raise InvalidJuryError(f"pool {name!r} already exists in the registry")
        pool = LivePool(candidates, pool_id=name)
        self._pools[name] = pool
        return pool

    def get(self, name: str) -> LivePool:
        """The pool registered under ``name``; raises :class:`PoolNotFoundError`.

        Catalog-backed registries load the pool from disk on first access
        (snapshot + WAL replay); the returned object is the same live pool
        for every call while it stays resident.
        """
        if self._catalog is not None:
            return self._catalog.open(name)
        try:
            return self._pools[name]
        except KeyError:
            raise PoolNotFoundError(
                f"no pool named {name!r} in the registry"
            ) from None

    def drop(self, name: str) -> LivePool:
        """Unregister and return the pool under ``name``.

        Catalog-backed registries tombstone the pool durably: a fsynced
        ``drop`` record lands in the WAL before any file is reclaimed, so
        the drop survives a crash and a restart cannot resurrect the pool.
        """
        if self._catalog is not None:
            pool = self._catalog.open(name)
            self._catalog.drop(name)
            return pool
        pool = self.get(name)
        del self._pools[name]
        return pool

    def names(self) -> tuple[str, ...]:
        """Registered pool names — the full durable namespace when
        catalog-backed (resident and cold alike), creation order otherwise."""
        if self._catalog is not None:
            return self._catalog.names()
        return tuple(self._pools)

    def resident_pools(self) -> list[tuple[str, LivePool]]:
        """The ``(name, pool)`` pairs currently held in memory.

        For an in-memory registry this is everything; for a catalog-backed
        one it is the LRU-resident subset — the set ``stats()`` reports on
        without forcing thousands of cold pools off disk.
        """
        if self._catalog is not None:
            return self._catalog.resident_items()
        return list(self._pools.items())

    def resident(self, name: str) -> LivePool | None:
        """The named pool if it is held in memory, else ``None``.

        Lock-free: unlike :meth:`get`, it never loads a cold catalog pool,
        touches the catalog's LRU or waits on the catalog lock.
        """
        if self._catalog is not None:
            return self._catalog.resident_pool(name)
        return self._pools.get(name)

    def __contains__(self, name: str) -> bool:
        if self._catalog is not None:
            return name in self._catalog
        return name in self._pools

    def __len__(self) -> int:
        if self._catalog is not None:
            return len(self._catalog)
        return len(self._pools)

    def __iter__(self) -> Iterator[LivePool]:
        """Iterate the pools held in memory (resident subset if durable)."""
        if self._catalog is not None:
            return iter(pool for _, pool in self._catalog.resident_items())
        return iter(self._pools.values())

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        if self._catalog is not None:
            return f"PoolRegistry(catalog={self._catalog!r})"
        return f"PoolRegistry(pools={list(self._pools)})"
