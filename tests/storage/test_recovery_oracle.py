"""The churn-then-crash-then-recover oracle (the PR's acceptance bar).

Property: for ANY random sequence of pool commands and ANY hard truncation
of the WAL (a crash may tear the log at any byte, not just at record
boundaries), the recovered pool is **bit-identical** to an in-memory
oracle pool that replays exactly the surviving command prefix:

* same fingerprint (content hash over ids and exact doubles),
* same version,
* same sweep profile to the last bit,
* same answer-frontier probes,
* same selections through a real :class:`BatchSelectionEngine`.

A command holds one to three juror mutations and is logged as one record,
so a truncation at any byte recovers to a command boundary: the recovered
version is the version after some prefix of the commands, never one that
splits a command.  The oracle needs no knowledge of the storage layout: it
replays that prefix against the same seed members.  Snapshots make the
property stronger, not weaker — a truncation that chops records already
folded into a snapshot must still recover to at least the snapshot version.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.juror import Juror
from repro.errors import StorageError
from repro.service import BatchSelectionEngine, PoolRegistry, SelectionQuery
from repro.service.registry import LivePool
from repro.storage import PoolCatalog, pool_slug, scan_wal
from repro.storage.snapshot import list_snapshot_versions

SEED_EPS = (0.12, 0.2, 0.31, 0.4)

# One abstract churn step: (kind, payload).  Resolution against the current
# membership is deterministic, so replaying a prefix of the same list
# produces the same mutations whatever storage sat underneath.
_op = st.one_of(
    st.tuples(
        st.just("add"),
        st.floats(0.05, 0.6, allow_nan=False).map(lambda v: round(v, 3)),
    ),
    st.tuples(st.just("remove"), st.integers(0, 10**6)),
    st.tuples(
        st.just("update"),
        st.tuples(
            st.integers(0, 10**6),
            st.floats(0.05, 0.6, allow_nan=False).map(lambda v: round(v, 3)),
        ),
    ),
)


def _seed_members():
    return [
        Juror(e, 1.0 + i, juror_id=f"s{i}") for i, e in enumerate(SEED_EPS)
    ]


def _apply(pool: LivePool, ops) -> None:
    """Apply abstract ops as one command, made total deterministically.

    Removes resolve first, then adds, then updates, the order
    :meth:`LivePool.apply` runs them in, each against the membership the
    steps before it leave.  A remove that would empty the pool is skipped.
    Minted ids continue from the highest ``j`` id in the pool, so a replayed
    prefix mints the same ids.
    """
    ids = list(pool.columns.ids)
    remove = []
    for kind, payload in ops:
        if kind == "remove" and len(ids) > 1:
            remove.append(ids.pop(payload % len(ids)))
    minted = 1 + max(
        (int(i[1:]) for i in pool.columns.ids if i.startswith("j")), default=-1
    )
    add = []
    for kind, payload in ops:
        if kind == "add":
            add.append(Juror(payload, 1.0, juror_id=f"j{minted + len(add)}"))
    ids += [j.juror_id for j in add]
    updates = []
    for kind, payload in ops:
        if kind == "update":
            index, error_rate = payload
            updates.append((ids[index % len(ids)], error_rate, None))
    pool.apply(remove, add, updates)


@settings(max_examples=30, deadline=None)
@given(
    commands=st.lists(st.lists(_op, min_size=1, max_size=3), min_size=1, max_size=12),
    cut_fraction=st.floats(0.0, 1.0),
    snapshot_interval=st.sampled_from([0, 3, 7]),
)
def test_recovered_pool_bit_identical_to_oracle(
    tmp_path_factory, commands, cut_fraction, snapshot_interval
):
    tmp_path = tmp_path_factory.mktemp("oracle")

    # -- churn a durable pool, then crash it -----------------------------
    catalog = PoolCatalog(
        tmp_path, snapshot_interval=snapshot_interval, fsync_batch=1
    )
    pool = catalog.create("P", _seed_members())
    boundaries = [0]  # the version after each command prefix
    for ops in commands:
        _apply(pool, ops)
        boundaries.append(pool.version)
    catalog.close()

    wal = tmp_path / "pools" / pool_slug("P") / "wal.log"
    raw = wal.read_bytes()
    cut = int(round(cut_fraction * len(raw)))
    wal.write_bytes(raw[: len(raw) - cut])  # the crash: a hard tail chop

    # -- recover ---------------------------------------------------------
    recovered_catalog = PoolCatalog(tmp_path, snapshot_interval=snapshot_interval)
    try:
        recovered = recovered_catalog.open("P")
    except StorageError:
        # Only legitimate when the crash destroyed every base: no snapshot
        # survived and the WAL lost even the create record.  Refusing is
        # the contract ("never silently wrong"); serving would be the bug.
        pool_dir = tmp_path / "pools" / pool_slug("P")
        assert list_snapshot_versions(pool_dir) == []
        assert scan_wal(wal).records == []
        recovered_catalog.close()
        return
    version = recovered.version
    assert version in boundaries  # a command boundary, never inside one

    # -- oracle: replay exactly the surviving prefix in memory -----------
    oracle = LivePool(_seed_members(), pool_id="P")
    for ops in commands[: boundaries.index(version)]:
        _apply(oracle, ops)

    assert recovered.fingerprint == oracle.fingerprint
    assert recovered.version == oracle.version
    assert [j.juror_id for j in recovered.ordered] == [
        j.juror_id for j in oracle.ordered
    ]
    assert np.array_equal(recovered.error_rates, oracle.error_rates)

    ns_r, jers_r = recovered.sweep_profile()
    ns_o, jers_o = oracle.sweep_profile()
    assert np.array_equal(ns_r, ns_o)
    assert np.array_equal(jers_r, jers_o)  # bitwise on float64

    frontier_r, _ = recovered.answer_frontier()
    frontier_o, _ = oracle.answer_frontier()
    assert np.array_equal(frontier_r.ns, frontier_o.ns)
    assert np.array_equal(frontier_r.best_ns, frontier_o.best_ns)
    assert np.array_equal(frontier_r.best_jers, frontier_o.best_jers)

    # -- and through the engine: identical selections --------------------
    oracle_registry = PoolRegistry()
    oracle_registry._pools["P"] = oracle
    recovered_registry = PoolRegistry(catalog=recovered_catalog)
    engine_r = BatchSelectionEngine(registry=recovered_registry)
    engine_o = BatchSelectionEngine(registry=oracle_registry)
    query = SelectionQuery(task_id="q", pool_name="P")
    outcome_r = engine_r.run([query])[0]
    outcome_o = engine_o.run([query])[0]
    assert outcome_r.ok and outcome_o.ok
    assert outcome_r.result.jer == outcome_o.result.jer  # bitwise
    assert [j.juror_id for j in outcome_r.result.jury] == [
        j.juror_id for j in outcome_o.result.jury
    ]
    recovered_catalog.close()
