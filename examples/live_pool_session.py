#!/usr/bin/env python3
"""Live pools: selection under juror churn, without resweeping the world.

A platform's candidate population is never frozen — jurors arrive, leave,
and their estimated error rates drift as the microblog stream flows.  This
example shows the live-pool stack at its three levels:

1. a :class:`LivePool` mutated directly — versions, and one sweep and one
   answer frontier per queried version;
2. the registry-backed engine — ``pool_name`` queries interleaved with
   churn, each answered from the pool's answer frontier: a repeat probes
   the version's frontier, and the first select after any churn builds the
   new version's frontier whole;
3. the estimation pipeline's incremental mode — a fresh
   ``estimate_candidates`` result diffed onto the pool instead of replacing
   it — plus the ``repro-select serve`` wire format for the same session.

Run:  python examples/live_pool_session.py
"""

from __future__ import annotations

import json

import numpy as np

from repro import (
    BatchSelectionEngine,
    Juror,
    PoolRegistry,
    SelectionQuery,
    jurors_from_arrays,
)
from repro.estimation import estimate_candidates, sync_pool_with_estimate
from repro.estimation.tweets import Tweet, TweetCorpus


def main() -> None:
    rng = np.random.default_rng(11)
    registry = PoolRegistry()
    engine = BatchSelectionEngine(registry=registry)

    # -- 1. a live pool under churn ------------------------------------------
    print("== 1. LivePool: versioned churn, one sweep per queried version ==")
    pool = registry.create(
        "workers", jurors_from_arrays(rng.uniform(0.05, 0.5, size=101))
    )
    pool.add_juror(Juror(0.03, juror_id="star"))
    pool.update_error_rate("j50", 0.49)
    pool.remove_juror("j13")
    frontier, _ = pool.answer_frontier()  # sweeps version 3, once
    best, _, _ = frontier.probe()
    print(f"  version {pool.version}, size {pool.size}, best odd prefix {best}")
    # A churn burst of three mutations is three versions, but only the one
    # queried next is swept, and its frontier built, once; a repeat hits.
    worst = [j.juror_id for j in pool.ordered[-3:]]
    for juror_id in worst:
        pool.update_error_rate(juror_id, float(rng.uniform(0.45, 0.5)))
    _, mode = pool.answer_frontier()
    _, again = pool.answer_frontier()
    print(
        f"  {pool.stats.mutations} mutations, {pool.stats.repairs} sweeps; "
        f"frontier {mode}, then {'hit' if again == 'cached' else again}"
    )

    # -- 2. churn interleaved with registry-backed queries -------------------
    print("== 2. engine queries against the live pool ==")
    # Each query reads which frontier counter of the engine it moved: a hit
    # is a binary search on the version's frontier; a build sweeps the
    # version and builds its frontier first.
    counters = {"hit": "frontier_hits", "built": "frontier_builds"}

    def ask(task_id: str) -> None:
        before = {mode: getattr(engine.stats, name) for mode, name in counters.items()}
        outcome = engine.run([SelectionQuery(task_id=task_id, pool_name="workers")])[0]
        (how,) = [
            mode for mode, name in counters.items()
            if getattr(engine.stats, name) > before[mode]
        ]
        print(f"  {task_id:<8} (v{pool.version}, {how}): {outcome.result.summary()}")

    ask("t-before")  # version 6's frontier was built in section 1
    pool.remove_juror("star")  # sorted position 0
    ask("t-head")
    pool.update_error_rate(pool.ordered[-1].juror_id, 0.5)  # the sorted tail
    ask("t-tail")
    ask("t-repeat")

    # -- 3. incremental estimation refresh -----------------------------------
    print("== 3. estimation pipeline in incremental mode ==")
    corpus = TweetCorpus(
        [
            Tweet("fan1", "RT @guru insight"),
            Tweet("fan2", "RT @guru more insight"),
            Tweet("fan2", "RT @sage wisdom"),
            Tweet("guru", "original thought"),
            Tweet("sage", "calm thought"),
        ]
    )
    estimated = registry.create(
        "estimated", estimate_candidates(corpus, ranking="pagerank").jurors
    )
    refreshed = estimate_candidates(
        TweetCorpus(list(corpus) + [Tweet("fan3", "RT @guru late insight")]),
        ranking="pagerank",
    )
    report = sync_pool_with_estimate(estimated, refreshed)
    print(f"  {report.summary()}")

    print("== equivalent repro-select serve session ==")
    for row in [
        {"cmd": "pool", "action": "create", "name": "workers",
         "candidates": [{"id": "A", "error_rate": 0.1}, {"id": "B", "error_rate": 0.2},
                        {"id": "C", "error_rate": 0.3}]},
        {"cmd": "select", "task": "t-before", "pool": "workers"},
        {"cmd": "pool", "action": "update", "name": "workers",
         "add": [{"id": "star", "error_rate": 0.03}],
         "set": [{"id": "C", "error_rate": 0.49}]},
        {"cmd": "select", "task": "t-after", "pool": "workers"},
        {"cmd": "stats"},
    ]:
        print(f"  {json.dumps(row)}")
    print("  (feed to:  repro-select serve)")


if __name__ == "__main__":
    main()
