"""Batch selection service: answer many jury-selection queries at once.

The paper's single-query algorithms answer *one* "whom to ask?" question; a
crowdsourcing platform asks thousands concurrently.  This package
restructures the execution path for that workload shape:

:class:`BatchSelectionEngine`
    Accepts a batch of :class:`SelectionQuery` objects (mixed AltrM / PayM /
    exact, shared or per-task candidate pools) and executes them in-process
    through vectorized kernels and a per-pool prefix-sweep cache.
:class:`CandidatePool`
    An immutable, fingerprinted candidate set shareable across queries
    (defined in :mod:`repro.plan.pool`, re-exported here).
:class:`LivePool` / :class:`PoolRegistry`
    Mutable, versioned candidate pools whose Lemma 3 ordering is
    delta-maintained under juror churn and whose prefix-JER sweep profile is
    cached per version (:mod:`repro.service.registry`);
    ``SelectionQuery(pool_name=...)`` resolves against an engine's registry.
:class:`PrefixSweepCache`
    The LRU cache of odd-prefix JER profiles keyed on pool fingerprints.
    Content keying makes it churn-safe: a live-pool mutation changes the
    fingerprint (stale profiles cannot be served), and reverting the
    membership restores the old fingerprint's hits.

The single-query selectors (:func:`repro.select_jury_altr`,
:func:`repro.select_jury_pay`) are thin wrappers over this engine with a
batch of one, so batched and scalar selection are bit-identical by
construction.  The ``repro-select batch`` CLI subcommand exposes the engine
over JSONL and ``repro-select serve`` keeps a registry-backed session alive
across interleaved pool mutations and selections;
``benchmarks/bench_batch.py`` measures throughput.
"""

from repro.plan.pool import CandidatePool, as_pool
from repro.service.batch import BatchSelectionEngine, QueryOutcome, SelectionQuery
from repro.service.cache import PrefixSweepCache
from repro.service.registry import LivePool, LivePoolStats, PoolRegistry

__all__ = [
    "BatchSelectionEngine",
    "SelectionQuery",
    "QueryOutcome",
    "CandidatePool",
    "LivePool",
    "LivePoolStats",
    "PoolRegistry",
    "PrefixSweepCache",
    "as_pool",
]
