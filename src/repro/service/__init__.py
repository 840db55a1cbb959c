"""Batch selection service: answer many jury-selection queries at once.

The paper's single-query algorithms answer *one* "whom to ask?" question; a
crowdsourcing platform asks thousands concurrently.  This package
restructures the execution path for that workload shape:

:class:`BatchSelectionEngine`
    Accepts a batch of :class:`SelectionQuery` objects (mixed AltrM / PayM /
    exact, shared or per-task candidate pools) and executes them in-process:
    AltrM selects over inline candidates or frozen pools are answered from
    their sorted columns, same-sized pools swept together by vectorized
    kernels, and named pools answer AltrM selects from their own answer
    frontier.
:class:`CandidatePool`
    An immutable, fingerprinted candidate set shareable across queries
    (defined in :mod:`repro.plan.pool`, re-exported here).
:class:`LivePool` / :class:`PoolRegistry`
    Mutable, versioned candidate pools whose Lemma 3 ordering is
    delta-maintained under juror churn and whose prefix-JER sweep profile
    and answer frontier are kept per version (:mod:`repro.service.registry`);
    ``SelectionQuery(pool_name=...)`` resolves against an engine's registry.

The single-query selectors (:func:`repro.select_jury_altr`,
:func:`repro.select_jury_pay`) call ``plan_query() -> execute_plan()``
directly, the same pipeline the engine runs for every frozen pool, so
batched and scalar selection are bit-identical by construction.  The
``repro-select batch`` CLI subcommand exposes the engine over JSONL and
``repro-select serve`` keeps a registry-backed session alive across
interleaved pool mutations and selections; ``benchmarks/bench_batch.py``
measures throughput.
"""

from repro.plan.pool import CandidatePool, as_pool
from repro.service.batch import BatchSelectionEngine, QueryOutcome, SelectionQuery
from repro.service.registry import LivePool, LivePoolStats, PoolRegistry

__all__ = [
    "BatchSelectionEngine",
    "SelectionQuery",
    "QueryOutcome",
    "CandidatePool",
    "LivePool",
    "LivePoolStats",
    "PoolRegistry",
    "as_pool",
]
