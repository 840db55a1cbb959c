"""End-to-end parameter-estimation pipeline — paper Figure 2, upper half.

Chains the Section 4 stages into one call:

    corpus --(Alg 5)--> retweet graph --(Alg 6/7)--> quality scores
           --(Sec 4.1.3)--> error rates --(Sec 4.2)--> requirements
           --> candidate Juror set

The output is a list of :class:`~repro.core.juror.Juror` objects ready for
the selectors, plus the intermediate artefacts for inspection.  The paper
keeps the top-scoring users only ("we simply choose the 5,000 users with
highest scores"); ``top_k`` reproduces that cut.

For a *continuously* re-estimated platform the one-shot handoff wastes
work: most users' estimates barely move between pipeline runs.
:func:`sync_pool_with_estimate` is the incremental mode — it diffs a fresh
:class:`EstimationResult` against a live registry pool
(:class:`repro.service.registry.LivePool`) and applies only the changed
jurors, as one command: one version per changed juror, and one WAL record
when the pool is durable.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass

from repro.core.juror import Juror
from repro.errors import EstimationError
from repro.estimation.error_rate import scores_to_error_rates
from repro.estimation.graph import UserGraph, build_user_graph
from repro.estimation.ranking import hits, pagerank
from repro.estimation.requirement import ages_to_requirements
from repro.estimation.tweets import TweetCorpus

__all__ = [
    "EstimationResult",
    "estimate_candidates",
    "PoolSyncReport",
    "sync_pool_with_estimate",
]


@dataclass
class EstimationResult:
    """All artefacts produced by :func:`estimate_candidates`.

    Attributes
    ----------
    jurors:
        Candidate jurors (id = username) with estimated error rates and
        requirements, sorted by descending quality score.
    scores:
        Username -> raw quality score (HITS authority or PageRank).
    error_rates:
        Username -> estimated individual error rate.
    requirements:
        Username -> estimated payment requirement (0.0 when no account ages
        were supplied, i.e. the AltrM setting).
    graph:
        The retweet user graph the ranking ran on.
    ranking:
        Which ranker produced the scores, ``"hits"`` or ``"pagerank"``.
    """

    jurors: list[Juror]
    scores: dict[str, float]
    error_rates: dict[str, float]
    requirements: dict[str, float]
    graph: UserGraph
    ranking: str

    def top(self, k: int) -> list[Juror]:
        """The ``k`` best candidates by quality score."""
        return self.jurors[:k]


def estimate_candidates(
    corpus: TweetCorpus,
    *,
    ranking: str = "hits",
    alpha: float = 10.0,
    beta: float = 10.0,
    top_k: int | None = None,
    account_ages: Mapping[str, float] | None = None,
    damping: float = 0.85,
) -> EstimationResult:
    """Run the full Section 4 estimation pipeline on a tweet corpus.

    Parameters
    ----------
    corpus:
        Raw tweets (real or simulated).
    ranking:
        ``"hits"`` (Algorithm 6 authority scores, the paper's default
        reading) or ``"pagerank"`` (Algorithm 7).
    alpha, beta:
        Error-rate normalisation factors (Section 4.1.3; paper uses 10, 10).
    top_k:
        Keep only the ``top_k`` highest-scoring users as candidates (the
        paper keeps 5,000 of 689,050).  ``None`` keeps everyone.
    account_ages:
        Optional username -> account age map for the PayM requirement
        estimate (Section 4.2).  Users missing from the map get age 0.
        When ``None``, all requirements are 0 (AltrM candidates).
    damping:
        PageRank damping factor (ignored for HITS).

    Returns
    -------
    EstimationResult

    Examples
    --------
    >>> from repro.estimation.tweets import Tweet, TweetCorpus
    >>> corpus = TweetCorpus([
    ...     Tweet("fan1", "RT @guru insight"),
    ...     Tweet("fan2", "RT @guru more insight"),
    ...     Tweet("guru", "original thought"),
    ... ])
    >>> result = estimate_candidates(corpus, ranking="pagerank")
    >>> best = result.jurors[0]
    >>> best.juror_id
    'guru'
    """
    if ranking not in ("hits", "pagerank"):
        raise EstimationError(
            f"ranking must be 'hits' or 'pagerank', got {ranking!r}"
        )
    graph = build_user_graph(corpus)
    if ranking == "hits":
        scores = hits(graph).authorities
    else:
        scores = pagerank(graph, damping=damping)

    # Rank users by score (descending); deterministic tie-break on name.
    ranked_users = sorted(scores, key=lambda u: (-scores[u], u))
    if top_k is not None:
        if top_k < 1:
            raise EstimationError(f"top_k must be positive, got {top_k!r}")
        ranked_users = ranked_users[:top_k]
        scores = {u: scores[u] for u in ranked_users}

    error_rates = scores_to_error_rates(scores, alpha=alpha, beta=beta)

    if account_ages is None:
        requirements = {u: 0.0 for u in ranked_users}
    else:
        ages = {u: float(account_ages.get(u, 0.0)) for u in ranked_users}
        requirements = ages_to_requirements(ages)

    jurors = [
        Juror(error_rates[u], requirements[u], juror_id=u) for u in ranked_users
    ]
    return EstimationResult(
        jurors=jurors,
        scores=dict(scores),
        error_rates=error_rates,
        requirements=requirements,
        graph=graph,
        ranking=ranking,
    )


@dataclass(frozen=True)
class PoolSyncReport:
    """What :func:`sync_pool_with_estimate` changed on a live pool.

    Attributes
    ----------
    added, removed, updated:
        Juror ids (sorted) that joined, left, or had their error rate /
        requirement re-estimated.
    unchanged:
        Number of jurors whose estimates were identical to the pool's.
    version:
        The pool version after applying the diff.
    """

    added: tuple[str, ...]
    removed: tuple[str, ...]
    updated: tuple[str, ...]
    unchanged: int
    version: int

    @property
    def churn(self) -> int:
        """Total number of mutations applied."""
        return len(self.added) + len(self.removed) + len(self.updated)

    def summary(self) -> str:
        """One-line human-readable description."""
        return (
            f"pool sync: +{len(self.added)} -{len(self.removed)} "
            f"~{len(self.updated)} ={self.unchanged} -> version {self.version}"
        )


def sync_pool_with_estimate(
    pool,
    estimation: "EstimationResult | Sequence[Juror]",
    *,
    top_k: int | None = None,
) -> PoolSyncReport:
    """Incrementally apply a fresh estimation result to a live pool.

    Diffs the target candidate set (an :class:`EstimationResult`, optionally
    cut to its ``top_k`` best-scored users, or any juror sequence) against
    the current members of ``pool`` and applies only the differences:
    departures are removed, arrivals added, and drifted estimates updated in
    place, all as one :meth:`~repro.service.registry.LivePool.apply`
    command.  Jurors whose error rate and requirement are bit-equal to the
    pool's are not touched, so the pool's version advances by exactly the
    churn count; a refresh that changes nothing keeps the version.

    Parameters
    ----------
    pool:
        A :class:`repro.service.registry.LivePool` (or anything with its
        ``columns``, ``apply`` and ``version``).  Its members are read from
        the columns; no juror is built for them.
    estimation:
        The fresh pipeline output to converge the pool toward.
    top_k:
        Keep only the ``top_k`` best candidates of an
        :class:`EstimationResult` (the paper's 5,000-user cut); ignored for
        bare juror sequences.

    Returns
    -------
    PoolSyncReport
    """
    if isinstance(estimation, EstimationResult):
        target_jurors = estimation.top(top_k) if top_k is not None else estimation.jurors
    else:
        target_jurors = list(estimation)
    target = {j.juror_id: j for j in target_jurors}
    if len(target) != len(target_jurors):
        raise EstimationError("estimation result contains duplicate juror ids")
    columns = pool.columns
    current = dict(zip(columns.ids, zip(columns.eps.tolist(), columns.reqs.tolist())))

    removed = sorted(set(current) - set(target))
    added = sorted(set(target) - set(current))
    updated = sorted(
        juror_id
        for juror_id in set(target) & set(current)
        if (target[juror_id].error_rate, target[juror_id].requirement)
        != current[juror_id]
    )

    pool.apply(
        removed,
        [target[juror_id] for juror_id in added],
        [(i, target[i].error_rate, target[i].requirement) for i in updated],
    )

    return PoolSyncReport(
        added=tuple(added),
        removed=tuple(removed),
        updated=tuple(updated),
        unchanged=len(target) - len(added) - len(updated),
        version=pool.version,
    )
