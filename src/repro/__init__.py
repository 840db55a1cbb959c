"""repro — Jury Selection for Decision Making Tasks on Micro-blog Services.

A complete, from-scratch reproduction of

    Caleb Chen Cao, Jieying She, Yongxin Tong, Lei Chen.
    "Whom to Ask? Jury Selection for Decision Making Tasks on Micro-blog
    Services."  PVLDB 5(11): 1495-1506, VLDB 2012.

The library answers the question *whom should we ask?* when crowdsourcing a
binary decision to micro-blog users: given candidate jurors with individual
error rates (and, under the pay-as-you-go model, payment requirements), it
selects the jury whose Majority Voting answer has the lowest probability of
being wrong (the Jury Error Rate).

Quickstart
----------
>>> import repro
>>> candidates = repro.jurors_from_arrays([0.1, 0.2, 0.2, 0.3, 0.3, 0.4, 0.4])
>>> best = repro.select_jury_altr(candidates)
>>> best.size, round(best.jer, 4)
(5, 0.0704)

Package map
-----------
``repro.core``
    Jurors, juries, Majority Voting, the Poisson-Binomial distribution of the
    carelessness count, JER algorithms (naive / DP / convolution-FFT), bounds,
    and the AltrM / PayM / exact selectors.
``repro.plan``
    The plan-based execution core: :func:`repro.plan.plan_query` normalises
    a query (model strings are parsed once, here), a cost model picks the
    physical operator and numeric backends, and the operators consume
    columnar :class:`repro.CandidatePool` pools.  Every entry point —
    scalar selectors, batch engine, CLI, experiments — executes through it.
``repro.api``
    The public protocol: typed, versioned request/response dataclasses
    (:class:`repro.api.SelectionRequest` / ``SelectionResponse`` /
    ``PoolCommand`` / ``ErrorInfo``, wire tag ``"v": 1``), a structured
    error-code registry, and the :class:`repro.api.JuryService` /
    :class:`repro.api.AsyncJuryService` façades every surface (library,
    CLI, async serving) dispatches through.
``repro.service``
    The batch selection engine: many queries (mixed AltrM / PayM / exact,
    shared or per-task candidate pools) executed through vectorized prefix
    sweeps with per-pool caching; each query runs the plan->operator path.
    ``SelectionQuery``/``QueryOutcome`` are the engine's native types;
    new integrations should prefer the ``repro.api`` protocol.
``repro.estimation``
    Parameter estimation from raw tweets (paper Section 4): retweet-graph
    construction, from-scratch HITS and PageRank, error-rate normalisation and
    account-age-based payment requirements.
``repro.microblog``
    A synthetic micro-blog service (users, follower network, retweet
    cascades) standing in for the paper's proprietary Twitter dump.
``repro.simulation``
    Monte-Carlo majority-voting simulation used to validate analytic JERs.
``repro.synth``
    Synthetic workload generators matching the paper's Section 5.1 setups.
``repro.experiments``
    One module per paper table/figure, regenerating each evaluation artefact.
"""

from repro.core import (
    IncrementalJury,
    Juror,
    JurorInfluence,
    Jury,
    MajorityVoting,
    PoissonBinomial,
    PrefixJERSweeper,
    SelectionResult,
    SelectionStats,
    Voting,
    WeightedMajorityVoting,
    altr_sweep_profile,
    branch_and_bound_optimal,
    carelessness,
    cantelli_upper_bound,
    chernoff_upper_bound,
    enumerate_optimal,
    gamma_ratio,
    hoeffding_upper_bound,
    jer_cba,
    jer_dp,
    jer_gradient,
    jer_naive,
    juror_influence_report,
    jurors_from_arrays,
    jury_error_rate,
    leave_one_out_pmf,
    majority_threshold,
    markov_upper_bound,
    optimal_log_odds_weights,
    paley_zygmund_lower_bound,
    pivotal_probabilities,
    pmf_conv,
    pmf_dp,
    pmf_naive,
    select_jury_altr,
    select_jury_lagrangian,
    select_jury_optimal,
    select_jury_pay,
    weighted_jury_error_rate,
)
from repro.api import (
    AsyncJuryService,
    ErrorInfo,
    JuryService,
    PoolCommand,
    PROTOCOL_VERSION,
    SelectionRequest,
    SelectionResponse,
    error_code,
)
from repro.plan import (
    SelectionPlan,
    execute_plan,
    plan_query,
)
from repro.service import (
    BatchSelectionEngine,
    CandidatePool,
    LivePool,
    PoolRegistry,
    QueryOutcome,
    SelectionQuery,
    as_pool,
)
from repro.core.jer import (
    batch_prefix_jer_sweep,
    best_odd_prefix,
    convolve_pmf,
    deconvolve_pmf,
    prefix_jer_profile,
)
from repro.errors import (
    BudgetError,
    ConvergenceError,
    EmptyCandidateSetError,
    EmptyGraphError,
    EstimationError,
    EvenJurySizeError,
    InfeasibleSelectionError,
    InvalidErrorRateError,
    InvalidJuryError,
    InvalidRequirementError,
    PoolNotFoundError,
    ReproError,
    SimulationError,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # core
    "Juror",
    "Jury",
    "jurors_from_arrays",
    "IncrementalJury",
    "Voting",
    "MajorityVoting",
    "carelessness",
    "PoissonBinomial",
    "pmf_naive",
    "pmf_dp",
    "pmf_conv",
    "jury_error_rate",
    "jer_naive",
    "jer_dp",
    "jer_cba",
    "majority_threshold",
    "PrefixJERSweeper",
    "batch_prefix_jer_sweep",
    "prefix_jer_profile",
    "best_odd_prefix",
    "convolve_pmf",
    "deconvolve_pmf",
    # plan layer
    "SelectionPlan",
    "execute_plan",
    "plan_query",
    # public protocol + service façade (wire protocol v1)
    "PROTOCOL_VERSION",
    "ErrorInfo",
    "SelectionRequest",
    "SelectionResponse",
    "PoolCommand",
    "JuryService",
    "AsyncJuryService",
    "error_code",
    # batch service + live registry (SelectionQuery/QueryOutcome are the
    # engine's native types; prefer the repro.api protocol in new code)
    "BatchSelectionEngine",
    "SelectionQuery",
    "QueryOutcome",
    "CandidatePool",
    "LivePool",
    "PoolRegistry",
    "as_pool",
    "paley_zygmund_lower_bound",
    "gamma_ratio",
    "markov_upper_bound",
    "cantelli_upper_bound",
    "hoeffding_upper_bound",
    "chernoff_upper_bound",
    "SelectionResult",
    "SelectionStats",
    "select_jury_altr",
    "altr_sweep_profile",
    "select_jury_pay",
    "select_jury_lagrangian",
    "select_jury_optimal",
    "enumerate_optimal",
    "branch_and_bound_optimal",
    # sensitivity + weighted voting extensions
    "jer_gradient",
    "pivotal_probabilities",
    "leave_one_out_pmf",
    "JurorInfluence",
    "juror_influence_report",
    "WeightedMajorityVoting",
    "optimal_log_odds_weights",
    "weighted_jury_error_rate",
    # errors
    "ReproError",
    "InvalidErrorRateError",
    "InvalidRequirementError",
    "InvalidJuryError",
    "EvenJurySizeError",
    "EmptyCandidateSetError",
    "PoolNotFoundError",
    "BudgetError",
    "InfeasibleSelectionError",
    "EstimationError",
    "EmptyGraphError",
    "ConvergenceError",
    "SimulationError",
]
