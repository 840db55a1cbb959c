"""Core library: the paper's primary contribution.

This package contains the domain model (jurors, juries, votings), the Jury
Error Rate machinery (Poisson-Binomial distribution, the DP and
convolution-based JER algorithms, probability bounds) and the jury-selection
algorithms for the AltrM and PayM crowdsourcing models.
"""

from repro.core.bounds import (
    cantelli_upper_bound,
    chernoff_upper_bound,
    gamma_ratio,
    hoeffding_upper_bound,
    markov_upper_bound,
    paley_zygmund_lower_bound,
)
from repro.core.jer import (
    PrefixJERSweeper,
    batch_prefix_jer_sweep,
    best_odd_prefix,
    convolve_pmf,
    deconvolve_pmf,
    jer_cba,
    jer_dp,
    jer_naive,
    jury_error_rate,
    majority_threshold,
    prefix_jer_profile,
)
from repro.core.incremental import IncrementalJury
from repro.core.juror import Juror, Jury, jurors_from_arrays
from repro.core.poisson_binomial import PoissonBinomial, pmf_conv, pmf_dp, pmf_naive
from repro.core.selection import (
    SelectionResult,
    SelectionStats,
    altr_sweep_profile,
    branch_and_bound_optimal,
    enumerate_optimal,
    select_jury_altr,
    select_jury_lagrangian,
    select_jury_optimal,
    select_jury_pay,
)
from repro.core.sensitivity import (
    JurorInfluence,
    jer_gradient,
    juror_influence_report,
    leave_one_out_pmf,
    pivotal_probabilities,
)
from repro.core.voting import MajorityVoting, Voting, carelessness
from repro.core.weighted import (
    WeightedMajorityVoting,
    optimal_log_odds_weights,
    weighted_jury_error_rate,
)

__all__ = [
    # domain model
    "Juror",
    "Jury",
    "jurors_from_arrays",
    "IncrementalJury",
    "Voting",
    "MajorityVoting",
    "carelessness",
    # distribution + JER
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
    # bounds
    "paley_zygmund_lower_bound",
    "gamma_ratio",
    "markov_upper_bound",
    "cantelli_upper_bound",
    "hoeffding_upper_bound",
    "chernoff_upper_bound",
    # selection
    "SelectionResult",
    "SelectionStats",
    "select_jury_altr",
    "altr_sweep_profile",
    "select_jury_pay",
    "select_jury_lagrangian",
    "select_jury_optimal",
    "enumerate_optimal",
    "branch_and_bound_optimal",
    # sensitivity
    "jer_gradient",
    "pivotal_probabilities",
    "leave_one_out_pmf",
    "JurorInfluence",
    "juror_influence_report",
    # weighted voting
    "WeightedMajorityVoting",
    "optimal_log_odds_weights",
    "weighted_jury_error_rate",
]
