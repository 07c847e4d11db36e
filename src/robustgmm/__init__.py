"""Outlier-robust GMM estimation for instrumental-variable models.

Under eps-strong contamination (an adversary replaces up to an eps fraction
of samples after seeing the data), classical moment estimators can be driven
arbitrarily far from the truth. This package implements the paper's
iterated filter-and-reoptimize estimator, whose error degrades as
O(sqrt(eps)) under fixed constants: a spectral outlier filter with
randomized thresholding, a trust-region moment learner, probability
amplification, and a radius-halving outer loop. The default plug-in fit
runs one response screen and amplified filter loop, without the radius loop.
Also: IV moment models (linear, logistic, heterogeneous treatment
effects), corruption generators, classical baselines, and a sweep CLI.
"""

from .core import (
    ActiveSet,
    Dataset,
    EstimateReport,
    EstimationError,
    FilterExhaustedError,
    HyperParams,
    MomentModel,
    RadiusSchedule,
    THEORY_PRECONDITION_BOUND,
    WeakInstrumentsError,
    mean_jacobian,
    mean_moment,
)
from .experiments import (
    CARD_STANDIN_COLUMNS,
    ESTIMATOR_NAMES,
    SweepConfig,
    SweepRow,
    aggregate_rows,
    corrupt_all_ones,
    corrupt_negation,
    derive_hyperparams,
    diagnose_assumptions,
    gen_card_standin,
    gen_synthetic_hte,
    load_csv,
    robust_linear_estimate,
    run_sweep,
    save_dataset_csv,
    write_aggregate_csv,
    write_card_standin,
    write_rows_csv,
)
from .filtering import (
    FILTER_SLACK,
    FilterOutcome,
    robust_score_bound,
    spectral_filter,
)
from .models import (
    LinearIVModel,
    LogisticIVModel,
    ate_from_params,
    hte_design,
    logistic,
    scalar_treatment_design,
    two_stage_huber,
    two_stage_least_squares,
)
from .numerics import (
    CriticalPointProblem,
    LearnerResult,
    RandomSource,
    finite_diff_jacobian,
    projected_gradient_critical_point,
    sample_mean_cov,
    top_eigenvector,
)
from .sever import (
    PRACTICE_JAC_SLACK_FACTOR,
    PRACTICE_LEARNER_TOL,
    PRACTICE_RESPONSE_CAP,
    PRACTICE_SLACK,
    SeverResult,
    amplified_gmm_sever,
    gmm_sever,
    iterated_gmm_sever,
)

__version__ = "0.1.0"

__all__ = [
    "ActiveSet",
    "CARD_STANDIN_COLUMNS",
    "CriticalPointProblem",
    "Dataset",
    "ESTIMATOR_NAMES",
    "EstimateReport",
    "EstimationError",
    "FILTER_SLACK",
    "FilterExhaustedError",
    "FilterOutcome",
    "HyperParams",
    "LearnerResult",
    "LinearIVModel",
    "LogisticIVModel",
    "MomentModel",
    "PRACTICE_JAC_SLACK_FACTOR",
    "PRACTICE_LEARNER_TOL",
    "PRACTICE_RESPONSE_CAP",
    "PRACTICE_SLACK",
    "RadiusSchedule",
    "RandomSource",
    "SeverResult",
    "SweepConfig",
    "SweepRow",
    "THEORY_PRECONDITION_BOUND",
    "WeakInstrumentsError",
    "aggregate_rows",
    "amplified_gmm_sever",
    "ate_from_params",
    "corrupt_all_ones",
    "corrupt_negation",
    "derive_hyperparams",
    "diagnose_assumptions",
    "finite_diff_jacobian",
    "gen_card_standin",
    "gen_synthetic_hte",
    "gmm_sever",
    "hte_design",
    "iterated_gmm_sever",
    "load_csv",
    "logistic",
    "mean_jacobian",
    "mean_moment",
    "projected_gradient_critical_point",
    "robust_linear_estimate",
    "robust_score_bound",
    "run_sweep",
    "sample_mean_cov",
    "save_dataset_csv",
    "scalar_treatment_design",
    "spectral_filter",
    "top_eigenvector",
    "two_stage_huber",
    "two_stage_least_squares",
    "write_aggregate_csv",
    "write_card_standin",
    "write_rows_csv",
]
