"""Outlier-robust GMM estimation for instrumental-variable models.

Under eps-strong contamination (an adversary replaces up to an eps fraction
of samples after seeing the data), classical moment estimators can be driven
arbitrarily far from the truth. This package implements a
filter-and-reoptimize estimator after the paper's: a spectral outlier
filter with randomized thresholding, a trust-region moment step (the
exact ball-constrained minimizer for linear IV, a projected-gradient
learner otherwise) and probability amplification, run with constants
derived from the data. A fit is one response screen and amplified filter
loop; the paper's certified bounds and radius-halving outer loop, whose
O(sqrt(eps)) guarantee needs constants no measured design meets, are not
included.
Also: IV moment models (linear, logistic, heterogeneous treatment
effects), corruption generators, classical baselines, and a sweep CLI.
"""

from .core import (
    Dataset,
    EstimationError,
    FilterExhaustedError,
    HyperParams,
    WeakInstrumentsError,
)
from .experiments import (
    CARD_STANDIN_COLUMNS,
    load_csv,
    robust_linear_estimate,
    write_card_standin,
)
from .models import (
    LinearIVModel,
    LogisticIVModel,
    ate_from_params,
    scalar_treatment_design,
    two_stage_least_squares,
)
from .numerics import RandomSource
from .sever import iterated_gmm_sever

__version__ = "0.1.0"

__all__ = [
    "CARD_STANDIN_COLUMNS",
    "Dataset",
    "EstimationError",
    "FilterExhaustedError",
    "HyperParams",
    "LinearIVModel",
    "LogisticIVModel",
    "RandomSource",
    "WeakInstrumentsError",
    "ate_from_params",
    "iterated_gmm_sever",
    "load_csv",
    "robust_linear_estimate",
    "scalar_treatment_design",
    "two_stage_least_squares",
    "write_card_standin",
]
