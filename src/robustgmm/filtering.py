"""Randomized spectral outlier filter.

One pass scores every active sample by its squared projection onto the top
covariance direction, found by an exact eigendecomposition, and, only when
the average score exceeds a slack multiple of the caller's variance bound,
removes the samples above a uniformly drawn threshold. Ties at the
threshold are kept; the comparison is strict. Because the threshold is
uniform on [0, max score), the expected removed mass is biased toward
genuine outliers, which is what makes repeated application safe for the
good samples.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import ActiveSet
from .numerics import RandomSource, sample_mean_cov, top_eigenvector

__all__ = [
    "FILTER_SLACK",
    "FilterOutcome",
    "robust_score_bound",
    "spectral_filter",
]

# Multiple of the variance bound below which the active set is left alone.
FILTER_SLACK = 24.0


# Median of the squared standard normal; divides the median of squared
# centered scalar scores into a Gaussian-consistent variance estimate.
_CHI2_1_MEDIAN = 0.4549364231195727


def robust_score_bound(values: np.ndarray, active: ActiveSet) -> float:
    """Self-calibrated stand-in for a certified variance bound: the bulk of
    the score covariance spectrum.

    Returns the mean of all covariance eigenvalues except the largest, so
    the filter (whose mean score along the top direction is exactly the top
    eigenvalue) fires only when one direction stands out against the rest
    of the spectrum. Heavy-tailed clean scores inflate every eigenvalue
    roughly together — the ratio of the top eigenvalue to the bulk stays
    small even when a few percent of the rows carry most of the variance —
    while planted rows concentrate their excess variance in the one
    direction they share, which the bulk leaves exposed. The trade-off
    against a certified bound is a blind spot for corruptions spread evenly
    across all directions; worst-case bounds have no blind spot but on real
    designs sit orders of magnitude above the variance the good rows
    actually show at the current iterate, hiding structured corruptions of
    ordinary norm.

    One-dimensional scores have no bulk to compare against; they fall back
    to the scaled median of the squared centered scores, which resists
    tails but assumes a roughly Gaussian center. The bulk is clamped at 0:
    on a singular covariance eigvalsh roundoff can leave it slightly below.
    """
    vals = np.asarray(values, dtype=np.float64)
    if vals.ndim != 2:
        raise ValueError(f"expected (m, k) scores, got shape {vals.shape}")
    if vals.shape[0] != len(active):
        raise ValueError(
            f"{vals.shape[0]} score rows for {len(active)} active samples"
        )
    mean, cov = sample_mean_cov(vals)
    if vals.shape[1] == 1:
        tau = (vals[:, 0] - mean[0]) ** 2
        return float(np.median(tau)) / _CHI2_1_MEDIAN
    eig = np.linalg.eigvalsh(cov)
    return max(float(np.mean(eig[:-1])), 0.0)


@dataclass(frozen=True)
class FilterOutcome:
    """Result of one filter pass.

    threshold is None exactly when nothing was removed (the mean score was
    already within the slack bound). kept and removed partition the input.
    """

    kept: ActiveSet
    removed: ActiveSet
    mean_score: float
    threshold: Optional[float]
    direction: np.ndarray


def spectral_filter(
    values: np.ndarray,
    active: ActiveSet,
    bound: float,
    rng: RandomSource,
    slack: float = FILTER_SLACK,
) -> FilterOutcome:
    """Filter the rows of `values` (aligned with `active`) once.

    bound is the caller's bound on the variance the good samples can show
    in any direction (gmm_sever passes robust_score_bound); slack * bound
    is the firing level.
    """
    vals = np.asarray(values, dtype=np.float64)
    if vals.ndim != 2:
        raise ValueError(f"expected (m, k) scores, got shape {vals.shape}")
    if vals.shape[0] != len(active):
        raise ValueError(
            f"{vals.shape[0]} score rows for {len(active)} active samples"
        )
    if bound < 0:
        raise ValueError("variance bound must be nonnegative")
    if slack <= 0:
        raise ValueError("slack must be positive")

    mean, cov = sample_mean_cov(vals)
    # The direction was once found by a power iteration that drew its start
    # vector here. The draw is kept so that the threshold below stays at the
    # same place in the stream: every seeded result, and the acceptance
    # battery, stay as they were.
    rng.normal(vals.shape[1])
    direction, _ = top_eigenvector(cov)
    scores = (vals - mean) @ direction
    scores = scores * scores
    mean_score = float(scores.mean())

    if mean_score <= slack * bound:
        empty = ActiveSet(np.empty(0, dtype=np.int64))
        return FilterOutcome(active, empty, mean_score, None, direction)

    # mean_score > slack * bound >= 0 guarantees a strictly positive max,
    # and uniform() < 1 guarantees the argmax is always removed.
    threshold = float(rng.uniform() * scores.max())
    keep_mask = scores <= threshold
    kept = ActiveSet(active.indices[keep_mask])
    removed = ActiveSet(active.indices[~keep_mask])
    return FilterOutcome(kept, removed, mean_score, threshold, direction)
