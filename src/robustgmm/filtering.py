"""Randomized spectral outlier filter.

One pass takes one exact eigendecomposition of the active scores'
covariance. Its score is the top eigenvalue, the mean squared projection
onto the top direction. Only when that exceeds a slack multiple of the
variance bound does the pass project each sample and remove those above a
uniformly drawn threshold. The bound is a number or a rule evaluated on
the pass's own spectrum (robust_score_bound, the bulk of it). Ties at the
threshold are kept; the comparison is strict. Because the threshold is
uniform on [0, max squared projection), the expected removed mass is
biased toward genuine outliers, which is what makes repeated application
safe for the good samples.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Union

import numpy as np

from .core import ActiveSet
from .numerics import RandomSource, centered_cov, median, top_eigenvector

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


def robust_score_bound(centered: np.ndarray, eigenvalues: np.ndarray) -> float:
    """Self-calibrated stand-in for a certified variance bound: the bulk of
    the score covariance spectrum.

    Reads the centered scores and ascending covariance spectrum that
    spectral_filter has already computed for its pass. Returns the mean of
    all eigenvalues except the largest, so the filter (whose score is the
    top eigenvalue) fires only when one direction stands out against the
    rest of the spectrum. Heavy-tailed clean scores inflate every
    eigenvalue roughly together — the ratio of the top eigenvalue to the
    bulk stays small even when a few percent of the rows carry most of the
    variance — while planted rows concentrate their excess variance in the
    one direction they share, which the bulk leaves exposed. The trade-off
    against a certified bound is a blind spot for corruptions spread evenly
    across all directions; worst-case bounds have no blind spot but on real
    designs sit orders of magnitude above the variance the good rows
    actually show at the current iterate, hiding structured corruptions of
    ordinary norm.

    One-dimensional scores have no bulk to compare against; they fall back
    to the scaled median of the squared centered scores, which resists
    tails but assumes a roughly Gaussian center. The bulk is clamped at 0:
    on a singular covariance eigh roundoff can leave it slightly below.
    """
    if centered.ndim != 2 or eigenvalues.shape != (centered.shape[1],):
        raise ValueError(f"expected (m, k) scores and k eigenvalues, got "
                         f"shapes {centered.shape} and {eigenvalues.shape}")
    if eigenvalues.shape == (1,):
        return float(median(centered[:, 0] ** 2)) / _CHI2_1_MEDIAN
    return max(float(np.mean(eigenvalues[:-1])), 0.0)


@dataclass(frozen=True)
class FilterOutcome:
    """Result of one filter pass.

    mean_score is the top eigenvalue of the score covariance. threshold is
    None exactly when nothing was removed (mean_score was already within
    the slack bound). kept and removed partition the input.
    """

    kept: ActiveSet
    removed: ActiveSet
    mean_score: float
    threshold: Optional[float]
    direction: np.ndarray


def spectral_filter(
    values: np.ndarray,
    active: ActiveSet,
    bound: Union[float, Callable[[np.ndarray, np.ndarray], float]],
    rng: RandomSource,
    slack: float = FILTER_SLACK,
) -> FilterOutcome:
    """Filter the rows of `values` (aligned with `active`) once.

    bound is the caller's bound on the variance the good samples can show
    in any direction: a number, or a rule such as robust_score_bound that
    maps the pass's (centered scores, ascending spectrum) to one (gmm_sever
    passes robust_score_bound itself). slack * bound is the firing level.
    """
    vals = np.asarray(values, dtype=np.float64)
    if vals.ndim != 2:
        raise ValueError(f"expected (m, k) scores, got shape {vals.shape}")
    if vals.shape[0] != len(active):
        raise ValueError(
            f"{vals.shape[0]} score rows for {len(active)} active samples"
        )
    if slack <= 0:
        raise ValueError("slack must be positive")

    centered, cov = centered_cov(vals)
    direction, eigenvalues = top_eigenvector(cov)
    if callable(bound):
        bound = bound(centered, eigenvalues)
    if bound < 0:
        raise ValueError("variance bound must be nonnegative")
    mean_score = float(eigenvalues[-1])  # mean squared projection

    if mean_score <= slack * bound:
        empty = ActiveSet(np.empty(0, dtype=np.int64))
        return FilterOutcome(active, empty, mean_score, None, direction)

    # A power iteration once drew k normals here, before the threshold; the
    # draw keeps every seeded result and the acceptance battery as they were.
    # A pass that does not fire draws nothing.
    rng.normal(vals.shape[1])
    scores = centered @ direction
    scores = scores * scores
    # mean_score > slack * bound >= 0 means a nonzero covariance, so a
    # strictly positive max. uniform() < 1 removes the argmax; the cap keeps
    # it so on subnormal scores, where uniform() * max can round up to max.
    top = scores.max()
    threshold = float(min(rng.uniform() * top, np.nextafter(top, 0.0)))
    keep_mask = scores <= threshold
    kept = active.subset(keep_mask)
    removed = active.subset(~keep_mask)
    return FilterOutcome(kept, removed, mean_score, threshold, direction)
