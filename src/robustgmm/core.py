"""Shared value types.

Everything downstream (models, filtering, the sever loop, the experiment
harness) speaks in terms of these types: an immutable `Dataset`, an
`ActiveSet` of surviving sample indices, `HyperParams` bundling the fit's
constants, the `EstimateReport` a fit returns, and the estimation errors
a sweep records as failed cells. The model contract lives in
`models.SingleIndexIVModel`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

__all__ = [
    "EstimationError",
    "WeakInstrumentsError",
    "FilterExhaustedError",
    "Dataset",
    "ActiveSet",
    "HyperParams",
    "EstimateReport",
]


class EstimationError(Exception):
    """Base class for estimator failures that a sweep records as a failed cell."""


class WeakInstrumentsError(EstimationError):
    """Instrument matrix is rank deficient or under-identified."""


class FilterExhaustedError(EstimationError):
    """Filtering removed so many samples that no trustworthy set remains."""


def _as_locked_float(arr, name: str, ndim: int) -> np.ndarray:
    out = np.array(arr, dtype=np.float64, order="C")
    if out.ndim != ndim:
        raise ValueError(f"{name} must be {ndim}-dimensional, got shape {out.shape}")
    if out.size == 0:
        raise ValueError(f"{name} is empty")
    if not np.all(np.isfinite(out)):
        raise ValueError(f"{name} contains NaN or infinite entries")
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class Dataset:
    """Immutable sample container.

    X : (n, d) regressors / characteristics
    Y : (n,)   responses
    Z : (n, p) instruments
    T : (n,)   optional binary treatment indicator
    """

    X: np.ndarray
    Y: np.ndarray
    Z: np.ndarray
    T: Optional[np.ndarray] = None

    def __post_init__(self):
        object.__setattr__(self, "X", _as_locked_float(self.X, "X", 2))
        object.__setattr__(self, "Y", _as_locked_float(self.Y, "Y", 1))
        object.__setattr__(self, "Z", _as_locked_float(self.Z, "Z", 2))
        if self.T is not None:
            object.__setattr__(self, "T", _as_locked_float(self.T, "T", 1))
        n = self.X.shape[0]
        if self.Y.shape[0] != n or self.Z.shape[0] != n:
            raise ValueError(
                f"row mismatch: X has {n}, Y has {self.Y.shape[0]}, Z has {self.Z.shape[0]}"
            )
        if self.T is not None and self.T.shape[0] != n:
            raise ValueError(f"row mismatch: T has {self.T.shape[0]}, expected {n}")

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def d(self) -> int:
        return self.X.shape[1]

    @property
    def p(self) -> int:
        return self.Z.shape[1]


@dataclass(frozen=True)
class ActiveSet:
    """Sorted, duplicate-free set of 0-based sample indices.

    The constructor copies, sorts and deduplicates what it is given. full
    and subset build sets that are sorted and duplicate-free by
    construction, so they skip that check.
    """

    indices: np.ndarray

    def __post_init__(self):
        idx = np.array(self.indices, dtype=np.int64).ravel()
        if idx.size and (np.any(np.diff(idx) <= 0) or idx[0] < 0):
            idx = np.unique(idx)
            if idx[0] < 0:
                raise ValueError("negative sample index")
        idx.setflags(write=False)
        object.__setattr__(self, "indices", idx)

    @classmethod
    def _of_sorted(cls, idx: np.ndarray) -> "ActiveSet":
        # idx is a fresh sorted, duplicate-free int64 array no one else holds
        S = object.__new__(cls)
        idx.setflags(write=False)
        object.__setattr__(S, "indices", idx)
        return S

    @classmethod
    def full(cls, n: int) -> "ActiveSet":
        return cls._of_sorted(np.arange(n, dtype=np.int64))

    def subset(self, mask: np.ndarray) -> "ActiveSet":
        """The indices where a boolean mask, one entry per index, is true."""
        if mask.dtype != np.bool_:
            raise TypeError(f"subset takes a boolean mask, got dtype {mask.dtype}")
        return self._of_sorted(self.indices[mask])

    def __len__(self) -> int:
        return int(self.indices.size)


@dataclass(frozen=True)
class HyperParams:
    """The constants a robust fit reads.

    eps   : corruption fraction, 0 <= eps < 1/2; amplification accepts a
            run that keeps at least (1 - ACCEPT_EPS_MULT * eps) * n samples
    R0    : radius of the search ball around the origin that every sever
            round minimizes over
    gamma : the gradient size at which the learner stops; only the
            logistic (non-affine) fits run the learner and read it
    """

    eps: float
    R0: float
    gamma: float

    def __post_init__(self):
        if not 0.0 <= self.eps < 0.5:
            raise ValueError(f"eps must lie in [0, 0.5), got {self.eps}")
        if not self.R0 > 0:
            raise ValueError(f"R0 must be positive, got {self.R0}")
        if not self.gamma > 0:
            raise ValueError(f"gamma must be positive, got {self.gamma}")


@dataclass(frozen=True)
class EstimateReport:
    """Outcome of a sever run; len(final_set) is the kept count.

    rounds      : sever rounds of the run, one minimization each (an exact
                  step on affine fits, a learner call otherwise)
    events      : tuple of (sever round, filter kind, removed count, score)
                  for every pass, quiet ones included; kind is "response"
                  (the residual screen, round 0, scored by its largest
                  deviation in MADs), "jacobian" or "moment" (scored by the
                  top eigenvalue of the pass's score covariance)
    diagnostics : gamma, learner_tolerance_unmet (learner calls that
                  stopped short of gamma; 0 on affine fits, which never
                  call the learner) and outer_rounds (the sever runs
                  amplification made, a retry after an abort included)
    """

    w_hat: np.ndarray
    final_set: ActiveSet
    rounds: int
    events: tuple
    diagnostics: dict
