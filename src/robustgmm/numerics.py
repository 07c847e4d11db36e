"""Deterministic randomness, covariance kernels, and the constrained learner.

One dense eigh call gives a filter pass its top direction, its score (the
top eigenvalue) and the spectrum its bound reads: the matrices are k x k
with k the moment or parameter dimension, where an exact solve is cheaper
than any iteration and has no convergence tolerance.

The learner is a spectral projected-gradient method: Barzilai-Borwein step
seeding with an Armijo backtracking safeguard and radial projection onto the
feasible ball. It only promises an approximate critical point (criticality
tolerance gamma), which is all the sever loop needs. Linear fits never
call it: their objective is a convex quadratic, whose exact minimizer over
the ball the sever loop takes every round, so the learner serves
non-affine models (logistic IV) only.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional

import numpy as np

__all__ = [
    "RandomSource",
    "centered_cov",
    "median",
    "top_eigenvector",
    "CriticalPointProblem",
    "LearnerResult",
    "feasible_descent_norm",
    "projected_gradient_critical_point",
    "finite_diff_jacobian",
]

_MASK64 = (1 << 64) - 1


class RandomSource:
    """64-bit-seeded random stream with labeled child derivation.

    Children are derived from the parent's seed and a string label, never
    from stream state, so the set of child streams does not depend on how
    much of the parent stream was consumed. The numpy generator is built on
    the first draw: a stream that is derived but never drawn from (a filter
    pass that does not fire) costs one hash.
    """

    def __init__(self, seed: int):
        self.seed = int(seed) & _MASK64

    @cached_property
    def _gen(self) -> np.random.Generator:
        return np.random.default_rng(self.seed)

    def uniform(self, size=None):
        """Uniform draws in [0, 1)."""
        return self._gen.random(size)

    def normal(self, size=None):
        return self._gen.standard_normal(size)

    def integers(self, low, high=None, size=None):
        return self._gen.integers(low, high, size=size)

    def subset(self, n: int, k: int) -> np.ndarray:
        """k distinct indices from range(n), sorted."""
        if not 0 <= k <= n:
            raise ValueError(f"cannot draw {k} distinct indices from {n}")
        picked = self._gen.choice(n, size=k, replace=False)
        return np.sort(picked.astype(np.int64))

    def child(self, label: str) -> "RandomSource":
        digest = hashlib.blake2b(
            f"{self.seed}:{label}".encode("utf-8"), digest_size=8
        ).digest()
        return RandomSource(int.from_bytes(digest, "little"))

    def __repr__(self):
        return f"RandomSource(seed={self.seed})"


def median(x: np.ndarray) -> np.ndarray:
    """np.median over the last axis of a finite array, by one sort.

    Equal to np.median bit for bit (the mean of the two middle values for an
    even length) but for the sign of a zero median, and several times faster
    than its two-point partition. The response screen, the 1-D score bound
    and the Huber deltas all take it.
    """
    s = np.sort(x, axis=-1)
    h = s.shape[-1] // 2
    if s.shape[-1] % 2:
        return s[..., h]
    return (s[..., h - 1] + s[..., h]) / 2


def centered_cov(values: np.ndarray, inert: int = 0):
    """Mean-centered rows and their (1/m)-normalized covariance.

    The 1/m normalization (not 1/(m-1)) matches the filtering analysis.
    numpy computes centered.T @ centered with syrk, so the covariance is
    symmetric bit for bit without averaging it with its transpose.

    inert counts further all-zero rows that are not passed. They join m, so
    the mean is the passed rows' sum over m, and each one's centered row is
    -mean, which adds inert * mean mean^T to the covariance before it is
    normalized; the returned centered rows are the passed ones only.
    """
    vals = np.asarray(values, dtype=np.float64)
    if vals.ndim != 2 or vals.shape[0] + inert == 0:
        raise ValueError(f"expected a nonempty (m, k) array, got shape {vals.shape}")
    m = vals.shape[0] + inert
    mean = vals.sum(axis=0) / m
    centered = vals - mean
    gram = centered.T @ centered
    if inert:
        gram += inert * np.outer(mean, mean)
    return centered, gram / m


def top_eigenvector(A: np.ndarray):
    """Leading eigenvector and full spectrum of a symmetric matrix.

    Returns (unit vector, eigenvalues in ascending order) from one
    np.linalg.eigh call, so eigenvalues[-1] belongs to the vector; the
    vector's sign is whatever eigh returns.
    """
    A = np.asarray(A, dtype=np.float64)
    k = A.shape[0]
    if A.ndim != 2 or A.shape != (k, k):
        raise ValueError(f"expected a square matrix, got shape {A.shape}")
    scale = float(np.abs(A).max()) if A.size else 0.0
    asym = float(np.abs(A - A.T).max()) if A.size else 0.0
    if asym > 1e-10 * max(1.0, scale):
        raise ValueError(f"matrix is not symmetric (max asymmetry {asym:.3e})")
    vals, vecs = np.linalg.eigh(0.5 * (A + A.T))
    return vecs[:, -1], vals


@dataclass
class CriticalPointProblem:
    """Constrained first-order stationarity problem over a Euclidean ball.

    objective_grad : w -> (f(w), grad f(w))
    center, radius : the feasible ball B_radius(center)
    gamma          : criticality tolerance
    x0             : warm-start point (projected into the ball); None = center
    """

    objective_grad: Callable[[np.ndarray], tuple]
    center: np.ndarray
    radius: float
    gamma: float
    x0: Optional[np.ndarray] = None

    def __post_init__(self):
        self.center = np.asarray(self.center, dtype=np.float64)
        if self.radius < 0:
            raise ValueError("radius must be nonnegative")
        if self.gamma <= 0:
            raise ValueError("gamma must be positive")


@dataclass(frozen=True)
class LearnerResult:
    x: np.ndarray
    tolerance_met: bool
    iterations: int
    criticality: float


def _project(x: np.ndarray, center: np.ndarray, radius: float) -> np.ndarray:
    delta = x - center
    dist = math.sqrt(delta @ delta)
    if dist <= radius:
        return x
    return center + delta * (radius / dist)


def feasible_descent_norm(
    grad: np.ndarray, x: np.ndarray, center: np.ndarray, radius: float
) -> float:
    """Norm of the feasible part of the descent direction -grad at x.

    Interior points: the full gradient norm. Boundary points: the outward
    radial component of -grad is blocked by the constraint, so it is removed
    before taking the norm; an inward-pointing descent direction stays whole.
    Points within a relative 1e-12 of the sphere count as boundary.
    """
    offset = x - center
    dist = math.sqrt(offset @ offset)
    if radius == 0.0:
        return 0.0
    if dist < radius * (1.0 - 1e-12):
        return math.sqrt(grad @ grad)
    normal = offset / dist
    descent = -grad
    outward = float(descent @ normal)
    if outward > 0.0:
        descent = descent - outward * normal
    return math.sqrt(descent @ descent)


def projected_gradient_critical_point(prob: CriticalPointProblem) -> LearnerResult:
    """Find a gamma-approximate critical point of f over the feasible ball.

    Spectral projected gradient: the Barzilai-Borwein quotient seeds the step
    size, Armijo backtracking (constant 1e-4, halving) accepts it. Returns
    the best iterate seen, always in the ball, with tolerance_met=False once
    the budget of 10 d ceil(log(1/gamma)) steps (at most 1e5) runs out or no
    step makes progress; iterations counts the accepted steps.
    """
    center, radius = prob.center, prob.radius
    if radius == 0.0:
        # the ball is a single point, vacuously critical
        return LearnerResult(center.copy(), True, 0, 0.0)

    x = center.copy() if prob.x0 is None else _project(
        np.asarray(prob.x0, dtype=np.float64).copy(), center, radius
    )
    f_x, g_x = prob.objective_grad(x)
    crit = feasible_descent_norm(g_x, x, center, radius)
    best_x, best_crit = x.copy(), crit
    step = 1.0 / max(1.0, math.sqrt(g_x @ g_x))
    budget = 10 * center.size * math.ceil(max(1.0, math.log(1.0 / prob.gamma)))
    max_iters = min(100000, budget)

    for it in range(max_iters):
        if crit <= prob.gamma:
            return LearnerResult(x, True, it, crit)
        accepted = False
        trial_step = step
        for _ in range(60):
            x_new = _project(x - trial_step * g_x, center, radius)
            move = x_new - x
            if move @ move == 0.0:
                break
            f_new, g_new = prob.objective_grad(x_new)
            if f_new <= f_x + 1e-4 * float(g_x @ move):
                accepted = True
                break
            trial_step *= 0.5
        if not accepted:
            # no progress possible at this scale; x is numerically stationary
            break
        # Barzilai-Borwein seed for the next round
        y = g_new - g_x
        sy = float(move @ y)
        ss = float(move @ move)
        step = ss / sy if sy > 1e-300 else min(trial_step * 2.0, 1e12)
        step = min(max(step, 1e-300), 1e12)
        x, f_x, g_x = x_new, f_new, g_new
        crit = feasible_descent_norm(g_x, x, center, radius)
        if crit < best_crit:
            best_x, best_crit = x.copy(), crit
    else:
        it = max_iters

    if crit <= prob.gamma:
        return LearnerResult(x, True, it, crit)
    return LearnerResult(best_x, False, it, best_crit)


def finite_diff_jacobian(
    fn: Callable[[np.ndarray], np.ndarray], w: np.ndarray, h: float
) -> np.ndarray:
    """Central-difference Jacobian; column j is (fn(w+h e_j) - fn(w-h e_j)) / 2h."""
    if h <= 0:
        raise ValueError("step size must be positive")
    w = np.asarray(w, dtype=np.float64)
    cols = []
    for j in range(w.size):
        wp = w.copy()
        wm = w.copy()
        wp[j] += h
        wm[j] -= h
        cols.append((np.asarray(fn(wp)) - np.asarray(fn(wm))) / (2.0 * h))
    return np.stack(cols, axis=-1)
