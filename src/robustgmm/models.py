"""Instrumental-variable moment models and classical baseline estimators.

SingleIndexIVModel is the one model contract the robust stack reads. Both
shipped models are single-index: it writes the four batched kernels once
for g_i(w) = Z_i (Y_i - f(X_i . w)), and linear IV and logistic IV each
supply only the link f and the slope-weighted instruments f'(X_i . w) Z_i,
so a new link is two methods. Heterogeneous treatment effects are linear
IV on the hte_design lift. The module also holds the two non-robust
baselines the experiments compare against (two-stage least squares and a
two-stage Huber regression).
"""

from __future__ import annotations

import warnings
from abc import ABC, abstractmethod

import numpy as np

from .core import Dataset, EstimationError, WeakInstrumentsError

__all__ = [
    "logistic",
    "logistic_deriv",
    "SingleIndexIVModel",
    "LinearIVModel",
    "LogisticIVModel",
    "hte_design",
    "scalar_treatment_design",
    "two_stage_least_squares",
    "two_stage_huber",
    "ate_from_params",
]

_RANK_RTOL = 1e-10
_IV_OVERFLOW = "classical IV overflows float64; rescale the columns"


def logistic(x):
    """Overflow-safe sigmoid 1 / (1 + exp(-x)); accepts scalars or arrays."""
    return np.exp(-np.logaddexp(0.0, -np.asarray(x, dtype=np.float64)))


def logistic_deriv(x):
    """Sigmoid derivative s(x) (1 - s(x)), bounded by 1/4."""
    s = logistic(x)
    return s * (1.0 - s)


class SingleIndexIVModel(ABC):
    """Moments g_i(w) = Z_i (Y_i - f(X_i . w)) for a link f.

    Every kernel takes an integer array idx of sample indices; one sample
    i is the batch np.array([i]). The per-sample Jacobian is the rank-one
    -f'(X_i . w) Z_i X_i^T, so all four kernels follow from two pieces a
    subclass supplies: the link f and the slope-weighted instrument rows
    f'(X_i . w) Z_i. No kernel calls another kernel, so one call evaluates
    X[idx] @ w at most once. Rows are gathered with ndarray.take, which
    gives the same values as fancy indexing several times faster.

    affine : every g_i is affine in w, so the mean Jacobian does not depend
             on w. The sever learner then evaluates its objective from the
             mean moment at 0 and the mean Jacobian, built once per call.
    """

    affine: bool = False

    def __init__(self, data: Dataset):
        self.data = data

    @property
    def n_samples(self) -> int:
        return self.data.n

    @property
    def param_dim(self) -> int:
        return self.data.d

    @property
    def moment_dim(self) -> int:
        return self.data.p

    @abstractmethod
    def link(self, t: np.ndarray) -> np.ndarray:
        """f applied elementwise to the indices t_i = X_i . w."""

    @abstractmethod
    def sloped_instruments(self, idx: np.ndarray, w: np.ndarray) -> np.ndarray:
        """Rows f'(X_i . w) Z_i, shape (len(idx), moment_dim)."""

    def moments(self, idx: np.ndarray, w: np.ndarray) -> np.ndarray:
        """Rows g_i(w), shape (len(idx), moment_dim)."""
        d = self.data
        resid = d.Y.take(idx) - self.link(d.X.take(idx, axis=0) @ w)
        return d.Z.take(idx, axis=0) * resid[:, None]

    def residuals(self, idx: np.ndarray, w: np.ndarray) -> np.ndarray:
        """Scalar response residuals behind the moments, shape (len(idx),)."""
        d = self.data
        return d.Y.take(idx) - self.link(d.X.take(idx, axis=0) @ w)

    def jacobian_dot(self, idx: np.ndarray, w: np.ndarray, u: np.ndarray) -> np.ndarray:
        """Rows (d g_i / d w)^T u, shape (len(idx), param_dim)."""
        X = self.data.X.take(idx, axis=0)
        return -X * (self.sloped_instruments(idx, w) @ u)[:, None]

    def mean_jacobian_over(self, idx: np.ndarray, w: np.ndarray) -> np.ndarray:
        """(1/len(idx)) sum of d g_i / d w, shape (moment_dim, param_dim)."""
        X = self.data.X.take(idx, axis=0)
        return -(self.sloped_instruments(idx, w).T @ X) / len(idx)


class LinearIVModel(SingleIndexIVModel):
    """Identity link: g_i(w) = Z_i (Y_i - X_i . w), Jacobian -Z_i X_i^T."""

    affine = True

    def link(self, t):
        return t

    def sloped_instruments(self, idx, w):
        return self.data.Z.take(idx, axis=0)


class LogisticIVModel(SingleIndexIVModel):
    """Sigmoid link: g_i(w) = Z_i (Y_i - s(X_i . w)) for binary-style responses."""

    def link(self, t):
        return logistic(t)

    def sloped_instruments(self, idx, w):
        d = self.data
        slope = logistic_deriv(d.X.take(idx, axis=0) @ w)
        return d.Z.take(idx, axis=0) * slope[:, None]


_MODEL_KINDS = {"linear": LinearIVModel, "logistic": LogisticIVModel}


def model_class(kind: str) -> type:
    """The IV model class for a model kind, "linear" or "logistic"."""
    if kind not in _MODEL_KINDS:
        raise ValueError(f"model_kind must be 'linear' or 'logistic', got {kind!r}")
    return _MODEL_KINDS[kind]


def hte_design(data: Dataset, mode: str = "treatment_only") -> Dataset:
    """Lift a treatment dataset into its linear-IV design.

    treatment_only : instruments X_i Z_i, regressors T_i X_i (d parameters,
                     the heterogeneous effect vector).
    full           : instruments [X_i Z_i ; X_i], regressors [T_i X_i ; X_i]
                     (2d parameters: effect vector stacked on baseline).
    Requires a scalar instrument column and a treatment column.
    """
    if data.T is None:
        raise ValueError("treatment column required")
    if data.p != 1:
        raise ValueError(f"scalar instrument required, got p={data.p}")
    z = data.Z[:, 0]
    zx = data.X * z[:, None]
    tx = data.X * data.T[:, None]
    if mode == "treatment_only":
        return Dataset(X=tx, Y=data.Y, Z=zx, T=data.T)
    if mode == "full":
        return Dataset(
            X=np.hstack([tx, data.X]),
            Y=data.Y,
            Z=np.hstack([zx, data.X]),
            T=data.T,
        )
    raise ValueError(f"unknown mode {mode!r}")


def scalar_treatment_design(data: Dataset, intercept: bool = True) -> Dataset:
    """Exactly identified design for a scalar endogenous treatment.

    Regressors [T, covariates(, 1)], instruments [Z, covariates(, 1)]; the
    treatment coefficient is the first parameter. Requires one instrument
    column for the one endogenous treatment.
    """
    if data.T is None:
        raise ValueError("treatment column required")
    if data.p != 1:
        raise ValueError(f"exactly one instrument required, got p={data.p}")
    cols_x = [data.T[:, None], data.X]
    cols_z = [data.Z, data.X]
    if intercept:
        ones = np.ones((data.n, 1))
        cols_x.append(ones)
        cols_z.append(ones)
    return Dataset(X=np.hstack(cols_x), Y=data.Y, Z=np.hstack(cols_z), T=data.T)


def two_stage_least_squares(design: Dataset) -> np.ndarray:
    """Classical IV point estimate on a prepared design.

    Exactly identified designs solve the sample moment equation directly;
    overidentified ones project the regressors on the instruments first.
    Raises WeakInstrumentsError when Z^T X is (numerically) rank deficient,
    and EstimationError when Z^T X, Z^T Y or the solution overflows float64.
    """
    Z, X, Y = design.Z, design.X, design.Y
    if design.p < design.d:
        raise WeakInstrumentsError(
            f"under-identified: {design.p} instruments for {design.d} parameters"
        )
    cross, zy = Z.T @ X, Z.T @ Y
    # checked before any LAPACK call: how an SVD treats inf or NaN entries
    # depends on the BLAS kernel, which may raise LinAlgError or return NaN
    if not (np.all(np.isfinite(cross)) and np.all(np.isfinite(zy))):
        raise EstimationError(_IV_OVERFLOW)
    svals = np.linalg.svd(cross, compute_uv=False)
    if svals[0] == 0.0 or svals[-1] < _RANK_RTOL * svals[0]:
        raise WeakInstrumentsError("weak or collinear instruments")
    if design.p == design.d:
        w = np.linalg.solve(cross, zy)
    else:
        first = np.linalg.lstsq(Z, X, rcond=None)[0]
        w = np.linalg.lstsq(Z @ first, Y, rcond=None)[0]
    if not np.all(np.isfinite(w)):
        raise EstimationError(_IV_OVERFLOW)
    return w


def _huber_scale_delta(resid: np.ndarray):
    """1.345 times a MAD-based robust scale of the residuals on the last axis.

    A (k, n) array gives the k deltas of its rows; a 1-D array gives one.
    """
    med = np.median(resid, axis=-1, keepdims=True)
    mad = np.median(np.abs(resid - med), axis=-1)
    scale = 1.4826 * mad
    floor = 1e-8 * np.maximum(1.0, np.sqrt(np.mean(resid * resid, axis=-1)))
    return 1.345 * np.maximum(scale, floor)


def _huber_irls(A, B, delta, stage, tol=1e-8, max_iter=500):
    """Minimize mean Huber loss of each column of B - A X by stacked IRLS.

    Each column b_j of B (n, k) is its own IRLS fit, with its own delta
    (1.345 x MAD scale of all n residuals unless one delta is given),
    gradient tolerance, stall test |dx| <= 1e-15 and iteration budget.
    Rows of A that are exactly zero add nothing to any Gram, right-hand side
    or gradient, so after the deltas are set only the other m rows are kept;
    the gradient still divides by n. A round serves every column still
    iterating with one residual gemm, one product of the weights against
    the row-wise products of A's column pairs (an (m, p(p+1)/2) matrix
    built once per call) for all their Gram matrices, and one batched
    solve. Returns X (p, k) and per-column flags ok (k,); a column that
    misses tol returns its final iterate or, when that is worse, its best
    one. Raises WeakInstrumentsError, naming the stage, when A is rank
    deficient.
    """
    n, p = A.shape
    X0, _, rank, _ = np.linalg.lstsq(A, B, rcond=None)
    if rank < p:
        raise WeakInstrumentsError(f"Huber {stage}: rank {rank} for {p} coefficients")
    # row-major (k, n) copies: row j is column j's problem
    At = np.ascontiguousarray(A.T)
    Bt = np.ascontiguousarray(B.T)
    X = np.ascontiguousarray(X0.T)
    k = len(Bt)
    if delta is None:
        deltas = _huber_scale_delta(Bt - X @ At)
    else:
        deltas = np.full(k, float(delta))
    nonzero = np.any(At != 0.0, axis=0)
    if not nonzero.all():
        At = At.compress(nonzero, axis=1)
        Bt = Bt.compress(nonzero, axis=1)
    A = At.T
    # rows A[:, a] * A[:, b] for a <= b, in np.triu_indices order
    upper, lower = np.triu_indices(p)
    pairs = np.empty((len(upper), At.shape[1]))
    start = 0
    for a in range(p):
        np.multiply(At[a:], At[a], out=pairs[start : start + p - a])
        start += p - a

    def residuals_and_grads(rows):
        R = Bt[rows] - X[rows] @ At
        dl = deltas[rows, None]
        clipped = np.minimum(np.maximum(R, -dl), dl)
        return R, dl, np.linalg.norm(clipped @ A / n, axis=1)

    best_x, best_g = X.copy(), np.full(k, np.inf)
    ok = np.zeros(k, dtype=bool)
    live = np.arange(k)
    for _ in range(max_iter):
        if live.size == 0:
            break
        R, dl, grad = residuals_and_grads(live)
        improved = grad < best_g[live]
        best_x[live[improved]] = X[live[improved]]
        best_g[live[improved]] = grad[improved]
        met = grad <= tol
        ok[live[met]] = True
        live, R, dl = live[~met], R[~met], dl[~met]
        W = dl / np.maximum(np.abs(R), dl)
        gram = np.empty((live.size, p, p))
        gram[:, upper, lower] = gram[:, lower, upper] = W @ pairs.T
        rhs = (W * Bt[live]) @ A
        x_new = np.linalg.solve(gram, rhs[..., None])[..., 0]
        stalled = np.all(np.abs(x_new - X[live]) <= 1e-15, axis=1)
        X[live] = x_new
        live = live[~stalled]
    rest = np.flatnonzero(~ok)
    if rest.size:
        _, _, grad = residuals_and_grads(rest)
        ok[rest[grad <= tol]] = True
        worse = rest[(grad > tol) & ~(grad < best_g[rest])]
        X[worse] = best_x[worse]
    return X.T, ok


def two_stage_huber(design: Dataset, huber_delta=None) -> np.ndarray:
    """Huberized 2SLS: both regression stages minimize Huber loss via IRLS.

    huber_delta=None picks 1.345 x a MAD-based residual scale per column and
    stage. The first stage fits every column of X in one stacked IRLS.
    Non-convergence within 500 IRLS iterations returns the best iterate and
    emits a warning; rank-deficient instruments or fitted regressors raise
    WeakInstrumentsError.
    """
    Z, X, Y = design.Z, design.X, design.Y
    if design.p < design.d:
        raise WeakInstrumentsError(
            f"under-identified: {design.p} instruments for {design.d} parameters"
        )
    coef, ok_first = _huber_irls(Z, X, huber_delta, "first stage")
    w, ok_second = _huber_irls(Z @ coef, Y[:, None], huber_delta, "second stage")
    if not (ok_first.all() and ok_second.all()):
        warnings.warn("Huber IRLS did not reach gradient tolerance in 500 iterations")
    return w[:, 0]


def ate_from_params(w: np.ndarray, data: Dataset, mode: str) -> float:
    """Average treatment effect implied by fitted parameters.

    hte    : average of X_i . w over the characteristics (w is the
             heterogeneous effect vector).
    scalar : the treatment coefficient, by convention the first parameter of
             a scalar_treatment_design fit.
    """
    w = np.asarray(w, dtype=np.float64)
    if mode == "hte":
        if w.shape != (data.d,):
            raise ValueError(
                f"hte mode expects {data.d} parameters, got shape {w.shape}"
            )
        return float(np.mean(data.X @ w))
    if mode == "scalar":
        if w.ndim != 1 or w.size < 1:
            raise ValueError("scalar mode expects a nonempty parameter vector")
        return float(w[0])
    raise ValueError(f"unknown mode {mode!r}")
