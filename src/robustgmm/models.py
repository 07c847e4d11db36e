"""Instrumental-variable moment models and classical baseline estimators.

The robust stack only sees the MomentModel interface; everything here is a
concrete instance of it (linear IV, logistic IV; heterogeneous treatment
effects are linear IV on the hte_design lift) plus the two non-robust
baselines the experiments compare against (two-stage least squares and a
two-stage Huber regression).
"""

from __future__ import annotations

import warnings

import numpy as np

from .core import Dataset, MomentModel, WeakInstrumentsError

__all__ = [
    "logistic",
    "logistic_deriv",
    "LinearIVModel",
    "LogisticIVModel",
    "hte_design",
    "scalar_treatment_design",
    "two_stage_least_squares",
    "two_stage_huber",
    "ate_from_params",
]

_RANK_RTOL = 1e-10


def logistic(x):
    """Overflow-safe sigmoid 1 / (1 + exp(-x)); accepts scalars or arrays."""
    return np.exp(-np.logaddexp(0.0, -np.asarray(x, dtype=np.float64)))


def logistic_deriv(x):
    """Sigmoid derivative s(x) (1 - s(x)), bounded by 1/4."""
    s = logistic(x)
    return s * (1.0 - s)


class LinearIVModel(MomentModel):
    """Moments g_i(w) = Z_i (Y_i - X_i . w) with constant Jacobian -Z_i X_i^T."""

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

    def moments(self, idx, w):
        d = self.data
        resid = d.Y[idx] - d.X[idx] @ w
        return d.Z[idx] * resid[:, None]

    def residuals(self, idx, w):
        d = self.data
        return d.Y[idx] - d.X[idx] @ w

    def jacobian_dot(self, idx, w, u):
        d = self.data
        return -d.X[idx] * (d.Z[idx] @ u)[:, None]

    def mean_jacobian_over(self, idx, w):
        d = self.data
        return -(d.Z[idx].T @ d.X[idx]) / len(idx)

    def jacobian_bilinear(self, idx, w, U, V):
        d = self.data
        out = U @ d.Z[idx].T
        out *= V @ d.X[idx].T
        return np.negative(out, out=out)


class LogisticIVModel(MomentModel):
    """Moments g_i(w) = Z_i (Y_i - s(X_i . w)) for binary-style responses."""

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

    def moments(self, idx, w):
        d = self.data
        resid = d.Y[idx] - logistic(d.X[idx] @ w)
        return d.Z[idx] * resid[:, None]

    def residuals(self, idx, w):
        d = self.data
        return d.Y[idx] - logistic(d.X[idx] @ w)

    def jacobian_dot(self, idx, w, u):
        d = self.data
        slope = logistic_deriv(d.X[idx] @ w)
        return -d.X[idx] * (slope * (d.Z[idx] @ u))[:, None]

    def mean_jacobian_over(self, idx, w):
        d = self.data
        slope = logistic_deriv(d.X[idx] @ w)
        return -((d.Z[idx] * slope[:, None]).T @ d.X[idx]) / len(idx)

    def jacobian_bilinear(self, idx, w, U, V):
        d = self.data
        X = d.X[idx]
        out = U @ d.Z[idx].T
        out *= V @ X.T
        out *= logistic_deriv(X @ w)
        return np.negative(out, out=out)


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
    Raises WeakInstrumentsError when Z^T X is (numerically) rank deficient.
    """
    Z, X, Y = design.Z, design.X, design.Y
    if design.p < design.d:
        raise WeakInstrumentsError(
            f"under-identified: {design.p} instruments for {design.d} parameters"
        )
    cross = Z.T @ X
    svals = np.linalg.svd(cross, compute_uv=False)
    if svals[0] == 0.0 or svals[-1] < _RANK_RTOL * svals[0]:
        raise WeakInstrumentsError("weak or collinear instruments")
    if design.p == design.d:
        return np.linalg.solve(cross, Z.T @ Y)
    first = np.linalg.lstsq(Z, X, rcond=None)[0]
    fitted = Z @ first
    return np.linalg.lstsq(fitted, Y, rcond=None)[0]


def _huber_scale_delta(resid: np.ndarray) -> float:
    """1.345 times a MAD-based robust scale of the residuals."""
    med = np.median(resid)
    mad = np.median(np.abs(resid - med))
    scale = 1.4826 * mad
    floor = 1e-8 * max(1.0, float(np.sqrt(np.mean(resid * resid))))
    return 1.345 * max(scale, floor)


def _huber_irls(A, b, delta, tol=1e-8, max_iter=500):
    """Minimize mean Huber loss of b - A x by iteratively reweighted LS."""
    x = np.linalg.lstsq(A, b, rcond=None)[0]
    if delta is None:
        delta = _huber_scale_delta(b - A @ x)
    n = A.shape[0]
    best_x, best_g = x, np.inf
    for _ in range(max_iter):
        r = b - A @ x
        psi = np.clip(r, -delta, delta)
        grad_norm = float(np.linalg.norm(A.T @ psi / n))
        if grad_norm < best_g:
            best_x, best_g = x, grad_norm
        if grad_norm <= tol:
            return x, True
        absr = np.abs(r)
        wts = np.where(absr <= delta, 1.0, delta / np.maximum(absr, 1e-300))
        Aw = A * wts[:, None]
        x_new = np.linalg.lstsq(Aw.T @ A, Aw.T @ b, rcond=None)[0]
        if np.allclose(x_new, x, rtol=0.0, atol=1e-15):
            x = x_new
            break
        x = x_new
    r = b - A @ x
    grad_norm = float(np.linalg.norm(A.T @ np.clip(r, -delta, delta) / n))
    if grad_norm <= tol:
        return x, True
    if grad_norm < best_g:
        return x, False
    return best_x, False


def two_stage_huber(design: Dataset, huber_delta=None) -> np.ndarray:
    """Huberized 2SLS: both regression stages minimize Huber loss via IRLS.

    huber_delta=None picks 1.345 x a MAD-based residual scale per stage.
    Non-convergence within 500 IRLS iterations returns the best iterate and
    emits a warning.
    """
    Z, X, Y = design.Z, design.X, design.Y
    if design.p < design.d:
        raise WeakInstrumentsError(
            f"under-identified: {design.p} instruments for {design.d} parameters"
        )
    fitted = np.empty_like(X)
    all_ok = True
    for j in range(design.d):
        coef, ok = _huber_irls(Z, X[:, j], huber_delta)
        all_ok = all_ok and ok
        fitted[:, j] = Z @ coef
    w, ok = _huber_irls(fitted, Y, huber_delta)
    if not (ok and all_ok):
        warnings.warn("Huber IRLS did not reach gradient tolerance in 500 iterations")
    return w


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
