"""Instrumental-variable moment models and classical baseline estimators.

SingleIndexIVModel is the one model contract the robust stack reads. Both
shipped models are single-index: it writes the four batched kernels once
for g_i(w) = Z_i (Y_i - f(X_i . w)), each read on rows gathered once per
sample set (row form) or on sample indices (index form), and linear IV and
logistic IV each supply only the link f and the slope-weighted instruments
f'(X_i . w) Z_i, so a new link is two methods. Heterogeneous treatment
effects are linear IV on the hte_design lift. The module also holds the
two non-robust baselines the experiments compare against (two-stage least
squares and a two-stage Huber regression).
"""

from __future__ import annotations

import warnings
from abc import ABC, abstractmethod
from typing import NamedTuple

import numpy as np

from .core import Dataset, EstimationError, WeakInstrumentsError
from .numerics import median

__all__ = [
    "logistic",
    "logistic_deriv",
    "Rows",
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
# relative Cholesky pivot at or below which an in-band Gram is singular
_PIVOT_RTOL = 1e-10
_IV_OVERFLOW = "classical IV overflows float64; rescale the columns"


def logistic(x):
    """Overflow-safe sigmoid 1 / (1 + exp(-x)); accepts scalars or arrays."""
    return np.exp(-np.logaddexp(0.0, -np.asarray(x, dtype=np.float64)))


def logistic_deriv(x):
    """Sigmoid derivative s(x) (1 - s(x)), bounded by 1/4."""
    s = logistic(x)
    return s * (1.0 - s)


class Rows(NamedTuple):
    """Sample rows X (m, d), Z (m, p) and Y (m,) that the row-form kernels
    read: one active set's rows from SingleIndexIVModel.gather, or a whole
    Dataset, which has the same three fields."""

    X: np.ndarray
    Z: np.ndarray
    Y: np.ndarray


class SingleIndexIVModel(ABC):
    """Moments g_i(w) = Z_i (Y_i - f(X_i . w)) for a link f.

    The per-sample Jacobian is the rank-one -f'(X_i . w) Z_i X_i^T, so every
    kernel follows from two pieces a subclass supplies: the link f and the
    slope-weighted instrument rows f'(X_i . w) Z_i (row_sloped_instruments).

    Each kernel has a row form, and all but row_sloped_instruments an
    index form. The row forms (row_residuals, row_moments,
    row_jacobian_dot, row_mean_jacobian, row_sloped_instruments) read rows
    already taken: gather(idx) takes X[idx], Z[idx] and Y[idx] once with
    ndarray.take, which gives the same values as fancy indexing several
    times faster, and the model's Dataset serves as the rows of every
    sample without a copy. The index forms (residuals, moments,
    jacobian_dot, mean_jacobian_over) take an integer array idx of sample
    indices, one sample i being the batch np.array([i]); each gathers its
    rows, then calls its row form, so a formula is written once and both
    forms give the same bits. gmm_sever gathers once per active set and
    calls only the row forms. No index form calls another, so each call is
    one gather and evaluates X[idx] @ w at most once.

    moments and jacobian_dot return their (m, k) score matrices
    column-major. Every sever round reduces them one coordinate at a time
    (the mean moment, each filter pass's centering), and numpy sums a
    column-major array along axis 0 over contiguous memory, several times
    faster than row by row. Each element is the product the row-major
    formula gives, bit for bit; only those means' summation order differs.
    The gathers and products stay on row-major rows (X @ w, Z @ u,
    sloped.T @ X).

    affine : every g_i is affine in w, so the mean moment is u0 + J w with
             u0 the mean moment at 0 and J the constant mean Jacobian.
             gmm_sever then takes each round's exact minimizer of
             ||u0 + J w||^2 over the search ball and never calls the
             learner.
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

    def gather(self, idx: np.ndarray) -> Rows:
        """The rows X[idx], Z[idx] and Y[idx], each taken once."""
        d = self.data
        return Rows(d.X.take(idx, axis=0), d.Z.take(idx, axis=0), d.Y.take(idx))

    @abstractmethod
    def link(self, t: np.ndarray) -> np.ndarray:
        """f applied elementwise to the indices t_i = X_i . w."""

    @abstractmethod
    def row_sloped_instruments(self, rows: Rows, w: np.ndarray) -> np.ndarray:
        """Rows f'(X_i . w) Z_i, shape (m, moment_dim)."""

    def row_residuals(self, rows: Rows, w: np.ndarray) -> np.ndarray:
        """Scalar response residuals behind the moments, shape (m,)."""
        return rows.Y - self.link(rows.X @ w)

    def row_moments(self, rows: Rows, w: np.ndarray) -> np.ndarray:
        """Rows g_i(w), shape (m, moment_dim), column-major."""
        return np.multiply(rows.Z, self.row_residuals(rows, w)[:, None], order="F")

    def row_jacobian_dot(self, rows: Rows, w: np.ndarray, u: np.ndarray) -> np.ndarray:
        """Rows (d g_i / d w)^T u, shape (m, param_dim), column-major."""
        # x * -v is -x * v bit for bit; negating the m-vector spares a copy of X
        scale = -(self.row_sloped_instruments(rows, w) @ u)
        return np.multiply(rows.X, scale[:, None], order="F")

    def row_mean_jacobian(self, rows: Rows, w: np.ndarray) -> np.ndarray:
        """(1/m) sum of d g_i / d w, shape (moment_dim, param_dim)."""
        return -(self.row_sloped_instruments(rows, w).T @ rows.X) / len(rows.X)

    def residuals(self, idx: np.ndarray, w: np.ndarray) -> np.ndarray:
        """row_residuals on the rows idx, shape (len(idx),)."""
        return self.row_residuals(self.gather(idx), w)

    def moments(self, idx: np.ndarray, w: np.ndarray) -> np.ndarray:
        """row_moments on the rows idx, shape (len(idx), moment_dim)."""
        return self.row_moments(self.gather(idx), w)

    def jacobian_dot(self, idx: np.ndarray, w: np.ndarray, u: np.ndarray) -> np.ndarray:
        """row_jacobian_dot on the rows idx, shape (len(idx), param_dim)."""
        return self.row_jacobian_dot(self.gather(idx), w, u)

    def mean_jacobian_over(self, idx: np.ndarray, w: np.ndarray) -> np.ndarray:
        """row_mean_jacobian on the rows idx, shape (moment_dim, param_dim)."""
        return self.row_mean_jacobian(self.gather(idx), w)


class LinearIVModel(SingleIndexIVModel):
    """Identity link: g_i(w) = Z_i (Y_i - X_i . w), Jacobian -Z_i X_i^T."""

    affine = True

    def link(self, t):
        return t

    def row_sloped_instruments(self, rows, w):
        return rows.Z


class LogisticIVModel(SingleIndexIVModel):
    """Sigmoid link: g_i(w) = Z_i (Y_i - s(X_i . w)) for binary-style responses."""

    def link(self, t):
        return logistic(t)

    def row_sloped_instruments(self, rows, w):
        return rows.Z * logistic_deriv(rows.X @ w)[:, None]


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
    med = median(resid)
    mad = median(np.abs(resid - med[..., None]))
    scale = 1.4826 * mad
    floor = 1e-8 * np.maximum(1.0, np.sqrt(np.mean(resid * resid, axis=-1)))
    return 1.345 * np.maximum(scale, floor)


def _singular_grams(gram):
    """Flag each (p, p) Gram matrix of a stack that is singular for a Newton step.

    A matrix is singular when its Cholesky factorization fails or a pivot
    L_ii^2 is at most _PIVOT_RTOL times the diagonal entry G_ii, i.e. the
    in-band part of column i is all but a combination of the columns before
    it.
    """
    try:
        chol = np.linalg.cholesky(gram)
    except np.linalg.LinAlgError:
        # numpy fails the whole stack; find the failing matrices one by one
        if len(gram) == 1:
            return np.ones(1, dtype=bool)
        return np.concatenate([_singular_grams(g[None]) for g in gram])
    pivots = np.diagonal(chol, axis1=1, axis2=2) ** 2
    diag = np.diagonal(gram, axis1=1, axis2=2)
    return np.any(pivots <= _PIVOT_RTOL * diag, axis=1)


def _huber_fit(A, B, delta, stage, tol=1e-8, max_iter=500):
    """Minimize mean Huber loss of each column of B - A X by guarded Newton steps.

    Each column b_j of B (n, k) is its own fit, with its own delta (1.345 x
    MAD scale of its n least-squares residuals unless one delta is given),
    gradient tolerance ||A^T psi(r)|| / n <= tol, with psi the residual
    clipped to [-delta, delta], stall test |step| <= 1e-15 and budget of
    max_iter rounds. Rows of A that are exactly zero add nothing to any Gram,
    right-hand side or gradient, so the least-squares start and every round
    use only the other m rows; the deltas still come from all n residuals
    and the gradient still divides by n.

    A round serves every column still iterating with one residual gemm,
    which gives each column's psi, gradient and Huber loss. A column whose
    loss rose above that of its last accepted iterate halves its step and is
    evaluated again in the next round. Every other column accepts its
    iterate and takes the semismooth Newton step s solving
    (A^T D A) s = A^T psi, with D the 0/1 indicator of the in-band rows
    |r| <= delta; once the band pattern settles, the step lands on the
    minimizer. A column with fewer than p in-band rows, or whose in-band
    Gram is singular (_singular_grams), takes the IRLS step instead, with
    weights delta / max(|r|, delta) in place of D. All Gram matrices of a
    round come from one product of the masks (or weights) against the
    row-wise products of A's column pairs, an (m, p(p+1)/2) matrix built
    once per call, and one batched solve.

    Returns X (p, k) and per-column flags ok (k,); a column that misses tol
    returns its final iterate or, when that has the larger gradient, its
    best one. Raises WeakInstrumentsError, naming the stage, when A is rank
    deficient.
    """
    n, p = A.shape
    # row-major (., n) copies: row j of Bt and X is column j's problem
    At = np.ascontiguousarray(A.T)
    Bt = np.ascontiguousarray(B.T)
    nonzero = np.any(At != 0.0, axis=0)
    kept_At, kept_Bt = (At, Bt) if nonzero.all() else (
        At.compress(nonzero, axis=1), Bt.compress(nonzero, axis=1)
    )
    X0, _, rank, _ = np.linalg.lstsq(kept_At.T, kept_Bt.T, rcond=None)
    if rank < p:
        raise WeakInstrumentsError(f"Huber {stage}: rank {rank} for {p} coefficients")
    X = np.ascontiguousarray(X0.T)
    k = len(Bt)
    if delta is None:
        deltas = _huber_scale_delta(Bt - X @ At)
    else:
        deltas = np.full(k, float(delta))
    At, Bt = kept_At, kept_Bt
    A = At.T
    # rows A[:, a] * A[:, b] for a <= b, in np.triu_indices order
    upper, lower = np.triu_indices(p)
    pairs = np.empty((len(upper), At.shape[1]))
    start = 0
    for a in range(p):
        np.multiply(At[a:], At[a], out=pairs[start : start + p - a])
        start += p - a

    def grams(W):
        gram = np.empty((len(W), p, p))
        gram[:, upper, lower] = gram[:, lower, upper] = W @ pairs.T
        return gram

    def evaluate(rows):
        R = Bt[rows] - X[rows] @ At
        dl = deltas[rows, None]
        psi = np.minimum(np.maximum(R, -dl), dl)
        grad = psi @ A
        return R, dl, psi, grad, np.linalg.norm(grad, axis=1) / n

    best_x, best_g = X.copy(), np.full(k, np.inf)
    # last accepted iterate, its loss and the step taken from it
    base, base_loss = X.copy(), np.full(k, np.inf)
    step = np.zeros((k, p))
    ok = np.zeros(k, dtype=bool)
    live = np.arange(k)
    for _ in range(max_iter):
        if live.size == 0:
            break
        R, dl, psi, grad, gnorm = evaluate(live)
        loss = np.sum(psi * (R - 0.5 * psi), axis=1)
        improved = gnorm < best_g[live]
        best_x[live[improved]] = X[live[improved]]
        best_g[live[improved]] = gnorm[improved]
        met = gnorm <= tol
        ok[live[met]] = True
        rose = ~met & (loss > base_loss[live])
        take = ~met & ~rose
        fwd = live[take]
        step[live[rose]] *= 0.5
        base[fwd], base_loss[fwd] = X[fwd], loss[take]
        R, dl = R[take], dl[take]
        inband = np.abs(R) <= dl
        gram = grams(inband.astype(np.float64))
        irls = np.count_nonzero(inband, axis=1) < p
        irls[~irls] = _singular_grams(gram[~irls])
        if irls.any():
            gram[irls] = grams(dl[irls] / np.maximum(np.abs(R[irls]), dl[irls]))
        step[fwd] = np.linalg.solve(gram, grad[take][..., None])[..., 0]
        moved = live[~met]
        X[moved] = base[moved] + step[moved]
        # a step halved (or solved) to nothing leaves the column at its
        # accepted iterate
        stalled = np.all(np.abs(step[moved]) <= 1e-15, axis=1)
        X[moved[stalled]] = base[moved[stalled]]
        live = moved[~stalled]
    rest = np.flatnonzero(~ok)
    if rest.size:
        gnorm = evaluate(rest)[-1]
        ok[rest[gnorm <= tol]] = True
        worse = rest[(gnorm > tol) & ~(gnorm < best_g[rest])]
        X[worse] = best_x[worse]
    return X.T, ok


def two_stage_huber(design: Dataset, huber_delta=None) -> np.ndarray:
    """Huberized 2SLS: both regression stages minimize Huber loss (_huber_fit).

    huber_delta=None picks 1.345 x a MAD-based residual scale per column and
    stage. The first stage fits every column of X in one stacked fit of
    guarded semismooth Newton steps. A column that misses the gradient
    tolerance within 500 rounds returns its best iterate and emits a
    warning; rank-deficient instruments or fitted regressors raise
    WeakInstrumentsError.
    """
    Z, X, Y = design.Z, design.X, design.Y
    if design.p < design.d:
        raise WeakInstrumentsError(
            f"under-identified: {design.p} instruments for {design.d} parameters"
        )
    coef, ok_first = _huber_fit(Z, X, huber_delta, "first stage")
    w, ok_second = _huber_fit(Z @ coef, Y[:, None], huber_delta, "second stage")
    if not (ok_first.all() and ok_second.all()):
        warnings.warn("Huber fit did not reach gradient tolerance in 500 rounds")
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
