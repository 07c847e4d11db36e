import math
import warnings

import numpy as np
import pytest

from robustgmm import (
    Dataset,
    EstimationError,
    LinearIVModel,
    LogisticIVModel,
    RandomSource,
    WeakInstrumentsError,
    ate_from_params,
    scalar_treatment_design,
    two_stage_least_squares,
)
from robustgmm import models
from robustgmm.experiments import corrupt_all_ones, gen_synthetic_hte
from robustgmm.models import (
    SingleIndexIVModel,
    _huber_fit,
    _huber_scale_delta,
    hte_design,
    logistic,
    logistic_deriv,
    two_stage_huber,
)
from robustgmm.numerics import finite_diff_jacobian

from conftest import make_linear_dataset


def make_treatment_dataset(seed=0, n=50, d=3):
    src = RandomSource(seed)
    X = src.normal((n, d))
    z = src.normal(n)
    T = 0.6 * z + 0.4 * src.normal(n)
    theta = src.normal(d)
    Y = (X @ theta) * T + 0.1 * src.normal(n)
    return Dataset(X=X, Y=Y, Z=z[:, None], T=T), theta


# ---------------------------------------------------------------------------
# logistic helpers


def test_logistic_basics():
    assert logistic(0.0) == pytest.approx(0.5)
    assert logistic_deriv(0.0) == pytest.approx(0.25)
    assert logistic(1000.0) == 1.0 and logistic(-1000.0) == 0.0
    x = np.linspace(-5, 5, 21)
    np.testing.assert_allclose(logistic(-x), 1.0 - logistic(x), atol=1e-12)
    assert logistic_deriv(x).max() <= 0.25 + 1e-12
    assert logistic(x).shape == x.shape


# ---------------------------------------------------------------------------
# moment models


def test_linear_moment_and_jacobian_values():
    data = Dataset(
        X=np.array([[1.0, 2.0], [0.0, 1.0]]),
        Y=np.array([3.0, 1.0]),
        Z=np.array([[2.0, 0.0], [1.0, 1.0]]),
    )
    m = LinearIVModel(data)
    w = np.array([1.0, -1.0])
    # residual row 0: 3 - (1 - 2) = 4, moment = (8, 0)
    row0 = np.array([0])
    np.testing.assert_allclose(m.moments(row0, w), [[8.0, 0.0]])
    np.testing.assert_allclose(
        m.mean_jacobian_over(row0, w), [[-2.0, -4.0], [0.0, 0.0]]
    )
    # Jacobian does not depend on the parameter
    np.testing.assert_array_equal(
        m.mean_jacobian_over(row0, w), m.mean_jacobian_over(row0, np.zeros(2))
    )


def test_logistic_moment_at_zero_parameter():
    data = Dataset(
        X=np.array([[1.0], [2.0]]),
        Y=np.array([1.0, 0.0]),
        Z=np.array([[3.0], [1.0]]),
    )
    m = LogisticIVModel(data)
    np.testing.assert_allclose(m.moments(np.array([0, 1]), np.zeros(1)), [[1.5], [-0.5]])


def test_logistic_jacobian_slope_bound(rng):
    data, _ = make_linear_dataset(seed=2, n=30, d=3, p=4)
    m = LogisticIVModel(data)
    for i in (0, 7, 29):
        w = rng.normal(3)
        jac = m.mean_jacobian_over(np.array([i]), w)
        cap = 0.25 * np.linalg.norm(data.Z[i]) * np.linalg.norm(data.X[i])
        assert np.linalg.norm(jac, 2) <= cap + 1e-12


def test_single_index_model_needs_both_link_methods():
    class LinkOnly(SingleIndexIVModel):
        def link(self, t):
            return t

    data, _ = make_linear_dataset(seed=0, n=5, d=2)
    with pytest.raises(TypeError):
        LinkOnly(data)


@pytest.mark.parametrize("cls", [LinearIVModel, LogisticIVModel])
def test_batched_paths_match_per_sample(cls, rng):
    data, _ = make_linear_dataset(seed=5, n=25, d=3, p=4, noise=0.5)
    m = cls(data)
    idx = np.array([1, 4, 9, 16, 24])
    w = rng.normal(3)
    u = rng.normal(4)
    # per row: index t = X_i . w, residual r_i = Y_i - link(t), moment
    # g_i = Z_i r_i, Jacobian J_i = -link'(t) Z_i X_i^T
    resid, moments, dots, jacs = [], [], [], []
    for i in idx:
        t = float(data.X[i] @ w)
        if cls is LinearIVModel:
            link, slope = t, 1.0
        else:
            link = 1.0 / (1.0 + math.exp(-t))
            slope = link * (1.0 - link)
        r = data.Y[i] - link
        jac = -slope * np.outer(data.Z[i], data.X[i])
        resid.append(r)
        moments.append(data.Z[i] * r)
        dots.append(jac.T @ u)
        jacs.append(jac)
    np.testing.assert_allclose(m.residuals(idx, w), resid, atol=1e-14)
    np.testing.assert_allclose(m.moments(idx, w), np.stack(moments), atol=1e-14)
    np.testing.assert_allclose(m.jacobian_dot(idx, w, u), np.stack(dots), atol=1e-13)
    np.testing.assert_allclose(
        m.mean_jacobian_over(idx, w), np.mean(jacs, axis=0), atol=1e-14
    )
    if cls is LinearIVModel:
        # the batched linear kernels keep these exact operation orders, which
        # the committed results/*.csv depend on bit for bit
        X, Z, Y = data.X[idx], data.Z[idx], data.Y[idx]
        assert_equal = np.testing.assert_array_equal
        assert_equal(m.residuals(idx, w), Y - X @ w)
        assert_equal(m.moments(idx, w), Z * (Y - X @ w)[:, None])
        assert_equal(m.jacobian_dot(idx, w, u), -X * (Z @ u)[:, None])
        assert_equal(m.mean_jacobian_over(idx, w), -(Z.T @ X) / len(idx))


@pytest.mark.parametrize("cls", [LinearIVModel, LogisticIVModel])
def test_score_matrices_are_column_major_with_row_major_values(cls, rng):
    # the sever round averages these matrices one coordinate at a time, which
    # numpy does over contiguous memory only for a column-major array; the
    # elements are still the row-major formulas' bits
    data, _ = make_linear_dataset(seed=5, n=25, d=3, p=4, noise=0.5)
    m = cls(data)
    idx = np.array([16, 1, 24, 4, 9, 4])
    w = rng.normal(3)
    u = rng.normal(4)
    X, Z, Y = data.X[idx], data.Z[idx], data.Y[idx]

    def check(got, want):
        assert got.flags.f_contiguous and not got.flags.c_contiguous
        # compares the bits, so a zero's sign counts too
        np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))

    check(m.moments(idx, w), Z * (Y - m.link(X @ w))[:, None])
    sloped = m.row_sloped_instruments(m.gather(idx), w)
    check(m.jacobian_dot(idx, w, u), -X * (sloped @ u)[:, None])


KERNELS = ["residuals", "moments", "jacobian_dot", "mean_jacobian_over"]


@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize("cls", [LinearIVModel, LogisticIVModel])
def test_kernels_gather_the_rows_they_are_given(cls, kernel, rng):
    # an unsorted index array with repeats reads the same rows, bit for bit,
    # as the same kernel over a dataset of exactly those rows in that order
    data, _ = make_linear_dataset(seed=6, n=30, d=3, p=4, noise=0.5)
    idx = np.array([17, 3, 29, 3, 0, 17, 17, 8, 21, 4])
    gathered = Dataset(X=data.X[idx], Y=data.Y[idx], Z=data.Z[idx])
    args = (rng.normal(3),) + ((rng.normal(4),) if kernel == "jacobian_dot" else ())
    got = getattr(cls(data), kernel)(idx, *args)
    want = getattr(cls(gathered), kernel)(np.arange(len(idx)), *args)
    np.testing.assert_array_equal(got, want)


ROW_FORMS = {
    "residuals": "row_residuals",
    "moments": "row_moments",
    "jacobian_dot": "row_jacobian_dot",
    "mean_jacobian_over": "row_mean_jacobian",
}
TREATMENT_DESIGNS = {
    "hte": hte_design,
    "hte-full": lambda data: hte_design(data, "full"),
    "scalar": scalar_treatment_design,
}


@pytest.mark.parametrize("design", sorted(TREATMENT_DESIGNS))
@pytest.mark.parametrize("cls", [LinearIVModel, LogisticIVModel])
def test_row_forms_give_the_index_forms_bits(cls, design):
    # the sever loop reads only the row forms, on rows gathered once per
    # active set or on the whole Dataset; each must equal its index form
    data, _ = make_treatment_dataset(seed=7, n=60, d=3)
    model = cls(TREATMENT_DESIGNS[design](data))
    n, src = model.n_samples, RandomSource(7)
    w = 0.5 * src.normal(model.param_dim)
    u = src.normal(model.moment_dim)
    sets = {
        "full": np.arange(n),
        "subset": src.subset(n, 35),
        "one-row": np.array([int(src.integers(0, n))]),
    }
    for name, idx in sets.items():
        for rows in [model.gather(idx)] + ([model.data] if name == "full" else []):
            for index_form, row_form in ROW_FORMS.items():
                args = (w, u) if index_form == "jacobian_dot" else (w,)
                want = getattr(model, index_form)(idx, *args)
                got = getattr(model, row_form)(rows, *args)
                assert np.array_equal(got, want), (name, row_form)


def build_fd_models():
    lin_data, _ = make_linear_dataset(seed=31, n=20, d=3, p=3, noise=0.3)
    log_data, _ = make_linear_dataset(seed=32, n=20, d=3, p=3, noise=0.3)
    hte_data, _ = make_treatment_dataset(seed=33, n=20, d=3)
    return [
        LinearIVModel(lin_data),
        LogisticIVModel(log_data),
        LinearIVModel(hte_design(hte_data, "full")),
    ]


def test_jacobians_match_finite_differences(rng):
    for m in build_fd_models():
        for _ in range(10):
            idx = np.array([int(rng.integers(0, m.n_samples))])
            w = rng.normal(m.param_dim)
            analytic = m.mean_jacobian_over(idx, w)
            fd = finite_diff_jacobian(lambda v: m.moments(idx, v)[0], w, 1e-6)
            scale = max(1.0, float(np.linalg.norm(analytic)))
            assert np.linalg.norm(fd - analytic) <= 1e-5 * scale


# ---------------------------------------------------------------------------
# treatment designs


def test_hte_design_treatment_only_values():
    data, _ = make_treatment_dataset(seed=1, n=10, d=2)
    lifted = hte_design(data, "treatment_only")
    assert lifted.X.shape == (10, 2) and lifted.Z.shape == (10, 2)
    np.testing.assert_allclose(lifted.Z, data.X * data.Z[:, [0]])
    np.testing.assert_allclose(lifted.X, data.X * data.T[:, None])
    np.testing.assert_array_equal(lifted.Y, data.Y)


def test_hte_design_full_stacks_baseline():
    data, _ = make_treatment_dataset(seed=1, n=10, d=2)
    lifted = hte_design(data, "full")
    assert lifted.X.shape == (10, 4) and lifted.Z.shape == (10, 4)
    np.testing.assert_allclose(lifted.X[:, 2:], data.X)
    np.testing.assert_allclose(lifted.Z[:, 2:], data.X)


def test_hte_design_validation():
    data, _ = make_treatment_dataset(seed=1, n=10, d=2)
    no_t = Dataset(X=data.X, Y=data.Y, Z=data.Z)
    with pytest.raises(ValueError, match="treatment column"):
        hte_design(no_t)
    wide_z = Dataset(X=data.X, Y=data.Y, Z=np.hstack([data.Z, data.Z]), T=data.T)
    with pytest.raises(ValueError, match="scalar instrument"):
        hte_design(wide_z)
    with pytest.raises(ValueError, match="unknown mode"):
        hte_design(data, "stacked")


def test_scalar_treatment_design_layout():
    data, _ = make_treatment_dataset(seed=3, n=15, d=2)
    design = scalar_treatment_design(data)
    assert design.X.shape == (15, 4) and design.Z.shape == (15, 4)
    np.testing.assert_array_equal(design.X[:, 0], data.T)
    np.testing.assert_array_equal(design.Z[:, 0], data.Z[:, 0])
    np.testing.assert_array_equal(design.X[:, 3], np.ones(15))
    bare = scalar_treatment_design(data, intercept=False)
    assert bare.X.shape == (15, 3)


# ---------------------------------------------------------------------------
# classical baselines


def test_2sls_scalar_hand_example():
    design = Dataset(
        X=np.array([[1.0], [-1.0], [1.0]]),
        Y=np.array([2.0, -2.0, 2.0]),
        Z=np.array([[1.0], [-1.0], [2.0]]),
    )
    np.testing.assert_allclose(two_stage_least_squares(design), [2.0])


def test_2sls_exact_recovery_noiseless():
    data, w_true = make_linear_dataset(seed=6, n=100, d=4, noise=0.0)
    got = two_stage_least_squares(data)
    np.testing.assert_allclose(got, w_true, atol=1e-10)


def test_2sls_overidentified_matches_projection_oracle():
    data, _ = make_linear_dataset(seed=7, n=120, d=3, p=6, noise=0.7)
    got = two_stage_least_squares(data)
    proj = data.Z @ np.linalg.pinv(data.Z) @ data.X
    oracle = np.linalg.solve(proj.T @ proj, proj.T @ data.Y)
    np.testing.assert_allclose(got, oracle, atol=1e-8)


def test_2sls_error_cases():
    data, _ = make_linear_dataset(seed=8, n=30, d=3, p=2)
    with pytest.raises(WeakInstrumentsError, match="under-identified"):
        two_stage_least_squares(data)
    x = RandomSource(1).normal((30, 2))
    collinear = Dataset(X=x, Y=np.ones(30), Z=np.hstack([x[:, [0]], x[:, [0]]]))
    with pytest.raises(WeakInstrumentsError, match="weak or collinear"):
        two_stage_least_squares(collinear)
    assert issubclass(WeakInstrumentsError, EstimationError)


def test_2sls_overflow_raises_instead_of_nan():
    # at 1e160 Z^T X overflows float64, so the solve alone would return NaN
    src = RandomSource(3)
    X = src.normal((300, 2)) * 1e160
    Z = X + 0.3e160 * src.normal((300, 2))
    design = Dataset(X=X, Y=X @ np.array([1.0, -1.0]), Z=Z)
    with pytest.warns(RuntimeWarning) as record:
        with pytest.raises(EstimationError, match="overflows float64; rescale"):
            two_stage_least_squares(design)
    assert any("overflow" in str(w.message) for w in record)


def test_huber_matches_2sls_when_loss_is_quadratic():
    data, _ = make_linear_dataset(seed=9, n=150, d=3, noise=0.5)
    w_iv = two_stage_least_squares(data)
    # enormous delta keeps every residual in the quadratic regime
    w_h = two_stage_huber(data, huber_delta=1e9)
    np.testing.assert_allclose(w_h, w_iv, rtol=1e-6, atol=1e-9)


def test_huber_noiseless_exact():
    # with Z = X both stages are residual-free, so the fit must land exactly
    X = RandomSource(10).normal((80, 3))
    w_true = np.array([0.4, -1.2, 0.3])
    data = Dataset(X=X, Y=X @ w_true, Z=X.copy())
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        w_h = two_stage_huber(data)
    np.testing.assert_allclose(w_h, w_true, atol=1e-6)


def test_huber_resists_response_outliers():
    data, w_true = make_linear_dataset(seed=11, n=300, d=2, noise=0.3)
    Y = data.Y.copy()
    Y[:30] += 50.0
    spiked = Dataset(X=data.X, Y=Y, Z=data.Z)
    err_iv = np.linalg.norm(two_stage_least_squares(spiked) - w_true)
    err_h = np.linalg.norm(two_stage_huber(spiked) - w_true)
    assert err_h <= 0.2 * err_iv


def test_huber_under_identified_raises():
    data, _ = make_linear_dataset(seed=12, n=30, d=3, p=2)
    with pytest.raises(WeakInstrumentsError):
        two_stage_huber(data)


def reference_newton_column(A, b, delta=None, tol=1e-8, max_iter=500):
    """One column's guarded Newton fit, written as a plain loop (the stacked reference).

    Each round evaluates the residual at x. A loss above the last accepted
    iterate's halves the step; otherwise x is accepted and the next step
    solves the in-band normal equations (A^T D A) s = A^T psi, or the IRLS
    ones when fewer than p rows are in band or they are rank deficient.
    """
    n, p = A.shape
    x = np.linalg.lstsq(A, b, rcond=None)[0]
    if delta is None:
        delta = _huber_scale_delta(b - A @ x)

    def evaluate(x):
        r = b - A @ x
        psi = np.clip(r, -delta, delta)
        return r, A.T @ psi, float(np.sum(psi * (r - psi / 2)))

    best_x, best_g = x, np.inf
    base, base_loss = x, np.inf
    for _ in range(max_iter):
        r, g, loss = evaluate(x)
        g_norm = float(np.linalg.norm(g)) / n
        if g_norm < best_g:
            best_x, best_g = x, g_norm
        if g_norm <= tol:
            return x, True
        if loss > base_loss:
            step = step / 2
        else:
            base, base_loss = x, loss
            inband = np.abs(r) <= delta
            if inband.sum() >= p and np.linalg.matrix_rank(A[inband]) == p:
                step = np.linalg.solve(A[inband].T @ A[inband], g)
            else:
                wts = delta / np.maximum(np.abs(r), delta)
                step = np.linalg.solve((A * wts[:, None]).T @ A, g)
        if np.all(np.abs(step) <= 1e-15):
            x = base
            break
        x = base + step
    g_norm = float(np.linalg.norm(evaluate(x)[1])) / n
    if g_norm <= tol:
        return x, True
    return (x, False) if g_norm < best_g else (best_x, False)


def reference_irls_column(A, b, delta=None, tol=1e-8, max_iter=500):
    """One column's IRLS fit, written as a plain loop (the slower method)."""
    x = np.linalg.lstsq(A, b, rcond=None)[0]
    if delta is None:
        delta = _huber_scale_delta(b - A @ x)
    n = A.shape[0]

    def grad_norm(x):
        return float(np.linalg.norm(A.T @ np.clip(b - A @ x, -delta, delta) / n))

    best_x, best_g = x, np.inf
    for _ in range(max_iter):
        g = grad_norm(x)
        if g < best_g:
            best_x, best_g = x, g
        if g <= tol:
            return x, True
        absr = np.abs(b - A @ x)
        wts = np.where(absr <= delta, 1.0, delta / np.maximum(absr, 1e-300))
        Aw = A * wts[:, None]
        x_new = np.linalg.lstsq(Aw.T @ A, Aw.T @ b, rcond=None)[0]
        stalled = np.allclose(x_new, x, rtol=0.0, atol=1e-15)
        x = x_new
        if stalled:
            break
    g = grad_norm(x)
    if g <= tol:
        return x, True
    return (x, False) if g < best_g else (best_x, False)


def desk_design(seed=5, eps=0.2):
    rng = RandomSource(seed)
    base, _ = gen_synthetic_hte(2000, 10, rng.child("dgp"))
    base, _ = corrupt_all_ones(base, eps, rng.child("attack"))
    return hte_design(base)


def desk_first_stage():
    design = desk_design()
    return design.Z, design.X


def zero_row_design():
    # 90 all-zero rows of A, with large responses, among 120 regular ones
    src = RandomSource(17)
    A = src.normal((120, 3))
    B = A @ src.normal((3, 5)) + src.normal((120, 5)) ** 3
    A = np.vstack([A[:70], np.zeros((90, 3)), A[70:]])
    B = np.vstack([B[:70], 40.0 * src.normal((90, 5)), B[70:]])
    return A, B


def small_delta_design():
    # at delta 0.05 most of the 40 columns start with fewer than 3 in-band rows
    src = RandomSource(15)
    A = src.normal((40, 3))
    return A, A @ src.normal((3, 40)) + src.normal((40, 40))


@pytest.mark.parametrize("max_iter", [500, 1])
def test_stacked_huber_irls_matches_single_column_fits(max_iter):
    Z, X = desk_first_stage()
    coef, ok = _huber_fit(Z, X, None, "first stage", max_iter=max_iter)
    assert coef.shape == (Z.shape[1], X.shape[1]) and ok.shape == (X.shape[1],)
    for j in range(X.shape[1]):
        single, ok_single = _huber_fit(Z, X[:, [j]], None, "first stage", max_iter=max_iter)
        ref, ok_ref = reference_newton_column(Z, X[:, j], max_iter=max_iter)
        scale = np.linalg.norm(ref)
        assert np.linalg.norm(coef[:, j] - single[:, 0]) <= 1e-12 * scale
        assert np.linalg.norm(coef[:, j] - ref) <= 1e-12 * scale
        assert ok[j] == ok_single[0] == ok_ref
    # 500 rounds converge every column; one round leaves every one by the budget
    assert ok.all() if max_iter == 500 else not ok.any()


def test_batched_huber_scale_matches_each_row():
    src = RandomSource(16)
    R = src.normal((6, 41)) * np.array([[1.0], [1e-3], [50.0], [1.0], [0.0], [1.0]])
    R[3, :30] = 2.5  # MAD zero: the root-mean-square floor decides
    R[5, ::2] = 0.0  # ties at the median
    for rows in (R, R[:, :40]):  # odd and even row lengths
        batched = _huber_scale_delta(rows)
        assert batched.shape == (len(rows),)
        np.testing.assert_array_equal(
            batched, [_huber_scale_delta(r) for r in rows]
        )
        # the sort-based medians equal np.median's bit for bit
        med = np.median(rows, axis=-1, keepdims=True)
        mad = np.median(np.abs(rows - med), axis=-1)
        floor = 1e-8 * np.maximum(1.0, np.sqrt(np.mean(rows * rows, axis=-1)))
        np.testing.assert_array_equal(
            batched, 1.345 * np.maximum(1.4826 * mad, floor)
        )


@pytest.mark.parametrize("tol", [1e-8, 1e-3])
@pytest.mark.parametrize("max_iter", [500, 2])
def test_huber_irls_zero_rows_add_nothing(max_iter, tol):
    # all-zero rows of A are dropped after the deltas are set; the fit and
    # its flags must match the plain loop over every row, which divides the
    # gradient by the full n
    A, B = zero_row_design()
    coef, ok = _huber_fit(A, B, 0.8, "first stage", tol=tol, max_iter=max_iter)
    for j in range(B.shape[1]):
        ref, ok_ref = reference_newton_column(
            A, B[:, j], delta=0.8, tol=tol, max_iter=max_iter
        )
        assert np.linalg.norm(coef[:, j] - ref) <= 1e-12 * np.linalg.norm(ref)
        assert ok[j] == ok_ref


def test_stacked_huber_irls_returns_each_columns_best_iterate():
    # a small fixed delta makes some first steps raise the gradient norm, so
    # after one round those columns return their start and the rest their step
    A, B = small_delta_design()
    coef, ok = _huber_fit(A, B, 0.05, "first stage", max_iter=1)
    start = np.linalg.lstsq(A, B, rcond=None)[0]
    kept_start = np.all(np.abs(coef - start) <= 1e-12, axis=0)
    assert not ok.any() and kept_start.any() and not kept_start.all()
    for j in range(B.shape[1]):
        ref, _ = reference_newton_column(A, B[:, j], delta=0.05, max_iter=1)
        assert np.linalg.norm(coef[:, j] - ref) <= 1e-12 * np.linalg.norm(ref)


def test_huber_newton_agrees_with_irls_at_convergence():
    # both methods stop at the same gradient tolerance of the same convex
    # loss, so their answers differ only within that tolerance
    design = desk_design()
    coef, _ = _huber_fit(design.Z, design.X, None, "first stage")
    A, B = zero_row_design()
    cases = [
        (design.Z, design.X, None),  # first stage
        (design.Z @ coef, design.Y[:, None], None),  # second stage
        (A, B, 0.8),
    ]
    for A, B, delta in cases:
        fit, ok = _huber_fit(A, B, delta, "stage")
        assert ok.all()
        for j in range(B.shape[1]):
            ref, ok_ref = reference_irls_column(A, B[:, j], delta=delta)
            assert ok_ref
            assert np.linalg.norm(fit[:, j] - ref) <= 1e-7 * np.linalg.norm(ref)


def test_huber_falls_back_to_irls_without_enough_in_band_rows():
    A, B = small_delta_design()
    start = np.linalg.lstsq(A, B, rcond=None)[0]
    in_band = np.count_nonzero(np.abs(B - A @ start) <= 0.05, axis=0)
    assert (in_band < A.shape[1]).sum() >= 10
    coef, ok = _huber_fit(A, B, 0.05, "first stage")
    assert np.all(np.isfinite(coef))
    for j in range(B.shape[1]):
        ref, ok_ref = reference_newton_column(A, B[:, j], delta=0.05)
        assert np.linalg.norm(coef[:, j] - ref) <= 1e-12 * np.linalg.norm(ref)
        # one column is slow for IRLS too and misses tol in 500 rounds
        assert ok[j] == ok_ref == reference_irls_column(A, B[:, j], delta=0.05)[1]
    assert ok.sum() == len(ok) - 1


def test_huber_falls_back_to_irls_when_in_band_rows_are_rank_deficient():
    # every row with the dummy set sits far out of band in column 0, so its
    # in-band Gram has a zero dummy row; column 1's is regular
    src = RandomSource(18)
    n = 60
    dummy = (np.arange(n) % 3 == 0).astype(float)
    A = np.column_stack([np.ones(n), dummy, src.normal(n)])
    noise = 0.3 * src.normal((n, 2))
    noise[dummy == 1, 0] = 50.0 * np.where(np.arange(20) % 2, 1.0, -1.0)
    B = A @ np.array([[1.0, -0.5], [2.0, 0.3], [0.7, 1.1]]) + noise
    in_band = np.abs(B - A @ np.linalg.lstsq(A, B, rcond=None)[0]) <= 1.0
    assert [np.linalg.matrix_rank(A[in_band[:, j]]) for j in range(2)] == [2, 3]
    coef, ok = _huber_fit(A, B, 1.0, "first stage")
    assert ok.all()
    for j in range(2):
        ref, _ = reference_newton_column(A, B[:, j], delta=1.0)
        assert np.linalg.norm(coef[:, j] - ref) <= 1e-12 * np.linalg.norm(ref)


def test_huber_newton_meets_tolerance_within_six_rounds():
    # five rounds in the loop plus the final check: six residual evaluations
    Z, X = desk_first_stage()
    _, ok = _huber_fit(Z, X, None, "first stage", max_iter=5)
    assert ok.all()


def test_two_stage_huber_warns_when_a_column_misses_tolerance(monkeypatch):
    Z, X = desk_first_stage()
    design = Dataset(X=X, Y=X @ np.linspace(-1.0, 1.0, X.shape[1]), Z=Z)
    stacked = models._huber_fit
    monkeypatch.setattr(
        models, "_huber_fit", lambda *args: stacked(*args, max_iter=1)
    )
    with pytest.warns(UserWarning, match="did not reach gradient tolerance"):
        two_stage_huber(design)


def test_huber_rank_deficient_designs_raise():
    src = RandomSource(14)
    X = src.normal((200, 3))
    Z = X + 0.5 * src.normal((200, 3))
    Y = X @ np.array([1.0, -1.0, 0.5]) + 0.1 * src.normal(200)
    # overidentified, p=4 and d=3, with one instrument column repeated
    duplicated = Dataset(X=X, Y=Y, Z=np.hstack([Z, Z[:, [2]]]))
    with pytest.raises(WeakInstrumentsError, match="first stage"):
        two_stage_huber(duplicated)
    # a zero regressor column leaves the fitted regressors rank deficient
    X_zero = X.copy()
    X_zero[:, 1] = 0.0
    with pytest.raises(WeakInstrumentsError, match="second stage"):
        two_stage_huber(Dataset(X=X_zero, Y=Y, Z=Z))


# ---------------------------------------------------------------------------
# ATE extraction


def test_ate_from_params_hte_mode():
    data, _ = make_treatment_dataset(seed=13, n=40, d=2)
    w = np.array([0.5, -1.0])
    expected = float(np.mean(data.X @ w))
    assert ate_from_params(w, data, "hte") == pytest.approx(expected)


def test_ate_from_params_scalar_mode():
    data, _ = make_treatment_dataset(seed=13, n=40, d=2)
    assert ate_from_params(np.array([0.7, 1.0, 2.0]), data, "scalar") == 0.7


def test_ate_from_params_validation():
    data, _ = make_treatment_dataset(seed=13, n=40, d=2)
    with pytest.raises(ValueError, match="expects 2 parameters"):
        ate_from_params(np.zeros(3), data, "hte")
    with pytest.raises(ValueError, match="nonempty"):
        ate_from_params(np.zeros(0), data, "scalar")
    with pytest.raises(ValueError, match="unknown mode"):
        ate_from_params(np.zeros(2), data, "ate")
