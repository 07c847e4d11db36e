import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from robustgmm import Dataset, HyperParams, LinearIVModel, RandomSource
from robustgmm.core import ActiveSet, mean_jacobian, mean_moment
from robustgmm.numerics import finite_diff_jacobian

from conftest import make_linear_dataset


# ---------------------------------------------------------------------------
# Dataset


def test_dataset_shapes_and_dims():
    data = Dataset(X=np.ones((4, 3)), Y=np.zeros(4), Z=np.ones((4, 2)))
    assert (data.n, data.d, data.p) == (4, 3, 2)
    assert data.T is None


def test_dataset_rejects_row_mismatch():
    with pytest.raises(ValueError, match="row mismatch"):
        Dataset(X=np.ones((4, 3)), Y=np.zeros(5), Z=np.ones((4, 2)))
    with pytest.raises(ValueError, match="row mismatch"):
        Dataset(X=np.ones((4, 3)), Y=np.zeros(4), Z=np.ones((4, 2)), T=np.ones(3))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_dataset_rejects_nonfinite(bad):
    X = np.ones((3, 2))
    X[1, 1] = bad
    with pytest.raises(ValueError, match="NaN or infinite"):
        Dataset(X=X, Y=np.zeros(3), Z=np.ones((3, 1)))


def test_dataset_rejects_empty():
    with pytest.raises(ValueError, match="empty"):
        Dataset(X=np.ones((0, 2)), Y=np.zeros(0), Z=np.ones((0, 1)))


def test_dataset_is_immutable_and_does_not_alias_input():
    raw = np.ones((3, 2))
    data = Dataset(X=raw, Y=np.zeros(3), Z=np.ones((3, 1)))
    with pytest.raises(ValueError):
        data.X[0, 0] = 5.0
    raw[0, 0] = 7.0
    assert data.X[0, 0] == 1.0


# ---------------------------------------------------------------------------
# ActiveSet


def test_active_set_sorts_and_dedupes():
    s = ActiveSet(np.array([3, 1, 3, 0]))
    assert s.indices.tolist() == [0, 1, 3]
    assert len(s) == 3


def test_active_set_rejects_negative():
    with pytest.raises(ValueError, match="negative"):
        ActiveSet(np.array([2, -1]))


def test_active_set_full_and_subset():
    full = ActiveSet.full(5)
    assert full.indices.tolist() == [0, 1, 2, 3, 4]
    sub = ActiveSet(np.array([1, 3]))
    assert sub.is_subset_of(full)
    assert not full.is_subset_of(sub)


# ---------------------------------------------------------------------------
# HyperParams


@pytest.mark.parametrize(
    "kwargs,match",
    [
        (dict(eps=0.5), "eps"),
        (dict(eps=-0.1), "eps"),
        (dict(lam=0.0), "positive"),
        (dict(L=-1.0), "positive"),
        (dict(sigma=-0.5), "sigma"),
        (dict(R0=0.0), "R0"),
        (dict(delta=0.0), "delta"),
        (dict(delta=1.0), "delta"),
        (dict(gamma=0.0), "gamma"),
        (dict(lam=3.0), "must not exceed L"),
    ],
)
def test_hyperparams_validation(kwargs, match):
    base = dict(eps=0.1, lam=1.0, L=2.0, sigma=1.0, R0=1.0)
    base.update(kwargs)
    with pytest.raises(ValueError, match=match):
        HyperParams(**base)


def test_hyperparams_gamma_default_and_floor():
    hp = HyperParams(eps=0.04, lam=1.0, L=4.0, sigma=0.5, R0=1.0)
    assert hp.gamma == pytest.approx(0.5 * 8.0 * 0.2)
    noiseless = HyperParams(eps=0.0, lam=1.0, L=4.0, sigma=0.0, R0=1.0)
    assert noiseless.gamma == pytest.approx(1e-10)
    explicit = HyperParams(eps=0.0, lam=1.0, L=4.0, sigma=0.0, R0=1.0, gamma=0.3)
    assert explicit.gamma == 0.3


# ---------------------------------------------------------------------------
# mean_moment / mean_jacobian


class TwoPointModel:
    """Fixed per-sample moments, zero Jacobians; for averaging arithmetic."""

    def __init__(self, rows):
        self.rows = np.asarray(rows, dtype=np.float64)

    @property
    def n_samples(self):
        return self.rows.shape[0]

    @property
    def param_dim(self):
        return 2

    @property
    def moment_dim(self):
        return self.rows.shape[1]

    def moments(self, idx, w):
        return self.rows[idx]

    def jacobian_dot(self, idx, w, u):
        return np.zeros((len(idx), self.param_dim))

    def mean_jacobian_over(self, idx, w):
        return np.zeros((self.moment_dim, self.param_dim))


def test_mean_moment_arithmetic_mean():
    model = TwoPointModel([[1.0, 0.0], [3.0, 0.0]])
    got = mean_moment(model, ActiveSet.full(2), np.zeros(2))
    np.testing.assert_allclose(got, [2.0, 0.0])


def test_mean_moment_singleton():
    model = TwoPointModel([[1.0, 0.0], [3.0, 7.0]])
    got = mean_moment(model, ActiveSet(np.array([1])), np.zeros(2))
    np.testing.assert_allclose(got, [3.0, 7.0])


def test_mean_moment_zero_on_exact_fit():
    data, w_true = make_linear_dataset(seed=7, n=30, d=3, noise=0.0)
    model = LinearIVModel(data)
    got = mean_moment(model, ActiveSet.full(30), w_true)
    np.testing.assert_allclose(got, np.zeros(3), atol=1e-12)


def test_mean_moment_rejects_empty_set():
    model = TwoPointModel([[1.0, 0.0]])
    with pytest.raises(ValueError, match="empty active set"):
        mean_moment(model, ActiveSet(np.empty(0, dtype=np.int64)), np.zeros(2))
    with pytest.raises(ValueError, match="empty active set"):
        mean_jacobian(model, ActiveSet(np.empty(0, dtype=np.int64)), np.zeros(2))


def test_mean_moment_rejects_out_of_range_index():
    model = TwoPointModel([[1.0, 0.0]])
    with pytest.raises(ValueError, match="references sample"):
        mean_moment(model, ActiveSet(np.array([5])), np.zeros(2))


def test_mean_jacobian_linear_iv_constant_in_w():
    data, _ = make_linear_dataset(seed=3, n=20, d=3)
    model = LinearIVModel(data)
    S = ActiveSet.full(20)
    j1 = mean_jacobian(model, S, np.zeros(3))
    j2 = mean_jacobian(model, S, np.full(3, 17.5))
    np.testing.assert_array_equal(j1, j2)
    np.testing.assert_allclose(j1, -(data.Z.T @ data.X) / 20.0)


def test_mean_jacobian_single_sample_outer_product():
    data = Dataset(
        X=np.array([[2.0, 3.0]]), Y=np.zeros(1), Z=np.array([[1.0, 0.0]])
    )
    got = mean_jacobian(LinearIVModel(data), ActiveSet.full(1), np.zeros(2))
    np.testing.assert_allclose(got, [[-2.0, -3.0], [0.0, 0.0]])


def test_mean_jacobian_matches_finite_differences():
    data, _ = make_linear_dataset(seed=11, n=15, d=3, noise=0.5)
    model = LinearIVModel(data)
    S = ActiveSet(np.array([0, 2, 5, 9]))
    w = np.array([0.3, -1.2, 0.7])
    h = 1e-5 * (1.0 + float(np.linalg.norm(w)))
    fd = finite_diff_jacobian(lambda v: mean_moment(model, S, v), w, h)
    exact = mean_jacobian(model, S, w)
    assert np.linalg.norm(fd - exact) <= 1e-5 * max(1.0, np.linalg.norm(exact))


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(2, 12))
def test_mean_ops_linear_in_disjoint_unions(seed, n1):
    src = RandomSource(seed)
    n = n1 + 5
    rows = src.normal((n, 3))
    model = TwoPointModel(rows)
    s1 = ActiveSet(np.arange(n1))
    s2 = ActiveSet(np.arange(n1, n))
    union = ActiveSet.full(n)
    w = np.zeros(2)
    weighted = (n1 * mean_moment(model, s1, w) + 5 * mean_moment(model, s2, w)) / n
    np.testing.assert_allclose(mean_moment(model, union, w), weighted, atol=1e-12)
