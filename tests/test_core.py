import dataclasses
import math

import numpy as np
import pytest

from robustgmm import Dataset, HyperParams, LinearIVModel
from robustgmm.core import ActiveSet
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
    sub = ActiveSet(full.indices[[3, 1]])
    assert sub.indices.tolist() == [1, 3]


# ---------------------------------------------------------------------------
# HyperParams


@pytest.mark.parametrize(
    "kwargs,match",
    [
        (dict(eps=0.5), "eps"),
        (dict(eps=-0.1), "eps"),
        (dict(eps=math.nan), "eps"),
        (dict(R0=-1.0), "R0"),
        (dict(R0=math.nan), "R0"),
        (dict(R0=0.0), "R0"),
        (dict(gamma=-1.0), "gamma"),
        (dict(gamma=math.nan), "gamma"),
        (dict(gamma=0.0), "gamma"),
    ],
)
def test_hyperparams_validation(kwargs, match):
    base = dict(eps=0.1, R0=1.0, gamma=1e-3)
    base.update(kwargs)
    with pytest.raises(ValueError, match=match):
        HyperParams(**base)


def test_hyperparams_holds_only_the_fit_constants():
    assert [f.name for f in dataclasses.fields(HyperParams)] == ["eps", "R0", "gamma"]
    with pytest.raises(TypeError):  # gamma is required, with no default rule
        HyperParams(eps=0.1, R0=1.0)


# ---------------------------------------------------------------------------
# mean_jacobian_over


def test_mean_jacobian_linear_iv_constant_in_w():
    data, _ = make_linear_dataset(seed=3, n=20, d=3)
    model = LinearIVModel(data)
    idx = np.arange(20)
    j1 = model.mean_jacobian_over(idx, np.zeros(3))
    j2 = model.mean_jacobian_over(idx, np.full(3, 17.5))
    np.testing.assert_array_equal(j1, j2)
    np.testing.assert_allclose(j1, -(data.Z.T @ data.X) / 20.0)


def test_mean_jacobian_single_sample_outer_product():
    data = Dataset(
        X=np.array([[2.0, 3.0]]), Y=np.zeros(1), Z=np.array([[1.0, 0.0]])
    )
    got = LinearIVModel(data).mean_jacobian_over(np.array([0]), np.zeros(2))
    np.testing.assert_allclose(got, [[-2.0, -3.0], [0.0, 0.0]])


def test_mean_jacobian_matches_finite_differences():
    data, _ = make_linear_dataset(seed=11, n=15, d=3, noise=0.5)
    model = LinearIVModel(data)
    idx = np.array([0, 2, 5, 9])
    w = np.array([0.3, -1.2, 0.7])
    h = 1e-5 * (1.0 + float(np.linalg.norm(w)))
    fd = finite_diff_jacobian(lambda v: model.moments(idx, v).mean(axis=0), w, h)
    exact = model.mean_jacobian_over(idx, w)
    assert np.linalg.norm(fd - exact) <= 1e-5 * max(1.0, np.linalg.norm(exact))
