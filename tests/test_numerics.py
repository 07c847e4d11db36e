import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from robustgmm import LinearIVModel, RandomSource
from robustgmm.numerics import (
    CriticalPointProblem,
    centered_cov,
    feasible_descent_norm,
    finite_diff_jacobian,
    median,
    projected_gradient_critical_point,
    top_eigenvector,
)

from conftest import make_linear_dataset


# ---------------------------------------------------------------------------
# RandomSource


def test_same_seed_same_stream():
    a, b = RandomSource(99), RandomSource(99)
    np.testing.assert_array_equal(a.normal(10), b.normal(10))
    np.testing.assert_array_equal(a.uniform(10), b.uniform(10))
    np.testing.assert_array_equal(a.subset(50, 7), b.subset(50, 7))


def test_children_independent_of_parent_consumption():
    a, b = RandomSource(5), RandomSource(5)
    a.normal(1000)  # consume the parent stream
    np.testing.assert_array_equal(
        a.child("x").normal(5), b.child("x").normal(5)
    )


def test_distinct_labels_give_distinct_streams():
    r = RandomSource(5)
    assert r.child("a").seed != r.child("b").seed


def test_subset_bounds():
    r = RandomSource(0)
    assert r.subset(4, 0).size == 0
    assert sorted(r.subset(4, 4).tolist()) == [0, 1, 2, 3]
    with pytest.raises(ValueError):
        r.subset(4, 5)


# ---------------------------------------------------------------------------
# median


@pytest.mark.parametrize("m", [1, 2, 7, 40, 41])
def test_median_equals_np_median_bit_for_bit(m):
    x = RandomSource(m).normal(m) * 10.0 ** RandomSource(m + 1).integers(-3, 4, m)
    # rounding makes ties; adding 0.0 turns its -0.0 into 0.0, whose order
    # the sort and np.median's partition may break differently
    for v in (x, np.abs(x), np.round(x) + 0.0, np.zeros(m)):
        assert median(v).tobytes() == np.median(v).tobytes()
    assert median(np.round(x)) == np.median(np.round(x))


# ---------------------------------------------------------------------------
# centered_cov


def test_mean_cov_symmetric_pair():
    centered, cov = centered_cov(np.array([[1.0, 0.0], [-1.0, 0.0]]))
    np.testing.assert_allclose(centered, [[1.0, 0.0], [-1.0, 0.0]])
    np.testing.assert_allclose(cov, [[1.0, 0.0], [0.0, 0.0]])


def test_mean_cov_singleton():
    centered, cov = centered_cov(np.array([[5.0, 2.0]]))
    np.testing.assert_allclose(centered, [[0.0, 0.0]])
    np.testing.assert_allclose(cov, np.zeros((2, 2)))


def test_mean_cov_population_normalization():
    # hand-computed with the 1/m (not 1/(m-1)) convention
    centered, cov = centered_cov(np.array([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0]]))
    np.testing.assert_allclose(centered, [[-1.0, -1.0], [0.0, 0.0], [1.0, 1.0]])
    np.testing.assert_allclose(cov, [[2 / 3, 2 / 3], [2 / 3, 2 / 3]])


def test_mean_cov_rejects_empty():
    with pytest.raises(ValueError):
        centered_cov(np.empty((0, 3)))


# ---------------------------------------------------------------------------
# top_eigenvector


def test_top_eig_diagonal():
    v, eig = top_eigenvector(np.diag([2.0, 1.0]))
    assert eig == pytest.approx([1.0, 2.0], abs=1e-8)
    assert abs(abs(v[0]) - 1.0) < 1e-6 and abs(v[1]) < 1e-6


def test_top_eig_analytic_2x2():
    v, eig = top_eigenvector(np.array([[2.0, 1.0], [1.0, 2.0]]))
    assert eig == pytest.approx([1.0, 3.0], abs=1e-8)
    assert abs(abs(v @ np.array([1.0, 1.0]) / math.sqrt(2))) == pytest.approx(
        1.0, abs=1e-6
    )


def test_top_eig_identity_contract():
    v, eig = top_eigenvector(np.eye(3))
    mu = eig[-1]
    assert mu == pytest.approx(1.0, abs=1e-8)
    assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)
    assert np.linalg.norm(np.eye(3) @ v - mu * v) <= 1e-8


def test_top_eig_zero_matrix():
    # eigh needs no special case: an all-zero spectrum and a unit vector
    v, eig = top_eigenvector(np.zeros((4, 4)))
    np.testing.assert_array_equal(eig, np.zeros(4))
    assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-15)


def test_top_eig_rejects_asymmetric():
    with pytest.raises(ValueError, match="symmetric"):
        top_eigenvector(np.array([[1.0, 2.0], [0.0, 1.0]]))


def test_top_eig_resolves_tiny_gap():
    # a 1e-9 eigengap that a power iteration cannot separate in any budget
    v, eig = top_eigenvector(np.diag([1.0, 1.0 - 1e-9, 0.5]))
    assert np.abs(eig - [0.5, 1.0 - 1e-9, 1.0]).max() <= 1e-12
    assert np.linalg.norm(np.abs(v) - [1.0, 0.0, 0.0]) <= 1e-12


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(1, 50))
def test_top_eig_dominates_random_rayleigh_quotients(seed, k):
    src = RandomSource(seed)
    B = src.normal((k + 2, k))
    A = B.T @ B / (k + 2)
    v, eig = top_eigenvector(A)
    mu = eig[-1]
    assert (np.diff(eig) >= 0).all()
    probes = src.child("probes").normal((40, k))
    probes /= np.linalg.norm(probes, axis=1, keepdims=True)
    quots = np.einsum("ij,jk,ik->i", probes, A, probes)
    assert mu >= quots.max() - 1e-8 * max(1.0, float(np.trace(A)))


def test_top_eig_rayleigh_bound_dense_probes(rng):
    # 1000 random unit directions against one moderately sized PSD matrix
    B = rng.normal((60, 50))
    A = B.T @ B / 60
    v, eig = top_eigenvector(A)
    mu = eig[-1]
    probes = rng.child("probes").normal((1000, 50))
    probes /= np.linalg.norm(probes, axis=1, keepdims=True)
    quots = np.einsum("ij,jk,ik->i", probes, A, probes)
    assert (quots <= mu + 1e-8 * max(1.0, float(np.trace(A)))).all()


# ---------------------------------------------------------------------------
# projected_gradient_critical_point


def quadratic(a):
    a = np.asarray(a, dtype=np.float64)

    def fg(w):
        diff = w - a
        return float(diff @ diff), 2.0 * diff

    return fg


def test_learner_interior_minimizer():
    prob = CriticalPointProblem(quadratic([0.2, -0.3]), np.zeros(2), 1.0, 1e-8)
    res = projected_gradient_critical_point(prob)
    assert res.tolerance_met
    assert np.linalg.norm(res.x - [0.2, -0.3]) <= 1e-6


def test_learner_boundary_projection():
    # minimizer (3,4) outside the unit ball projects to (0.6, 0.8)
    prob = CriticalPointProblem(quadratic([3.0, 4.0]), np.zeros(2), 1.0, 1e-9)
    res = projected_gradient_critical_point(prob)
    assert np.linalg.norm(res.x - [0.6, 0.8]) <= 1e-6


def test_learner_exactly_identified_gmm_closed_form():
    data, w_true = make_linear_dataset(seed=21, n=60, d=3, noise=0.2)
    model = LinearIVModel(data)
    S = np.arange(60)

    def fg(w):
        u = model.moments(S, w).mean(axis=0)
        return float(u @ u), 2.0 * (model.mean_jacobian_over(S, w).T @ u)

    oracle = np.linalg.solve(data.Z.T @ data.X, data.Z.T @ data.Y)
    radius = 2.0 * float(np.linalg.norm(oracle)) + 1.0
    prob = CriticalPointProblem(fg, np.zeros(3), radius, 1e-12)
    res = projected_gradient_critical_point(prob)
    assert np.linalg.norm(res.x - oracle) <= 1e-5


def test_learner_zero_radius_returns_center():
    center = np.array([1.0, 2.0])
    prob = CriticalPointProblem(quadratic([5.0, 5.0]), center, 0.0, 1e-8)
    res = projected_gradient_critical_point(prob)
    np.testing.assert_array_equal(res.x, center)
    assert res.tolerance_met


def test_learner_warm_start_is_projected():
    prob = CriticalPointProblem(
        quadratic([0.0, 0.0]), np.zeros(2), 1.0, 1e-8, x0=np.array([10.0, 0.0])
    )
    res = projected_gradient_critical_point(prob)
    assert np.linalg.norm(res.x) <= 1.0 + 1e-12


def test_learner_reports_unmet_tolerance():
    # Rosenbrock's valley from the origin: the budget of
    # 10 d ceil(log(1/gamma)) = 60 steps runs out at criticality 0.125
    def rosenbrock(w):
        x, y = w
        bend = y - x * x
        grad = np.array([-2.0 * (1.0 - x) - 400.0 * x * bend, 200.0 * bend])
        return (1.0 - x) ** 2 + 100.0 * bend**2, grad

    prob = CriticalPointProblem(rosenbrock, np.zeros(2), 100.0, 0.1)
    res = projected_gradient_critical_point(prob)
    assert not res.tolerance_met
    assert np.linalg.norm(res.x) <= 100.0 + 1e-12


def test_learner_counts_iterations_when_no_step_progresses():
    # the reported gradient is never a descent direction of the value, so
    # every Armijo check fails and no step is ever taken
    def fg(w):
        return float(w @ w), np.array([1.0, 0.0])

    prob = CriticalPointProblem(fg, np.zeros(2), 1.0, 1e-8)
    res = projected_gradient_critical_point(prob)
    assert not res.tolerance_met
    assert res.iterations == 0
    np.testing.assert_array_equal(res.x, np.zeros(2))


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_learner_always_feasible_and_critical_on_quadratics(seed):
    src = RandomSource(seed)
    d = 2 + int(src.integers(0, 4))
    a = 3.0 * src.normal(d)
    center = src.normal(d)
    radius = 0.5 + 2.0 * float(src.uniform())
    gamma = 1e-7
    prob = CriticalPointProblem(quadratic(a), center, radius, gamma)
    res = projected_gradient_critical_point(prob)
    assert np.linalg.norm(res.x - center) <= radius + 1e-12
    _, grad = quadratic(a)(res.x)
    assert feasible_descent_norm(grad, res.x, center, radius) <= gamma * (1 + 1e-9)


def test_feasible_descent_norm_cases():
    center = np.zeros(2)
    # interior point: plain gradient norm
    assert feasible_descent_norm(np.array([3.0, 4.0]), np.array([0.1, 0.0]), center, 1.0) == 5.0
    # boundary, gradient pulling straight outward-from-origin: -grad points
    # inward, fully feasible
    g_in = np.array([1.0, 0.0])
    assert feasible_descent_norm(g_in, np.array([1.0, 0.0]), center, 1.0) == 1.0
    # boundary, -grad pointing straight outward: blocked entirely
    g_out = np.array([-1.0, 0.0])
    assert feasible_descent_norm(g_out, np.array([1.0, 0.0]), center, 1.0) == 0.0


# ---------------------------------------------------------------------------
# finite_diff_jacobian


def test_fd_exact_on_linear_maps():
    A = np.array([[1.0, 2.0, 0.0], [0.5, -3.0, 4.0]])
    got = finite_diff_jacobian(lambda w: A @ w, np.array([0.3, -0.4, 2.0]), 1e-4)
    assert np.linalg.norm(got - A) <= 1e-10 * np.linalg.norm(A)


def test_fd_quadratic_analytic():
    got = finite_diff_jacobian(
        lambda w: np.array([w[0] ** 2, w[1] ** 2]), np.array([1.0, 2.0]), 1e-5
    )
    np.testing.assert_allclose(got, [[2.0, 0.0], [0.0, 4.0]], atol=1e-8)


def test_fd_constant_map_is_zero():
    got = finite_diff_jacobian(lambda w: np.array([7.0, 1.0]), np.zeros(3), 1e-5)
    np.testing.assert_array_equal(got, np.zeros((2, 3)))


def test_fd_rejects_nonpositive_step():
    with pytest.raises(ValueError):
        finite_diff_jacobian(lambda w: w, np.zeros(2), 0.0)
