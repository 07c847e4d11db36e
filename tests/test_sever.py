import numpy as np
import pytest

from regime_scan import BATTERY
from robustgmm import (
    Dataset,
    FilterExhaustedError,
    HyperParams,
    LinearIVModel,
    LogisticIVModel,
    RandomSource,
    iterated_gmm_sever,
    robust_linear_estimate,
    scalar_treatment_design,
    two_stage_least_squares,
)
from robustgmm.core import ActiveSet, EstimateReport, EstimationError
from robustgmm.experiments import (
    corrupt_all_ones,
    derive_hyperparams,
    gen_synthetic_hte,
)
from robustgmm.filtering import robust_score_bound, spectral_filter
from robustgmm.models import SingleIndexIVModel, hte_design, logistic
from robustgmm.numerics import finite_diff_jacobian
from robustgmm.sever import (
    PRACTICE_JAC_SLACK_FACTOR,
    PRACTICE_SLACK,
    amplified_gmm_sever,
    gmm_sever,
)
import robustgmm.experiments as experiments_mod
import robustgmm.sever as sever_mod

from conftest import ball_binding_dataset, make_linear_dataset


def scalar_data(y_values):
    n = len(y_values)
    ones = np.ones((n, 1))
    return Dataset(X=ones, Y=np.asarray(y_values, dtype=np.float64), Z=ones)


def planted_scalar_data(seed):
    # 20 good rows around y = 2, two identical planted rows at y = 1000
    src = RandomSource(seed)
    good = 2.0 + 0.3 * src.normal(20)
    return scalar_data(np.concatenate([good, [1000.0, 1000.0]]))


def all_ones_hte_model(seed):
    # a small desk-style cell (n=300, d=3, eps=0.2): the moment pass removes
    # rows over several rounds at random thresholds
    src = RandomSource(seed)
    base, _ = gen_synthetic_hte(300, 3, src.child("dgp"))
    base, _ = corrupt_all_ones(base, 0.2, src.child("attack"))
    model = LinearIVModel(hte_design(base))
    return model, derive_hyperparams(model, 0.2)


# ---------------------------------------------------------------------------
# the round objective ||E_S g(w)||^2


LINEAR_DESIGNS = {
    "hte": hte_design,
    "hte-full": lambda data: hte_design(data, "full"),
    "scalar": scalar_treatment_design,
}


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("design", sorted(LINEAR_DESIGNS))
def test_affine_objective_matches_kernels(design, seed):
    # the exact step minimizes ||u0 + J w||^2 over _affine_terms' u0 and J;
    # u0 + J w is the kernels' mean moment at every w
    src = RandomSource(seed)
    data, _ = gen_synthetic_hte(200, 3, src.child("data"))
    model = LinearIVModel(LINEAR_DESIGNS[design](data))
    assert model.affine
    n = model.n_samples
    sets = {
        "full": ActiveSet.full(n),
        "subset": ActiveSet(src.subset(n, 120)),
        "one-row": ActiveSet(np.array([int(src.integers(0, n))])),
    }
    for name, S in sets.items():
        u0, J = sever_mod._affine_terms(model, model.gather(S.indices), len(S))
        # S's live rows alone, with the inert ones counted, give the same terms
        live = S.indices[model.data.Z[S.indices].any(axis=1)]
        u0_live, J_live = sever_mod._affine_terms(model, model.gather(live), len(S))
        np.testing.assert_allclose(u0_live, u0, rtol=1e-12, atol=1e-15, err_msg=name)
        np.testing.assert_allclose(J_live, J, rtol=1e-12, atol=1e-15, err_msg=name)
        for k in range(3):
            w = src.child(f"w-{name}-{k}").normal(model.param_dim)
            u = model.moments(S.indices, w).mean(axis=0)
            scale = np.linalg.norm(u0) + np.linalg.norm(J @ w)
            assert np.linalg.norm(u0 + J @ w - u) <= 1e-12 * scale, name
            np.testing.assert_allclose(
                J, model.mean_jacobian_over(S.indices, w), rtol=1e-12, err_msg=name
            )


def test_logistic_objective_keeps_kernel_path():
    data, _ = make_linear_dataset(seed=4, n=150, d=3, noise=0.5)
    model = LogisticIVModel(data)
    assert not model.affine
    S = ActiveSet(RandomSource(4).subset(150, 100))
    fn = sever_mod._moment_objective(model, model.gather(S.indices))
    for k in range(3):
        w = RandomSource(k).normal(3) * 0.5
        _, grad = fn(w)
        fd = finite_diff_jacobian(lambda v: fn(v)[0], w, 1e-6)
        np.testing.assert_allclose(grad, fd, rtol=1e-6, atol=1e-9)


# ---------------------------------------------------------------------------
# the model contract


class KernelPathIdentityIV(SingleIndexIVModel):
    # the identity link written as a new link is: two methods, with affine
    # left False, so the learner takes the kernel objective path
    def link(self, t):
        return t

    def row_sloped_instruments(self, rows, w):
        return rows.Z


class LearnerLinearIV(LinearIVModel):
    # LinearIVModel with affine left False, so every round runs the learner
    affine = False


@pytest.mark.parametrize("seed", range(5))
def test_two_method_link_fits_like_linear_iv(monkeypatch, seed):
    # a non-affine link runs the learner every round and fits as
    # LinearIVModel does on the learner's path; LinearIVModel itself takes
    # the exact step and never calls the learner
    src = RandomSource(seed)
    base, _ = gen_synthetic_hte(2000, 5, src.child("dgp"))
    base, _ = corrupt_all_ones(base, 0.1, src.child("attack"))
    design = hte_design(base)
    linear, kernel_path = LinearIVModel(design), KernelPathIdentityIV(design)
    assert linear.affine and not kernel_path.affine
    hp = derive_hyperparams(linear, 0.1)
    assert derive_hyperparams(kernel_path, 0.1) == hp
    learner_calls = []
    count_calls(monkeypatch, sever_mod, "projected_gradient_critical_point", learner_calls)
    iterated_gmm_sever(linear, hp, src.child("fit"))
    assert learner_calls == []
    got = iterated_gmm_sever(kernel_path, hp, src.child("fit"))
    assert len(learner_calls) == got.rounds
    want = iterated_gmm_sever(LearnerLinearIV(design), hp, src.child("fit"))
    assert len(learner_calls) == got.rounds + want.rounds
    np.testing.assert_array_equal(got.final_set.indices, want.final_set.indices)
    np.testing.assert_allclose(got.w_hat, want.w_hat, rtol=1e-6)


class RowMajorScoresIV(LinearIVModel):
    # the shipped kernels return column-major score matrices; these are the
    # same elements row-major, so the sever round's means sum row by row
    def row_moments(self, rows, w):
        return np.ascontiguousarray(super().row_moments(rows, w))

    def row_jacobian_dot(self, rows, w, u):
        return np.ascontiguousarray(super().row_jacobian_dot(rows, w, u))


def instrument_attacked_logistic_data():
    # a logistic response with 40 of 400 instrument rows set to 4.0
    data, w_true = make_linear_dataset(seed=0, n=400, d=2, noise=0.5)
    Y = (RandomSource(100).uniform(400) < logistic(data.X @ w_true)).astype(np.float64)
    Z = data.Z.copy()
    Z[:40] = 4.0
    return Dataset(X=data.X, Y=Y, Z=Z)


def scaled_cell(kind):
    # a sweep cell (desk: master seed 1001, eps 0.3; semi: 9000, eps 0.15;
    # rep 0), rescaled as robust_linear_estimate rescales it
    seed, eps = {"desk": (1001, 0.3), "semi": (9000, 0.15)}[kind]
    cell = BATTERY[kind].cell(seed, eps, 0)
    design = cell.design
    X = design.X @ experiments_mod._block_transform(design.X)
    Z = design.Z @ experiments_mod._block_transform(design.Z)
    return Dataset(X=X, Y=design.Y, Z=Z), eps, cell.rng.child("fit")


@pytest.mark.parametrize("kind", ["desk", "semi"])
def test_score_layout_moves_no_fit_decision(kind):
    design, eps, rng = scaled_cell(kind)
    shipped, row_major = LinearIVModel(design), RowMajorScoresIV(design)
    hp = derive_hyperparams(shipped, eps)
    want = iterated_gmm_sever(row_major, hp, rng)
    got = iterated_gmm_sever(shipped, hp, rng)
    removed = [(r, label, m) for r, label, m, _ in want.events]
    assert [(r, label, m) for r, label, m, _ in got.events] == removed
    assert sum(m for _, _, m in removed) > 0
    np.testing.assert_array_equal(got.final_set.indices, want.final_set.indices)
    assert got.rounds == want.rounds
    np.testing.assert_allclose(got.w_hat, want.w_hat, rtol=1e-10)


# ---------------------------------------------------------------------------
# the exact step of an affine model


def spy_returns(monkeypatch, name, log):
    inner = getattr(sever_mod, name)

    def spied(*args):
        out = inner(*args)
        log.append((args, out))
        return out

    monkeypatch.setattr(sever_mod, name, spied)


def test_exact_step_is_iv_on_the_first_active_set(monkeypatch):
    # round 1 of a desk cell: the step solves the active rows' moment
    # equation, which is classical IV on those rows of the rescaled design
    design, eps, rng = scaled_cell("desk")
    model = LinearIVModel(design)
    terms, steps = [], []
    spy_returns(monkeypatch, "_affine_terms", terms)
    spy_returns(monkeypatch, "_exact_step", steps)
    iterated_gmm_sever(model, derive_hyperparams(model, eps), rng)
    rows = terms[0][0][1]
    w = steps[0][1]
    oracle = np.linalg.solve(rows.Z.T @ rows.X, rows.Z.T @ rows.Y)
    assert np.linalg.norm(w - oracle) <= 1e-10 * np.linalg.norm(oracle)
    assert all(w is not None for _, w in steps)


def screened_rows(model):
    # the response screen's survivors, replayed: residuals at the origin
    # more than PRACTICE_RESPONSE_CAP MADs from their median leave, until
    # none does
    res = model.row_residuals(model.data, np.zeros(model.param_dim))
    keep = np.arange(model.n_samples)
    while True:
        dev = np.abs(res[keep] - sever_mod.median(res[keep]))
        mad = sever_mod.median(dev)
        if mad <= 0.0 or (dev <= sever_mod.PRACTICE_RESPONSE_CAP * mad).all():
            return keep
        keep = keep[dev <= sever_mod.PRACTICE_RESPONSE_CAP * mad]


@pytest.mark.parametrize("kind", ["desk", "semi", "logistic"])
def test_a_fit_gathers_each_active_set_once(monkeypatch, kind):
    # gmm_sever gathers its live rows after the screen (which removes rows
    # on the semi cell) and after each pass that removes live rows; every
    # round reads them through the row forms, so no index-form kernel runs
    # in a fit. An affine fit's live rows are those with a nonzero
    # instrument row (about half of the desk cell's, every semi row); a
    # logistic fit reads every row, and its learner objective reads the
    # round's rows as well. No pass of these cells removes the inert block,
    # so each removing pass is followed by one gather.
    if kind == "logistic":
        design, eps, rng = instrument_attacked_logistic_data(), 0.1, RandomSource(0)
        model = LogisticIVModel(design)
    else:
        design, eps, rng = scaled_cell(kind)
        model = LinearIVModel(design)
    hp = derive_hyperparams(model, eps)
    screened = screened_rows(model)
    gathered = []
    gather = SingleIndexIVModel.gather

    def spied(self, idx):
        gathered.append(idx.copy())
        return gather(self, idx)

    def forbidden(*args):
        raise AssertionError("an index-form kernel ran inside a fit")

    monkeypatch.setattr(SingleIndexIVModel, "gather", spied)
    for kernel in ("residuals", "moments", "jacobian_dot", "mean_jacobian_over"):
        monkeypatch.setattr(SingleIndexIVModel, kernel, forbidden)
    report = iterated_gmm_sever(model, hp, rng)
    assert report.diagnostics["outer_rounds"] == 1.0
    assert sum(e[2] for e in report.events if e[1] == "response") == design.n - len(screened)
    removing = [e for e in report.events if e[1] != "response" and e[2] > 0]
    assert len(removing) + 1 == report.rounds
    live = design.Z.any(axis=1) if model.affine else np.ones(design.n, dtype=bool)
    assert live.all() == (kind != "desk")
    final = report.final_set.indices
    # the inert block stayed: every screened inert row is in the final set
    np.testing.assert_array_equal(final[~live[final]], screened[~live[screened]])
    assert len(gathered) == report.rounds
    assert len({idx.tobytes() for idx in gathered}) == len(gathered)
    np.testing.assert_array_equal(gathered[0], screened[live[screened]])
    np.testing.assert_array_equal(gathered[-1], final[live[final]])


def coin_instrument_cell(kind):
    # the desk cell, whose lifted instrument z_i X_i is zero on about half of
    # the rows; or an overidentified point-mass cell (p = 10, d = 5, the
    # first 200 rows X = Z = 1, Y = -5) with the instrument rows of a fair
    # coin's other rows zeroed, whose exact step leaves a nonzero mean
    # moment, so the filter passes center the inert rows away from zero
    if kind == "desk":
        return scaled_cell("desk")
    data = BATTERY["overidentified"].cell(3, 0.1, 0).design
    Z = data.Z.copy()
    Z[200:][RandomSource(3).child("coin").uniform(data.n - 200) < 0.5] = 0.0
    return Dataset(X=data.X, Y=data.Y, Z=Z), 0.1, RandomSource(3)


@pytest.mark.parametrize("kind", ["desk", "overidentified"])
def test_inert_rows_move_no_fit_decision(kind):
    # zero instrument rows, read in closed form, against the same rows made
    # live by one instrument entry of 1e-200, which every kernel and filter
    # pass then materializes: a 1e-200 moment adds nothing a float64 sum of
    # O(1) terms can hold
    design, eps, rng = coin_instrument_cell(kind)
    inert = ~design.Z.any(axis=1)
    assert 0.3 < inert.mean() < 0.7
    Z = design.Z.copy()
    Z[inert, 0] = 1e-200
    hp = derive_hyperparams(LinearIVModel(design), eps)
    want = iterated_gmm_sever(LinearIVModel(Dataset(X=design.X, Y=design.Y, Z=Z)), hp, rng)
    got = iterated_gmm_sever(LinearIVModel(design), hp, rng)
    removed = [(r, label, m) for r, label, m, _ in want.events]
    assert [(r, label, m) for r, label, m, _ in got.events] == removed
    assert sum(m for _, _, m in removed) > 0
    if kind == "overidentified":
        assert any(label == "jacobian" for _, label, _ in removed)
    # each pass's score, the top eigenvalue over every active row, inert
    # ones included
    np.testing.assert_allclose([e[3] for e in got.events], [e[3] for e in want.events],
                               rtol=1e-10)
    np.testing.assert_array_equal(got.final_set.indices, want.final_set.indices)
    np.testing.assert_allclose(got.w_hat, want.w_hat, rtol=1e-12)


def test_exact_step_outside_the_ball_lands_on_the_sphere(monkeypatch, rng):
    # the interior minimizer (near the truth, norm above 1) leaves a ball of
    # radius 0.1, so every round steps to the sphere, at the multiplier
    # mu > 0 with J^T (u0 + J w) + mu w = 0 (the trust-region conditions),
    # and no round calls the learner
    data, w_true = make_linear_dataset(seed=8, n=50, d=2, noise=1.0)
    model = LinearIVModel(data)
    hp = HyperParams(eps=0.05, R0=0.1, gamma=1e-8)
    steps, learner_calls = [], []
    spy_returns(monkeypatch, "_exact_step", steps)
    count_calls(monkeypatch, sever_mod, "projected_gradient_critical_point", learner_calls)
    res = gmm_sever(model, hp, rng)
    assert learner_calls == [] and len(steps) == res.rounds
    for _, w in steps:
        assert np.linalg.norm(w) == pytest.approx(0.1, rel=1e-12)
    u0, J = sever_mod._affine_terms(model, model.data, model.n_samples)
    assert np.linalg.norm(np.linalg.solve(J, -u0)) > 1.0
    for radius in (0.1, 0.5, 1.0):
        w = sever_mod._exact_step(u0, J, 1.0, radius)
        assert np.linalg.norm(w) == pytest.approx(radius, rel=1e-12)
        grad = J.T @ (u0 + J @ w)
        mu = -float(grad @ w) / float(w @ w)
        assert mu > 0
        assert np.linalg.norm(grad + mu * w) <= 1e-12 * np.linalg.norm(grad)


def test_exact_step_refuses_ill_posed_systems():
    # the step never moves along a direction J cannot see, and it refuses a
    # non-finite system with an error
    step = sever_mod._exact_step
    src = RandomSource(3)
    J, u0 = src.normal((3, 3)), src.normal(3)

    def assert_close(got, want):
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)

    assert_close(step(u0, J, 1.0, 1e6), np.linalg.solve(J, -u0))
    # more moments than parameters: the least-squares solution
    J_tall, u_tall = src.normal((5, 3)), src.normal(5)
    assert_close(step(u_tall, J_tall, 1.0, 1e6), np.linalg.lstsq(J_tall, -u_tall, rcond=None)[0])
    # fewer moments than parameters: lstsq's minimum-norm solution
    assert_close(step(u0[:2], J[:2], 1.0, 1e6), np.linalg.lstsq(J[:2], -u0[:2], rcond=None)[0])
    # a Jacobian of pure roundoff, well conditioned relative to itself but
    # 1e-16 of the per-row size, gives the origin
    np.testing.assert_array_equal(step(1e-16 * u0, 1e-16 * J, 1.0, 1e6), np.zeros(3))
    assert_close(step(1e-16 * u0, 1e-16 * J, 1e-16, 1e6), np.linalg.solve(J, -u0))
    bad = J.copy()
    bad[0, 0] = np.nan
    with pytest.raises(EstimationError, match="overflows"):
        step(u0, bad, 1.0, 1e6)
    with pytest.raises(EstimationError, match="overflows"):
        step(np.array([np.inf, 0.0, 0.0]), J, 1.0, 1e6)
    with pytest.raises(EstimationError, match="overflows"):  # row norms overflowed
        step(u0, J, np.inf, 1e6)


def plus_minus_pairs_data(seed):
    # instrument rows in exact +/- pairs: the mean moment is 0 for every w
    src = RandomSource(seed)
    X_half, Z_half = src.normal((20, 2)), src.normal((20, 2))
    Y_half = X_half @ np.array([1.0, -2.0])
    return Dataset(
        X=np.vstack([X_half, X_half]),
        Y=np.concatenate([Y_half, Y_half]),
        Z=np.vstack([Z_half, -Z_half]),
    )


def test_affine_fits_never_call_the_learner(monkeypatch, rng):
    # a desk cell, a cell where the interior step leaves the ball, and a
    # design whose J is roundoff: every round takes the exact step
    learner_calls = []
    count_calls(monkeypatch, sever_mod, "projected_gradient_critical_point", learner_calls)
    design, eps, fit_rng = scaled_cell("desk")
    model = LinearIVModel(design)
    iterated_gmm_sever(model, derive_hyperparams(model, eps), fit_rng)
    report = robust_linear_estimate(ball_binding_dataset()[0], 0.05, RandomSource(17))
    assert report.diagnostics["learner_tolerance_unmet"] == 0.0
    hp = HyperParams(eps=0.1, R0=5.0, gamma=1e-6)
    paired = gmm_sever(LinearIVModel(plus_minus_pairs_data(6)), hp, rng)
    np.testing.assert_array_equal(paired.w_hat, np.zeros(2))
    assert learner_calls == []


def test_logistic_fit_is_unchanged_by_the_exact_step(monkeypatch):
    # a logistic fit never builds or solves the affine system, and it returns
    # what it returned before the exact step existed: the final set and
    # events exactly, w_hat to roundoff (other BLAS kernels move its last
    # bits, about 1e-13 relative; ROADMAP item 15)
    def forbidden(*args):
        raise AssertionError("the logistic path reached the affine solve")

    monkeypatch.setattr(sever_mod, "_affine_terms", forbidden)
    monkeypatch.setattr(sever_mod, "_exact_step", forbidden)
    report = robust_linear_estimate(
        instrument_attacked_logistic_data(), 0.1, RandomSource(0), model_kind="logistic"
    )
    removed = np.setdiff1d(np.arange(400), report.final_set.indices)
    assert removed.tolist() == [3, 7, 10, 16, 18, 19, 20, 22, 26, 30, 31, 32, 34, 35, 36]
    assert [e[:3] for e in report.events] == [
        (1, "jacobian", 0), (1, "moment", 15), (2, "jacobian", 0), (2, "moment", 0)
    ]
    np.testing.assert_allclose(
        report.w_hat, [-1.7371128472093167, 1.1772763046571129], rtol=1e-12
    )
    assert report.diagnostics["learner_tolerance_unmet"] == 0.0


# ---------------------------------------------------------------------------
# gmm_sever


def test_clean_noiseless_recovery(rng):
    # At the exact fit every moment row is roundoff, and the bulk-spectrum
    # bound is scale-free, so a pass would compare roundoff with roundoff;
    # below the roundoff floor neither pass runs, and every row stays.
    data, w_true = make_linear_dataset(seed=7, n=80, d=3, noise=0.0)
    hp = HyperParams(eps=0.05, R0=10.0, gamma=1e-8)
    res = gmm_sever(LinearIVModel(data), hp, rng)
    assert len(res.final_set) == 80 and res.events == ()
    assert np.linalg.norm(res.w_hat - w_true) <= 1e-4
    assert np.linalg.norm(res.w_hat) <= 10.0 + 1e-9


def test_one_huge_response_leaves_the_filter_passes_running():
    # The roundoff floor is read after the response screen, from the spread
    # of the screened responses, so one response at 1e13 that the screen
    # drops cannot lift it above every later moment row: the all-ones desk
    # cell still runs its moment passes and removes the planted rows it
    # removes without that response.
    cell, eps = BATTERY["desk"].cell(1001, 0.3, 0), 0.3
    design, planted = cell.design, cell.planted
    huge = int(np.setdiff1d(np.arange(2000), planted)[0])
    Y = design.Y.copy()
    Y[huge] = 1e13
    plain = robust_linear_estimate(design, eps, cell.rng.child("fit"))
    report = robust_linear_estimate(
        Dataset(X=design.X, Y=Y, Z=design.Z), eps, cell.rng.child("fit")
    )
    assert report.events[0][:3] == (0, "response", 1)
    assert huge not in report.final_set.indices
    moment = [m for r, kind, m, _ in report.events if kind == "moment"]
    assert sum(moment) > 0
    removed = [int((~np.isin(planted, fit.final_set.indices)).sum()) for fit in (report, plain)]
    assert removed[0] == removed[1] > 0


def test_constant_response_runs_no_pass():
    # every response equal: the spread about the median is 0, so the floor
    # reads the responses' own square, and the exact fit's roundoff rows
    # run neither pass
    src = RandomSource(5)
    x = src.normal(200)
    X = np.column_stack([np.ones(200), x])
    Z = np.column_stack([np.ones(200), x + 0.5 * src.normal(200)])
    design = Dataset(X=X, Y=np.full(200, 3.0), Z=Z)
    report = robust_linear_estimate(design, 0.1, RandomSource(0))
    assert report.events == () and len(report.final_set) == 200
    np.testing.assert_allclose(report.w_hat, [3.0, 0.0], atol=1e-12)


def test_result_stays_in_ball(rng):
    data, w_true = make_linear_dataset(seed=8, n=50, d=2, noise=1.0)
    assert np.linalg.norm(w_true) > 1.0  # the truth lies outside the ball
    hp = HyperParams(eps=0.05, R0=0.1, gamma=1e-8)
    res = gmm_sever(LinearIVModel(data), hp, rng)
    assert np.linalg.norm(res.w_hat) <= 0.1 + 1e-9


def test_planted_outliers_removed_across_seeds():
    hp = HyperParams(eps=0.1, R0=3.0, gamma=1e-6)
    hits = 0
    for seed in range(100):
        model = LinearIVModel(planted_scalar_data(seed))
        try:
            res = gmm_sever(model, hp, RandomSource(seed).child("s"))
        except FilterExhaustedError:
            continue
        survivors = set(res.final_set.indices.tolist())
        if not survivors & {20, 21} and abs(res.w_hat[0] - 2.0) <= 0.2:
            hits += 1
    assert hits >= 90


def test_final_round_is_no_removal_moment_pass(rng):
    model = LinearIVModel(planted_scalar_data(0))
    hp = HyperParams(eps=0.1, R0=3.0, gamma=1e-6)
    res = gmm_sever(model, hp, rng)
    assert res.events[0][:3] == (0, "response", 2)  # screened before round 1
    last = res.events[-1]
    assert last[:3] == (res.rounds, "moment", 0)
    assert all(kind in ("jacobian", "moment") for _, kind, _, _ in res.events[1:])
    assert 0 <= res.diagnostics["learner_tolerance_unmet"] <= res.rounds
    assert res.diagnostics["outer_rounds"] == 1.0


def test_returned_state_is_filter_stable(rng):
    # at the returned (w, S) neither pass may fire again under the same
    # bulk-spectrum bounds and slacks, whatever the threshold draw
    for seed in (4, 5):
        model, hp = all_ones_hte_model(seed)
        res = gmm_sever(model, hp, rng)
        assert len(res.final_set) < model.n_samples  # the passes did fire on the way
        S, w = res.final_set, res.w_hat
        u = model.moments(S.indices, w).mean(axis=0)
        jac_scores = model.jacobian_dot(S.indices, w, u)
        jac_slack = PRACTICE_SLACK * PRACTICE_JAC_SLACK_FACTOR
        out = spectral_filter(
            jac_scores, S, robust_score_bound, rng.child("j"), jac_slack
        )
        assert out.threshold is None
        mom_scores = model.moments(S.indices, w)
        out = spectral_filter(
            mom_scores, S, robust_score_bound, rng.child("m"), PRACTICE_SLACK
        )
        assert out.threshold is None


def test_filter_exhausted_raises(rng):
    # five of twelve responses sit far out: the screen removes them and
    # leaves 7 rows, below the ceil(2 * 12 / 3) = 8 floor
    y = np.concatenate([0.01 * RandomSource(3).normal(7), np.full(5, 1e6)])
    model = LinearIVModel(scalar_data(y))
    hp = HyperParams(eps=0.1, R0=1.0, gamma=1e-6)
    with pytest.raises(FilterExhaustedError, match="7 of 12 remain"):
        gmm_sever(model, hp, rng)


def test_gmm_sever_deterministic():
    model, hp = all_ones_hte_model(5)
    a = gmm_sever(model, hp, RandomSource(42))
    b = gmm_sever(model, hp, RandomSource(42))
    assert sum(1 for e in a.events if e[2]) >= 2  # several random-threshold cuts
    np.testing.assert_array_equal(a.w_hat, b.w_hat)
    np.testing.assert_array_equal(a.final_set.indices, b.final_set.indices)
    assert a.events == b.events


# ---------------------------------------------------------------------------
# screen and pass mechanisms


def test_practice_clean_data_untouched():
    hp = HyperParams(eps=0.05, R0=10.0, gamma=1e-6)
    for seed in (0, 1, 2):
        data, _ = make_linear_dataset(seed=seed, n=400, d=3, noise=1.0)
        res = gmm_sever(LinearIVModel(data), hp, RandomSource(seed).child("p"))
        assert len(res.final_set) == 400


def test_practice_response_precap_removes_gross_outliers(rng):
    data, w_true = make_linear_dataset(seed=4, n=40, d=2, noise=0.1)
    Y = data.Y.copy()
    Y[[3, 17, 29]] += 1e5
    spiked = Dataset(X=data.X, Y=Y, Z=data.Z)
    hp = HyperParams(eps=0.1, R0=10.0, gamma=1e-6)
    res = gmm_sever(LinearIVModel(spiked), hp, rng)
    survivors = set(res.final_set.indices.tolist())
    assert not survivors & {3, 17, 29}
    precap = [e for e in res.events if e[1] == "response"]
    assert precap and precap[0][0] == 0 and sum(e[2] for e in precap) >= 3
    assert np.linalg.norm(res.w_hat - w_true) <= 0.5


def test_practice_zero_mean_moment_skips_jacobian_pass(rng):
    # instrument rows in exact +/- pairs force the mean moment to 0 for every
    # parameter; the projected-Jacobian pass has no direction to test
    hp = HyperParams(eps=0.1, R0=5.0, gamma=1e-6)
    w_true = np.array([1.0, -2.0])
    for seed in (6, 7, 8):
        src = RandomSource(seed)
        X_half = src.normal((20, 2))
        Z_half = src.normal((20, 2))
        Y_half = X_half @ w_true
        data = Dataset(
            X=np.vstack([X_half, X_half]),
            Y=np.concatenate([Y_half, Y_half]),
            Z=np.vstack([Z_half, -Z_half]),
        )
        res = gmm_sever(LinearIVModel(data), hp, rng)
        assert all(kind != "jacobian" for _, kind, _, _ in res.events)
        # the objective is identically zero, so the learner stays at the center
        np.testing.assert_array_equal(res.w_hat, np.zeros(2))


# ---------------------------------------------------------------------------
# amplified_gmm_sever (sequencing logic via stubbed inner runs)


def stub_model(n=10):
    ones = np.ones((n, 1))
    return LinearIVModel(Dataset(X=ones, Y=np.ones(n), Z=ones))


STUB_HP = HyperParams(eps=0.01, R0=1.0, gamma=1e-6)


def install_stub(monkeypatch, outcomes, calls, reps=3):
    def fake(model, hp, rng):
        calls.append(rng.seed)
        out = outcomes[min(len(calls) - 1, len(outcomes) - 1)]
        if isinstance(out, Exception):
            raise out
        return EstimateReport(
            w_hat=np.zeros(1),
            final_set=ActiveSet(np.arange(out)),
            rounds=1,
            events=(),
            diagnostics={"gamma": hp.gamma, "learner_tolerance_unmet": 0.0,
                         "outer_rounds": 1.0},
        )

    monkeypatch.setattr(sever_mod, "gmm_sever", fake)
    monkeypatch.setattr(sever_mod, "AMPLIFY_REPS", reps)


def runs(report):
    return report.diagnostics["outer_rounds"]


def test_amplified_accepts_first_large_run(monkeypatch, rng):
    calls = []
    install_stub(monkeypatch, [10], calls)
    res = amplified_gmm_sever(stub_model(), STUB_HP, rng)
    assert len(res.final_set) == 10 and len(calls) == 1 and runs(res) == 1


def test_amplified_accept_threshold_is_inclusive(monkeypatch, rng):
    calls = []
    install_stub(monkeypatch, [9], calls)  # exactly (1 - 10 * 0.01) * 10
    res = amplified_gmm_sever(stub_model(), STUB_HP, rng)
    assert len(res.final_set) == 9 and len(calls) == 1


def test_amplified_returns_best_after_budget(monkeypatch, rng):
    calls = []
    install_stub(monkeypatch, [5, 8, 6], calls)
    res = amplified_gmm_sever(stub_model(), STUB_HP, rng)
    assert len(calls) == 3
    assert len(res.final_set) == 8 and runs(res) == 3


def test_amplified_rep_budget_is_amplify_reps(monkeypatch, rng):
    # two runs left about 1 in 40,000 desk-preset fits aborting on both, and
    # each such cell known fits on a third
    # (test_third_run_fits_desk_cell_where_two_abort)
    assert sever_mod.AMPLIFY_REPS == 3
    calls = []
    install_stub(monkeypatch, [5], calls, reps=2)
    res = amplified_gmm_sever(stub_model(), STUB_HP, rng)
    assert len(calls) == 2 and runs(res) == 2 and len(res.final_set) == 5
    calls.clear()
    install_stub(monkeypatch, [5], calls, reps=1)
    res = amplified_gmm_sever(stub_model(), STUB_HP, rng)
    assert len(calls) == 1 and runs(res) == 1


def test_amplified_fresh_randomness_per_rep(monkeypatch, rng):
    calls = []
    install_stub(monkeypatch, [5, 6, 7], calls)
    amplified_gmm_sever(stub_model(), STUB_HP, rng)
    assert len(set(calls)) == 3  # distinct child streams


def test_amplified_tolerates_partial_aborts(monkeypatch, rng):
    calls = []
    install_stub(
        monkeypatch, [FilterExhaustedError("gone"), 5, FilterExhaustedError("gone")], calls
    )
    res = amplified_gmm_sever(stub_model(), STUB_HP, rng)
    assert len(res.final_set) == 5 and runs(res) == 3  # aborted repetitions count


def test_amplified_propagates_total_abort(monkeypatch, rng):
    calls = []
    install_stub(monkeypatch, [FilterExhaustedError("gone")], calls)
    with pytest.raises(FilterExhaustedError):
        amplified_gmm_sever(stub_model(), STUB_HP, rng)
    assert len(calls) == 3


# ---------------------------------------------------------------------------
# iterated_gmm_sever


def test_iterated_is_one_amplified_run_from_origin(rng):
    # the "outer-1" stream label keeps the committed results byte-identical
    model, hp = all_ones_hte_model(5)
    report = iterated_gmm_sever(model, hp, rng)
    res = amplified_gmm_sever(model, hp, rng.child("outer-1"))
    np.testing.assert_array_equal(report.w_hat, res.w_hat)
    np.testing.assert_array_equal(report.final_set.indices, res.final_set.indices)
    assert report.rounds == res.rounds and report.events == res.events
    assert report.events[-1][:3] == (report.rounds, "moment", 0)
    assert report.diagnostics == {
        "gamma": hp.gamma,
        "learner_tolerance_unmet": res.diagnostics["learner_tolerance_unmet"],
        "outer_rounds": 1.0,
    }


def test_iterated_noiseless_converges_to_truth(rng):
    data, w_true = make_linear_dataset(seed=77, n=40, d=2, noise=0.0)
    assert np.linalg.norm(w_true) < 4.0
    hp = HyperParams(eps=0.04, R0=4.0, gamma=1e-6)
    report = iterated_gmm_sever(LinearIVModel(data), hp, rng)
    assert np.linalg.norm(report.w_hat - w_true) <= 1e-3
    # the exact fit's moment rows are roundoff, below the roundoff floor, so
    # no pass runs and the first run keeps every row (see
    # test_clean_noiseless_recovery)
    assert len(report.final_set) == 40
    assert report.diagnostics["outer_rounds"] == 1.0


def test_third_run_fits_desk_cell_where_two_abort(monkeypatch):
    # the desk-sweep cell at master seed 28005, eps=0.3, rep 2: its first two
    # sever runs exhaust the sample set and the third keeps 1718 of 2000
    cell = BATTERY["desk"].cell(28005, 0.3, 2)
    runs = []
    count_calls(monkeypatch, sever_mod, "gmm_sever", runs)
    report = cell.robust_fit(0.3)
    assert [type(r) for r in runs[:2]] == [FilterExhaustedError] * 2
    assert len(runs) == 3 and isinstance(runs[2], EstimateReport)
    assert report.diagnostics["outer_rounds"] == 3.0
    assert len(report.final_set) == 1718
    assert np.linalg.norm(report.w_hat - cell.theta) < 0.3


def test_iterated_deterministic(rng):
    model, hp = all_ones_hte_model(4)
    a = iterated_gmm_sever(model, hp, RandomSource(9))
    b = iterated_gmm_sever(model, hp, RandomSource(9))
    np.testing.assert_array_equal(a.w_hat, b.w_hat)
    np.testing.assert_array_equal(a.final_set.indices, b.final_set.indices)
    assert a.events == b.events and any(e[2] for e in a.events)
    assert a.diagnostics == b.diagnostics


def test_practice_jacobian_pass_spares_clean_negation_rows():
    # The semi-sweep cell at master seed 35007, eps=0.05, rep 8: with the
    # Jacobian pass firing at twice the slack it kept stripping clean rows
    # after the response screen had removed all planted ones, down to 535
    # of 3010, and the fit ended in FilterExhaustedError.
    cell = BATTERY["semi"].cell(35007, 0.05, 8)
    design = BATTERY["clean-semi"].cell(35007, 0.05, 8).design
    planted, report = cell.planted, cell.robust_fit(0.05)
    assert len(planted) == 150
    assert len(report.final_set) == 2860
    assert not np.isin(planted, report.final_set.indices).any()
    assert [kind for (_, kind, m, _) in report.events if m] == ["response"]
    assert abs(report.w_hat[0] - two_stage_least_squares(design)[0]) <= 0.01


def count_calls(monkeypatch, owner, name, log):
    inner = getattr(owner, name)

    def counted(*args, **kwargs):
        try:
            result = inner(*args, **kwargs)
        except FilterExhaustedError as err:
            log.append(err)
            raise
        log.append(result)
        return result

    monkeypatch.setattr(owner, name, counted)


@pytest.mark.parametrize("eps", [0.0, 0.01, 0.3])
@pytest.mark.parametrize("model_kind", ["linear", "logistic"])
def test_plugin_fit_is_one_sever_run(monkeypatch, model_kind, eps):
    # no run aborts or strips rows on these designs, so nothing is retried
    data, w_true = make_linear_dataset(seed=8, n=400, d=2, noise=0.5)
    if model_kind == "logistic":
        src = RandomSource(9)
        Y = (src.uniform(400) < logistic(data.X @ w_true)).astype(np.float64)
        data = Dataset(X=data.X, Y=Y, Z=data.Z)
    iterated, amplified, runs = [], [], []
    # robust_linear_estimate looks iterated_gmm_sever up on its own module
    count_calls(monkeypatch, experiments_mod, "iterated_gmm_sever", iterated)
    count_calls(monkeypatch, sever_mod, "amplified_gmm_sever", amplified)
    count_calls(monkeypatch, sever_mod, "gmm_sever", runs)
    report = robust_linear_estimate(
        data, eps, RandomSource(5), model_kind=model_kind
    )
    assert len(iterated) == 1 and len(amplified) == 1 and len(runs) == 1
    assert set(report.diagnostics) == {"gamma", "learner_tolerance_unmet", "outer_rounds"}
    assert report.diagnostics["outer_rounds"] == 1.0
    assert np.isfinite(report.w_hat).all()


def test_plugin_fit_retries_an_exhausted_run(monkeypatch):
    # A desk-preset cell (master seed 31050, eps=0.3, rep 3) whose first
    # practice run cuts the sample set to 1289 of 2000 rows, below the
    # floor; the plug-in fit must repeat it on a fresh stream instead of
    # failing the cell.
    cell = BATTERY["desk"].cell(31050, 0.3, 3)
    runs = []
    count_calls(monkeypatch, sever_mod, "gmm_sever", runs)
    report = cell.robust_fit(0.3)
    assert isinstance(runs[0], FilterExhaustedError) and len(runs) == 2
    assert "1289 of 2000 remain" in str(runs[0])
    assert len(report.final_set) == len(runs[1].final_set) == 1744
    assert report.diagnostics["outer_rounds"] == 2.0
