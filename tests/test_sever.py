from pathlib import Path

import numpy as np
import pytest

from robustgmm import (
    CARD_STANDIN_COLUMNS,
    Dataset,
    FilterExhaustedError,
    HyperParams,
    LinearIVModel,
    LogisticIVModel,
    RandomSource,
    iterated_gmm_sever,
    load_csv,
    robust_linear_estimate,
    scalar_treatment_design,
    two_stage_least_squares,
)
from robustgmm.core import ActiveSet, EstimateReport
from robustgmm.experiments import (
    corrupt_all_ones,
    corrupt_negation,
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

from conftest import make_linear_dataset


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
# _moment_objective


LINEAR_DESIGNS = {
    "hte": hte_design,
    "hte-full": lambda data: hte_design(data, "full"),
    "scalar": scalar_treatment_design,
}


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("design", sorted(LINEAR_DESIGNS))
def test_affine_objective_matches_kernels(design, seed):
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
        fn = sever_mod._moment_objective(model, S)
        for k in range(3):
            w = src.child(f"w-{name}-{k}").normal(model.param_dim)
            u = model.moments(S.indices, w).mean(axis=0)
            grad = 2.0 * (model.mean_jacobian_over(S.indices, w).T @ u)
            f_got, grad_got = fn(w)
            assert abs(f_got - u @ u) <= 1e-12 * (u @ u), name
            assert np.linalg.norm(grad_got - grad) <= 1e-12 * np.linalg.norm(grad), name


def test_logistic_objective_keeps_kernel_path():
    data, _ = make_linear_dataset(seed=4, n=150, d=3, noise=0.5)
    model = LogisticIVModel(data)
    assert not model.affine
    S = ActiveSet(RandomSource(4).subset(150, 100))
    fn = sever_mod._moment_objective(model, S)
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

    def sloped_instruments(self, idx, w):
        return self.data.Z[idx]


@pytest.mark.parametrize("seed", range(5))
def test_two_method_link_fits_like_linear_iv(seed):
    src = RandomSource(seed)
    base, _ = gen_synthetic_hte(2000, 5, src.child("dgp"))
    base, _ = corrupt_all_ones(base, 0.1, src.child("attack"))
    design = hte_design(base)
    linear, kernel_path = LinearIVModel(design), KernelPathIdentityIV(design)
    assert linear.affine and not kernel_path.affine
    hp = derive_hyperparams(linear, 0.1)
    assert derive_hyperparams(kernel_path, 0.1) == hp
    want = iterated_gmm_sever(linear, hp, src.child("fit"))
    got = iterated_gmm_sever(kernel_path, hp, src.child("fit"))
    np.testing.assert_array_equal(got.final_set.indices, want.final_set.indices)
    np.testing.assert_allclose(got.w_hat, want.w_hat, rtol=1e-6)


# ---------------------------------------------------------------------------
# gmm_sever


def test_clean_noiseless_recovery(rng):
    # At the exact fit every moment row is roundoff and the bulk-spectrum
    # bound is scale-free, so the moment pass may drop a row; on a noiseless
    # design that costs nothing, and the estimate is still the truth.
    data, w_true = make_linear_dataset(seed=7, n=80, d=3, noise=0.0)
    hp = HyperParams(eps=0.05, R0=10.0, gamma=1e-8)
    res = gmm_sever(LinearIVModel(data), hp, rng)
    assert len(res.final_set) >= 78
    assert np.linalg.norm(res.w_hat - w_true) <= 1e-4
    assert np.linalg.norm(res.w_hat) <= 10.0 + 1e-9


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
    # roundoff-level moment rows can still fire the scale-free moment pass
    # (see test_clean_noiseless_recovery); this stream's first run is cut
    # below the floor and amplification retries it
    assert len(report.final_set) >= 27
    assert report.diagnostics["outer_rounds"] == 2.0


def test_third_run_fits_desk_cell_where_two_abort(monkeypatch):
    # the desk-sweep cell at master seed 28005, eps=0.3, rep 2: its first two
    # sever runs exhaust the sample set and the third keeps 1718 of 2000
    cell_rng = RandomSource(28005).child("eps=0.3/rep=2")
    base, theta = gen_synthetic_hte(2000, 10, cell_rng.child("dgp"))
    base, _ = corrupt_all_ones(base, 0.3, cell_rng.child("attack"))
    runs = []
    count_calls(monkeypatch, sever_mod, "gmm_sever", runs)
    report = robust_linear_estimate(
        hte_design(base), 0.3, cell_rng.child("robust/iterated-gmm-sever")
    )
    assert [type(r) for r in runs[:2]] == [FilterExhaustedError] * 2
    assert len(runs) == 3 and isinstance(runs[2], EstimateReport)
    assert report.diagnostics["outer_rounds"] == 3.0
    assert len(report.final_set) == 1718
    assert np.linalg.norm(report.w_hat - theta) < 0.3


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
    data_csv = Path(__file__).resolve().parents[1] / "data" / "card_standin.csv"
    design = scalar_treatment_design(load_csv(data_csv, CARD_STANDIN_COLUMNS))
    cell_rng = RandomSource(35007).child("eps=0.05/rep=8")
    corrupted, planted = corrupt_negation(design, 0.05, cell_rng.child("attack"))
    report = robust_linear_estimate(
        corrupted, 0.05, cell_rng.child("robust/iterated-gmm-sever")
    )
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
    # A desk-preset cell (master seed 31006, eps=0.3, rep 2) whose first
    # practice run strips the sample set to 263 of 2000 rows; the plug-in
    # fit must repeat it on a fresh stream instead of failing the cell.
    cell_rng = RandomSource(31006).child("eps=0.3/rep=2")
    base, _ = gen_synthetic_hte(2000, 10, cell_rng.child("dgp"))
    base, _ = corrupt_all_ones(base, 0.3, cell_rng.child("attack"))
    runs = []
    count_calls(monkeypatch, sever_mod, "gmm_sever", runs)
    report = robust_linear_estimate(
        hte_design(base), 0.3, cell_rng.child("robust/iterated-gmm-sever")
    )
    assert isinstance(runs[0], FilterExhaustedError) and len(runs) == 2
    assert len(report.final_set) == len(runs[1].final_set) == 1767
    assert report.diagnostics["outer_rounds"] == 2.0
