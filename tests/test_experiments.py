import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regime_scan import BATTERY
from robustgmm import (
    CARD_STANDIN_COLUMNS,
    Dataset,
    EstimationError,
    LinearIVModel,
    LogisticIVModel,
    RandomSource,
    WeakInstrumentsError,
    iterated_gmm_sever,
    load_csv,
    robust_linear_estimate,
    scalar_treatment_design,
    two_stage_least_squares,
)
from robustgmm.experiments import (
    PRACTICE_LEARNER_TOL,
    SweepConfig,
    SweepRow,
    _block_transform,
    aggregate_rows,
    corrupt_all_ones,
    corrupt_negation,
    derive_hyperparams,
    diagnose_assumptions,
    format_float,
    gen_card_standin,
    gen_synthetic_hte,
    run_sweep,
    save_dataset_csv,
    write_aggregate_csv,
    write_card_standin,
    write_rows_csv,
)
from robustgmm.models import hte_design, logistic
import robustgmm.experiments as experiments_mod
import robustgmm.sever as sever_mod

from conftest import make_linear_dataset

DATA_CSV = Path(__file__).resolve().parents[1] / "data" / "card_standin.csv"


# ---------------------------------------------------------------------------
# data generating processes


def test_synthetic_hte_shapes_and_ranges(rng):
    data, theta = gen_synthetic_hte(500, 4, rng)
    assert data.X.shape == (500, 4) and data.Z.shape == (500, 1)
    assert theta.shape == (4,)
    assert set(np.unique(data.Z)) <= {0.0, 1.0}
    assert set(np.unique(data.T)) <= {0.0, 1.0}
    assert np.isfinite(data.Y).all()


def test_synthetic_hte_instrument_flavors(rng):
    with pytest.raises(ValueError, match="positive"):
        gen_synthetic_hte(0, 2, rng.child("n0"))


def test_synthetic_hte_moments_valid_at_truth():
    # E[X z (Y - <X,theta> T)] = E[X z U] = 0: the sample mean moment at the
    # true effect vector must vanish at the sqrt(d/n) statistical rate
    for seed in (0, 1, 2):
        data, theta = gen_synthetic_hte(2000, 5, RandomSource(seed))
        model = LinearIVModel(hte_design(data))
        norm = np.linalg.norm(
            model.moments(np.arange(2000), theta).mean(axis=0)
        )
        assert norm <= 5.0 * math.sqrt(5 / 2000)
        # and the confounder has mean zero: Y - <X,theta> T = U
        resid = data.Y - (data.X @ theta) * data.T
        assert abs(resid.mean()) <= 5.0 / math.sqrt(2000)


def test_card_standin_schema(rng):
    cols = gen_card_standin(rng)
    assert list(cols) == ["lwage", "educ", "nearc4", "exper", "expersq"]
    assert set(np.unique(cols["nearc4"])) <= {0.0, 1.0}
    np.testing.assert_allclose(cols["expersq"], cols["exper"] ** 2)
    assert all(len(v) == 3010 for v in cols.values())


# ---------------------------------------------------------------------------
# corruption attacks


def test_all_ones_attack_counts_and_content(rng):
    data, _ = gen_synthetic_hte(100, 3, rng)
    corrupted, idx = corrupt_all_ones(data, 0.13, rng.child("a"))
    assert idx.size == 13  # floor(0.13 * 100)
    assert (corrupted.X[idx] == 1.0).all()
    untouched = np.setdiff1d(np.arange(100), idx)
    np.testing.assert_array_equal(corrupted.X[untouched], data.X[untouched])
    np.testing.assert_array_equal(corrupted.Y, data.Y)
    np.testing.assert_array_equal(corrupted.Z, data.Z)
    np.testing.assert_array_equal(corrupted.T, data.T)


def test_all_ones_attack_eps_zero_is_identity(rng):
    data, _ = gen_synthetic_hte(50, 2, rng)
    corrupted, idx = corrupt_all_ones(data, 0.0, rng.child("a"))
    assert idx.size == 0
    np.testing.assert_array_equal(corrupted.X, data.X)
    with pytest.raises(ValueError, match="eps"):
        corrupt_all_ones(data, 1.0, rng.child("b"))


def test_negation_attack_flips_classical_iv(rng):
    data, _ = make_linear_dataset(seed=14, n=600, d=3, noise=0.5)
    w_clean = two_stage_least_squares(data)
    corrupted, idx = corrupt_negation(data, 0.1, rng)
    w_corr = two_stage_least_squares(corrupted)
    rel = np.linalg.norm(w_corr + w_clean) / np.linalg.norm(w_clean)
    assert rel <= 1e-8
    assert idx.size == 60


def test_negation_attack_touches_only_chosen_responses(rng):
    data, _ = make_linear_dataset(seed=15, n=200, d=2, noise=0.5)
    corrupted, idx = corrupt_negation(data, 0.2, rng)
    np.testing.assert_array_equal(corrupted.X, data.X)
    np.testing.assert_array_equal(corrupted.Z, data.Z)
    untouched = np.setdiff1d(np.arange(200), idx)
    np.testing.assert_array_equal(corrupted.Y[untouched], data.Y[untouched])
    assert (corrupted.Y[idx] != data.Y[idx]).all()


def test_negation_attack_shift_is_minimum_norm(rng):
    data, _ = make_linear_dataset(seed=16, n=300, d=2, noise=0.5)
    corrupted, idx = corrupt_negation(data, 0.1, rng)
    delta = corrupted.Y[idx] - data.Y[idx]
    A = data.Z[idx].T
    b = -2.0 * (data.Z.T @ data.Y)
    np.testing.assert_allclose(A @ delta, b, rtol=1e-9, atol=1e-9)
    np.testing.assert_allclose(delta, np.linalg.pinv(A) @ b, rtol=1e-8)


def test_negation_attack_validation(rng):
    over, _ = make_linear_dataset(seed=17, n=100, d=2, p=3)
    with pytest.raises(ValueError, match="exactly identified"):
        corrupt_negation(over, 0.1, rng)
    square, _ = make_linear_dataset(seed=17, n=100, d=3)
    with pytest.raises(ValueError, match="cannot span"):
        corrupt_negation(square, 0.02, rng)  # floor(2) rows < 3 instruments


# ---------------------------------------------------------------------------
# CSV round trips


def test_save_load_round_trip_is_bitwise(tmp_path, rng):
    data, _ = gen_synthetic_hte(60, 3, rng)
    path = tmp_path / "rt.csv"
    save_dataset_csv(path, data)
    columns = {
        "response": "y",
        "treatment": "t",
        "instruments": [f"z{j + 1}" for j in range(data.p)],
        "covariates": [f"x{j + 1}" for j in range(data.d)],
    }
    back = load_csv(path, columns)
    np.testing.assert_array_equal(back.X, data.X)
    np.testing.assert_array_equal(back.Y, data.Y)
    np.testing.assert_array_equal(back.Z, data.Z)
    np.testing.assert_array_equal(back.T, data.T)


def test_load_card_standin_file():
    base = load_csv(DATA_CSV, CARD_STANDIN_COLUMNS)
    assert base.n == 3010
    assert base.X.shape == (3010, 2)  # exper, expersq
    assert base.Z.shape == (3010, 1)
    assert base.T is not None
    assert set(np.unique(base.Z)) <= {0.0, 1.0}


def test_card_standin_file_regenerates_byte_for_byte(tmp_path):
    # the call scripts/make_card_standin.py makes
    write_card_standin(tmp_path / "card_standin.csv")
    assert (tmp_path / "card_standin.csv").read_bytes() == DATA_CSV.read_bytes()


def test_load_csv_drops_missing_with_warning(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text(
        "y,z1,x1\n1.0,2.0,3.0\nna,2.0,3.0\n4.0,,6.0\n7.0,8.0,9.0\n"
    )
    cols = {"response": "y", "instruments": "z1", "covariates": "x1"}
    with pytest.warns(UserWarning, match="dropped 2 rows"):
        got = load_csv(path, cols)
    np.testing.assert_array_equal(got.Y, [1.0, 7.0])


def test_load_csv_short_rows_count_as_missing(tmp_path):
    path = tmp_path / "s.csv"
    path.write_text("y,z1,x1\n1.0,2.0,3.0\n4.0,5.0\n")
    cols = {"response": "y", "instruments": "z1", "covariates": "x1"}
    with pytest.warns(UserWarning, match="dropped 1 rows"):
        got = load_csv(path, cols)
    assert got.n == 1


def test_load_csv_parse_error_names_cell(tmp_path):
    path = tmp_path / "p.csv"
    path.write_text("y,z1,x1\n1.0,2.0,3.0\n4.0,oops,6.0\n")
    cols = {"response": "y", "instruments": "z1", "covariates": "x1"}
    with pytest.raises(ValueError, match="line 3, column 'z1'"):
        load_csv(path, cols)


def test_load_csv_structural_errors(tmp_path):
    cols = {"response": "y", "instruments": "z1", "covariates": "x1"}
    missing_col = tmp_path / "mc.csv"
    missing_col.write_text("y,z1\n1.0,2.0\n")
    with pytest.raises(ValueError, match="column 'x1' not found"):
        load_csv(missing_col, cols)
    empty = tmp_path / "e.csv"
    empty.write_text("")
    with pytest.raises(ValueError, match="no data rows"):
        load_csv(empty, cols)
    header_only = tmp_path / "h.csv"
    header_only.write_text("y,z1,x1\n")
    with pytest.raises(ValueError, match="no data rows"):
        load_csv(header_only, cols)


def test_format_float_special_values():
    assert format_float(float("nan")) == "nan"
    assert float(format_float(float("inf"))) == float("inf")
    assert format_float(0.0) == "0"


@settings(max_examples=200, deadline=None)
@given(st.floats(allow_nan=False, allow_infinity=False))
def test_format_float_round_trips_exactly(x):
    assert float(format_float(x)) == x or (x == 0.0 and format_float(x) == "-0")


# ---------------------------------------------------------------------------
# diagnostics and plug-in hyperparameters


def test_diagnostics_on_identity_design():
    src = RandomSource(18)
    X = src.normal((4000, 3))
    w_true = np.array([1.0, -0.5, 2.0])
    data = Dataset(X=X, Y=X @ w_true, Z=X.copy())
    diag = diagnose_assumptions(LinearIVModel(data), w_true)
    # mean Jacobian is -X^T X / n ~ -I
    assert diag["jacobian_sigma_min"] == pytest.approx(1.0, abs=0.15)
    assert diag["moment_norm"] <= 1e-12


def test_jacobian_sigma_min_is_zero_when_underidentified():
    # one moment for two parameters: the 1 x 2 mean Jacobian has a null
    # direction, though its only singular value is far from 0
    data, w_true = make_linear_dataset(seed=23, n=300, d=2, noise=0.3)
    model = LinearIVModel(Dataset(X=data.X, Y=data.Y, Z=data.Z[:, :1]))
    J = model.mean_jacobian_over(np.arange(300), w_true)
    assert np.linalg.svd(J, compute_uv=False)[-1] > 0.1
    diag = diagnose_assumptions(model, w_true)
    assert diag["jacobian_sigma_min"] == 0.0


def loop_diagnostics(model, w, rng, n_directions):
    """Reference built one moment axis at a time from jacobian_dot over
    every row.

    Also returns the smallest ||J v|| over sampled unit v, which is no
    smaller than the exact smallest singular value.
    """
    idx = np.arange(model.n_samples)
    J = np.stack(
        [model.jacobian_dot(idx, w, e).mean(axis=0) for e in np.eye(model.moment_dim)]
    )
    sampled = np.inf
    for _ in range(n_directions):
        v = rng.normal(model.param_dim)
        sampled = min(sampled, float(np.linalg.norm(J @ v)) / float(np.linalg.norm(v)))
    return {
        "jacobian_sigma_min": float(np.linalg.svd(J, compute_uv=False)[-1]),
        "moment_norm": float(np.linalg.norm(model.moments(idx, w).mean(axis=0))),
        "sampled_sigma": sampled,
    }


@pytest.mark.parametrize("cls", [LinearIVModel, LogisticIVModel])
@pytest.mark.parametrize("n", [301, 300])
@pytest.mark.parametrize("n_directions", [1, 13, 200])
def test_blocked_diagnostics_match_direction_loop(cls, n, n_directions):
    # the exact sigma_min bounds ||J v|| of every sampled unit v from below
    data, w_true = make_linear_dataset(seed=21, n=n, d=3, p=4, noise=0.5)
    model = cls(data)
    w = 0.5 * w_true
    got = diagnose_assumptions(model, w)
    ref = loop_diagnostics(model, w, RandomSource(22), n_directions)
    for key in ("jacobian_sigma_min", "moment_norm"):
        assert got[key] == pytest.approx(ref[key], rel=1e-12, abs=0.0), key
    assert got["jacobian_sigma_min"] <= ref["sampled_sigma"] * (1 + 1e-12)


def plugin_level(model):
    # gamma = 2 lam^2 PRACTICE_LEARNER_TOL max(1, R0), with lam half the
    # smallest singular value of the mean Jacobian at classical IV
    w_ref = two_stage_least_squares(model.data)
    lam = 0.5 * diagnose_assumptions(model, w_ref)["jacobian_sigma_min"]
    R0 = 4.0 * max(1.0, float(np.linalg.norm(w_ref)))
    return 2.0 * lam**2 * PRACTICE_LEARNER_TOL * max(1.0, R0)


def test_derive_hyperparams_contract():
    data, _ = make_linear_dataset(seed=20, n=500, d=3, noise=0.5)
    model = LinearIVModel(data)
    hp = derive_hyperparams(model, 0.1)
    assert hp.eps == 0.1 and hp.gamma > 0
    w_iv = two_stage_least_squares(data)
    assert hp.R0 == pytest.approx(4.0 * max(1.0, float(np.linalg.norm(w_iv))))
    assert derive_hyperparams(model, 0.1) == hp
    for eps in (-0.1, 0.5, 0.7):
        with pytest.raises(ValueError, match="eps must lie in"):
            derive_hyperparams(model, eps)


def test_derive_hyperparams_diagnoses_the_given_model():
    data = load_csv(
        DATA_CSV, {"response": "nearc4", "instruments": "educ", "covariates": "exper"}
    )
    gamma = {}
    for cls in (LinearIVModel, LogisticIVModel):
        model = cls(data)
        gamma[cls] = derive_hyperparams(model, 0.1).gamma
        assert gamma[cls] == plugin_level(model)
    assert gamma[LogisticIVModel] != pytest.approx(gamma[LinearIVModel], rel=0.1)


@pytest.mark.parametrize("eps", [0.0, 0.01, 0.3])
def test_plugin_gamma_is_the_learner_level(monkeypatch, eps):
    # gamma is the PRACTICE_LEARNER_TOL level at every eps, eps = 0
    # included, and the learner stops at exactly the gamma the report shows.
    # A linear fit takes the exact step and never calls the learner, so the
    # spied fit is a logistic one; it keeps every row here and stops at the
    # root of the mean moment.
    data, w_true = make_linear_dataset(seed=3, n=200, d=2, noise=0.5)
    Y = (RandomSource(9).uniform(200) < logistic(data.X @ w_true)).astype(np.float64)
    data = Dataset(X=data.X, Y=Y, Z=data.Z)
    wx, wz = _block_transform(data.X), _block_transform(data.Z)
    scaled = LogisticIVModel(Dataset(X=data.X @ wx, Y=data.Y, Z=data.Z @ wz))
    seen = []
    learner = sever_mod.projected_gradient_critical_point

    def spy(prob):
        seen.append(prob.gamma)
        return learner(prob)

    monkeypatch.setattr(sever_mod, "projected_gradient_critical_point", spy)
    model, rows = LogisticIVModel(data), np.arange(data.n)
    oracle = np.zeros(data.d)
    for _ in range(20):  # Newton's method on the mean moment
        u = model.moments(rows, oracle).mean(axis=0)
        oracle = oracle - np.linalg.solve(model.mean_jacobian_over(rows, oracle), u)
    report = robust_linear_estimate(data, eps, RandomSource(3), model_kind="logistic")
    assert report.diagnostics["gamma"] == plugin_level(scaled)
    assert seen and set(seen) == {report.diagnostics["gamma"]}
    assert np.linalg.norm(report.w_hat - oracle) <= 1e-3


@pytest.mark.parametrize("model_kind", ["linear", "logistic"])
def test_plugin_fit_runs_no_assumption_diagnostics(monkeypatch, model_kind):
    # the fit computes sigma_min(J) and the classical IV norm itself;
    # diagnose_assumptions is for the `diagnose` command alone
    def forbidden(*args, **kwargs):
        raise AssertionError("diagnose_assumptions ran inside a fit")

    monkeypatch.setattr(experiments_mod, "diagnose_assumptions", forbidden)
    data, w_true = make_linear_dataset(seed=8, n=400, d=2, noise=0.5)
    if model_kind == "logistic":
        Y = (RandomSource(9).uniform(400) < logistic(data.X @ w_true)).astype(np.float64)
        data = Dataset(X=data.X, Y=Y, Z=data.Z)
    report = robust_linear_estimate(data, 0.1, RandomSource(5), model_kind=model_kind)
    assert np.isfinite(report.w_hat).all() and report.diagnostics["gamma"] > 0


@pytest.mark.parametrize("flaw", ["zero", "duplicate"])
def test_plugin_fit_rejects_unidentified_instruments(flaw, rng):
    # classical IV is undefined here, so the plug-in rule has no reference
    # point; it must say so rather than fit around w = 0 and strip rows
    data, _ = make_linear_dataset(seed=22, n=500, d=2, noise=0.5)
    Z = data.Z.copy()
    Z[:, 1] = 0.0 if flaw == "zero" else Z[:, 0]
    design = Dataset(X=data.X, Y=data.Y, Z=Z)
    with pytest.raises(WeakInstrumentsError):
        derive_hyperparams(LinearIVModel(design), 0.1)
    with pytest.raises(WeakInstrumentsError):
        robust_linear_estimate(design, 0.1, rng)


def test_robust_estimate_rejects_unknown_model_kind(rng):
    data, _ = make_linear_dataset(seed=21, n=50, d=2)
    with pytest.raises(ValueError, match="model_kind must be 'linear' or 'logistic'"):
        robust_linear_estimate(data, 0.1, rng, model_kind="probit")


def test_robust_estimate_is_iterated_gmm_sever_mapped_back(rng):
    # the fit is iterated_gmm_sever on the rescaled design at plug-in
    # constants, on the "est" child stream, with w mapped back by the
    # regressor block's transform
    data, _ = make_linear_dataset(seed=4, n=200, d=2, noise=0.1)
    Y = data.Y.copy()
    Y[[3, 17, 29, 101]] += 50.0
    design = Dataset(X=data.X, Y=Y, Z=data.Z)
    report = robust_linear_estimate(design, 0.05, rng)
    wx, wz = _block_transform(design.X), _block_transform(design.Z)
    model = LinearIVModel(Dataset(X=design.X @ wx, Y=Y, Z=design.Z @ wz))
    want = iterated_gmm_sever(model, derive_hyperparams(model, 0.05), rng.child("est"))
    np.testing.assert_array_equal(report.w_hat, wx @ want.w_hat)
    np.testing.assert_array_equal(report.final_set.indices, want.final_set.indices)
    assert report.rounds == want.rounds
    assert report.events == want.events
    assert report.diagnostics == want.diagnostics
    assert not np.isin([3, 17, 29, 101], report.final_set.indices).any()


def test_plugin_report_w_hat_is_the_returned_estimate():
    # the plug-in fit works in rescaled coordinates, where this design's
    # columns are scaled by 0.007 to 9.5; the report must hold the estimate
    # mapped back to the design's own coordinates, where this clean fit
    # sits next to classical IV
    design = scalar_treatment_design(load_csv(DATA_CSV, CARD_STANDIN_COLUMNS))
    report = robust_linear_estimate(design, 0.1, RandomSource(0))
    np.testing.assert_allclose(
        report.w_hat, two_stage_least_squares(design), rtol=1e-3
    )


# ---------------------------------------------------------------------------
# block reparameterization


def test_block_transform_diagonal_on_orthogonal_columns(rng):
    cols = rng.normal((2000, 3)) * np.array([1.0, 10.0, 0.1])
    W = _block_transform(cols)
    assert np.count_nonzero(W - np.diag(np.diag(W))) == 0
    rms = np.sqrt(np.mean((cols @ W) ** 2, axis=0))
    np.testing.assert_allclose(rms, 1.0, rtol=1e-12)


def test_block_transform_whitens_collinear_columns(rng):
    base = rng.normal(2000)
    cols = np.column_stack([base, base + 0.05 * rng.normal(2000)])
    W = _block_transform(cols)
    assert np.count_nonzero(W - np.diag(np.diag(W))) > 0
    scaled = cols @ W
    second = scaled.T @ scaled / len(scaled)
    np.testing.assert_allclose(second, np.eye(2), atol=1e-8)


def test_block_transform_survives_zero_columns():
    W = _block_transform(np.zeros((10, 2)))
    np.testing.assert_array_equal(W, np.eye(2))


def reference_block_transform(columns):
    # the block transform before its gate read the second-moment matrix:
    # the gate took the cosines of the rms-scaled columns, and the whitener
    # formed the second-moment matrix again
    rms = np.sqrt(np.mean(columns**2, axis=0))
    if not np.all(np.isfinite(rms)):
        raise EstimationError("column scale overflows float64; rescale the columns")
    top = float(rms.max(initial=0.0))
    if top <= 0.0:
        return np.eye(columns.shape[1])
    rms = np.maximum(rms, 1e-8 * top)
    unit = columns / rms
    cos = unit.T @ unit / len(unit)
    np.fill_diagonal(cos, 0.0)
    if float(np.max(np.abs(cos))) > 0.8:
        second = columns.T @ columns / len(columns)
        evals, evecs = np.linalg.eigh(second)
        top = float(evals[-1])
        if top <= 0.0:
            return np.eye(second.shape[0])
        evals = np.maximum(evals, 1e-8 * top)
        return (evecs * evals**-0.5) @ evecs.T
    return np.diag(1.0 / rms)


def hte_blocks(regime):
    # the X and Z blocks of a synth-sweep cell (master seed 1001, eps 0.1)
    design = BATTERY[regime].cell(1001, 0.1, 0).design
    return design.X, design.Z


def semi_blocks():
    design = scalar_treatment_design(load_csv(DATA_CSV, CARD_STANDIN_COLUMNS))
    return design.X, design.Z


def block_with_cosine(c):
    # two unit-rms columns whose sample cosine is c, next to a third
    # column orthogonal to both
    q = np.linalg.qr(RandomSource(5).normal((400, 3)))[0] * math.sqrt(400)
    return np.column_stack([q[:, 0], c * q[:, 0] + math.sqrt(1 - c * c) * q[:, 1],
                            3.0 * q[:, 2]])


def zero_column_block():
    cols = RandomSource(6).normal((500, 3)) * np.array([1.0, 1.0, 40.0])
    cols[:, 1] = 0.0
    return cols


BLOCK_CASES = {
    "desk X": (lambda: hte_blocks("desk")[0], False),
    "desk Z": (lambda: hte_blocks("desk")[1], False),
    "paper X": (lambda: hte_blocks("paper")[0], False),
    "paper Z": (lambda: hte_blocks("paper")[1], False),
    "semi X": (lambda: semi_blocks()[0], True),
    "semi Z": (lambda: semi_blocks()[1], True),
    "zero column": (zero_column_block, False),
    "cosine 0.79": (lambda: block_with_cosine(0.79), False),
    "cosine 0.81": (lambda: block_with_cosine(0.81), True),
    # 2 n max|x|^2 overflows, so the exact per-column check decides
    "scale 3e152": (lambda: RandomSource(7).normal((300, 2)) * 3e152, False),
}


@pytest.mark.parametrize("case", sorted(BLOCK_CASES))
def test_block_transform_matches_the_reference_bit_for_bit(case):
    make, whitened = BLOCK_CASES[case]
    columns = make()
    got = _block_transform(columns)
    want = reference_block_transform(columns)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()
    assert (np.count_nonzero(got - np.diag(np.diag(got))) > 0) == whitened


def overflow_columns(scale):
    return np.column_stack([np.ones(300), np.tile([1.0, -1.0], 150)]) * scale


@pytest.mark.parametrize("scale", [1e160, 1e154])
def test_block_transform_overflow_raises_like_the_reference(scale):
    # at 1e160 the squares overflow; at 1e154 each square is finite but
    # their column sums are not
    columns = overflow_columns(scale)
    for transform in (_block_transform, reference_block_transform):
        with pytest.warns(RuntimeWarning, match="overflow"), \
                pytest.raises(EstimationError, match="column scale overflows float64"):
            transform(columns)


# ---------------------------------------------------------------------------
# sweeps


def test_sweep_config_validation():
    ok = dict(kind="synthetic", eps_grid=(0.1,), repetitions=1)
    SweepConfig(**ok)
    with pytest.raises(ValueError, match="unknown sweep kind"):
        SweepConfig(**{**ok, "kind": "real"})
    with pytest.raises(ValueError, match="empty"):
        SweepConfig(**{**ok, "eps_grid": ()})
    with pytest.raises(ValueError, match="eps grid"):
        SweepConfig(**{**ok, "eps_grid": (0.0,)})
    with pytest.raises(ValueError, match="eps grid"):
        SweepConfig(**{**ok, "eps_grid": (0.5,)})
    with pytest.raises(ValueError, match="eps grid"):
        SweepConfig(**{**ok, "eps_grid": (0.6,)})
    # a repeated value would run its cells twice with the same seeds, and
    # the aggregate would count each copy as its own sample
    with pytest.raises(ValueError, match="eps_grid repeats a value"):
        SweepConfig(**{**ok, "eps_grid": (0.1, 0.2, 0.1)})
    # values equal to six significant digits share a cell stream label, so
    # both would run the same seeds
    with pytest.raises(ValueError, match=r"0\.1 and 0\.1000001 share the cell stream"):
        SweepConfig(**{**ok, "eps_grid": (0.1, 0.2, 0.1000001)})
    SweepConfig(**{**ok, "eps_grid": (0.1, 0.100001)})
    with pytest.raises(ValueError, match="repetitions"):
        SweepConfig(**{**ok, "repetitions": 0})
    with pytest.raises(ValueError, match="unknown estimators"):
        SweepConfig(**{**ok, "estimators": ("ols",)})
    with pytest.raises(ValueError, match="estimators repeats a name"):
        SweepConfig(**{**ok, "estimators": ("classical-iv", "classical-iv")})
    for size in ({"n": 0}, {"d": 0}):
        with pytest.raises(ValueError, match="n and d must be at least 1"):
            SweepConfig(**{**ok, **size})
    with pytest.raises(ValueError, match="unknown attack"):
        SweepConfig(**{**ok, "attack": "flip"})
    with pytest.raises(ValueError, match="negation attack"):
        SweepConfig(**{**ok, "attack": "negation"})
    with pytest.raises(ValueError, match="all-ones attack"):
        SweepConfig(kind="semi", eps_grid=(0.1,), repetitions=1, attack="all-ones")


def test_semi_sweep_config_requires_data_path():
    with pytest.raises(ValueError, match="semi sweep requires data_path"):
        SweepConfig(kind="semi", eps_grid=(0.1,), repetitions=1, attack="negation")


def tiny_synth_config(**overrides):
    base = dict(
        kind="synthetic",
        eps_grid=(0.1,),
        repetitions=2,
        n=200,
        d=2,
    )
    base.update(overrides)
    return SweepConfig(**base)


def test_run_sweep_row_grid_and_order():
    cfg = tiny_synth_config()
    rows = run_sweep(cfg, RandomSource(123))
    assert len(rows) == 1 * 3 * 2
    keys = [(r.epsilon, r.estimator) for r in rows]
    assert keys == [
        (0.1, "iterated-gmm-sever"),
        (0.1, "iterated-gmm-sever"),
        (0.1, "classical-iv"),
        (0.1, "classical-iv"),
        (0.1, "two-stage-huber"),
        (0.1, "two-stage-huber"),
    ]
    assert all(r.metric == "l2_error" for r in rows)
    assert all(r.value is not None and r.value >= 0 for r in rows)
    assert all(r.runtime_ms == 0.0 for r in rows)  # not stamped by default


def test_run_sweep_deterministic_and_jobs_invariant():
    cfg = tiny_synth_config()
    serial = run_sweep(cfg, RandomSource(123))
    again = run_sweep(cfg, RandomSource(123))
    assert serial == again
    parallel = run_sweep(cfg, RandomSource(123), jobs=2)
    assert serial == parallel


def test_run_sweep_draws_every_cell_from_the_master_seed():
    # the config holds no seed: one config at two master seeds runs other
    # cells, so every row's seed and value differ
    cfg = tiny_synth_config()
    first, second = (run_sweep(cfg, RandomSource(seed)) for seed in (123, 124))
    assert [(r.epsilon, r.estimator) for r in first] == [
        (r.epsilon, r.estimator) for r in second
    ]
    for a, b in zip(first, second):
        assert a.seed != b.seed and a.value != b.value


def test_run_sweep_semi_matches_direct_estimate():
    cfg = SweepConfig(
        kind="semi",
        eps_grid=(0.05,),
        repetitions=1,
        attack="none",
        estimators=("classical-iv",),
        data_path=str(DATA_CSV),
    )
    rows = run_sweep(cfg, RandomSource(7))
    design = scalar_treatment_design(load_csv(DATA_CSV, CARD_STANDIN_COLUMNS))
    expected = float(two_stage_least_squares(design)[0])
    assert rows[0].metric == "ate"
    assert rows[0].value == pytest.approx(expected, rel=1e-12)


def test_run_sweep_stamps_runtime_when_asked():
    cfg = tiny_synth_config(
        repetitions=1, estimators=("classical-iv",), stamp_runtime=True
    )
    rows = run_sweep(cfg, RandomSource(5))
    assert rows[0].runtime_ms > 0.0


# ---------------------------------------------------------------------------
# aggregation and CSV output


def row(eps, est, value, metric="l2_error"):
    return SweepRow(
        epsilon=eps, estimator=est, metric=metric, value=value, seed=1, runtime_ms=0.0
    )


def test_aggregate_rows_statistics():
    rows = [
        row(0.1, "a", 1.0),
        row(0.1, "a", 3.0),
        row(0.1, "b", 5.0),
        row(0.2, "a", None),
        row(0.2, "a", None),
    ]
    agg = aggregate_rows(rows)
    assert [(g["epsilon"], g["estimator"]) for g in agg] == [
        (0.1, "a"),
        (0.1, "b"),
        (0.2, "a"),
    ]
    first = agg[0]
    assert first["mean"] == pytest.approx(2.0)
    assert first["stderr"] == pytest.approx(1.0)  # std([1,3], ddof=1)/sqrt(2)
    assert first["count"] == 2
    assert agg[1]["count"] == 1 and math.isnan(agg[1]["stderr"])
    assert agg[2]["count"] == 0 and math.isnan(agg[2]["mean"])


def test_write_rows_csv_format(tmp_path):
    path = tmp_path / "rows.csv"
    write_rows_csv(path, [row(0.1, "a", 1.5), row(0.1, "a", None)], ["cfg=x"])
    lines = path.read_text().splitlines()
    assert lines[0] == "# cfg=x"
    assert lines[1] == "epsilon,estimator,metric,value,seed,runtime_ms"
    assert lines[2].startswith("0.10000000000000001,a,l2_error,1.5,1,")
    assert ",failed," in lines[3]


def test_write_aggregate_csv_format(tmp_path):
    path = tmp_path / "agg.csv"
    write_aggregate_csv(path, aggregate_rows([row(0.1, "a", 2.0)]))
    lines = path.read_text().splitlines()
    assert lines[0].startswith("epsilon,estimator,metric,mean,stderr,count")
    assert lines[1].split(",")[3] == "2"
