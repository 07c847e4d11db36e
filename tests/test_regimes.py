"""Fixed-seed regimes, end to end: the ones the fit handles and the ones it
is known to fail.

The cells that work assert what the fit does on them today, so a rule
change that breaks a working regime shows in Tier-1. The known failures
are pinned as strict xfails: each asserts the behaviour the fit should
have and names the ROADMAP item that tracks the failure. Strict mode turns
an unexpected pass into a failure, so the change that mends a regime must
turn its test into a plain assertion. The cells come from
scripts/regime_scan.py, the scan's one builder for each: its BATTERY's
sweep cells, which experiments.sweep_cell builds as the sweeps do, and
its repro generators (ROADMAP items 6 and 19), attacks the library has no
option for.
"""

from pathlib import Path

import numpy as np
import pytest

from regime_scan import (
    BATTERY,
    hidden_point_mass,
    isotropic_spread,
    logistic_x_side,
    point_mass,
)
from robustgmm import RandomSource, robust_linear_estimate
from robustgmm.cli import main
from robustgmm.models import two_stage_least_squares

from conftest import ball_binding_dataset, make_linear_dataset

DATA_CSV = Path(__file__).resolve().parents[1] / "data" / "card_standin.csv"


def robust_and_iv_errors(cell, report):
    w_iv = two_stage_least_squares(cell.design)
    return (float(np.linalg.norm(report.w_hat - cell.theta)),
            float(np.linalg.norm(w_iv - cell.theta)))


def fit_error(cell, eps):
    return float(np.linalg.norm(cell.robust_fit(eps).w_hat - cell.theta))


# ---------------------------------------------------------------------------
# regimes that work


def test_clean_desk_cell_keeps_every_row():
    # desk preset without an attack; master seeds 1-10 all keep every row
    cell = BATTERY["clean-desk"].cell(1, 0.1, 0)
    assert len(cell.robust_fit(0.1).final_set) == cell.design.n == 2000


def test_clean_semi_design_keeps_every_row():
    cell = BATTERY["clean-semi"].cell(9000, 0.05, 0)
    assert len(cell.robust_fit(0.05).final_set) == cell.design.n == 3010


def test_desk_all_ones_at_eps_0_3_beats_classical_iv():
    # the committed desk sweep's cell at master seed 1001, eps 0.3, rep 0:
    # robust 0.239 against classical IV 0.332
    cell = BATTERY["desk"].cell(1001, 0.3, 0)
    robust, iv = robust_and_iv_errors(cell, cell.robust_fit(0.3))
    assert robust < iv


def test_desk_all_ones_at_eps_0_05_beats_classical_iv():
    # the committed desk sweep's cell at master seed 1001, eps 0.05, rep 0:
    # robust 0.146 against classical IV 0.874
    cell = BATTERY["desk"].cell(1001, 0.05, 0)
    robust, iv = robust_and_iv_errors(cell, cell.robust_fit(0.05))
    assert robust < iv


def test_semi_negation_at_eps_0_15_keeps_the_sign():
    # the committed semi sweep's cell at master seed 9000, eps 0.15, rep 0;
    # classical IV returns the negated ATE
    assert BATTERY["semi"].cell(9000, 0.15, 0).robust_fit(0.15).w_hat[0] > 0.0


def test_paper_scale_all_ones_at_eps_0_3_beats_classical_iv():
    # n=10000, d=20 at master seed 7, eps 0.3, rep 0: robust 0.0997
    # against classical IV 0.426
    cell = BATTERY["paper"].cell(7, 0.3, 0)
    report = robust_linear_estimate(cell.design, 0.3, cell.rng.child("robust"))
    robust, iv = robust_and_iv_errors(cell, report)
    assert robust < iv


def test_instrument_attack_where_the_ball_binds_beats_classical_iv():
    # 100 of 2000 instrument rows set to 4.0, fitted at eps 0.05: a round's
    # unconstrained minimizer leaves the search ball, and the constrained
    # step reads 0.93 against classical IV's 1.69 (the projected-gradient
    # learner stopped short on the sphere here, at 4.10)
    data, w_true = ball_binding_dataset()
    report = robust_linear_estimate(data, 0.05, RandomSource(17))
    robust = np.linalg.norm(report.w_hat - w_true)
    assert robust < np.linalg.norm(two_stage_least_squares(data) - w_true)


@pytest.mark.parametrize("seed", [3, 7, 19, 32, 33])
def test_noiseless_clean_design_keeps_every_row(seed):
    # The learner used to stop short of the truth (6e-4 at seed 7), and the
    # moment pass fired on that leftover. The exact step lands on the truth
    # to roundoff, and below the roundoff floor (sever._ROUNDOFF_FLOOR) no
    # pass compares roundoff with roundoff; without that floor these seeds
    # lost 1 to 21 rows, depending on the BLAS kernel.
    data, w_true = make_linear_dataset(seed=seed, n=80, d=3, noise=0)
    report = robust_linear_estimate(data, 0.1, RandomSource(0))
    assert len(report.final_set) == data.n
    assert np.linalg.norm(report.w_hat - w_true) <= 1e-12 * np.linalg.norm(w_true)


# ---------------------------------------------------------------------------
# known failures


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="ROADMAP item 3: at eps 0.3 the planted residuals sit under the "
    "60-MAD screen cap and no spectral pass fires, so the fit keeps all "
    "3010 rows and returns the attacked ATE -0.1260",
)
def test_semi_negation_at_eps_0_3_keeps_the_sign():
    # the semi-sweep cell at master seed 9000, eps 0.3, rep 0; 9 of the
    # sweep's 10 reps at this eps return the attacked answer
    assert BATTERY["semi"].cell(9000, 0.3, 0).robust_fit(0.3).w_hat[0] > 0.0


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="ROADMAP item 3: at eps 0.45 the fit also keeps all 3010 rows "
    "and returns the attacked ATE -0.1260",
)
def test_semi_negation_at_eps_0_45_keeps_the_sign():
    # the semi-sweep cell at master seed 9000, eps 0.45, rep 0; reps 1 and 2
    # keep every row as well
    assert BATTERY["semi"].cell(9000, 0.45, 0).robust_fit(0.45).w_hat[0] > 0.0


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="ROADMAP item 11: with two moments the moment pass tests the clean "
    "score covariance's condition number and fires, so the clean fit exits 2 "
    "with 'filter exhausted sample set: 1364 of 3010 remain'",
)
def test_clean_two_instrument_design_fits(tmp_path):
    code = main([
        "estimate", "--out", str(tmp_path / "fit.out"),
        "--set", f"input={DATA_CSV}", "--set", "col_response=lwage",
        "--set", "col_covariates=educ,exper",
        "--set", "col_instruments=nearc4,exper", "--set", "eps=0.05",
    ])
    assert code == 0


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="ROADMAP item 6: |Y - f| <= 1 hides X-side corruption from the "
    "moment pass and the Jacobian pass does not fire, so the fit keeps all "
    "4000 rows; its l2 error is 0.459 against 0.111 on the clean design",
)
def test_logistic_x_side_attack_at_eps_0_2_is_filtered():
    # the battery's logistic repro at seed 0, eps 0.2, against its clean design
    attacked, clean = logistic_x_side(0, 0.2), logistic_x_side(0, 0.0)
    assert fit_error(attacked, 0.2) <= 2.0 * fit_error(clean, 0.2)


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="ROADMAP item 19: a point mass that pulls the iterate inflates the "
    "clean scores with the planted ones, so no pass fires; the fit keeps all "
    "200 planted rows, l2 error 19.09 against 0.097 clean (classical IV 19.11)",
)
def test_point_mass_that_moves_the_iterate_is_filtered():
    # repro A at p = 5, seed 0, eps 0.1
    attacked, clean = point_mass(0, 0.1, p=5), point_mass(0, 0.0, p=5)
    assert fit_error(attacked, 0.1) <= 2.0 * fit_error(clean, 0.1)


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="ROADMAP item 19: corruption spread evenly across the moment "
    "directions hides from the top-to-bulk test; at eps 0.05, c = 8 the "
    "moment pass removes 173 clean rows and keeps 80 of the 100 planted, "
    "l2 error 8.16 against 0.33 clean (classical IV 6.80)",
)
def test_isotropic_spread_is_filtered():
    attacked, clean = isotropic_spread(0, 0.05), isotropic_spread(0, 0.0)
    assert fit_error(attacked, 0.05) <= 2.0 * fit_error(clean, 0.05)


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="ROADMAP item 19: repro C's 200 planted rows (X = 0, Y = -10, Z on "
    "the weakest instrument direction) sit under the screen cap and move the "
    "iterate, so no pass fires; the fit keeps all of them, l2 error 30.52 "
    "against 0.140 clean (classical IV 30.52)",
)
def test_hidden_point_mass_on_a_desk_cell_is_filtered():
    # the battery's point-mass cell at desk seed 2001, eps 0.1
    attacked = BATTERY["point-mass"].cell(2001, 0.1, 0)
    clean = hidden_point_mass(BATTERY["clean-desk"].config, 2001, 0.0)
    assert fit_error(attacked, 0.1) <= 3.0 * fit_error(clean, 0.1)
