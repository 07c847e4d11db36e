"""Regimes where the fit is known to fail, pinned as strict xfails.

Each test asserts the behaviour the fit should have and names the ROADMAP
item that tracks the failure. Strict mode turns an unexpected pass into a
failure, so the change that mends a regime must turn its test into a plain
assertion.
"""

from pathlib import Path

import pytest

from robustgmm import (
    CARD_STANDIN_COLUMNS,
    RandomSource,
    load_csv,
    robust_linear_estimate,
    scalar_treatment_design,
)
from robustgmm.cli import main
from robustgmm.experiments import corrupt_negation

DATA_CSV = Path(__file__).resolve().parents[1] / "data" / "card_standin.csv"


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
    design = scalar_treatment_design(load_csv(DATA_CSV, CARD_STANDIN_COLUMNS))
    cell_rng = RandomSource(9000).child("eps=0.3/rep=0")
    corrupted, _ = corrupt_negation(design, 0.3, cell_rng.child("attack"))
    report = robust_linear_estimate(
        corrupted, 0.3, cell_rng.child("robust/iterated-gmm-sever")
    )
    assert report.w_hat[0] > 0.0


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
