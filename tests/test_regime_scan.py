import copy
import json
import pickle
from dataclasses import replace

import numpy as np

import regime_scan
from regime_scan import BATTERY, Regime
from robustgmm.cli import _build_design
from robustgmm.experiments import SweepCell

TINY = {
    "desk": Regime(replace(BATTERY["desk"].config, eps_grid=(0.3,), repetitions=1,
                           n=400, d=3), (1001,)),
    "semi": Regime(replace(BATTERY["semi"].config, eps_grid=(0.15,), repetitions=1),
                   (9000,)),
    "logistic": replace(BATTERY["logistic"], eps_grid=(0.2,), seeds=(0,)),
}


def test_tiny_battery_scans_and_compares(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(regime_scan, "BATTERY", TINY)
    out = tmp_path / "scan.json"
    assert regime_scan.main(["--out", str(out)]) == 0
    scan = json.loads(out.read_text())
    assert scan["environment"] == regime_scan.environment()
    assert scan["environment"]["numpy"] == np.__version__
    (desk,), (semi,), (logit,) = scan["desk"], scan["semi"], scan["logistic"]
    assert (desk["seed"], desk["eps"], desk["rep"], desk["aborted"]) == (1001, 0.3, 0, False)
    assert desk["error"] >= 0.0 and len(desk["w_hat"]) == 3
    assert 0 <= desk["planted_kept"] <= 120 and desk["kept"] <= 400
    # the semi cell is the committed sweep's robust row at eps 0.15, rep 0
    assert semi["ate"] > 0.0 and semi["planted_kept"] == 0
    # item 6's logistic repro at seed 0, eps 0.2 keeps every row
    assert (logit["kept"], logit["planted_kept"], len(logit["w_hat"])) == (4000, 800, 4)

    assert regime_scan.main(["--compare", str(out), str(out)]) == 0
    captured = capsys.readouterr()
    printed = captured.out
    assert "eps 0.3   error +0.0000 +/- nan, 0 of 1 moved, aborts 0 -> 0" in printed
    assert "eps 0.15  positive ATE 1 -> 1 of 1, 0 of 1 moved" in printed
    assert printed.count("final sets changed 0, largest relative w_hat drift 0") == 3
    assert "environment" not in printed and captured.err == ""


def test_compare_warns_when_the_scans_ran_on_another_blas(tmp_path, capsys):
    cell = {"seed": 1, "eps": 0.1, "rep": 0, "aborted": True}
    env = {"numpy": "2.4.6", "blas_threads": 1}
    scans = {
        "one": {"environment": env, "desk": [cell]},
        "two": {"environment": dict(env, blas_threads=2), "desk": [cell]},
        "old": {"desk": [cell]},
    }
    for name, scan in scans.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(scan))

    def warnings(first, second):
        regime_scan.main(["--compare", str(tmp_path / f"{first}.json"),
                          str(tmp_path / f"{second}.json")])
        captured = capsys.readouterr()
        assert captured.out.startswith("desk: 1 paired cells")
        return captured.err.splitlines()

    assert warnings("one", "one") == []
    (line,) = warnings("one", "two")
    assert line.startswith("warning: blas_threads differs (1 -> 2)")
    (line,) = warnings("old", "one")
    assert line.startswith("warning: the first scan records no numpy version")


def test_repro_cells_plant_their_attack():
    logit = BATTERY["logistic"].cell(1, 0.1, 0)
    assert logit.model_kind == "logistic" and logit.design.n == 4000
    np.testing.assert_array_equal(logit.planted, np.arange(400))
    assert np.all(logit.design.X[:400] == 3.0) and not np.any(logit.design.X[400:] == 3.0)
    point = BATTERY["overidentified"].cell(3, 0.2, 0)
    assert (point.design.n, point.design.d, point.design.p) == (2000, 5, 10)
    np.testing.assert_array_equal(point.planted, np.arange(400))
    data = point.design
    assert np.all(data.X[:400] == 1.0) and np.all(data.Z[:400] == 1.0)
    assert np.all(data.Y[:400] == -5.0) and not np.any(data.Y[400:] == -5.0)


def test_clean_two_instrument_cell_is_the_design_estimate_reads():
    cell = BATTERY["clean-two-instrument"].cell(3, 0.05, 0)
    assert cell.theta is None and cell.planted.size == 0 and cell.seed == 3
    resolved = {"model": "linear", "intercept": "true", "input": regime_scan.SEMI_INPUT,
                "col_response": "lwage", "col_treatment": "",
                "col_covariates": "educ,exper", "col_instruments": "nearc4,exper"}
    design, kind, _ = _build_design(resolved)
    assert (kind, cell.model_kind) == ("linear", "linear")
    assert pickle.dumps(cell.design) == pickle.dumps(design)


def test_every_regime_builds_its_first_cell_the_same_twice():
    # a scan pairs cells across checkouts by (seed, eps, rep), so a build
    # must be a function of them; pickle writes every array's bytes and the
    # fit stream's seed and state
    for name, regime in BATTERY.items():
        first, second = (regime.cell(regime.seeds[0], regime.eps_grid[0], 0)
                         for _ in range(2))
        assert pickle.dumps(first) == pickle.dumps(second), name
        planted, n = first.planted, first.design.n
        assert np.array_equal(np.unique(planted), planted), name
        assert planted.size == 0 or 0 <= planted[0] <= planted[-1] < n, name


def test_compare_reports_moves_aborts_and_drift():
    cell = {"seed": 1, "eps": 0.1, "rep": 0, "aborted": False, "error": 0.5,
            "kept": 90, "planted_kept": 1, "set_hash": "a", "w_hat": [1.0, 0.0]}
    other = dict(cell, rep=1)
    first = {"desk": [cell, other]}
    second = copy.deepcopy(first)
    second["desk"][0].update(error=0.7, set_hash="b", w_hat=[1.0, 0.1])
    second["desk"][1] = {"seed": 1, "eps": 0.1, "rep": 1, "aborted": True}
    lines = regime_scan.compare(first, second)
    assert lines[0] == "desk: 2 paired cells"
    assert lines[1].startswith("  eps 0.1   error +0.2000 +/- nan, 2 of 2 moved")
    assert lines[1].endswith("aborts 0 -> 1")
    assert lines[2] == "  final sets changed 1, largest relative w_hat drift 0.1"
    assert lines[3] == "  abort only in the second scan: seed 1, eps 0.1, rep 1"
    assert regime_scan.compare(first, {}) == ["desk: missing from the second scan"]
    # a regime whose every cell aborts in one scan has no change to report
    aborted = {"desk": [second["desk"][1]]}
    lines = regime_scan.compare({"desk": [other]}, aborted)
    assert lines[1] == "  eps 0.1   no cell fitted in both scans, 1 of 1 moved, aborts 0 -> 1"
    assert lines[2] == "  no cell fitted in both scans"
    # nor does a regime whose every cell aborts in both
    lines = regime_scan.compare(aborted, aborted)
    assert lines[1:] == ["  eps 0.1   no cell fitted in both scans, 0 of 1 moved, aborts 1 -> 1",
                         "  no cell fitted in both scans"]


def test_a_failed_fit_is_an_aborted_cell(monkeypatch):
    # the sweeps count a singular solve as a failed row; the scan records the
    # cell as aborted instead of stopping
    def singular(self, eps):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(SweepCell, "robust_fit", singular)
    record = regime_scan.fit_cell(TINY["desk"], 1001, 0.3, 0)
    assert record == {"seed": 1001, "eps": 0.3, "rep": 0, "aborted": True}
