import copy
import json
from dataclasses import replace

import numpy as np

import regime_scan
from regime_scan import BATTERY, Regime
from robustgmm.experiments import SweepCell

TINY = {
    "desk": Regime(replace(BATTERY["desk"].config, eps_grid=(0.3,), repetitions=1,
                           n=400, d=3), (1001,)),
    "semi": Regime(replace(BATTERY["semi"].config, eps_grid=(0.15,), repetitions=1),
                   (9000,)),
}


def test_tiny_battery_scans_and_compares(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(regime_scan, "BATTERY", TINY)
    out = tmp_path / "scan.json"
    assert regime_scan.main(["--out", str(out)]) == 0
    scan = json.loads(out.read_text())
    (desk,), (semi,) = scan["desk"], scan["semi"]
    assert (desk["seed"], desk["eps"], desk["rep"], desk["aborted"]) == (1001, 0.3, 0, False)
    assert desk["error"] >= 0.0 and len(desk["w_hat"]) == 3
    assert 0 <= desk["planted_kept"] <= 120 and desk["kept"] <= 400
    # the semi cell is the committed sweep's robust row at eps 0.15, rep 0
    assert semi["ate"] > 0.0 and semi["planted_kept"] == 0

    assert regime_scan.main(["--compare", str(out), str(out)]) == 0
    printed = capsys.readouterr().out
    assert "eps 0.3   error +0.0000 +/- nan, 0 of 1 moved, aborts 0 -> 0" in printed
    assert "eps 0.15  positive ATE 1 -> 1 of 1, 0 of 1 moved" in printed
    assert printed.count("final sets changed 0, largest relative w_hat drift 0") == 2


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


def test_a_failed_fit_is_an_aborted_cell(monkeypatch):
    # the sweeps count a singular solve as a failed row; the scan records the
    # cell as aborted instead of stopping
    def singular(self, eps):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(SweepCell, "robust_fit", singular)
    record = regime_scan.fit_cell(TINY["desk"].config, 1001, 0.3, 0)
    assert record == {"seed": 1001, "eps": 0.3, "rep": 0, "aborted": True}
