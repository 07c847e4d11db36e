#!/usr/bin/env python3
"""Regenerate every committed sweep in results/.

    python3 scripts/run_sweeps.py

SWEEPS maps each results/ stem to its CLI call without --out; the call
writes results/<stem>.csv (per-cell rows) and results/<stem>.agg.csv
(per-eps, per-estimator mean and standard error, ready to plot). The calls
run from the repository root: the semi sweep stamps its repo-relative input
path into the header, so the results reproduce byte for byte in any
checkout. scripts/results_drift.py and the test suite read the same dict.
"""

import os
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from robustgmm.cli import main

SWEEPS = {
    # all-ones attack on the synthetic HTE design, desk preset (n=2000, d=10)
    "synth_desk": ["synth-sweep", "--seed", "1001", "--set", "preset=desk"],
    # negation attack on the bundled schooling-returns stand-in; the metric is
    # the fitted education coefficient, which classical IV flips at every eps
    "semi_negation": ["semi-sweep", "--seed", "9000",
                      "--set", "input=data/card_standin.csv"],
}

if __name__ == "__main__":
    os.chdir(ROOT)
    (ROOT / "results").mkdir(exist_ok=True)
    status = 0
    for stem, argv in SWEEPS.items():
        code = main(argv + ["--out", f"results/{stem}.csv"])
        print(f"wrote results/{stem}.csv and its .agg.csv (exit {code})")
        status = max(status, code)
    sys.exit(status)
