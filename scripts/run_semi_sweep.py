#!/usr/bin/env python3
"""Semi-synthetic negation sweep on the bundled schooling-returns stand-in.

Writes results/semi_negation.csv and its .agg.csv companion; the metric is
the fitted treatment (education) coefficient, so the robust estimator should
stay near the clean value while classical IV flips sign at every eps.

The input path is stamped into the output header, so the sweep runs from the
repository root with a repo-relative path: the results then reproduce byte
for byte in any checkout.
"""

import os
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from robustgmm.cli import main

# the CLI call without --out, run from ROOT; scripts/results_drift.py reuses it
ARGV = ["semi-sweep", "--seed", "9000", "--set", "input=data/card_standin.csv"]
OUT_NAME = "semi_negation.csv"

if __name__ == "__main__":
    os.chdir(ROOT)
    results = ROOT / "results"
    results.mkdir(exist_ok=True)
    out = results / OUT_NAME
    code = main(ARGV + ["--out", str(out)])
    print(f"wrote {out} and companion .agg.csv (exit {code})")
    sys.exit(code)
