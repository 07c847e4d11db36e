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

root = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(root / "src"))

from robustgmm.cli import main

os.chdir(root)
results = root / "results"
results.mkdir(exist_ok=True)
out = results / "semi_negation.csv"
code = main(
    [
        "semi-sweep",
        "--seed",
        "9000",
        "--set",
        "input=data/card_standin.csv",
        "--out",
        str(out),
    ]
)
print(f"wrote {out} and companion .agg.csv (exit {code})")
sys.exit(code)
