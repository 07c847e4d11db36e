#!/usr/bin/env python3
"""Desk-scale synthetic corruption sweep (all-ones attack, d=10, n=2000).

Writes results/synth_desk.csv (per-cell rows) and results/synth_desk.agg.csv
(per-eps, per-estimator mean and standard error, ready to plot).
"""

import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from robustgmm.cli import main

# the CLI call without --out; scripts/results_drift.py reuses it
ARGV = ["synth-sweep", "--seed", "1001", "--set", "preset=desk"]
OUT_NAME = "synth_desk.csv"

if __name__ == "__main__":
    results = ROOT / "results"
    results.mkdir(exist_ok=True)
    out = results / OUT_NAME
    code = main(ARGV + ["--out", str(out)])
    print(f"wrote {out} and companion .agg.csv (exit {code})")
    sys.exit(code)
