#!/usr/bin/env python3
"""Regenerate the committed sweeps and report how far their values drift.

    python3 scripts/results_drift.py

Runs each CLI call of scripts/run_sweeps.py's SWEEPS into a temporary
directory and compares every regenerated CSV with its copy under results/,
which it never writes. Per file and estimator it prints the rows that
changed and the largest relative drift of the value column (`mean` in the
.agg.csv companions). Exits 1 when an entry has no committed files, when a
value switches between a number and `failed` (or NaN), or when the two
files do not list the same cells in the same order; 0 otherwise.
"""

from __future__ import annotations

import csv
import math
import os
import pathlib
import sys
import tempfile

from run_sweeps import ROOT, SWEEPS, main as cli_main

# the columns naming a row; the per-row files add the cell seed
KEY_COLUMNS = ("epsilon", "estimator", "metric", "seed")


def _rows(text: str) -> list:
    lines = [ln for ln in text.splitlines() if not ln.startswith("#")]
    return list(csv.DictReader(lines))


def _number(cell: str):
    try:
        v = float(cell)
    except ValueError:  # "failed"
        return None
    return v if math.isfinite(v) else None


def _relative(old: float, new: float) -> float:
    if old == new:
        return 0.0
    return abs(new - old) / abs(old) if old != 0.0 else math.inf


def compare(committed: str, regenerated: str):
    """Compare two sweep CSV texts, committed first.

    Returns (per_estimator, problems): per_estimator maps each estimator, in
    file order, to (rows, changed, largest relative drift of the value
    column); problems lists the rows whose value switched between a number
    and failed/NaN, and any misaligned row.
    """
    old_rows, new_rows = _rows(committed), _rows(regenerated)
    problems = []
    if len(old_rows) != len(new_rows):
        problems.append(f"{len(old_rows)} committed rows, {len(new_rows)} regenerated")
    per_estimator = {}
    for i, (old, new) in enumerate(zip(old_rows, new_rows), start=1):
        key = tuple(old.get(c) for c in KEY_COLUMNS)
        if key != tuple(new.get(c) for c in KEY_COLUMNS):
            problems.append(f"row {i}: committed {key} does not line up")
            continue
        column = "value" if "value" in old else "mean"
        rows, changed, drift = per_estimator.get(old["estimator"], (0, 0, 0.0))
        a, b = _number(old[column]), _number(new[column])
        if (a is None) != (b is None):
            problems.append(f"row {i} {key}: {column} {old[column]} -> {new[column]}")
        elif a is not None:
            drift = max(drift, _relative(a, b))
        per_estimator[old["estimator"]] = (rows + 1, changed + (old != new), drift)
    return per_estimator, problems


def main() -> int:
    os.chdir(ROOT)  # the semi sweep stamps its repo-relative input path
    status = 0
    with tempfile.TemporaryDirectory() as tmp:
        for stem, argv in SWEEPS.items():
            names = (f"{stem}.csv", f"{stem}.agg.csv")
            if not all((ROOT / "results" / name).exists() for name in names):
                print(f"{stem}: results/ does not hold {' and '.join(names)}")
                status = 1
                continue
            if cli_main(argv + ["--out", os.path.join(tmp, names[0])]) != 0:
                print(f"{stem}: the sweep exited nonzero")
                return 1
            for name in names:
                committed = (ROOT / "results" / name).read_text()
                regenerated = pathlib.Path(tmp, name).read_text()
                per_estimator, problems = compare(committed, regenerated)
                print(f"results/{name}")
                for estimator, (rows, changed, drift) in per_estimator.items():
                    print(f"  {estimator:<20} {changed:>3} of {rows:>3} rows changed, "
                          f"largest relative drift {drift:.3g}")
                for problem in problems:
                    print(f"  {problem}")
                status |= bool(problems)
    return status

if __name__ == "__main__":
    sys.exit(main())
