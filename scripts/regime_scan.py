#!/usr/bin/env python3
"""Fit one fixed battery of attacked cells and compare two such scans.

    python3 scripts/regime_scan.py --out scan.json
    python3 scripts/regime_scan.py --compare parent.json change.json

The battery (BATTERY) holds five regimes. The first three are sweep
regimes: each cell is built by experiments.sweep_cell, as the sweeps build
it, so a scan cell is the robust row of the same sweep cell:
- desk: all-ones attack, synth-sweep seeds 1001-1040 over the desk grid;
- paper: all-ones attack, synth-sweep seeds 4001-4010 over the paper grid
  at rep 0;
- semi: negation attack on data/card_standin.csv, semi-sweep seed 9000 at
  eps 0.05-0.45 x 10 reps.
The other two are repros of attacks no sweep runs, one cell per seed and
eps, fitted with RandomSource(seed):
- logistic: logistic IV, n=4000, d=4, Z = X + 0.5 noise, the first eps n
  rows of X set to 3.0 (ROADMAP item 6), seeds 0-3 at eps 0.1 and 0.2;
- overidentified: linear IV, n=2000, d=5, p=10, noise 1.0, the first eps n
  rows set to X = Z = 1, Y = -5 (ROADMAP item 19's point mass), seeds 0-9
  at eps 0.1 and 0.2.
The logistic regime runs the learner and the overidentified one the
projected-Jacobian pass, which the sweep regimes' exactly identified
designs skip.

--out fits every cell with the robustgmm of this script's checkout and
writes one JSON record per cell: its error (desk, paper, the repros) or
fitted ATE (semi), kept and planted-kept counts, abort flag, a hash of the
final set and w_hat. It also records numpy's version and the BLAS thread
count, since paper-scale w_hat differ across BLAS thread counts. --compare
pairs two scans cell by cell and prints, per regime and eps, the mean
change in error (second minus first) with its standard error, or the
positive-ATE counts on semi; the cells that moved; the aborts; and the
largest relative w_hat drift. It warns on standard error when the two
scans ran on a different numpy or BLAS thread count, or one of them
records neither, so such drift is not read as moved cells. It is a report,
not a gate: it always exits 0 once both files load. A scan runs the
robustgmm of the checkout the script sits in; to scan another checkout
that has experiments.sweep_cell, run its copy of this script.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import math
import pathlib
import sys
from dataclasses import dataclass
from typing import Callable

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import numpy as np

from robustgmm import Dataset, RandomSource, robust_linear_estimate
from robustgmm.experiments import FIT_FAILURES, SweepConfig, sweep_cell
from robustgmm.models import logistic

SEMI_INPUT = str(ROOT / "data" / "card_standin.csv")
# the key of a scan's environment record; every other key names a regime
ENVIRONMENT = "environment"


@dataclass(frozen=True)
class Regime:
    """Every cell (eps, rep) of config's sweep at each master seed."""

    config: SweepConfig
    seeds: tuple

    @property
    def eps_grid(self) -> tuple:
        return self.config.eps_grid

    @property
    def repetitions(self) -> int:
        return self.config.repetitions

    def cell(self, seed: int, eps: float, rep: int):
        return sweep_cell(self.config, seed, eps, rep)


@dataclass(frozen=True)
class ReproCell:
    """A repro's attacked design, true parameters and planted rows; its fit
    draws from RandomSource(seed)."""

    design: Dataset
    theta: np.ndarray
    planted: np.ndarray
    seed: int
    model_kind: str = "linear"

    def robust_fit(self, eps: float):
        return robust_linear_estimate(self.design, eps, RandomSource(self.seed),
                                      model_kind=self.model_kind)


@dataclass(frozen=True)
class Repro:
    """One cell build(seed, eps) of an attack no sweep runs, at each seed and
    eps of the grid."""

    build: Callable
    eps_grid: tuple
    seeds: tuple
    repetitions = 1

    def cell(self, seed: int, eps: float, rep: int) -> ReproCell:
        return self.build(seed, eps)


def logistic_x_side(seed: int, eps: float) -> ReproCell:
    """ROADMAP item 6: the first eps n of 4000 rows of X set to 3.0."""
    src = RandomSource(seed)
    X = src.normal((4000, 4))
    Z = X + 0.5 * src.normal((4000, 4))
    w = src.normal(4)
    Y = (src.uniform(4000) < logistic(X @ w)).astype(np.float64)
    m = round(eps * 4000)
    X[:m] = 3.0
    return ReproCell(Dataset(X=X, Y=Y, Z=Z), w, np.arange(m), seed, "logistic")


def overidentified_point_mass(seed: int, eps: float) -> ReproCell:
    """ROADMAP item 19's repro A with p = 10: tests/conftest.py's
    make_linear_dataset(seed, n=2000, d=5, noise=1.0, p=10) with the first
    eps n rows set to X = Z = 1, Y = -5."""
    src = RandomSource(seed)
    X = src.normal((2000, 5))
    Z = X @ src.normal((5, 10)) * 0.3 + src.normal((2000, 10))
    w = src.normal(5)
    Y = X @ w + src.normal(2000)
    m = round(eps * 2000)
    X[:m], Z[:m], Y[:m] = 1.0, 1.0, -5.0
    return ReproCell(Dataset(X=X, Y=Y, Z=Z), w, np.arange(m), seed)


def _grid(kind, eps_grid, reps, **fields):
    return SweepConfig(kind, eps_grid, reps, seed=0, **fields)


BATTERY = {
    "desk": Regime(_grid("synthetic", (0.05, 0.1, 0.2, 0.3), 5, n=2000, d=10),
                   tuple(range(1001, 1041))),
    "paper": Regime(_grid("synthetic",
                          (0.01, 0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.35, 0.4, 0.45), 1,
                          n=10000, d=20),
                    tuple(range(4001, 4011))),
    "semi": Regime(_grid("semi", (0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.35, 0.4, 0.45), 10,
                         attack="negation", data_path=SEMI_INPUT),
                   (9000,)),
    "logistic": Repro(logistic_x_side, (0.1, 0.2), tuple(range(4))),
    "overidentified": Repro(overidentified_point_mass, (0.1, 0.2), tuple(range(10))),
}


def blas_threads():
    """The thread count of numpy's OpenBLAS, or None when it cannot be read."""
    here = pathlib.Path(np.__file__).parent
    libs = [*here.glob(".libs/*openblas*"), *here.parent.glob("numpy.libs/*openblas*")]
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(str(lib))
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(handle, symbol):
                return int(getattr(handle, symbol)())
    return None


def environment() -> dict:
    return {"numpy": np.__version__, "blas_threads": blas_threads()}


def environment_warnings(first: dict, second: dict) -> list:
    """Warnings when two scans ran on a different numpy or BLAS thread count."""
    a, b = first.get(ENVIRONMENT), second.get(ENVIRONMENT)
    if a is None or b is None:
        side = "first" if a is None else "second"
        return [f"warning: the {side} scan records no numpy version or BLAS thread "
                "count; moved cells may be their drift"]
    return [
        f"warning: {key} differs ({a.get(key)} -> {b.get(key)}); moved cells may be "
        "its drift, not a change in the fit"
        for key in ("numpy", "blas_threads") if a.get(key) != b.get(key)
    ]


def fit_cell(regime, seed: int, eps: float, rep: int) -> dict:
    """Record the robust fit of cell (eps, rep) of regime at seed."""
    cell = regime.cell(seed, eps, rep)
    record = {"seed": seed, "eps": eps, "rep": rep, "aborted": False}
    try:
        report = cell.robust_fit(eps)
    except FIT_FAILURES:
        record["aborted"] = True
        return record
    kept = report.final_set.indices
    w = report.w_hat
    if cell.theta is not None:
        record["error"] = float(np.linalg.norm(w - cell.theta))
    else:
        record["ate"] = float(w[0])
    record["kept"] = len(kept)
    record["planted_kept"] = int(np.isin(cell.planted, kept).sum())
    record["set_hash"] = hashlib.blake2b(kept.tobytes(), digest_size=8).hexdigest()
    record["w_hat"] = [float(v) for v in w]
    return record


def scan(battery: dict) -> dict:
    """Fit every cell of battery; regime name -> list of cell records."""
    return {
        name: [
            fit_cell(regime, seed, eps, rep)
            for seed in regime.seeds
            for eps in regime.eps_grid
            for rep in range(regime.repetitions)
        ]
        for name, regime in battery.items()
    }


def _mean_stderr(values: list):
    m = len(values)
    mean = sum(values) / m
    if m < 2:
        return mean, math.nan
    var = sum((v - mean) ** 2 for v in values) / (m - 1)
    return mean, math.sqrt(var / m)


def _moved(a: dict, b: dict) -> bool:
    return a["aborted"] != b["aborted"] or (
        not a["aborted"] and (a["w_hat"] != b["w_hat"] or a["set_hash"] != b["set_hash"])
    )


def _drift(a: dict, b: dict) -> float:
    wa, wb = np.array(a["w_hat"]), np.array(b["w_hat"])
    scale = float(np.linalg.norm(wa))
    gap = float(np.linalg.norm(wb - wa))
    return gap / scale if scale > 0.0 else (0.0 if gap == 0.0 else math.inf)


def compare(first: dict, second: dict) -> list:
    """Report lines pairing two scans cell by cell (second minus first)."""
    lines = []
    for name in first:
        if name == ENVIRONMENT:
            continue
        if name not in second:
            lines.append(f"{name}: missing from the second scan")
            continue
        key = lambda c: (c["seed"], c["eps"], c["rep"])
        b_cells = {key(c): c for c in second[name]}
        pairs = [(a, b_cells[key(a)]) for a in first[name] if key(a) in b_cells]
        lines.append(f"{name}: {len(pairs)} paired cells")
        metric = "ate" if any("ate" in a for a, _ in pairs) else "error"
        for eps in sorted({a["eps"] for a, _ in pairs}):
            at = [(a, b) for a, b in pairs if a["eps"] == eps]
            moved = sum(_moved(a, b) for a, b in at)
            aborts = (sum(a["aborted"] for a, _ in at), sum(b["aborted"] for _, b in at))
            both = [(a, b) for a, b in at if not (a["aborted"] or b["aborted"])]
            if metric == "ate":
                pos = (sum(a["ate"] > 0 for a, _ in both), sum(b["ate"] > 0 for _, b in both))
                stat = f"positive ATE {pos[0]} -> {pos[1]} of {len(both)}"
            else:
                mean, se = _mean_stderr([b["error"] - a["error"] for a, b in both] or [0.0])
                stat = f"error {mean:+.4f} +/- {se:.4f}"
            lines.append(
                f"  eps {eps:<5g} {stat}, {moved} of {len(at)} moved, "
                f"aborts {aborts[0]} -> {aborts[1]}"
            )
        fitted = [(a, b) for a, b in pairs if not (a["aborted"] or b["aborted"])]
        sets = sum(a["set_hash"] != b["set_hash"] for a, b in fitted)
        drift = max((_drift(a, b) for a, b in fitted), default=0.0)
        lines.append(f"  final sets changed {sets}, largest relative w_hat drift {drift:.3g}")
        for a, b in pairs:
            if a["aborted"] != b["aborted"]:
                side = "second" if b["aborted"] else "first"
                lines.append(
                    f"  abort only in the {side} scan: seed {a['seed']}, "
                    f"eps {a['eps']:g}, rep {a['rep']}"
                )
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--out", help="fit the battery and write the scan here")
    group.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    args = parser.parse_args(argv)
    if args.out:
        record = {ENVIRONMENT: environment(), **scan(BATTERY)}
        pathlib.Path(args.out).write_text(json.dumps(record) + "\n")
        return 0
    first, second = (json.loads(pathlib.Path(p).read_text()) for p in args.compare)
    for line in environment_warnings(first, second):
        print(line, file=sys.stderr)
    print("\n".join(compare(first, second)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
