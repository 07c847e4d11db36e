#!/usr/bin/env python3
"""Fit one fixed battery of cells, attacked and clean, and compare two scans.

    python3 scripts/regime_scan.py --out scan.json
    python3 scripts/regime_scan.py --compare parent.json change.json

The battery (BATTERY) holds twelve regimes. Five are sweep regimes: each
cell is built by experiments.sweep_cell, as the sweeps build it, so a scan
cell is the robust row of the same sweep cell:
- desk: all-ones attack, synth-sweep seeds 1001-1040 over the desk grid;
- paper: all-ones attack, synth-sweep seeds 4001-4010 over the paper grid
  at rep 0;
- semi: negation attack on data/card_standin.csv, semi-sweep seed 9000 at
  eps 0.05-0.45 x 10 reps;
- clean-desk and clean-semi: the desk and semi cells without their attack.
The other seven are repros, one cell per seed and eps, fitted with
RandomSource(seed). Six plant attacks no sweep runs:
- logistic: logistic IV, n=4000, d=4, Z = X + 0.5 noise, the first eps n
  rows of X set to 3.0 (ROADMAP item 6), seeds 0-3 at eps 0.1 and 0.2;
- overidentified and identified: linear IV, n=2000, d=5, noise 1.0, the
  first eps n rows set to X = Z = 1, Y = -5 (ROADMAP item 19's repro A),
  with p=10 and p=5 instruments, seeds 0-9 at eps 0.1 and 0.2;
- isotropic: linear IV, n=2000, d=p=10, noise 1.0, the first eps n rows
  spread evenly over the instrument directions at c = 8 (item 19's repro
  B), seeds 0-9 at eps 0.05 and 0.1;
- point-mass and point-mass-paper: the clean desk (paper) sweep cell at
  eps 0.1, rep 0 with floor(eps n) random rows set to X = 0, Y = -10 and Z
  on the instrument direction the regressors reach least (item 19's repro
  C), desk seeds 2001-2010 at eps 0.05, 0.1 and 0.2 and paper seeds
  4101-4105 at eps 0.1 and 0.2.
The seventh, clean-two-instrument, plants nothing: data/card_standin.csv
read as `robustgmm estimate` reads it with response lwage, covariates
educ,exper and instruments nearc4,exper, a linear fit whose two moments
make the clean score covariance look corrupted (ROADMAP item 11), seeds
0-4 at eps 0, 0.05 and 0.1. It records the educ coefficient as its ate.
The logistic regime runs the learner and the overidentified one the
projected-Jacobian pass, which the sweep regimes' exactly identified
designs skip. The repro builders are the only copy of each attack: the
Tier-1 regime tests fit the same cells, and tests/conftest.py takes its
make_linear_dataset from here.

--out fits every cell with the robustgmm of this script's checkout and
writes one JSON record per cell: its error (desk, paper, the attack
repros) or fitted ATE (semi, clean-semi, clean-two-instrument), kept and
planted-kept counts, abort flag, a hash of the final set and w_hat. It
also records numpy's version and the BLAS thread count, since
paper-scale w_hat differ across BLAS thread counts. --compare pairs two
scans cell by cell and prints, per regime and eps, the mean change in
error (second minus first) with its standard error, or the positive-ATE
counts on the ATE regimes (or that no cell fitted in both scans); the
cells that moved; the aborts; and the largest relative w_hat drift. It
warns on standard error when the two scans ran on a different numpy or
BLAS thread count, or one of them records neither, so such drift is not
read as moved cells. It is a report, not a gate: it always exits 0 once
both files load. A scan runs the robustgmm of the checkout the script
sits in; to scan another checkout that has experiments.sweep_cell, run its
copy of this script.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import math
import pathlib
import sys
from dataclasses import dataclass, replace
from functools import partial
from typing import Callable, Optional

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import numpy as np

from robustgmm import Dataset, RandomSource, load_csv, robust_linear_estimate
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
    """A repro's attacked design, true parameters (None when unknown) and
    planted rows; its fit draws from RandomSource(seed)."""

    design: Dataset
    theta: Optional[np.ndarray]
    planted: np.ndarray
    seed: int
    model_kind: str = "linear"

    def robust_fit(self, eps: float):
        return robust_linear_estimate(self.design, eps, RandomSource(self.seed),
                                      model_kind=self.model_kind)


@dataclass(frozen=True)
class Repro:
    """One cell build(seed, eps) of a design no sweep builds, at each seed
    and eps of the grid."""

    build: Callable
    eps_grid: tuple
    seeds: tuple
    repetitions = 1

    def cell(self, seed: int, eps: float, rep: int) -> ReproCell:
        return self.build(seed, eps)


def make_linear_dataset(seed: int, n: int, d: int, noise: float = 0.0, p=None):
    """Linear IV data with Z correlated to X; returns (Dataset, w_true)."""
    src = RandomSource(seed)
    p = d if p is None else p
    X = src.normal((n, d))
    Z = X @ src.normal((d, p)) * 0.3 + src.normal((n, p))
    w_true = src.normal(d)
    Y = X @ w_true + noise * src.normal(n)
    return Dataset(X=X, Y=Y, Z=Z), w_true


def _plant(data: Dataset, rows: np.ndarray, x, z, y) -> Dataset:
    """data with X, Z and Y of the given rows set to x, z and y."""
    X, Z, Y = data.X.copy(), data.Z.copy(), data.Y.copy()
    X[rows], Z[rows], Y[rows] = x, z, y
    return Dataset(X=X, Y=Y, Z=Z)


def _weakest_direction(data: Dataset) -> np.ndarray:
    """The last left singular vector of E Z X^T, the instrument direction
    the regressors reach least."""
    return np.linalg.svd(data.Z.T @ data.X / data.n)[0][:, -1]


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


def point_mass(seed: int, eps: float, p: int) -> ReproCell:
    """ROADMAP item 19's repro A: make_linear_dataset(seed, n=2000, d=5,
    noise=1.0, p) with the first eps n rows set to X = Z = 1, Y = -5."""
    data, w = make_linear_dataset(seed, 2000, 5, noise=1.0, p=p)
    planted = np.arange(round(eps * 2000))
    return ReproCell(_plant(data, planted, 1.0, 1.0, -5.0), w, planted, seed)


def isotropic_spread(seed: int, eps: float) -> ReproCell:
    """ROADMAP item 19's repro B: make_linear_dataset(seed, n=2000, d=10,
    noise=1.0) with the first eps n rows set to X = 0, Y = 1 and instruments
    8 (t + b s_i e_j(i)): t the last left singular vector of E Z X^T,
    b = 2 sqrt(p), signs s_i drawn from RandomSource(seed).child("signs")
    and cycled coordinates j(i)."""
    data, w = make_linear_dataset(seed, 2000, 10, noise=1.0)
    m, p = int(eps * data.n), data.p
    planted = np.arange(m)
    signs = np.where(RandomSource(seed).child("signs").uniform(m) < 0.5, -1.0, 1.0)
    spread = np.tile(_weakest_direction(data), (m, 1))
    spread[planted, planted % p] += 2.0 * np.sqrt(p) * signs
    return ReproCell(_plant(data, planted, 0.0, 8.0 * spread, 1.0), w, planted, seed)


def hidden_point_mass(config: SweepConfig, seed: int, eps: float) -> ReproCell:
    """ROADMAP item 19's repro C: the clean cell (seed, eps 0.1, rep 0) of
    config's sweep with floor(eps n) rows, drawn by RandomSource(seed), set to
    X = 0, Y = -10 and Z = 8 t, t the last left singular vector of E Z X^T."""
    cell = sweep_cell(config, seed, 0.1, 0)
    data = cell.design
    planted = RandomSource(seed).subset(data.n, math.floor(eps * data.n))
    attacked = _plant(data, planted, 0.0, 8.0 * _weakest_direction(data), -10.0)
    return ReproCell(attacked, cell.theta, planted, seed)


TWO_INSTRUMENT_COLUMNS = {"response": "lwage", "covariates": ["educ", "exper"],
                          "instruments": ["nearc4", "exper"]}


def clean_two_instrument(seed: int, eps: float) -> ReproCell:
    """ROADMAP item 11's clean design: data/card_standin.csv with the
    TWO_INSTRUMENT_COLUMNS roles, no attack and no known parameters."""
    design = load_csv(SEMI_INPUT, TWO_INSTRUMENT_COLUMNS)
    return ReproCell(design, None, np.empty(0, dtype=np.int64), seed)


DESK = SweepConfig("synthetic", (0.05, 0.1, 0.2, 0.3), 5, n=2000, d=10)
PAPER = SweepConfig("synthetic",
                    (0.01, 0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.35, 0.4, 0.45), 1,
                    n=10000, d=20)
SEMI = SweepConfig("semi", (0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.35, 0.4, 0.45), 10,
                   attack="negation", data_path=SEMI_INPUT)
DESK_SEEDS = tuple(range(1001, 1041))

BATTERY = {
    "desk": Regime(DESK, DESK_SEEDS),
    "paper": Regime(PAPER, tuple(range(4001, 4011))),
    "semi": Regime(SEMI, (9000,)),
    "logistic": Repro(logistic_x_side, (0.1, 0.2), tuple(range(4))),
    "overidentified": Repro(partial(point_mass, p=10), (0.1, 0.2), tuple(range(10))),
    "clean-desk": Regime(replace(DESK, attack="none"), DESK_SEEDS),
    "clean-semi": Regime(replace(SEMI, attack="none"), (9000,)),
    "point-mass": Repro(partial(hidden_point_mass, replace(DESK, attack="none")),
                        (0.05, 0.1, 0.2), tuple(range(2001, 2011))),
    "point-mass-paper": Repro(partial(hidden_point_mass, replace(PAPER, attack="none")),
                              (0.1, 0.2), tuple(range(4101, 4106))),
    "identified": Repro(partial(point_mass, p=5), (0.1, 0.2), tuple(range(10))),
    "isotropic": Repro(isotropic_spread, (0.05, 0.1), tuple(range(10))),
    "clean-two-instrument": Repro(clean_two_instrument, (0.0, 0.05, 0.1), tuple(range(5))),
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
            if not both:
                stat = "no cell fitted in both scans"
            elif metric == "ate":
                pos = (sum(a["ate"] > 0 for a, _ in both), sum(b["ate"] > 0 for _, b in both))
                stat = f"positive ATE {pos[0]} -> {pos[1]} of {len(both)}"
            else:
                mean, se = _mean_stderr([b["error"] - a["error"] for a, b in both])
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
