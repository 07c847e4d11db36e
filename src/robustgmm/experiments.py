"""Synthetic data generation, corruption attacks, diagnostics, and sweeps.

This is the experiment harness: it produces the treatment-effect DGP, the
two adversarial attacks (all-ones characteristics, response negation), the
CSV loader for semi-synthetic designs, the plug-in hyperparameter rule with
its identification diagnostics, and the corruption sweep that compares the
robust estimator against classical IV and a two-stage Huber baseline.
"""

from __future__ import annotations

import csv
import math
import time
import warnings
from dataclasses import dataclass, replace
from operator import itemgetter
from typing import Iterable, Mapping, Optional, Sequence

import numpy as np

from .core import (
    Dataset,
    EstimateReport,
    EstimationError,
    HyperParams,
)
from .models import (
    hte_design,
    logistic,
    model_class,
    scalar_treatment_design,
    two_stage_huber,
    two_stage_least_squares,
)
from .numerics import RandomSource
from .sever import iterated_gmm_sever

__all__ = [
    "gen_synthetic_hte",
    "gen_card_standin",
    "write_card_standin",
    "CARD_STANDIN_COLUMNS",
    "corrupt_all_ones",
    "corrupt_negation",
    "load_csv",
    "save_dataset_csv",
    "diagnose_assumptions",
    "derive_hyperparams",
    "robust_linear_estimate",
    "SweepConfig",
    "SweepCell",
    "sweep_cell",
    "FIT_FAILURES",
    "SweepRow",
    "run_sweep",
    "aggregate_rows",
    "write_rows_csv",
    "write_aggregate_csv",
    "write_lines",
    "format_float",
]

ESTIMATOR_NAMES = ("iterated-gmm-sever", "classical-iv", "two-stage-huber")
_MISSING_MARKERS = {"", "na", "nan", "null"}

# The plug-in learner tolerance gamma is the gradient level
# 2 lam^2 PRACTICE_LEARNER_TOL max(1, R0). Near the optimum the gradient is
# roughly 2 J^T J (w - w*), so a gradient below that level pins the
# parameter within that fraction of the search radius. The certified
# analysis only needs the looser criticality rate sigma L^1.5 sqrt(eps), but
# on weakly identified designs a point that critical can sit far along the
# flat valley of ||mean moment||^2 while the filter has nothing to remove.
# Only non-affine (logistic) fits run the learner: a linear fit takes each
# round's exact minimizer and reports gamma without stopping at it. Over 11
# logistic fits at eps 0.01 the rate was at least 150x the level, so the
# fit sets gamma to the level and estimates neither L nor sigma. The rate
# shrinks as sqrt(eps), so at that margin it could only have been tighter
# for eps below about 5e-7; such fits, eps = 0 among them, stop at the level
# too. (304 linear fits, measured when they still ran the learner, read at
# least 313x.)
PRACTICE_LEARNER_TOL = 1e-3


# ---------------------------------------------------------------------------
# data generation


def gen_synthetic_hte(n: int, d: int, rng: RandomSource):
    """Heterogeneous-treatment-effect DGP with an endogenous treatment.

    theta ~ N(0, I_d), X ~ N(0, I_d) rows, scalar instrument Z in {0, 1}
    (a fair coin), confounder U ~ N(0, 1). Treatment T is Bernoulli with
    success probability s(Z + sqrt(d) * U * mean(X)), response
    Y = <X, theta> T + U. The confounder enters both T and Y, so
    treated-only regression is biased and the instrument is needed.

    Returns (Dataset, theta).
    """
    if n < 1 or d < 1:
        raise ValueError("n and d must be positive")
    theta = rng.normal(d)
    X = rng.normal((n, d))
    z = (rng.uniform(n) < 0.5).astype(np.float64)
    U = rng.normal(n)
    xbar = X.mean(axis=1)
    p_treat = logistic(z + math.sqrt(d) * U * xbar)
    T = (rng.uniform(n) < p_treat).astype(np.float64)
    Y = (X @ theta) * T + U
    return Dataset(X=X, Y=Y, Z=z[:, None], T=T), theta


CARD_STANDIN_COLUMNS = {
    "response": "lwage",
    "treatment": "educ",
    "instruments": ["nearc4"],
    "covariates": ["exper", "expersq"],
}


def gen_card_standin(rng: RandomSource):
    """Synthetic stand-in with the schooling-returns schema, 3010 rows.

    Columns (lwage, educ, nearc4, exper, expersq): log wage, years of
    education (endogenous through latent ability), a binary proximity
    instrument, experience, and its square. The structural education effect
    is 0.10. Returns a dict of column name -> array, in schema order.
    """
    n = 3010
    ability = rng.normal(n)
    nearc4 = (rng.uniform(n) < 0.68).astype(np.float64)
    exper = np.floor(rng.uniform(n) * 21.0)
    expersq = exper * exper
    educ = 11.5 + 1.3 * nearc4 + 0.9 * ability + 0.8 * rng.normal(n)
    lwage = (
        4.6
        + 0.10 * educ
        + 0.05 * exper
        - 0.0012 * expersq
        + 0.45 * ability
        + 0.35 * rng.normal(n)
    )
    return {
        "lwage": lwage,
        "educ": educ,
        "nearc4": nearc4,
        "exper": exper,
        "expersq": expersq,
    }


def write_card_standin(path) -> None:
    """Write data/card_standin.csv's bytes: gen_card_standin at seed 20260815."""
    cols = gen_card_standin(RandomSource(20260815))
    rows = (",".join(map(format_float, row)) for row in zip(*cols.values()))
    write_lines(path, [",".join(cols), *rows])


# ---------------------------------------------------------------------------
# corruption attacks


def corrupt_all_ones(data: Dataset, eps: float, rng: RandomSource):
    """Replace floor(eps * n) uniformly chosen characteristic rows with ones.

    Instruments, treatment, and responses are untouched; the attack plants
    high-leverage rows along the all-ones direction. Returns (corrupted
    dataset, corrupted indices).
    """
    if not 0.0 <= eps < 1.0:
        raise ValueError(f"eps must lie in [0, 1), got {eps}")
    k = int(math.floor(eps * data.n))
    idx = rng.subset(data.n, k)
    X = data.X.copy()
    X[idx] = 1.0
    return Dataset(X=X, Y=data.Y, Z=data.Z, T=data.T), idx


def corrupt_negation(design: Dataset, eps: float, rng: RandomSource):
    """Shift floor(eps * n) responses so classical IV returns the negated fit.

    Works on an exactly identified linear IV design: with w0 the clean IV
    solution, the corrupted responses satisfy sum_C Z_i delta_i =
    -2 sum_i Z_i Y_i, which flips the moment equation's right-hand side.
    The shift is the minimum-norm solution of that underdetermined system;
    the corrupted index set is resampled (up to 20 times) if its instrument
    rows do not span. Returns (corrupted design, corrupted indices).
    """
    if design.p != design.d:
        raise ValueError(
            f"negation attack needs an exactly identified design, got p={design.p}, d={design.d}"
        )
    k = int(math.floor(eps * design.n))
    if k < design.p:
        raise ValueError(
            f"floor(eps * n) = {k} corrupted rows cannot span {design.p} instruments"
        )
    w0 = two_stage_least_squares(design)
    b = -2.0 * (design.Z.T @ design.Y)
    delta = None
    idx = None
    for _ in range(20):
        candidate = rng.subset(design.n, k)
        A = design.Z[candidate].T  # p x k
        gram = A @ A.T
        svals = np.linalg.svd(gram, compute_uv=False)
        if svals[0] > 0.0 and svals[-1] > 1e-12 * svals[0]:
            idx = candidate
            delta = A.T @ np.linalg.solve(gram, b)
            break
    if delta is None:
        raise EstimationError(
            "corrupted instrument rows stayed rank deficient after 20 resamples"
        )
    Y = design.Y.copy()
    Y[idx] += delta
    corrupted = Dataset(X=design.X, Y=Y, Z=design.Z, T=design.T)
    w_corr = two_stage_least_squares(corrupted)
    rel = np.linalg.norm(w_corr + w0) / max(np.linalg.norm(w0), 1e-300)
    if rel > 1e-8:
        raise EstimationError(
            f"negation attack failed its own identity check (rel err {rel:.3e})"
        )
    return corrupted, idx


# ---------------------------------------------------------------------------
# CSV in and out


def _as_name_list(value) -> list:
    if isinstance(value, str):
        return [value]
    return list(value)


def load_csv(path, columns: Mapping) -> Dataset:
    """Load a headered CSV into a Dataset by column roles.

    columns maps roles to header names: "response" (one name),
    "instruments" and "covariates" (name or list of names), optional
    "treatment". The file is read as UTF-8; a leading byte-order mark is
    skipped. Header names and cells are stripped of whitespace, and a name
    that appears twice in the header maps to its first column. A cell that
    reads empty, na, nan or null in any case is missing; a row too short to
    reach a mapped column, and a blank line, have missing cells. Any other
    cell is parsed by float(), so -nan, inf and 1_000 are numbers (a kept
    NaN or infinity then fails Dataset's finiteness check). Rows are
    checked in file order and each row's mapped cells in role order
    (response, treatment, instruments, covariates): the first cell that is
    missing drops the row, counted in one "dropped N rows with missing
    values" warning; the first cell that does not parse raises with its line
    and column, unless a missing cell came before it in its row.

    A clean file, whose mapped cells all parse as numbers other than NaN,
    is read with one bulk float() per mapped column. Any other file is read
    again by one loop that applies the rule above, row by row and cell by
    cell. That is slower: the bundled card file with every 10th response
    missing loads in about 1.7 times the clean file's time.
    """
    response = columns["response"]
    treatment = columns.get("treatment")
    instruments = _as_name_list(columns["instruments"])
    covariates = _as_name_list(columns["covariates"])
    wanted = [response] + ([treatment] if treatment else []) + instruments + covariates

    with open(path, "r", newline="", encoding="utf-8-sig") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError("no data rows") from None
        header = [h.strip() for h in header]
        for name in wanted:
            if name not in header:
                raise ValueError(f"column {name!r} not found in header")
        rows = list(reader)

    positions = [header.index(name) for name in wanted]
    try:
        # a short row or blank line raises IndexError; an unparseable cell,
        # or a missing marker other than nan, raises ValueError
        parsed = {
            pos: np.fromiter(map(float, map(itemgetter(pos), rows)), np.float64, len(rows))
            for pos in dict.fromkeys(positions)
        }
        clean = not any(np.isnan(column).any() for column in parsed.values())
    except (ValueError, IndexError):
        clean = False
    if clean:
        table = np.column_stack([parsed[pos] for pos in positions])
    else:
        records, dropped = [], 0
        for lineno, row in enumerate(rows, start=2):
            record = []
            for name, pos in zip(wanted, positions):
                cell = row[pos].strip() if pos < len(row) else ""
                if cell.lower() in _MISSING_MARKERS:
                    dropped += 1
                    break
                try:
                    record.append(float(cell))
                except ValueError:
                    raise ValueError(
                        f"line {lineno}, column {name!r}: cannot parse {cell!r}"
                    ) from None
            else:
                records.append(record)
        if dropped:
            warnings.warn(f"dropped {dropped} rows with missing values")
        table = np.array(records, dtype=np.float64)
    if len(table) == 0:
        raise ValueError("no data rows")

    z = 2 if treatment else 1
    x = z + len(instruments)
    return Dataset(X=table[:, x:], Y=table[:, 0], Z=table[:, z:x],
                   T=table[:, 1] if treatment else None)


def write_lines(path, lines: Iterable[str], header_lines: Iterable[str] = ()) -> None:
    """Write the header lines as '# ' comments, then the lines, one per line."""
    with open(path, "w", newline="\n") as handle:
        for line in header_lines:
            handle.write(f"# {line}\n")
        for line in lines:
            handle.write(f"{line}\n")


def format_float(x: float) -> str:
    """17 significant digits: enough to reproduce any float64 exactly."""
    if math.isnan(x):
        return "nan"
    return f"{x:.17g}"


def save_dataset_csv(path, data: Dataset) -> None:
    """Write a Dataset with generated column names (y, t, z*, x*)."""
    names = ["y"]
    cols = [data.Y]
    if data.T is not None:
        names.append("t")
        cols.append(data.T)
    for j in range(data.p):
        names.append(f"z{j + 1}")
        cols.append(data.Z[:, j])
    for j in range(data.d):
        names.append(f"x{j + 1}")
        cols.append(data.X[:, j])
    rows = (",".join(format_float(col[i]) for col in cols) for i in range(data.n))
    write_lines(path, [",".join(names), *rows])


# ---------------------------------------------------------------------------
# diagnostics and the plug-in hyperparameter rule


def diagnose_assumptions(model, w_ref: np.ndarray) -> dict:
    """Identification constants of model.data at w_ref, for `diagnose`.

    jacobian_sigma_min is the smallest singular value of the mean Jacobian
    (0.0 when p < d, as the Jacobian then has a null direction) and
    moment_norm is || E g(w_ref) ||, both over every row, read in place by
    the row-form kernels. A non-finite w_ref, mean Jacobian or moment norm
    raises EstimationError: the design overflows float64.
    """
    w_ref = np.asarray(w_ref, dtype=np.float64)
    J = model.row_mean_jacobian(model.data, w_ref)
    norm = float(np.linalg.norm(model.row_moments(model.data, w_ref).mean(axis=0)))
    if not (np.isfinite(w_ref).all() and np.isfinite(J).all() and math.isfinite(norm)):
        raise EstimationError("diagnostics overflow float64; rescale the columns")
    p, d = J.shape
    sigma_min = float(np.linalg.svd(J, compute_uv=False)[-1]) if p >= d else 0.0
    return {"jacobian_sigma_min": sigma_min, "moment_norm": norm}


def derive_hyperparams(model, eps: float) -> HyperParams:
    """Plug-in constants for a robust fit of model at corruption fraction eps.

    model is the single-index model on the (corrupted, rescaled) design,
    so a logistic fit gets logistic constants. The reference point w_ref is
    the classical IV estimate of model.data; a design it cannot identify
    raises its WeakInstrumentsError. lam is half the smallest singular value
    of the mean Jacobian at w_ref, floored at 1e-8 times max(1, the largest
    one); the search radius R0 is 4 max(1, ||w_ref||); and gamma is the
    PRACTICE_LEARNER_TOL level 2 lam^2 PRACTICE_LEARNER_TOL max(1, R0).
    eps outside [0, 1/2) raises ValueError.
    """
    design = model.data
    w_ref = two_stage_least_squares(design)
    J = model.row_mean_jacobian(design, w_ref)
    svals = np.linalg.svd(J, compute_uv=False)
    lam = max(0.5 * float(svals[-1]), 1e-8 * max(float(svals[0]), 1.0))
    R0 = 4.0 * max(1.0, float(np.linalg.norm(w_ref)))
    gamma = 2.0 * lam**2 * PRACTICE_LEARNER_TOL * max(1.0, R0)
    return HyperParams(eps=eps, R0=R0, gamma=gamma)


def _whitener(second: np.ndarray) -> np.ndarray:
    """Symmetric inverse square root of a block's second-moment matrix.

    Eigenvalues are floored at 1e-8 of the largest (positive: the gate only
    whitens a block with nonzero columns) so rank-deficient blocks yield a
    finite transform instead of amplifying null directions; such designs
    fail estimation later with a clear singularity error.
    """
    evals, evecs = np.linalg.eigh(second)
    evals = np.maximum(evals, 1e-8 * float(evals[-1]))
    return (evecs * evals**-0.5) @ evecs.T


# Full whitening is only worth its cost when columns are genuinely
# collinear (a squared term next to its base, an intercept next to a
# binary column: cosines 0.85+). It is computed from the observed rows,
# so on a near-orthogonal block it would also normalize away any planted
# rank-one corruption direction and hide the attack from the spectral
# filter; an eps-fraction of identical planted rows only pushes pairwise
# cosines to about eps, far below this gate.
_COLLINEARITY_GATE = 0.8


def _block_transform(columns: np.ndarray) -> np.ndarray:
    """Per-block reparameterization applied before the self-calibrating fit.

    Default is diagonal scaling to unit root-mean-square columns, which
    puts score coordinates in like units without depending on the joint
    column geometry. Only when the block shows strong collinearity (any
    off-diagonal cosine above the gate) is it fully whitened, since then the
    clean score covariance itself is so anisotropic that the spectral bounds
    would read it as corruption. The gate, the diagonal scale and _whitener
    read one second-moment matrix; the scale is the root of its diagonal,
    floored at 1e-8 of the largest. A column whose root-mean-square
    overflows float64 raises EstimationError, before any BLAS product.
    """
    # 2 n max|x|^2 bounds each column's sum of squares with room for
    # rounding, so only a block near overflow pays for the exact check
    peak = float(np.abs(columns).max(initial=0.0))
    if not (math.isfinite(2.0 * len(columns) * peak * peak)
            or np.isfinite(np.mean(columns**2, axis=0)).all()):
        raise EstimationError("column scale overflows float64; rescale the columns")
    second = columns.T @ columns / len(columns)
    norms = np.sqrt(np.diagonal(second))
    top = float(norms.max(initial=0.0))
    if top <= 0.0:
        return np.eye(columns.shape[1])
    norms = np.maximum(norms, 1e-8 * top)
    cos = second / np.outer(norms, norms)
    np.fill_diagonal(cos, 0.0)
    if float(np.max(np.abs(cos))) > _COLLINEARITY_GATE:
        return _whitener(second)
    return np.diag(1.0 / norms)


def robust_linear_estimate(
    design: Dataset,
    eps: float,
    rng: RandomSource,
    model_kind: str = "linear",
) -> EstimateReport:
    """Robust GMM fit of a linear or logistic IV design with plug-in constants.

    The feature and instrument blocks are first put through a linear
    reparameterization (only inner products X_i @ w enter the moments, so
    solutions map back exactly; inverted on output): columns are scaled to
    unit root-mean-square, and a block is fully whitened instead when its
    columns are strongly collinear. The filter bounds rely on this: they
    compare the top score-covariance direction against the rest of the
    spectrum, so clean anisotropy from collinear raw columns (a squared
    term next to its base, an intercept next to a binary column) would read
    as corruption, while whitening a well-conditioned block would normalize
    planted corruption directions away along with the clean structure.
    Constants come from derive_hyperparams on the rescaled model, and the
    fit is iterated_gmm_sever on the stream rng.child("est").

    Returns the EstimateReport with w_hat mapped back to the design's
    coordinates.
    """
    make_model = model_class(model_kind)
    wx = _block_transform(design.X)
    wz = _block_transform(design.Z)
    scaled = Dataset(X=design.X @ wx, Y=design.Y, Z=design.Z @ wz, T=design.T)
    model = make_model(scaled)
    hp = derive_hyperparams(model, eps)
    report = iterated_gmm_sever(model, hp, rng.child("est"))
    return replace(report, w_hat=wx @ report.w_hat)


# ---------------------------------------------------------------------------
# corruption sweeps


def _eps_label(eps: float) -> str:
    """The eps part of a cell's stream label; every committed seed hangs on it."""
    return f"{eps:.6g}"


@dataclass(frozen=True)
class SweepConfig:
    """One corruption sweep: a grid of eps values times repetitions.

    kind "synthetic" generates the HTE DGP per cell and records l2_error
    against the true effect vector; kind "semi" loads a fixed design from
    data_path, which it requires, and records the fitted ATE. eps_grid
    values differ in their first six significant digits, which label each
    cell's random stream, and estimators are one or more distinct names
    from ESTIMATOR_NAMES. The robust estimator fits each cell at its own
    eps with plug-in constants (robust_linear_estimate). The master seed is
    not part of the config: run_sweep and sweep_cell take it as an argument.
    """

    kind: str
    eps_grid: tuple
    repetitions: int
    estimators: tuple = ESTIMATOR_NAMES
    attack: str = "all-ones"
    n: int = 10000
    d: int = 20
    data_path: Optional[str] = None
    columns: Optional[Mapping] = None
    intercept: bool = True
    stamp_runtime: bool = False

    def __post_init__(self):
        object.__setattr__(self, "eps_grid", tuple(float(e) for e in self.eps_grid))
        object.__setattr__(self, "estimators", tuple(self.estimators))
        if self.kind not in ("synthetic", "semi"):
            raise ValueError(f"unknown sweep kind {self.kind!r}")
        if not self.eps_grid:
            raise ValueError("eps_grid is empty")
        for e in self.eps_grid:
            if not 0.0 < e < 0.5:
                raise ValueError(f"eps grid values must lie in (0, 0.5), got {e}")
        # _run_cell seeds each cell from its eps label, so two values that
        # share a label would run the same cells under two eps headings
        labels = {}
        for e in self.eps_grid:
            label = _eps_label(e)
            if label in labels:
                if labels[label] == e:
                    raise ValueError("eps_grid repeats a value")
                raise ValueError(
                    f"eps_grid values {labels[label]!r} and {e!r} share the "
                    f"cell stream eps={label}"
                )
            labels[label] = e
        if self.repetitions < 1:
            raise ValueError("repetitions must be at least 1")
        if not self.estimators:
            raise ValueError("estimators is empty")
        unknown = set(self.estimators) - set(ESTIMATOR_NAMES)
        if unknown:
            raise ValueError(f"unknown estimators: {sorted(unknown)}")
        if len(set(self.estimators)) < len(self.estimators):
            raise ValueError("estimators repeats a name")
        if self.n < 1 or self.d < 1:
            raise ValueError(f"n and d must be at least 1, got n={self.n}, d={self.d}")
        if self.attack not in ("all-ones", "negation", "none"):
            raise ValueError(f"unknown attack {self.attack!r}")
        if self.kind == "synthetic" and self.attack == "negation":
            raise ValueError("negation attack applies to semi-synthetic designs")
        if self.kind == "semi" and self.attack == "all-ones":
            raise ValueError("all-ones attack applies to synthetic characteristics")
        if self.kind == "semi" and self.data_path is None:
            raise ValueError("semi sweep requires data_path")


@dataclass(frozen=True)
class SweepRow:
    """One estimator evaluation; value None means the estimator failed."""

    epsilon: float
    estimator: str
    metric: str
    value: Optional[float]
    seed: int
    runtime_ms: float


def _semi_design(cfg: SweepConfig) -> Dataset:
    columns = cfg.columns if cfg.columns is not None else CARD_STANDIN_COLUMNS
    base = load_csv(cfg.data_path, columns)
    return scalar_treatment_design(base, intercept=cfg.intercept)


# the errors that make one estimator's fit of a sweep cell a failed row
FIT_FAILURES = (EstimationError, np.linalg.LinAlgError)


@dataclass(frozen=True)
class SweepCell:
    """One sweep cell before any fit: its random stream, the design every
    estimator sees, the true effect vector (None on a semi design) and the
    indices of the rows the attack planted (empty without one)."""

    rng: RandomSource
    design: Dataset
    theta: Optional[np.ndarray]
    planted: np.ndarray

    def robust_fit(self, eps: float) -> EstimateReport:
        """The sweep's robust fit of the cell, on its stream
        robust/iterated-gmm-sever."""
        stream = self.rng.child("robust/iterated-gmm-sever")
        return robust_linear_estimate(self.design, eps, stream)


def sweep_cell(cfg: SweepConfig, master_seed: int, eps: float, rep: int) -> SweepCell:
    """Cell (eps, rep) of cfg's sweep at master_seed, as run_sweep builds it."""
    cell_rng = RandomSource(master_seed).child(f"eps={_eps_label(eps)}/rep={rep}")
    planted = np.empty(0, dtype=np.int64)
    if cfg.kind == "synthetic":
        base, theta = gen_synthetic_hte(cfg.n, cfg.d, cell_rng.child("dgp"))
        if cfg.attack == "all-ones":
            base, planted = corrupt_all_ones(base, eps, cell_rng.child("attack"))
        design = hte_design(base)
    else:
        design, theta = _semi_design(cfg), None
        if cfg.attack == "negation":
            design, planted = corrupt_negation(design, eps, cell_rng.child("attack"))
    return SweepCell(cell_rng, design, theta, planted)


def _run_cell(cfg: SweepConfig, master_seed: int, eps: float, rep: int):
    cell = sweep_cell(cfg, master_seed, eps, rep)
    design, theta = cell.design, cell.theta
    metric = "l2_error" if cfg.kind == "synthetic" else "ate"

    rows = []
    for name in cfg.estimators:
        start = time.perf_counter()
        value: Optional[float] = None
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                if name == "classical-iv":
                    w = two_stage_least_squares(design)
                elif name == "two-stage-huber":
                    w = two_stage_huber(design)
                else:
                    w = cell.robust_fit(eps).w_hat
            if cfg.kind == "synthetic":
                value = float(np.linalg.norm(w - theta))
            else:
                value = float(w[0])
        except FIT_FAILURES:
            value = None
        runtime_ms = (time.perf_counter() - start) * 1000.0
        rows.append(
            SweepRow(
                epsilon=eps,
                estimator=name,
                metric=metric,
                value=value,
                seed=cell.rng.seed,
                runtime_ms=runtime_ms if cfg.stamp_runtime else 0.0,
            )
        )
    return rows


def run_sweep(cfg: SweepConfig, rng: RandomSource, jobs: int = 1):
    """Run every (eps, estimator, repetition) cell; failures become rows too.

    Cells are seeded by labeled children of rng, so any row can be re-run in
    isolation and the table is identical for a given master seed regardless
    of jobs. Rows come back ordered by (eps, estimator, repetition). The
    pool holds at most one worker per cell.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    cells = [(eps, rep) for eps in cfg.eps_grid for rep in range(cfg.repetitions)]
    master_seed = rng.seed
    workers = min(jobs, len(cells))
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [
                pool.submit(_run_cell, cfg, master_seed, eps, rep)
                for eps, rep in cells
            ]
            per_cell = [f.result() for f in futures]
    else:
        per_cell = [_run_cell(cfg, master_seed, eps, rep) for eps, rep in cells]

    # cells run in (eps, rep) order and each batch lists its estimators in
    # order, so a stable sort leaves the reps of each group in order
    rows = [row for batch in per_cell for row in batch]
    rows.sort(key=lambda r: (cfg.eps_grid.index(r.epsilon),
                             cfg.estimators.index(r.estimator)))
    return rows


def aggregate_rows(rows: Sequence[SweepRow]):
    """Per (eps, estimator) mean and standard error over successful rows."""
    groups = {}
    for row in rows:
        values = groups.setdefault((row.epsilon, row.estimator, row.metric), [])
        if row.value is not None:
            values.append(row.value)
    out = []
    for (eps, name, metric), values in groups.items():
        vals = np.asarray(values, dtype=np.float64)
        count = len(values)
        mean = float(vals.mean()) if count else math.nan
        stderr = float(vals.std(ddof=1) / math.sqrt(count)) if count > 1 else math.nan
        out.append({"epsilon": eps, "estimator": name, "metric": metric,
                    "mean": mean, "stderr": stderr, "count": count})
    return out


def write_rows_csv(path, rows: Sequence[SweepRow], header_lines: Sequence[str] = ()):
    body = ["epsilon,estimator,metric,value,seed,runtime_ms"]
    for r in rows:
        value = "failed" if r.value is None else format_float(r.value)
        body.append(
            f"{format_float(r.epsilon)},{r.estimator},{r.metric},"
            f"{value},{r.seed},{format_float(r.runtime_ms)}"
        )
    write_lines(path, body, header_lines)


def write_aggregate_csv(path, aggregates, header_lines: Sequence[str] = ()):
    body = ["epsilon,estimator,metric,mean,stderr,count"]
    for a in aggregates:
        body.append(
            f"{format_float(a['epsilon'])},{a['estimator']},{a['metric']},"
            f"{format_float(a['mean'])},{format_float(a['stderr'])},{a['count']}"
        )
    write_lines(path, body, header_lines)
