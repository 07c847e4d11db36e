"""End-to-end acceptance battery.

Each test exercises one numbered shipping criterion at its stated tolerance
and prints a single PASS/FAIL line with the measured quantities (visible
under pytest -s; the assertion carries the same text otherwise).
"""

import math
import time
from pathlib import Path

import numpy as np
import pytest

from robustgmm import (
    CARD_STANDIN_COLUMNS,
    LinearIVModel,
    LogisticIVModel,
    RandomSource,
    load_csv,
    scalar_treatment_design,
    two_stage_least_squares,
)
from robustgmm.cli import main as cli_main
from robustgmm.core import ActiveSet
from robustgmm.experiments import (
    SweepConfig,
    aggregate_rows,
    corrupt_negation,
    gen_synthetic_hte,
    run_sweep,
)
from robustgmm.filtering import spectral_filter
from robustgmm.models import hte_design
from robustgmm.numerics import (
    CriticalPointProblem,
    feasible_descent_norm,
    finite_diff_jacobian,
    projected_gradient_critical_point,
)

from conftest import make_linear_dataset

DATA_CSV = Path(__file__).resolve().parents[1] / "data" / "card_standin.csv"

BOUND_CONST = 3.0 * math.sqrt(48.0)  # 20.784609690826528


def report(number, name, ok, detail):
    line = f"{'PASS' if ok else 'FAIL'} criterion {number} ({name}): {detail}"
    print(line, flush=True)
    assert ok, line


def mean_of(agg, eps, estimator):
    for g in agg:
        if g["estimator"] == estimator and abs(g["epsilon"] - eps) < 1e-12:
            return g["mean"]
    raise KeyError((eps, estimator))


def test_criterion_01_filter_stability():
    start = time.monotonic()
    master = RandomSource(100)
    violations = 0
    no_removal = 0
    n, k, eps = 200, 10, 0.1
    n_bad = int(eps * n)
    for trial in range(1000):
        sub = master.child(f"trial-{trial}")
        scale = 0.2 + 0.6 * float(sub.uniform())  # population covariance <= I
        good = scale * sub.normal((n - n_bad, k))
        direction = sub.normal(k)
        direction /= np.linalg.norm(direction)
        # per-trial scale spanning 1e-3..1e3 so roughly half the trials stay
        # below the firing threshold and actually exercise the stability bound
        dist_scale = 10.0 ** (float(sub.uniform()) * 6.0 - 3.0)
        dists = dist_scale * (0.5 + 0.5 * sub.uniform(n_bad))
        bad = good.mean(axis=0) + dists[:, None] * direction
        vals = np.vstack([good, bad])
        M = 10.0 ** (float(sub.uniform()) * 2.0 - 1.0)
        out = spectral_filter(vals, ActiveSet.full(n), M, sub.child("f"))
        if out.threshold is None:
            no_removal += 1
            gap = float(np.linalg.norm(vals.mean(axis=0) - good.mean(axis=0)))
            op = float(np.linalg.eigvalsh(np.cov(good.T, bias=True))[-1])
            if gap > BOUND_CONST * math.sqrt((M + op) * eps):
                violations += 1
    elapsed = time.monotonic() - start
    ok = violations == 0 and elapsed < 30.0
    report(
        1,
        "filter stability",
        ok,
        f"{violations} violations in {no_removal} no-removal outcomes "
        f"of 1000 trials, {elapsed:.1f}s (< 30s)",
    )


def test_criterion_02_filter_super_martingale():
    master = RandomSource(200)
    n, k = 120, 4
    # I_good = {0..99} (5n/6), S = 85 good + 15 bad rows (|S| = 100 >= 2n/3)
    active = ActiveSet(np.concatenate([np.arange(85), np.arange(100, 115)]))
    good_scores = 0.8 * master.normal((85, k))  # covariance <= I = M
    direction = master.normal(k)
    direction /= np.linalg.norm(direction)
    bad_scores = 30.0 * direction + 0.5 * master.normal((15, k))
    vals = np.vstack([good_scores, bad_scores])
    base_sym = 15 + (100 - 85)  # |S delta I_good| = 30

    sym_diffs = np.empty(10000)
    for i in range(10000):
        out = spectral_filter(vals, active, 1.0, master.child(f"draw-{i}"))
        kept = out.kept.indices
        bad_kept = int((kept >= 100).sum())
        good_kept = int((kept < 100).sum())
        sym_diffs[i] = bad_kept + (100 - good_kept)
    mean = float(sym_diffs.mean())
    stderr = float(sym_diffs.std(ddof=1) / math.sqrt(len(sym_diffs)))
    ok = mean <= base_sym + 3.0 * stderr
    report(
        2,
        "filter super-martingale",
        ok,
        f"MC mean |S'dIg| = {mean:.3f} <= {base_sym} + 3*{stderr:.4f} "
        f"over 10000 threshold draws",
    )


def test_criterion_03_jacobian_correctness():
    src = RandomSource(300)
    lin, _ = make_linear_dataset(seed=301, n=60, d=4, p=4, noise=0.5)
    logd, _ = make_linear_dataset(seed=302, n=60, d=4, p=4, noise=0.5)
    hte, _ = gen_synthetic_hte(60, 3, src.child("hte"))
    models = [
        LinearIVModel(lin),
        LogisticIVModel(logd),
        LinearIVModel(hte_design(hte, "full")),
    ]
    worst = 0.0
    for m, model in enumerate(models):
        for j in range(100):
            sub = src.child(f"pair-{m}-{j}")
            idx = np.array([int(sub.integers(0, model.n_samples))])
            w = 0.5 * sub.normal(model.param_dim)
            jac = model.mean_jacobian_over(idx, w)
            fd = finite_diff_jacobian(lambda v: model.moments(idx, v)[0], w, 1e-5)
            rel = float(
                np.linalg.norm(fd - jac) / max(np.linalg.norm(jac), 1e-8)
            )
            worst = max(worst, rel)
    ok = worst <= 1e-5
    report(
        3,
        "jacobian finite differences",
        ok,
        f"worst rel err {worst:.2e} <= 1e-5 over 3 models x 100 pairs",
    )


def test_criterion_04_learner_contract():
    src = RandomSource(400)
    gamma = 1e-7
    worst_excess = 0.0
    for trial in range(50):
        sub = src.child(f"quad-{trial}")
        d = 2 + int(sub.integers(0, 5))
        B = sub.normal((d + 1, d))
        H = B.T @ B / (d + 1) + 0.1 * np.eye(d)
        a = 2.0 * sub.normal(d)
        center = sub.normal(d)
        radius = 0.3 + 2.7 * float(sub.uniform())

        def fg(w, H=H, a=a):
            diff = w - a
            return float(diff @ H @ diff), 2.0 * (H @ diff)

        prob = CriticalPointProblem(fg, center, radius, gamma)
        res = projected_gradient_critical_point(prob)
        assert np.linalg.norm(res.x - center) <= radius + 1e-12
        _, grad = fg(res.x)
        crit = feasible_descent_norm(grad, res.x, center, radius)
        worst_excess = max(worst_excess, crit - gamma)

    def fg_simple(w, a):
        diff = w - a
        return float(diff @ diff), 2.0 * diff

    interior = projected_gradient_critical_point(
        CriticalPointProblem(
            lambda w: fg_simple(w, np.array([0.2, -0.1])), np.zeros(2), 1.0, 1e-9
        )
    )
    interior_err = float(np.linalg.norm(interior.x - [0.2, -0.1]))
    boundary = projected_gradient_critical_point(
        CriticalPointProblem(
            lambda w: fg_simple(w, np.array([3.0, 4.0])), np.zeros(2), 1.0, 1e-9
        )
    )
    boundary_err = float(np.linalg.norm(boundary.x - [0.6, 0.8]))
    ok = worst_excess <= 1e-9 and interior_err <= 1e-6 and boundary_err <= 1e-6
    report(
        4,
        "learner contract",
        ok,
        f"50/50 quadratics gamma-critical (worst excess {worst_excess:.1e}); "
        f"interior err {interior_err:.1e}, boundary err {boundary_err:.1e} <= 1e-6",
    )


def test_criterion_05_negation_identity():
    design = scalar_treatment_design(load_csv(DATA_CSV, CARD_STANDIN_COLUMNS))
    w_clean = two_stage_least_squares(design)
    src = RandomSource(5000)
    worst = 0.0
    for eps in (0.05, 0.10, 0.15):
        corrupted, _ = corrupt_negation(design, eps, src.child(f"eps={eps}"))
        w_corr = two_stage_least_squares(corrupted)
        rel = float(
            np.linalg.norm(w_corr + w_clean) / np.linalg.norm(w_clean)
        )
        worst = max(worst, rel)
    ok = worst <= 1e-8
    report(
        5,
        "negation attack identity",
        ok,
        f"worst rel err {worst:.2e} <= 1e-8 at eps in {{0.05, 0.10, 0.15}} "
        f"on the n={design.n} stand-in",
    )


def test_criterion_06_synthetic_sweep_ordering():
    start = time.monotonic()
    cfg = SweepConfig(
        kind="synthetic",
        eps_grid=(0.05, 0.1, 0.2, 0.3),
        repetitions=5,
        seed=1001,
        n=2000,
        d=10,
    )
    agg = aggregate_rows(run_sweep(cfg, RandomSource(1001)))
    rob = {e: mean_of(agg, e, "iterated-gmm-sever") for e in cfg.eps_grid}
    iv = {e: mean_of(agg, e, "classical-iv") for e in cfg.eps_grid}
    hub = {e: mean_of(agg, e, "two-stage-huber") for e in cfg.eps_grid}
    ordering = all(
        rob[e] <= 0.5 * iv[e] and rob[e] <= hub[e] for e in (0.1, 0.2, 0.3)
    )
    growth = rob[0.3] / rob[0.05]
    elapsed = time.monotonic() - start
    ok = ordering and growth < 2.0 and elapsed < 300.0
    report(
        6,
        "synthetic sweep ordering",
        ok,
        f"robust {[round(rob[e], 4) for e in cfg.eps_grid]} vs IV "
        f"{[round(iv[e], 4) for e in cfg.eps_grid]} vs Huber "
        f"{[round(hub[e], 4) for e in cfg.eps_grid]}; growth {growth:.3f} < 2; "
        f"{elapsed:.0f}s (< 300s)",
    )


def test_criterion_07_sqrt_eps_scaling():
    cfg = SweepConfig(
        kind="synthetic",
        eps_grid=(0.01, 0.16),
        repetitions=10,
        seed=7001,
        n=5000,
        d=5,
        estimators=("iterated-gmm-sever",),
    )
    agg = aggregate_rows(run_sweep(cfg, RandomSource(7001)))
    ratio = mean_of(agg, 0.16, "iterated-gmm-sever") / mean_of(
        agg, 0.01, "iterated-gmm-sever"
    )
    ok = 1.5 <= ratio <= 8.0
    report(
        7,
        "sqrt(eps) error scaling",
        ok,
        f"mean_error(0.16)/mean_error(0.01) = {ratio:.3f} in [1.5, 8] "
        f"(ideal 4) over 10 reps",
    )


def test_criterion_08_no_corruption_sanity():
    cfg = SweepConfig(
        kind="synthetic",
        eps_grid=(0.02,),
        repetitions=10,
        seed=8000,
        n=2000,
        d=10,
        attack="none",
        estimators=("iterated-gmm-sever", "classical-iv"),
    )
    agg = aggregate_rows(run_sweep(cfg, RandomSource(8000)))
    ratio = mean_of(agg, 0.02, "iterated-gmm-sever") / mean_of(
        agg, 0.02, "classical-iv"
    )
    ok = ratio <= 1.5
    report(
        8,
        "no-corruption sanity",
        ok,
        f"clean robust/IV error ratio {ratio:.3f} <= 1.5 at eps-nominal 0.02 "
        f"over 10 reps",
    )


def test_criterion_09_semi_synthetic_sign_recovery():
    design = scalar_treatment_design(load_csv(DATA_CSV, CARD_STANDIN_COLUMNS))
    ref = float(two_stage_least_squares(design)[0])  # uncorrupted ATE
    cfg = SweepConfig(
        kind="semi",
        eps_grid=(0.05, 0.10, 0.15),
        repetitions=10,
        seed=9000,
        attack="negation",
        estimators=("iterated-gmm-sever", "classical-iv"),
        data_path=str(DATA_CSV),
    )
    rows = run_sweep(cfg, RandomSource(9000))
    in_band = {}
    iv_negated = True
    for eps in cfg.eps_grid:
        rob_vals = [
            r.value
            for r in rows
            if r.estimator == "iterated-gmm-sever" and r.epsilon == eps
        ]
        in_band[eps] = sum(
            1
            for v in rob_vals
            if v is not None
            and np.sign(v) == np.sign(ref)
            and abs(v - ref) <= 0.25 * abs(ref)
        )
        iv_vals = [
            r.value
            for r in rows
            if r.estimator == "classical-iv" and r.epsilon == eps
        ]
        iv_negated = iv_negated and all(
            v is not None and abs(v + ref) <= 1e-5 * abs(ref) for v in iv_vals
        )
    ok = all(c >= 8 for c in in_band.values()) and iv_negated
    report(
        9,
        "semi-synthetic sign recovery",
        ok,
        f"robust ATE within 25% of {ref:.4f} in "
        f"{[in_band[e] for e in cfg.eps_grid]}/10 runs at eps {list(cfg.eps_grid)}; "
        f"classical IV exactly negated: {iv_negated}",
    )


def test_criterion_10_byte_identical_reruns(tmp_path):
    identical = []

    synth = ["synth-sweep", "--seed", "77", "--set", "preset=desk",
             "--set", "n=150", "--set", "d=2", "--set", "eps_grid=0.1",
             "--set", "reps=2"]
    a, b = tmp_path / "synth_a.csv", tmp_path / "synth_b.csv"
    assert cli_main(synth + ["--out", str(a)]) == 0
    assert cli_main(synth + ["--out", str(b)]) == 0
    identical.append(a.read_bytes() == b.read_bytes())
    identical.append(
        (tmp_path / "synth_a.agg.csv").read_bytes()
        == (tmp_path / "synth_b.agg.csv").read_bytes()
    )

    semi = ["semi-sweep", "--seed", "78", "--set", f"input={DATA_CSV}",
            "--set", "eps_grid=0.05", "--set", "reps=1"]
    c, d = tmp_path / "semi_a.csv", tmp_path / "semi_b.csv"
    assert cli_main(semi + ["--out", str(c)]) == 0
    assert cli_main(semi + ["--out", str(d)]) == 0
    identical.append(c.read_bytes() == d.read_bytes())

    est = ["estimate", "--seed", "79", "--set", f"input={DATA_CSV}",
           "--set", "model=scalar", "--set", "eps=0.05",
           "--set", f"col_response={CARD_STANDIN_COLUMNS['response']}",
           "--set", f"col_treatment={CARD_STANDIN_COLUMNS['treatment']}",
           "--set", "col_instruments=nearc4",
           "--set", "col_covariates=exper,expersq"]
    e, f = tmp_path / "est_a.out", tmp_path / "est_b.out"
    assert cli_main(est + ["--out", str(e)]) == 0
    assert cli_main(est + ["--out", str(f)]) == 0
    identical.append(e.read_bytes() == f.read_bytes())

    ok = all(identical)
    report(
        10,
        "byte-identical reruns",
        ok,
        f"synth rows/agg, semi rows, estimate report: "
        f"{['identical' if x else 'DIFFERENT' for x in identical]}",
    )
