"""Robust GMM estimation: the sever loop and amplification.

gmm_sever screens response outliers, then alternates a minimization of
f(w) = ||mean moment||^2 over the ball of radius hp.R0 around the origin
with two self-calibrated spectral filter passes (projected Jacobians, then
raw moments), minimizing again whenever a pass removes samples. For an
affine model (linear IV) f is a convex quadratic, and every round takes its
exact minimizer over the ball (_exact_step: one SVD and, when the ball
binds, a scalar multiplier); only non-affine models run the constrained
learner, which returns an approximate critical point. The loop gathers the
active set's rows once per set, after the screen and after each pass that
removes rows, and every kernel of a round reads them through the model's
row forms. amplified_gmm_sever repeats that with fresh randomness until a
run keeps enough samples, and iterated_gmm_sever is the plug-in fit's
sever stage: one amplified run. Every layer returns the one
core.EstimateReport.
"""

from __future__ import annotations

import math
from dataclasses import replace
from typing import Optional

import numpy as np

from .core import (
    ActiveSet,
    EstimateReport,
    EstimationError,
    FilterExhaustedError,
    HyperParams,
)
from .filtering import robust_score_bound, spectral_filter
from .models import Rows, SingleIndexIVModel
from .numerics import (
    CriticalPointProblem,
    RandomSource,
    median,
    projected_gradient_critical_point,
)

__all__ = [
    "ACCEPT_EPS_MULT",
    "AMPLIFY_REPS",
    "PRACTICE_JAC_SLACK_FACTOR",
    "PRACTICE_RESPONSE_CAP",
    "PRACTICE_SLACK",
    "gmm_sever",
    "amplified_gmm_sever",
    "iterated_gmm_sever",
]

# Filter slack of gmm_sever's passes: each pass compares the variance along
# its top direction (the top covariance eigenvalue) against the mean of the
# remaining eigenvalues, so slack is the tolerated top-to-bulk spectral
# ratio before samples are removed. Clean designs stay near 1.4 on raw
# moments even with heavy tails, while planted corruptions at eps >= 0.05
# push the ratio past 4; 2.0 leaves a 1.4x clean margin and removes
# measurably more of the planted mass at high eps than looser settings.
PRACTICE_SLACK = 2.0

# The projected-Jacobian pass fires at this multiple of PRACTICE_SLACK.
# Jacobian rows are feature rows scaled by a projected instrument, so their
# covariance is anisotropic even on clean rows: on the semi-synthetic
# negation design, once the response screen has removed every planted row,
# the top-to-bulk eigenvalue ratio of the Jacobian scores is 2.2 at the
# median, 6.0 at the 90th percentile and up to 8.0 over 600 fits, where raw
# moments sit near 1.4. A firing level inside that range strips clean rows
# pass after pass and can exhaust the sample set; at 5 times PRACTICE_SLACK
# (10) the pass stays quiet on clean rows, while the moment pass, which does
# most of the planted-row removal on synthetic designs, keeps
# PRACTICE_SLACK.
PRACTICE_JAC_SLACK_FACTOR = 5.0

# Residuals at the ball center more than this many median absolute
# deviations from their median are removed before the filter loop starts.
# Response-side corruptions large enough to flip the fitted sign sit
# hundreds of scaled deviations out while clean heavy-tailed designs stay
# within a few dozen; corruption spread evenly across moment directions is
# invisible to the spectral shape test, and once the learner has absorbed it
# into the fit the residual gap closes, so the screen runs at the center,
# where shifts show at full size. Residuals are continuous when responses
# are, so the scale estimate has no point masses to break it.
PRACTICE_RESPONSE_CAP = 60.0

# A filter pass skips when the quantity it tests is at most _ROUNDOFF_FLOOR
# times the squared size of a moment row's signal, the screened residuals'
# mean squared spread about their median (their mean square when every one
# sits at the median) times the mean squared instrument row: the moment pass
# tests the mean squared moment row, which an exact fit of a noiseless
# design leaves at roundoff, and the projected-Jacobian pass the squared
# mean moment, which an exactly identified system solved to machine
# precision leaves at roundoff. The bulk-spectrum bound is scale-free, so on
# roundoff it would compare roundoff with roundoff, and whether it fired
# would depend on the BLAS kernel. The squared mean moment never exceeds the
# mean squared row, so the Jacobian pass only runs where the moment pass
# does. Against that signal scale, exact fits of noiseless designs read
# below 1e-26; on the desk, paper-scale and semi designs the mean squared
# row reads 0.03 to 0.7, and the squared mean moment after an exactly
# identified solve below 1e-28. The screen runs first, so a response it
# drops cannot inflate the scale, and the spread is taken about the median,
# so shifting every response does not move it.
_ROUNDOFF_FLOOR = 1e-20

# amplified_gmm_sever accepts a repetition as soon as its final set keeps at
# least (1 - ACCEPT_EPS_MULT * eps) * n samples, and makes at most
# AMPLIFY_REPS of them. Since the survival floor is ceil(2n/3), the
# acceptance size binds only for eps < 1/30; at larger eps a further run is
# a retry after an abort. With two runs, 1 of 40,000 desk-preset fits (2,000
# sweeps) aborted on both, at eps 0.3; each of the five such cells known fits
# on a third run, so a fit makes up to three.
ACCEPT_EPS_MULT = 10.0
AMPLIFY_REPS = 3


def _affine_terms(model: SingleIndexIVModel, rows: Rows):
    """u0 = E_S g(0) and the constant mean Jacobian J of an affine model on
    an active set S's gathered rows, so that E_S g(w) = u0 + J w for every w."""
    zero = np.zeros(model.param_dim)
    u0 = model.row_moments(rows, zero).mean(axis=0)
    return u0, model.row_mean_jacobian(rows, zero)


def _moment_objective(model: SingleIndexIVModel, rows: Rows):
    """f(w) = ||E_S g(w)||^2 with gradient 2 (E_S grad g)^T (E_S g), the
    learner's objective for a non-affine model on an active set S's
    gathered rows."""

    def objective_grad(w: np.ndarray):
        u = model.row_moments(rows, w).mean(axis=0)
        grad = 2.0 * (model.row_mean_jacobian(rows, w).T @ u)
        return float(u @ u), grad

    return objective_grad


# Singular directions of J at or below this fraction of the size of the
# per-row Jacobians (row_scale in gmm_sever) carry no step. The scale is
# absolute on purpose: a J that is pure cancellation roundoff (instrument
# rows in exact +/- pairs) can have a tame condition number
# sigma_max / sigma_min, and stepping along it moves w by O(1) on a moment
# that is zero for every w. That J reads 4e-18 to 3e-17 of the per-row size;
# the rescaled desk, paper-scale and semi designs read 0.02 to 0.12.
_SOLVE_RTOL = 1e-8


def _exact_step(u0: np.ndarray, J: np.ndarray, row_scale: float, radius: float):
    """The minimizer of ||u0 + J w||^2 over the ball ||w|| <= radius.

    With J = U diag(s) V^T (thin SVD) and c = -U^T u0, the step is
    w(mu) = V (s c / (s^2 + mu)) over the directions with s above
    _SOLVE_RTOL * row_scale; the others stay at zero, so a roundoff J gives
    the origin and k < p the minimum-norm least-squares solution. mu = 0
    unless w(0) leaves the ball; then ||w(mu)|| falls as mu grows and
    mu = ||s c|| / radius is feasible, so bisection finds ||w(mu)|| = radius
    (Moré & Sorensen 1983). Raises EstimationError on a non-finite system.
    """
    if not (np.isfinite(J).all() and np.isfinite(u0).all() and math.isfinite(row_scale)):
        raise EstimationError(
            "the sever step's moment system overflows float64; rescale the columns"
        )
    U, s, Vt = np.linalg.svd(J, full_matrices=False)
    keep = s > _SOLVE_RTOL * row_scale
    s, Vt = s[keep], Vt[keep]
    sc = s * -(U[:, keep].T @ u0)
    s2 = s * s
    w = sc / s2
    if np.linalg.norm(w) > radius:
        lo, hi = 0.0, float(np.linalg.norm(sc)) / radius
        while lo < (mid := 0.5 * (lo + hi)) < hi:  # until lo, hi are adjacent
            lo, hi = (mid, hi) if np.linalg.norm(sc / (s2 + mid)) > radius else (lo, mid)
        w = sc / (s2 + hi)
    return Vt.T @ w


def gmm_sever(
    model: SingleIndexIVModel, hp: HyperParams, rng: RandomSource
) -> EstimateReport:
    """Run the filter-until-stable sever loop on the full sample.

    Residuals at the origin more than PRACTICE_RESPONSE_CAP MADs out are
    screened first. Each round then minimizes over the ball of radius hp.R0
    around the origin: an affine model's rounds take the exact minimizer
    (_exact_step) and never reach the learner; other models run the
    learner, which stops at hp.gamma (learner_tolerance_unmet counts the
    calls that missed it, so it reads 0 on affine fits). A pass whose
    scores are roundoff (_ROUNDOFF_FLOOR) is skipped. Each pass then
    self-calibrates to the bulk of its score covariance spectrum (mean of
    the non-top eigenvalues) at PRACTICE_SLACK, the Jacobian pass at
    PRACTICE_JAC_SLACK_FACTOR times that, so it fires only when one
    direction stands out against the rest. The paper's certified bounds
    (L^2 ||u||^2 for projected Jacobians, sigma^2 L + 4 L^2 R0^2 for raw
    moments) hold for every parameter in the search ball but can exceed
    the variance the good rows actually show by orders of magnitude on real
    designs, hiding structured corruptions of ordinary norm; the bulk
    spectrum tracks the clean rows at the current iterate, at the price of
    a blind spot for corruptions spread evenly across directions.

    Aborts with FilterExhaustedError once fewer than max(1, ceil(2n/3))
    samples survive; each learner call is warm-started from the previous
    round's point.
    """
    n = model.n_samples
    origin = np.zeros(model.param_dim)
    S = ActiveSet.full(n)
    floor = max(1, math.ceil(2 * n / 3))

    def shrink(kept: ActiveSet) -> ActiveSet:
        if len(kept) < floor:
            raise FilterExhaustedError(
                f"filter exhausted sample set: {len(kept)} of {n} remain"
            )
        return kept

    if model.affine:
        # the per-row Jacobians are the rank-one f'(0) Z_i X_i^T; the product
        # of the root-mean-square row norms of f'(0) Z and X bounds their mean
        # Frobenius norm, and is the absolute scale _exact_step reads
        sloped, X = model.row_sloped_instruments(model.data, origin), model.data.X
        row_scale = math.sqrt(np.vdot(sloped, sloped) * np.vdot(X, X)) / n

    events = []
    unmet = 0
    warm: Optional[np.ndarray] = None
    rounds = 0

    # a residual at the center reads its own row only, so one evaluation over
    # every sample serves each screen pass, subset by that pass's keep mask
    res = model.row_residuals(model.data, origin)
    while True:
        med = float(median(res))
        dev = np.abs(res - med)
        mad = float(median(dev))
        if mad <= 0.0:
            break
        keep_mask = dev <= PRACTICE_RESPONSE_CAP * mad
        if keep_mask.all():
            break
        S = shrink(S.subset(keep_mask))
        res = res[keep_mask]
        events.append((0, "response", int((~keep_mask).sum()), float(dev.max() / mad)))
    # the roundoff level of both passes (_ROUNDOFF_FLOOR), from the screened
    # residuals at the center (their square when all sit at the median) and
    # every instrument row
    Z = model.data.Z
    spread = float(dev @ dev) or float(res @ res)
    roundoff = _ROUNDOFF_FLOOR * spread / len(S) * float(np.vdot(Z, Z)) / n

    # S's rows, gathered once per active set: after the screen and after each
    # pass that removes rows
    rows = model.gather(S.indices)
    while True:
        rounds += 1
        if model.affine:
            w = _exact_step(*_affine_terms(model, rows), row_scale, hp.R0)
        else:
            prob = CriticalPointProblem(
                objective_grad=_moment_objective(model, rows),
                center=origin,
                radius=hp.R0,
                gamma=hp.gamma,
                x0=warm,
            )
            learned = projected_gradient_critical_point(prob)
            unmet += not learned.tolerance_met
            w = learned.x
        moment_scores = model.row_moments(rows, w)
        u = moment_scores.mean(axis=0)
        # one sum over the contiguous column-major matrix: it only meets the
        # roundoff floor, from which every measured design sits a factor of
        # 1e6 or more away, so the summation order cannot move the decision
        mom_scale = float(np.sum(moment_scores * moment_scores)) / len(S)
        passes = []
        if mom_scale > roundoff:
            passes.append(("moment", "mom", moment_scores, PRACTICE_SLACK))
            # a mean moment at roundoff is harmless at this iterate, and the
            # raw-moment pass is the active defense
            if float(u @ u) > roundoff:
                jac_scores = model.row_jacobian_dot(rows, w, u)
                jac_slack = PRACTICE_SLACK * PRACTICE_JAC_SLACK_FACTOR
                passes.insert(0, ("jacobian", "jac", jac_scores, jac_slack))
        for kind, label, scores, slack in passes:
            out = spectral_filter(
                scores, S, robust_score_bound, rng.child(f"{label}-{rounds}"), slack
            )
            events.append((rounds, kind, len(out.removed), out.mean_score))
            if len(out.removed) > 0:
                break
        else:
            diagnostics = {
                "gamma": hp.gamma,
                "learner_tolerance_unmet": float(unmet),
                "outer_rounds": 1.0,
            }
            return EstimateReport(w, S, rounds, tuple(events), diagnostics)
        S = shrink(out.kept)
        rows = model.gather(S.indices)
        warm = w


def amplified_gmm_sever(
    model: SingleIndexIVModel, hp: HyperParams, rng: RandomSource
) -> EstimateReport:
    """Repeat gmm_sever with fresh child streams until a run keeps enough.

    A run is accepted as soon as its final set has at least
    (1 - ACCEPT_EPS_MULT * hp.eps) * n samples. After AMPLIFY_REPS
    repetitions the run with the largest surviving set is returned instead.
    Aborted repetitions only propagate if every repetition aborts. The
    returned report's outer_rounds diagnostic counts the repetitions made,
    so a fit retried after one or two aborts reads 2 or 3.
    """
    n = model.n_samples
    accept_size = (1.0 - ACCEPT_EPS_MULT * hp.eps) * n
    best: Optional[EstimateReport] = None
    abort: Optional[FilterExhaustedError] = None

    for rep in range(AMPLIFY_REPS):
        try:
            result = gmm_sever(model, hp, rng.child(f"rep-{rep}"))
        except FilterExhaustedError as err:
            abort = err
            continue
        if len(result.final_set) >= accept_size:
            best = result
            break
        if best is None or len(result.final_set) > len(best.final_set):
            best = result

    if best is None:
        assert abort is not None
        raise abort
    # rep is the last repetition made, AMPLIFY_REPS - 1 unless one was accepted
    runs = float(rep + 1)
    return replace(best, diagnostics={**best.diagnostics, "outer_rounds": runs})


def iterated_gmm_sever(
    model: SingleIndexIVModel, hp: HyperParams, rng: RandomSource
) -> EstimateReport:
    """The plug-in fit's sever stage: amplified_gmm_sever on the stream
    rng.child("outer-1").

    It stays a name of its own because perfbench/tracer.py times the
    fit's sever stage by wrapping it; the "outer-1" label keeps every
    committed estimate where it is.
    """
    return amplified_gmm_sever(model, hp, rng.child("outer-1"))
