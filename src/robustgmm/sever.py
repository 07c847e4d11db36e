"""Robust GMM estimation: the sever loop, amplification, and radius iteration.

gmm_sever alternates a constrained learner on f(w) = ||mean moment||^2 with
two spectral filter passes (projected Jacobians, then raw moments) and
restarts the learner whenever a pass removes samples. amplified_gmm_sever
repeats that with fresh randomness until a run keeps enough samples; a
plug-in fit is one amplified run under the practice policy. For fixed
constants iterated_gmm_sever also shrinks the search radius around
successive estimates until the radius recursion stops contracting.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .core import (
    ActiveSet,
    EstimateReport,
    FilterExhaustedError,
    HyperParams,
    MomentModel,
)
from .filtering import FILTER_SLACK, robust_score_bound, spectral_filter
from .numerics import (
    CriticalPointProblem,
    RandomSource,
    projected_gradient_critical_point,
)

__all__ = [
    "ACCEPT_EPS_MULT",
    "PRACTICE_JAC_SLACK_FACTOR",
    "PRACTICE_RESPONSE_CAP",
    "PRACTICE_SLACK",
    "SeverResult",
    "gmm_sever",
    "amplified_gmm_sever",
    "iterated_gmm_sever",
    "next_radius",
]

# Filter slack of the practice policy (gmm_sever with practice=True), which
# the plug-in pipeline runs: each pass compares the variance along its top
# direction (the top covariance eigenvalue) against the mean of the
# remaining eigenvalues, so slack is the tolerated top-to-bulk spectral
# ratio before samples are removed. Clean designs stay near 1.4 on raw
# moments even with heavy tails, while planted corruptions at eps >= 0.05
# push the ratio past 4; 2.0 leaves a 1.4x clean margin and removes
# measurably more of the planted mass at high eps than looser settings.
PRACTICE_SLACK = 2.0

# Under the practice policy the projected-Jacobian pass fires at this
# multiple of PRACTICE_SLACK. Jacobian rows are feature rows scaled by
# a projected instrument, so their covariance is anisotropic even on clean
# rows: on the semi-synthetic negation design, once the response screen
# has removed every planted row, the top-to-bulk eigenvalue ratio of the
# Jacobian scores is 2.2 at the median, 6.0 at the 90th percentile and up
# to 8.0 over 600 fits, where raw moments sit near 1.4. A firing level
# inside that range strips clean rows pass after pass and can exhaust the
# sample set; at 5 times PRACTICE_SLACK (10) the pass stays quiet on
# clean rows, while the moment pass, which does most of the planted-row
# removal on synthetic designs, keeps PRACTICE_SLACK.
PRACTICE_JAC_SLACK_FACTOR = 5.0

# Under the practice policy, residuals at the ball center more than this
# many median absolute deviations from their median are removed before the
# filter loop starts. Response-side corruptions large enough to flip the
# fitted sign sit hundreds of scaled deviations out while clean heavy-tailed
# designs stay within a few dozen; corruption spread evenly across moment
# directions is invisible to the spectral shape test, and once the learner
# has absorbed it into the fit the residual gap closes, so the screen runs
# at the center, where shifts show at full size. Residuals are continuous
# when responses are, so the scale estimate has no point masses to break it.
PRACTICE_RESPONSE_CAP = 60.0

# Coefficients of the radius recursion in next_radius. They keep the
# contraction usable at desk scale; the formal guarantee is proved with
# c1 = 4 and c2 = 2412.
RADIUS_C1 = 4.0
RADIUS_C2 = 2.0

# amplified_gmm_sever accepts a repetition as soon as its final set keeps at
# least (1 - ACCEPT_EPS_MULT * eps) * n samples.
ACCEPT_EPS_MULT = 10.0


@dataclass(frozen=True)
class SeverResult:
    """One sever run: estimate, surviving samples, and per-round filter log.

    events is a tuple of (round, kind, removed, mean_score) with kind in
    {"response", "jacobian", "moment"}; a "response" event is the practice
    residual screen, always round 0, and its last field is the largest
    residual deviation in MADs. learner_flags records tolerance_met per
    learner call, in order.
    """

    w: np.ndarray
    S: ActiveSet
    rounds: int
    events: tuple
    learner_flags: tuple


def _moment_objective(model: MomentModel, S: ActiveSet):
    """f(w) = ||E_S g(w)||^2 with gradient 2 (E_S grad g)^T (E_S g).

    For an affine model E_S g(w) = u0 + J w, with u0 = E_S g(0) and J the
    constant mean Jacobian; both are built here once, so an evaluation
    costs O(pd) rather than a pass over the active rows.
    """
    idx = S.indices

    if model.affine:
        zero = np.zeros(model.param_dim)
        u0 = model.moments(idx, zero).mean(axis=0)
        J = model.mean_jacobian_over(idx, zero)

        def objective_grad(w: np.ndarray):
            u = u0 + J @ w
            return float(u @ u), 2.0 * (J.T @ u)

        return objective_grad

    def objective_grad(w: np.ndarray):
        u = model.moments(idx, w).mean(axis=0)
        grad = 2.0 * (model.mean_jacobian_over(idx, w).T @ u)
        return float(u @ u), grad

    return objective_grad


def gmm_sever(
    model: MomentModel,
    hp: HyperParams,
    w0: np.ndarray,
    R: float,
    rng: RandomSource,
    practice: bool = False,
) -> SeverResult:
    """Run the filter-until-stable sever loop on the full sample.

    practice picks the filter policy. The default (theory) policy hands
    each pass the certified worst-case bound, L^2 ||u||^2 for projected
    Jacobians and sigma^2 L + 4 L^2 R^2 for raw moments, which holds for
    every parameter in the search ball, at FILTER_SLACK. practice=True
    screens response outliers first (PRACTICE_RESPONSE_CAP) and
    self-calibrates each pass to the bulk of the score covariance spectrum
    (mean of the non-top eigenvalues) at PRACTICE_SLACK, the Jacobian pass
    at PRACTICE_JAC_SLACK_FACTOR times that, firing only when one direction
    stands out against the rest.
    The worst-case bounds can exceed the variance the good rows actually
    show by orders of magnitude on real designs (the R^2 term in
    particular), hiding structured corruptions of ordinary norm; the bulk
    spectrum instead tracks the clean rows at the current iterate, at the
    price of a blind spot for corruptions spread evenly across directions.

    The learner stops at hp.gamma under both policies. Aborts with
    FilterExhaustedError once fewer than max(1, ceil(2n/3)) samples survive;
    each learner restart is warm-started from the previous critical point.
    """
    n = model.n_samples
    w0 = np.asarray(w0, dtype=np.float64)
    if w0.shape != (model.param_dim,):
        raise ValueError(f"w0 has shape {w0.shape}, expected ({model.param_dim},)")
    if R < 0:
        raise ValueError("radius must be nonnegative")

    S = ActiveSet.full(n)
    floor = max(1, math.ceil(2 * n / 3))

    def shrink(kept: ActiveSet) -> ActiveSet:
        if len(kept) < floor:
            raise FilterExhaustedError(
                f"filter exhausted sample set: {len(kept)} of {n} remain"
            )
        return kept

    slack = PRACTICE_SLACK if practice else FILTER_SLACK
    moment_bound = hp.sigma**2 * hp.L + 4.0 * hp.L**2 * R**2
    events = []
    flags = []
    warm: Optional[np.ndarray] = None
    rounds = 0

    if practice:
        while True:
            res = model.residuals(S.indices, w0)
            med = float(np.median(res))
            dev = np.abs(res - med)
            mad = float(np.median(dev))
            if mad <= 0.0:
                break
            keep_mask = dev <= PRACTICE_RESPONSE_CAP * mad
            if keep_mask.all():
                break
            S = shrink(ActiveSet(S.indices[keep_mask]))
            events.append(
                (0, "response", int((~keep_mask).sum()), float(dev.max() / mad))
            )

    while True:
        rounds += 1
        prob = CriticalPointProblem(
            objective_grad=_moment_objective(model, S),
            center=w0,
            radius=R,
            gamma=hp.gamma,
            x0=warm,
        )
        learned = projected_gradient_critical_point(prob)
        flags.append(learned.tolerance_met)
        w = learned.x
        moment_scores = model.moments(S.indices, w)
        u = moment_scores.mean(axis=0)
        jac_active = True
        if practice:
            # The bulk-spectrum bound is scale-free, so projected-Jacobian
            # scores taken along a mean moment that is pure roundoff (the
            # learner can zero an exactly identified system to machine
            # precision) would be filtered along a meaningless direction.
            # Below the noise floor the mean moment is harmless at this
            # iterate and the raw-moment pass is the active defense.
            mom_scale = float(np.mean(np.sum(moment_scores * moment_scores, axis=1)))
            noise_floor = 1e-16 * max(mom_scale / len(S), 1e-300)
            jac_active = float(u @ u) > noise_floor

        if jac_active:
            jac_scores = model.jacobian_dot(S.indices, w, u)
            if practice:
                jac_bound = robust_score_bound(jac_scores, S)
                jac_slack = slack * PRACTICE_JAC_SLACK_FACTOR
            else:
                jac_bound = hp.L**2 * float(u @ u)
                jac_slack = slack
            out = spectral_filter(
                jac_scores, S, jac_bound, rng.child(f"jac-{rounds}"), jac_slack
            )
            events.append((rounds, "jacobian", len(out.removed), out.mean_score))
            if len(out.removed) > 0:
                S = shrink(out.kept)
                warm = w
                continue

        mom_bound = robust_score_bound(moment_scores, S) if practice else moment_bound
        out = spectral_filter(
            moment_scores, S, mom_bound, rng.child(f"mom-{rounds}"), slack
        )
        events.append((rounds, "moment", len(out.removed), out.mean_score))
        if len(out.removed) > 0:
            S = shrink(out.kept)
            warm = w
            continue

        return SeverResult(w, S, rounds, tuple(events), tuple(flags))


def amplified_gmm_sever(
    model: MomentModel,
    hp: HyperParams,
    w0: np.ndarray,
    R: float,
    rng: RandomSource,
    practice: bool = False,
) -> SeverResult:
    """Repeat gmm_sever with fresh child streams until a run keeps enough.

    A run is accepted as soon as its final set has at least
    (1 - ACCEPT_EPS_MULT * eps) * n samples. After ceil(log10(1/delta))
    repetitions the run with the largest surviving set is returned instead.
    Aborted repetitions only propagate if every repetition aborts.
    """
    n = model.n_samples
    max_reps = max(1, math.ceil(math.log10(1.0 / hp.delta)))
    accept_size = (1.0 - ACCEPT_EPS_MULT * hp.eps) * n
    best: Optional[SeverResult] = None
    abort: Optional[FilterExhaustedError] = None

    for rep in range(max_reps):
        try:
            result = gmm_sever(model, hp, w0, R, rng.child(f"rep-{rep}"), practice)
        except FilterExhaustedError as err:
            abort = err
            continue
        if len(result.S) >= accept_size:
            return result
        if best is None or len(result.S) > len(best.S):
            best = result

    if best is None:
        assert abort is not None
        raise abort
    return best


def next_radius(radius: float, hp: HyperParams) -> float:
    """Affine radius recursion of the outer loop:

        R_next = RADIUS_C1 * gamma / lam**2
                 + RADIUS_C2 * ((L**2 / lam**2) * R * sqrt(eps)
                                + sigma * (L**1.5 / lam**2) * sqrt(eps))
    """
    lam2 = hp.lam**2
    root_eps = math.sqrt(hp.eps)
    return RADIUS_C1 * hp.gamma / lam2 + RADIUS_C2 * (
        (hp.L**2 / lam2) * radius * root_eps
        + hp.sigma * (hp.L**1.5 / lam2) * root_eps
    )


def iterated_gmm_sever(
    model: MomentModel,
    hp: HyperParams,
    rng: RandomSource,
) -> EstimateReport:
    """Full robust estimate: amplified sever runs with a shrinking radius.

    Starts from the origin with radius R0, re-centers on each accepted
    estimate, and shrinks the radius by next_radius.
    Terminates when the recursion stops halving; if that happens on the very
    first round the single-shot estimate is returned with the diagnostic
    schedule_degenerate set (eps too large for the given L and lam). Every
    run uses gmm_sever's certified (theory) policy.
    """
    d = model.param_dim

    # split the failure budget across the planned outer rounds
    if hp.sigma > 0 and hp.eps > 0:
        ratio = hp.R0 * math.sqrt(hp.L) / (hp.sigma * math.sqrt(hp.eps))
        planned = math.ceil(math.log2(ratio)) if ratio > 1 else 1
    else:
        planned = 1
    inner_hp = replace(hp, delta=hp.delta / max(1, planned))

    w = np.zeros(d)
    radius = hp.R0
    trace = [(1, radius)]
    events = []
    unmet = 0
    degenerate = False
    t = 1

    while True:
        result = amplified_gmm_sever(
            model, inner_hp, w, radius, rng.child(f"outer-{t}")
        )
        events.extend(
            (t, kind, removed) for (_, kind, removed, _) in result.events if removed
        )
        unmet += sum(1 for ok in result.learner_flags if not ok)
        radius_next = next_radius(radius, hp)
        trace.append((t + 1, radius_next))
        if radius_next > radius / 2.0:
            if t == 1:
                degenerate = True
            w_hat, final_set = result.w, result.S
            break
        w = result.w
        radius = radius_next
        t += 1

    diagnostics = {
        "gamma": hp.gamma,
        "delta_inner": inner_hp.delta,
        "outer_rounds": float(t),
        "learner_tolerance_unmet": float(unmet),
        "theory_precondition_lhs": hp.theory_precondition_lhs,
        "theory_precondition_ok": 1.0 if hp.theory_precondition_ok else 0.0,
        # schedule degenerate: eps too large for (L, lam)
        "schedule_degenerate": 1.0 if degenerate else 0.0,
    }
    return EstimateReport(
        w_hat=w_hat,
        final_set=final_set,
        radius_trace=tuple(trace),
        filter_events=tuple(events),
        diagnostics=diagnostics,
    )
