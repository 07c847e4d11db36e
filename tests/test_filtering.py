import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from robustgmm import RandomSource
from robustgmm import filtering
from robustgmm.core import ActiveSet
from robustgmm.filtering import FILTER_SLACK, robust_score_bound, spectral_filter
from robustgmm.numerics import centered_cov, top_eigenvector

from conftest import ForcedUniform


def three_point_scores():
    # covariance diag(2/3, 0): top direction e1, squared projections {1,1,0}
    return np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 0.0]])


def test_default_slack_value():
    assert FILTER_SLACK == 24.0


def test_no_removal_below_slack_bound(rng):
    vals = three_point_scores()
    out = spectral_filter(vals, ActiveSet(np.arange(3)), 1.0, rng)
    assert out.mean_score == pytest.approx(2.0 / 3.0, rel=1e-12)
    assert out.threshold is None
    assert out.removed.indices.size == 0
    np.testing.assert_array_equal(out.kept.indices, [0, 1, 2])


def test_forced_threshold_removes_top_scores():
    vals = three_point_scores()
    rng = ForcedUniform(1, 0.5)
    # mean score 2/3 > 1 * 0.01 fires; threshold = 0.5 * max = 0.5
    out = spectral_filter(vals, ActiveSet(np.arange(3)), 0.01, rng, slack=1.0)
    assert out.threshold == pytest.approx(0.5)
    np.testing.assert_array_equal(out.kept.indices, [2])
    np.testing.assert_array_equal(out.removed.indices, [0, 1])


def test_tie_at_threshold_is_kept():
    # squared projections {4, 1, 1}; forced threshold 0.25 * 4 = 1.0 exactly
    vals = np.array([[2.0, 0.0], [-1.0, 0.0], [-1.0, 0.0]])
    rng = ForcedUniform(1, 0.25)
    out = spectral_filter(vals, ActiveSet(np.arange(3)), 0.5, rng, slack=1.0)
    assert out.threshold == pytest.approx(1.0)
    np.testing.assert_array_equal(out.kept.indices, [1, 2])
    np.testing.assert_array_equal(out.removed.indices, [0])


def test_identical_rows_never_removed(rng):
    vals = np.tile([3.0, -1.0], (8, 1))
    for bound in (0.0, 1e-12, 5.0):
        out = spectral_filter(vals, ActiveSet(np.arange(8)), bound, rng)
        assert out.threshold is None
        assert len(out.kept) == 8


def test_single_sample_zero_bound(rng):
    out = spectral_filter(
        np.array([[9.0, 9.0]]), ActiveSet(np.array([4])), 0.0, rng
    )
    assert out.threshold is None
    np.testing.assert_array_equal(out.kept.indices, [4])


def test_argmax_always_removed_when_fired(rng):
    # one huge outlier among small scores: firing must remove the max row
    vals = np.vstack([rng.normal((40, 3)) * 0.1, [[500.0, 0.0, 0.0]]])
    active = ActiveSet(np.arange(41))
    out = spectral_filter(vals, active, 1e-6, rng.child("f"), slack=1.0)
    assert out.threshold is not None
    assert 40 in out.removed.indices.tolist()


@pytest.mark.parametrize("scale", [1.0, 1e-161])
def test_top_draw_removes_the_argmax_at_any_scale(scale):
    # the largest uniform draw times a subnormal max score rounds up to the
    # max, so the threshold is capped below it; at normal scale the draw
    # already puts it there and the cap changes nothing
    vals = three_point_scores() * scale
    rng = ForcedUniform(1, np.nextafter(1.0, 0.0))
    out = spectral_filter(vals, ActiveSet(np.arange(3)), 0.0, rng, slack=1.0)
    assert out.threshold < np.float64(scale) ** 2
    np.testing.assert_array_equal(out.removed.indices, [0, 1])


def test_fired_subnormal_pass_removes_its_argmax():
    # a seeded pass whose data and draws share one stream; uniform() * max
    # rounded up to the max score here, and the pass removed nothing
    src = RandomSource(245)
    vals = src.normal((10, 2)) * 1e-161
    out = spectral_filter(vals, ActiveSet.full(10), 0.0, src, 1.0)
    centered = vals - vals.mean(axis=0)
    scores = (centered @ out.direction) ** 2
    assert out.threshold is not None and out.threshold < scores.max()
    assert int(np.argmax(scores)) in out.removed.indices.tolist()


def test_fired_threshold_and_direction_are_pinned():
    # the filter draws k normals, then one uniform for the threshold fraction
    src = RandomSource(77)
    vals = np.vstack([src.normal((40, 3)) * 0.1, [[5.0, 2.0, -1.0]]])
    out = spectral_filter(vals, ActiveSet(np.arange(41)), 1e-6, src.child("f"), slack=1.0)
    assert out.threshold is not None

    mean = vals.mean(axis=0)
    cov = (vals - mean).T @ (vals - mean) / len(vals)
    top = np.linalg.eigh(cov)[1][:, -1]
    assert min(np.linalg.norm(out.direction - top), np.linalg.norm(out.direction + top)) <= 1e-12
    scores = ((vals - mean) @ top) ** 2
    c = src.child("f")
    c.normal(3)
    assert out.threshold == pytest.approx(c.uniform() * scores.max(), rel=1e-12)


def test_no_removal_is_stable_under_repetition(rng):
    vals = rng.normal((50, 4))
    active = ActiveSet(np.arange(50))
    out = spectral_filter(vals, active, 100.0, rng.child("a"))
    assert out.threshold is None
    again = spectral_filter(vals, out.kept, 100.0, rng.child("b"))
    assert again.threshold is None
    np.testing.assert_array_equal(again.kept.indices, out.kept.indices)


def test_validation_errors(rng):
    vals = np.zeros((3, 2))
    active = ActiveSet(np.arange(3))
    with pytest.raises(ValueError, match="nonnegative"):
        spectral_filter(vals, active, -1.0, rng)
    with pytest.raises(ValueError, match="slack"):
        spectral_filter(vals, active, 1.0, rng, slack=0.0)
    with pytest.raises(ValueError, match="expected"):
        spectral_filter(np.zeros(3), active, 1.0, rng)
    with pytest.raises(ValueError, match="score rows"):
        spectral_filter(np.zeros((2, 2)), active, 1.0, rng)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=0, max_value=2**32 - 1),
    st.integers(2, 40),
    st.integers(1, 5),
    st.floats(0.0, 4.0),
)
def test_kept_removed_partition_active(seed, m, k, bound):
    src = RandomSource(seed)
    vals = src.normal((m, k)) * (1.0 + 10.0 * float(src.uniform()))
    base = np.sort(src.subset(1000, m))
    active = ActiveSet(base)
    out = spectral_filter(vals, active, bound, src.child("f"), slack=1.0)
    merged = np.sort(np.concatenate([out.kept.indices, out.removed.indices]))
    np.testing.assert_array_equal(merged, base)
    assert np.intersect1d(out.kept.indices, out.removed.indices).size == 0
    assert (out.threshold is None) == (out.removed.indices.size == 0)
    assert np.linalg.norm(out.direction) == pytest.approx(1.0, abs=1e-9)


def bulk_bound(vals):
    # the rule as spectral_filter calls it, on the pass's own spectrum
    centered, cov = centered_cov(vals)
    return robust_score_bound(centered, top_eigenvector(cov)[1])


def test_score_bound_bulk_spectrum():
    # population covariance diag(1, 1/3, 1/6): bulk mean = (1/3 + 1/6) / 2
    r3 = np.sqrt(3.0)
    rhalf = np.sqrt(0.5)
    vals = np.array(
        [
            [r3, 0.0, 0.0],
            [-r3, 0.0, 0.0],
            [0.0, 1.0, 0.0],
            [0.0, -1.0, 0.0],
            [0.0, 0.0, rhalf],
            [0.0, 0.0, -rhalf],
        ]
    )
    got = bulk_bound(vals)
    assert got == pytest.approx(0.25, rel=1e-12)


def test_score_bound_scalar_fallback():
    # centered squares {4,1,0,1,4}: median 1, scaled by the chi2(1) median
    centered, cov = centered_cov(np.array([[1.0], [2.0], [3.0], [4.0], [5.0]]))
    np.testing.assert_array_equal(centered[:, 0], [-2.0, -1.0, 0.0, 1.0, 2.0])
    got = robust_score_bound(centered, top_eigenvector(cov)[1])
    assert got == pytest.approx(1.0 / 0.4549364231195727, rel=1e-12)


def test_score_bound_ignores_one_spiked_direction(rng):
    # isotropic noise plus a strong rank-one spike: the bulk estimate stays
    # near the noise level instead of tracking the spike
    base = rng.normal((400, 6))
    spike = np.zeros((20, 6))
    spike[:, 0] = 40.0
    vals = np.vstack([base, spike])
    got = bulk_bound(vals)
    assert got < 2.0


def test_score_bound_is_nonnegative_on_rank_deficient_scores():
    # rank-one scores have an all-zero bulk, which eigh roundoff can
    # leave slightly negative; the bound must stay one spectral_filter takes
    active = ActiveSet(np.arange(6))
    for seed in range(20):
        src = RandomSource(seed)
        vals = np.outer(src.normal(6), src.normal(3))
        bound = bulk_bound(vals)
        assert bound >= 0.0
        spectral_filter(vals, active, bound, src.child("f"))
        spectral_filter(vals, active, robust_score_bound, src.child("f"))


def test_score_bound_validation():
    with pytest.raises(ValueError, match="expected"):
        robust_score_bound(np.zeros(4), np.zeros(1))
    with pytest.raises(ValueError, match="eigenvalues"):
        robust_score_bound(np.zeros((3, 2)), np.zeros(3))
    # the rule reads a spectrum, not the covariance it came from
    with pytest.raises(ValueError, match="eigenvalues"):
        robust_score_bound(np.zeros((3, 2)), np.zeros((2, 2)))


def parent_pass(vals, active, rng, slack):
    # the pass as gmm_sever ran it before the rule moved inside: a float
    # bound from its own mean, covariance and eigvalsh (or the scalar
    # median), then a second covariance and eigh, k normals drawn whether
    # or not the pass fires, the mean squared projection as the score, and
    # the threshold uniform
    mean, cov = vals.mean(axis=0), centered_cov(vals)[1]
    if vals.shape[1] == 1:
        bound = float(np.median((vals[:, 0] - mean[0]) ** 2)) / 0.4549364231195727
    else:
        bound = max(float(np.mean(np.linalg.eigvalsh(cov)[:-1])), 0.0)
    mean, cov = vals.mean(axis=0), centered_cov(vals)[1]
    rng.normal(vals.shape[1])
    direction = top_eigenvector(cov)[0]
    scores = ((vals - mean) @ direction) ** 2
    mean_score = float(scores.mean())
    if mean_score <= slack * bound:
        return bound, active.indices, np.empty(0, np.int64), mean_score, None, direction
    threshold = float(rng.uniform() * scores.max())
    keep = scores <= threshold
    kept, removed = active.indices[keep], active.indices[~keep]
    return bound, kept, removed, mean_score, threshold, direction


@settings(max_examples=80, deadline=None)
@given(
    st.integers(min_value=0, max_value=2**32 - 1),
    st.integers(2, 60),
    st.integers(1, 6),
    st.sampled_from(["normal", "duplicated", "rank-deficient", "spiked"]),
    st.floats(0.25, 4.0),
)
def test_rule_bound_matches_the_two_call_pass(seed, m, k, shape, slack):
    src = RandomSource(seed)
    if shape == "duplicated":
        vals = src.normal((max(1, m // 3), k))[src.integers(0, max(1, m // 3), m)]
    elif shape == "rank-deficient":
        vals = np.outer(src.normal(m), src.normal(k)) + 3.0
    else:
        vals = src.normal((m, k)) * (1.0 + 10.0 * float(src.uniform()))
        if shape == "spiked":
            vals[: max(1, m // 10), 0] += 20.0
    active = ActiveSet(src.subset(1000, m))
    fused = spectral_filter(vals, active, robust_score_bound, src.child("f"), slack)
    bound, kept, removed, mean_score, threshold, direction = parent_pass(
        vals, active, src.child("f"), slack
    )
    # one eigh gives the bound and the score: eigvalsh and the projection
    # agree with them to roundoff of the spectrum's scale, and every
    # decision, threshold and direction bit for bit
    scale = 1e-12 * max(mean_score, 1e-300)
    assert abs(bulk_bound(vals) - bound) <= scale
    assert abs(fused.mean_score - mean_score) <= scale
    np.testing.assert_array_equal(fused.kept.indices, kept)
    np.testing.assert_array_equal(fused.removed.indices, removed)
    assert fused.threshold == threshold
    np.testing.assert_array_equal(fused.direction, direction)


class CountingArray(np.ndarray):
    products = 0

    def __matmul__(self, other):
        CountingArray.products += 1
        return np.asarray(self) @ other


def test_one_eigh_per_pass_and_a_projection_only_when_it_fires(monkeypatch):
    eigh_calls = []
    eigh = np.linalg.eigh

    def counting_eigh(a):
        eigh_calls.append(a.shape)
        return eigh(a)

    def no_eigvalsh(a):
        raise AssertionError("a pass takes its bulk from eigh's spectrum")

    def counted_cov(vals):
        centered, cov = centered_cov(vals)
        return centered.view(CountingArray), cov

    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    monkeypatch.setattr(np.linalg, "eigvalsh", no_eigvalsh)
    monkeypatch.setattr(filtering, "centered_cov", counted_cov)
    CountingArray.products = 0
    src = RandomSource(93)
    vals = np.vstack([src.normal((30, 3)), [[40.0, 0.0, 0.0]]])
    active = ActiveSet(np.arange(31))

    quiet = spectral_filter(vals, active, robust_score_bound, src.child("q"), 1e6)
    assert quiet.threshold is None
    assert (len(eigh_calls), CountingArray.products) == (1, 0)

    fired = spectral_filter(vals, active, robust_score_bound, src.child("f"), 1.0)
    assert fired.threshold is not None
    assert 30 in fired.removed.indices.tolist()
    assert (len(eigh_calls), CountingArray.products) == (2, 1)


def test_quiet_pass_leaves_the_stream_untouched():
    rng = RandomSource(91)
    vals = rng.child("vals").normal((30, 3))
    out = spectral_filter(vals, ActiveSet(np.arange(30)), 1e6, rng)
    assert out.threshold is None
    assert rng.uniform() == RandomSource(rng.seed).uniform()


def test_fired_pass_draws_k_normals_before_the_threshold():
    rng = RandomSource(92)
    vals = np.vstack([rng.child("vals").normal((30, 3)), [[40.0, 0.0, 0.0]]])
    out = spectral_filter(vals, ActiveSet(np.arange(31)), 1e-6, rng, slack=1.0)
    assert out.threshold is not None
    replay = RandomSource(rng.seed)
    replay.normal(3)
    replay.uniform()
    assert rng.uniform() == replay.uniform()
