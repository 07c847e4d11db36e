"""Degenerate inputs end in a fit or a named error (ROADMAP item 9).

Each property builds a small make_linear_dataset design with one
degeneracy: a constant regressor or instrument column, a duplicated
column, responses that are all equal (MAD = 0, which also switches off
the response screen), or so few rows that the survival floor ceil(2n/3)
sits at most three rows below n. robust_linear_estimate must then return a
finite w_hat or raise an EstimationError subclass, for both model kinds.
The suite runs with filterwarnings = error, so a warning on the way (an
overflow, a division by zero) fails the property too.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from robustgmm import Dataset, EstimationError, RandomSource, robust_linear_estimate

from conftest import make_linear_dataset

PROPERTY = settings(max_examples=40, deadline=None, derandomize=True, database=None)

seeds = st.integers(0, 2**16)
kinds = st.sampled_from(["linear", "logistic"])
eps_values = st.sampled_from([0.0, 0.05, 0.1, 0.2])
blocks = st.sampled_from(["X", "Z"])
shapes = st.tuples(st.integers(1, 3), st.integers(0, 2))  # (d, p - d)


def design(seed, n, d, extra, kind) -> Dataset:
    """make_linear_dataset(seed, n, d, noise=0.5, p=d+extra); a logistic
    design gets the 0/1 responses Y > 0."""
    data, _ = make_linear_dataset(seed, n, d, noise=0.5, p=d + extra)
    if kind == "logistic":
        data = Dataset(X=data.X, Y=(data.Y > 0.0).astype(np.float64), Z=data.Z)
    return data


def with_column(data: Dataset, block: str, j: int, column) -> Dataset:
    """data with column j of block X or Z replaced by column."""
    arrays = {"X": data.X.copy(), "Z": data.Z.copy()}
    arrays[block][:, j] = column
    return Dataset(X=arrays["X"], Y=data.Y, Z=arrays["Z"])


def fits_or_names_its_failure(data: Dataset, eps: float, seed: int, kind: str):
    try:
        report = robust_linear_estimate(data, eps, RandomSource(seed), model_kind=kind)
    except EstimationError:
        return
    assert report.w_hat.shape == (data.d,)
    assert np.isfinite(report.w_hat).all()


@PROPERTY
@given(seeds, st.integers(12, 80), shapes, kinds, eps_values, blocks,
       st.sampled_from([0.0, 1.0, -2.5]))
def test_constant_column(seed, n, shape, kind, eps, block, value):
    data = design(seed, n, *shape, kind)
    data = with_column(data, block, seed % getattr(data, block).shape[1], value)
    fits_or_names_its_failure(data, eps, seed, kind)


@PROPERTY
@given(seeds, st.integers(12, 80), st.tuples(st.integers(2, 3), st.integers(0, 2)),
       kinds, eps_values, blocks)
def test_duplicated_column(seed, n, shape, kind, eps, block):
    data = design(seed, n, *shape, kind)
    data = with_column(data, block, 1, getattr(data, block)[:, 0])
    fits_or_names_its_failure(data, eps, seed, kind)


@PROPERTY
@given(seeds, st.integers(12, 80), shapes, kinds, eps_values,
       st.sampled_from([0.0, 1.0, 0.5]))
def test_all_equal_responses(seed, n, shape, kind, eps, value):
    data = design(seed, n, *shape, kind)
    data = Dataset(X=data.X, Y=np.full(n, value), Z=data.Z)
    fits_or_names_its_failure(data, eps, seed, kind)


@PROPERTY
@given(seeds, shapes, st.integers(0, 4), kinds, eps_values)
def test_rows_near_the_survival_floor(seed, shape, spare, kind, eps):
    # n = p + spare rows, at most 9: the floor ceil(2n/3) is at most three
    # rows below n
    d, extra = shape
    data = design(seed, d + extra + spare, d, extra, kind)
    fits_or_names_its_failure(data, eps, seed, kind)
