import numpy as np
import pytest

from regime_scan import make_linear_dataset
from robustgmm import Dataset, RandomSource


class ForcedUniform(RandomSource):
    """RandomSource whose scalar uniform draws are pinned to a constant.

    The spectral filter consumes k normals (kept so the stream matches the
    former power-iteration start) and then a single uniform (the removal
    threshold fraction); pinning the uniform makes the removal set exactly
    predictable.
    """

    def __init__(self, seed: int, forced: float):
        super().__init__(seed)
        self.forced = forced

    def uniform(self, size=None):
        if size is None:
            return self.forced
        return np.full(size, self.forced)

    def child(self, label: str) -> "ForcedUniform":
        base = super().child(label)
        return ForcedUniform(base.seed, self.forced)


@pytest.fixture
def rng():
    return RandomSource(20260815)


def ball_binding_dataset():
    """make_linear_dataset(17, 2000, 5, noise=1.0) with the first 100 rows of
    Z set to 4.0; returns (Dataset, w_true). Fitted at eps 0.05, a round's
    unconstrained minimizer leaves the search ball."""
    data, w_true = make_linear_dataset(seed=17, n=2000, d=5, noise=1.0)
    Z = data.Z.copy()
    Z[:100] = 4.0
    return Dataset(X=data.X, Y=data.Y, Z=Z), w_true
