import numpy as np
import pytest

from dendrofit import kernels


rng = np.random.default_rng(5)


class TestNumpyPath:
    def test_joint_counts_matches_manual(self):
        xi = np.array([0, 0, 1, 1, 2], dtype=np.int64)
        xj = np.array([1, 1, 0, 1, 0], dtype=np.int64)
        out = kernels.joint_counts(xi, xj, 3, 2)
        assert out.tolist() == [[0, 2], [1, 1], [1, 0]]

    def test_gaussian_moments_match_numpy(self):
        x = rng.standard_normal(500)
        y = 0.3 * x + rng.standard_normal(500)
        mx, my, vx, vy, cxy = kernels.gaussian_moments(x, y)
        assert mx == pytest.approx(x.mean(), abs=1e-14)
        assert vx == pytest.approx(np.var(x), rel=1e-12)
        assert cxy == pytest.approx(np.cov(x, y, bias=True)[0, 1], rel=1e-12)

    def test_class_stats_empty_class_is_nan(self):
        x = np.array([1.0, 3.0])
        y = np.array([0, 0], dtype=np.int64)
        counts, means, pooled = kernels.class_stats(x, y, 3)
        assert counts.tolist() == [2.0, 0.0, 0.0]
        assert means[0] == 2.0 and np.isnan(means[1]) and np.isnan(means[2])
        assert pooled == 1.0
