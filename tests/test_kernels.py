import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dendrofit import kernels, oracle
from dendrofit.estimators import _hermite_rule


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


ORDERS = (8, 16, 32, 64, 128, 256, 512, 1024)


@st.composite
def mixtures(draw):
    """(probs, means, var): 2-8 classes with Dirichlet-like probabilities
    down to about 1e-12, a variance in [1e-6, 1e6] and class means centred
    on 0 and up to 50 standard deviations apart."""
    k = draw(st.integers(2, 8))
    exponents = draw(st.lists(st.floats(-12.0, 0.0), min_size=k, max_size=k))
    weights = 10.0 ** np.array(exponents)
    var = 10.0 ** draw(st.floats(-6.0, 6.0))
    offsets = np.array(draw(st.lists(st.floats(-25.0, 25.0), min_size=k, max_size=k)))
    return weights / weights.sum(), (offsets - offsets.mean()) * math.sqrt(var), var


class TestMixtureMiAgainstLoop:
    @settings(max_examples=300, deadline=None)
    @given(mixture=mixtures(), order=st.sampled_from(ORDERS))
    def test_matches_loop_reference(self, mixture, order):
        probs, means, var = mixture
        nodes, weights = _hermite_rule(order)
        got = kernels.mixture_mi(probs, means, var, nodes, weights)
        want = oracle.mixture_mi_loop(probs, means, var, nodes, weights)
        assert abs(got - want) <= 1e-12 + 1e-12 * abs(want)

    @settings(max_examples=300, deadline=None)
    @given(mixture=mixtures(), order=st.sampled_from(ORDERS))
    def test_invariant_under_translation(self, mixture, order):
        # the integrand depends only on mean differences; it must not lose
        # digits when the means sit 1e3 sd away from 0. Values far below 1
        # carry ~1e-16 absolute rounding (a log of a sum next to 1) with or
        # without the shift, hence the 1e-15 floor.
        probs, means, var = mixture
        nodes, weights = _hermite_rule(order)
        base = kernels.mixture_mi(probs, means, var, nodes, weights)
        shifted = kernels.mixture_mi(probs, means + 1e3 * math.sqrt(var), var, nodes, weights)
        assert abs(shifted - base) <= 1e-9 * abs(base) + 1e-15
