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
        e, mean, cov = kernels.gaussian_moments(np.stack([x, y]))
        mx = np.ldexp(mean[0], e[0])
        vx = np.ldexp(cov[0, 0], 2 * e[0])
        cxy = np.ldexp(cov[0, 1], e[0] + e[1])
        assert mx == pytest.approx(x.mean(), abs=1e-14)
        assert vx == pytest.approx(np.var(x), rel=1e-12)
        assert cxy == pytest.approx(np.cov(x, y, bias=True)[0, 1], rel=1e-12)

    def test_class_stats_empty_class_is_nan(self):
        x = np.array([1.0, 3.0])
        y = np.array([0, 0], dtype=np.int64)
        e, counts, means, var = kernels.class_stats_rows(x[None], y, 3)
        means, pooled = np.ldexp(means[0], e[0]), np.ldexp(var[0], 2 * e[0])
        assert counts.tolist() == [2.0, 0.0, 0.0]
        assert means[0] == 2.0 and np.isnan(means[1]) and np.isnan(means[2])
        assert pooled == 1.0

    @pytest.mark.parametrize("n", [7, 1000, 100_000])
    def test_class_function_has_exactly_zero_variance(self, n):
        # class means of many equal cells carry rounding; the residual
        # variance around them must still come out exactly 0
        y = np.arange(n) % 3
        x = np.array([0.1, 0.7, 1 / 3])[y]
        rows = np.stack([x, -x, x + 2.0**-40 * (y == 1)])
        var = kernels.class_stats_rows(rows, y, 3)[3]
        assert var.tolist() == [0.0, 0.0, 0.0]


@st.composite
def stacked_rows(draw):
    """(xt, y, subset): 1-6 rows of 1-80 cells at scales 2^-300 to 2^300,
    some of them exact functions of the class column y, and a nonempty
    subset of the rows in any order."""
    rows, n = draw(st.integers(1, 6)), draw(st.integers(1, 80))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    card = draw(st.integers(1, 6))
    y = rng.integers(0, card, n)
    xt = rng.standard_normal((rows, n)) + rng.uniform(-50.0, 50.0, (rows, 1))
    exact = rng.random(rows) < 0.3
    xt[exact] = rng.standard_normal((int(exact.sum()), card))[:, y]
    xt = np.ldexp(xt, rng.integers(-300, 300, (rows, 1)))
    subset = draw(st.lists(st.integers(0, rows - 1), min_size=1, max_size=rows, unique=True))
    return xt, y, card, np.array(subset)


def same_bits(a, b):
    return np.array_equal(np.asarray(a).view(np.int64), np.asarray(b).view(np.int64))


class TestRowInvariance:
    """A row's (or pair's) statistics have the same bits alone, in any
    subset of the rows and in any order."""

    @settings(max_examples=300, deadline=None)
    @given(case=stacked_rows())
    def test_gaussian_moments(self, case):
        xt, _, _, subset = case
        e, mean, cov = kernels.gaussian_moments(xt)
        sub_e, sub_mean, sub_cov = kernels.gaussian_moments(xt[subset])
        assert (sub_e == e[subset]).all()
        assert same_bits(sub_mean, mean[subset])
        assert same_bits(sub_cov, cov[np.ix_(subset, subset)])
        for r in subset:
            alone = kernels.gaussian_moments(xt[r : r + 1])
            assert same_bits(alone[1], mean[r : r + 1])
            assert same_bits(alone[2], cov[r : r + 1, r : r + 1])

    @settings(max_examples=300, deadline=None)
    @given(case=stacked_rows())
    def test_class_stats_rows(self, case):
        xt, y, card, subset = case
        e, counts, means, var = kernels.class_stats_rows(xt, y, card)
        sub_e, sub_counts, sub_means, sub_var = kernels.class_stats_rows(xt[subset], y, card)
        assert (sub_e == e[subset]).all() and same_bits(sub_counts, counts)
        assert same_bits(sub_means, means[subset]) and same_bits(sub_var, var[subset])
        for r in subset:
            alone = kernels.class_stats_rows(xt[r : r + 1], y, card)
            assert same_bits(alone[2], means[r : r + 1]) and same_bits(alone[3], var[r : r + 1])


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


def one_mixture(probs, means, var, nodes, weights):
    """mixture_mi_batch on a batch of one mixture."""
    value = kernels.mixture_mi_batch(probs[None], means[None], np.array([var]), nodes, weights)
    return float(value[0])


class TestMixtureMiAgainstLoop:
    @settings(max_examples=300, deadline=None)
    @given(mixture=mixtures(), order=st.sampled_from(ORDERS))
    def test_matches_loop_reference(self, mixture, order):
        probs, means, var = mixture
        nodes, weights = _hermite_rule(order)
        got = one_mixture(probs, means, var, nodes, weights)
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
        base = one_mixture(probs, means, var, nodes, weights)
        shifted = one_mixture(probs, means + 1e3 * math.sqrt(var), var, nodes, weights)
        assert abs(shifted - base) <= 1e-9 * abs(base) + 1e-15
