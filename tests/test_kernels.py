import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dendrofit import kernels, oracle
from dendrofit.estimators import _rung


rng = np.random.default_rng(5)


def gaussian_moments(xt):
    """(e, mean, cov): the exponents and means ``scaled_rows`` gives for
    the rows of xt, and ``covariances`` of every ordered pair of rows as
    a matrix, in scaled units, of the stack centred in place."""
    e, scaled, mean, _ = kernels.scaled_rows(xt, xt.shape[1])
    scaled -= mean[:, None]
    r, s = np.indices((len(xt), len(xt))).reshape(2, -1)
    return e, mean, kernels.covariances(scaled, scaled, r, s).reshape(len(xt), len(xt))


def class_stats(xt, y, n_classes):
    """(e, counts, means, var): ``class_stats_rows`` of the rows of xt as
    ``scaled_rows`` scales them, with their exponents and the class
    counts of ``class_members``."""
    e, scaled, _, _ = kernels.scaled_rows(xt, xt.shape[1])
    counts, member = kernels.class_members(y, n_classes)
    return (e, counts, *kernels.class_stats_rows(scaled, np.arange(len(xt)), y, counts, member))


class TestNumpyPath:
    def test_joint_counts_matches_manual(self):
        xi = np.array([0, 0, 1, 1, 2], dtype=np.int64)
        xj = np.array([1, 1, 0, 1, 0], dtype=np.int64)
        out = kernels.joint_counts(xi, xj, 3, 2)
        assert out.tolist() == [[0, 2], [1, 1], [1, 0]]

    def test_gaussian_moments_match_numpy(self):
        x = rng.standard_normal(500)
        y = 0.3 * x + rng.standard_normal(500)
        e, mean, cov = gaussian_moments(np.stack([x, y]))
        mx = np.ldexp(mean[0], e[0])
        vx = np.ldexp(cov[0, 0], 2 * e[0])
        cxy = np.ldexp(cov[0, 1], e[0] + e[1])
        assert mx == pytest.approx(x.mean(), abs=1e-14)
        assert vx == pytest.approx(np.var(x), rel=1e-12)
        assert cxy == pytest.approx(np.cov(x, y, bias=True)[0, 1], rel=1e-12)

    def test_class_stats_empty_class_is_nan(self):
        x = np.array([1.0, 3.0])
        y = np.array([0, 0], dtype=np.int64)
        e, counts, means, var = class_stats(x[None], y, 3)
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
        var = class_stats(rows, y, 3)[3]
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
        e, mean, cov = gaussian_moments(xt)
        sub_e, sub_mean, sub_cov = gaussian_moments(xt[subset])
        assert (sub_e == e[subset]).all()
        assert same_bits(sub_mean, mean[subset])
        assert same_bits(sub_cov, cov[np.ix_(subset, subset)])
        for r in subset:
            alone = gaussian_moments(xt[r : r + 1])
            assert same_bits(alone[1], mean[r : r + 1])
            assert same_bits(alone[2], cov[r : r + 1, r : r + 1])

    @settings(max_examples=300, deadline=None)
    @given(case=stacked_rows())
    def test_class_stats_rows(self, case):
        xt, y, card, subset = case
        e, counts, means, var = class_stats(xt, y, card)
        sub_e, sub_counts, sub_means, sub_var = class_stats(xt[subset], y, card)
        assert (sub_e == e[subset]).all() and same_bits(sub_counts, counts)
        assert same_bits(sub_means, means[subset]) and same_bits(sub_var, var[subset])
        for r in subset:
            alone = class_stats(xt[r : r + 1], y, card)
            assert same_bits(alone[2], means[r : r + 1]) and same_bits(alone[3], var[r : r + 1])

    @settings(max_examples=300, deadline=None)
    @given(case=stacked_rows())
    def test_class_stats_rows_by_index(self, case):
        # rows read from the whole stack by index have the bits of a stack
        # of only those rows
        xt, y, card, subset = case
        _, scaled, _, _ = kernels.scaled_rows(list(xt), xt.shape[1])
        members = kernels.class_members(y, card)
        by_index = kernels.class_stats_rows(scaled, subset, y, *members)
        alone = kernels.class_stats_rows(scaled[subset], np.arange(subset.size), y, *members)
        assert all(same_bits(got, want) for got, want in zip(by_index, alone))

    @settings(max_examples=300, deadline=None)
    @given(case=stacked_rows(), data=st.data())
    def test_covariances_across_two_groups(self, case, data):
        # rows scaled and centred as two separate groups have the
        # covariances of one stack of all the rows
        xt, _, _, _ = case
        cut = data.draw(st.integers(0, len(xt)))
        _, _, cov = gaussian_moments(xt)
        left, right = (
            scaled - mean[:, None]
            for _, scaled, mean, _ in (
                kernels.scaled_rows(part, xt.shape[1]) for part in (xt[:cut], xt[cut:])
            )
        )
        r, s = np.indices((cut, len(xt) - cut)).reshape(2, -1)
        got = kernels.covariances(left, right, r, s)
        assert same_bits(got, cov[:cut, cut:].reshape(-1))

    @settings(max_examples=300, deadline=None)
    @given(case=stacked_rows())
    def test_scaling_is_exact(self, case):
        # scaled rows lie within (-1, 1), scale back to their columns bit
        # for bit, and are all equal exactly when their columns are
        xt, _, _, _ = case
        e, scaled, _, constant = kernels.scaled_rows(list(xt), xt.shape[1])
        assert (np.abs(scaled) < 1.0).all()
        assert same_bits(np.ldexp(scaled, e[:, None]), xt)
        assert (constant == (xt == xt[:, :1]).all(axis=1)).all()


ORDERS = (8, 16, 32, 64, 128, 256, 512, 1024)


def trapezoid(order):
    """A rule for the weight e^{-t^2} at one order of the estimators'
    trapezoidal ladder: the nodes of a first rung, with their weights
    scaled to sum to sqrt(pi), so that it integrates a constant exactly,
    as Gauss-Hermite rules do. The step times the weights does so only at
    a fine step: at order 8 they sum to 1.2 sqrt(pi)."""
    nodes, weights = _rung(order, True)
    return nodes, weights * (math.sqrt(math.pi) / weights.sum())


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
        nodes, weights = trapezoid(order)
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
        nodes, weights = trapezoid(order)
        base = one_mixture(probs, means, var, nodes, weights)
        shifted = one_mixture(probs, means + 1e3 * math.sqrt(var), var, nodes, weights)
        assert abs(shifted - base) <= 1e-9 * abs(base) + 1e-15


@st.composite
def spread_mixtures(draw):
    """(probs, means, var): 2-8 classes with probabilities down to about
    1e-12, a variance in [1e-6, 1e6] and class means up to 400 standard
    deviations from their centre, on both sides of the separable form's
    range guard."""
    k = draw(st.integers(2, 8))
    exponents = draw(st.lists(st.floats(-12.0, 0.0), min_size=k, max_size=k))
    weights = 10.0 ** np.array(exponents)
    var = 10.0 ** draw(st.floats(-6.0, 6.0))
    spread = draw(st.sampled_from((1.0, 10.0, 40.0, 60.0, 150.0, 400.0)))
    offsets = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=k, max_size=k)))
    return weights / weights.sum(), spread * (offsets - offsets.mean()) * math.sqrt(var), var


def count_forms(monkeypatch):
    """{"separable": rows, "direct": rows}, counting the mixtures each form
    of mixture_mi_batch evaluates from now on."""
    rows = {"separable": 0, "direct": 0}
    for form in rows:
        real = getattr(kernels, f"_{form}")

        def counted(probs, *rest, form=form, real=real):
            rows[form] += len(probs)
            return real(probs, *rest)

        monkeypatch.setattr(kernels, f"_{form}", counted)
    return rows


class TestSeparableForm:
    """The separable form against the loop reference, across its range
    guard, in any batch and chunk, without a warning."""

    @settings(max_examples=300, deadline=None)
    @given(mixture=spread_mixtures(), order=st.sampled_from(ORDERS))
    def test_matches_loop_reference_on_both_sides_of_the_guard(self, mixture, order):
        probs, means, var = mixture
        nodes, weights = trapezoid(order)
        got = one_mixture(probs, means, var, nodes, weights)
        want = oracle.mixture_mi_loop(probs, means, var, nodes, weights)
        assert abs(got - want) <= 1e-12 + 1e-12 * abs(want)

    def test_both_forms_are_reached(self, monkeypatch):
        # at order 1024 the guard falls near 50 sd from the centre
        rows = count_forms(monkeypatch)
        nodes, weights = trapezoid(1024)
        probs = np.array([0.25, 0.75])
        for sd in (1.0, 40.0, 80.0, 400.0):
            means = np.array([-0.75, 0.25]) * sd
            got = one_mixture(probs, means, 1.0, nodes, weights)
            want = oracle.mixture_mi_loop(probs, means, 1.0, nodes, weights)
            assert abs(got - want) <= 1e-12 + 1e-12 * abs(want)
        assert rows == {"separable": 2, "direct": 2}

    @pytest.mark.parametrize("bound", [1, 2**20])
    def test_each_row_has_its_bits_alone_in_a_mixed_batch(self, monkeypatch, bound):
        batch_rng = np.random.default_rng(8)
        k, count = 5, 40
        probs = batch_rng.dirichlet(np.ones(k), count)
        spread = batch_rng.choice([0.5, 5.0, 30.0, 80.0, 400.0], (count, 1))
        var = 10.0 ** batch_rng.uniform(-3.0, 3.0, count)
        means = spread * batch_rng.uniform(-1.0, 1.0, (count, k)) * np.sqrt(var)[:, None]
        nodes, weights = trapezoid(256)
        alone = [one_mixture(probs[r], means[r], var[r], nodes, weights) for r in range(count)]
        rows = count_forms(monkeypatch)
        monkeypatch.setattr(kernels, "_BATCH_ELEMENTS", bound)
        batch = kernels.mixture_mi_batch(probs, means, var, nodes, weights)
        assert rows["separable"] and rows["direct"]
        assert same_bits(batch, alone)

    @pytest.mark.parametrize("order", [8, 64, 1024])
    @pytest.mark.parametrize("var", [1e-6, 1.0, 1e6])
    def test_no_warning_at_any_separation(self, order, var):
        nodes, weights = trapezoid(order)
        probs = np.array([1e-12, 0.3, 0.7 - 1e-12])
        seps = [0.0, 1e-9, 0.5, 3.0, 30.0, 60.0, 400.0, 1e4, 1e8, 1e100, 1e200, 1e300]
        means = np.array([[-1.0, 0.0, 1.0]]) * np.array(seps)[:, None] * math.sqrt(var)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = kernels.mixture_mi_batch(
                np.tile(probs, (len(seps), 1)), means, np.full(len(seps), var), nodes, weights
            )
        entropy = -(probs * np.log(probs)).sum()
        assert np.isfinite(got).all()
        assert (got >= -1e-12).all() and (got <= entropy + 1e-12).all()
