import math

import numpy as np
import pytest

from dendrofit import (
    DiscretePair,
    GaussianPair,
    MixedPair,
    QuadratureSpec,
    collect_pair_stats,
    mi_discrete,
    mi_gaussian,
    mi_mixed,
)
from dendrofit.errors import DegenerateGaussian, QuadratureFailure, SameVertex
from dendrofit.estimators import _hermite_rule

from conftest import dataset_from_columns, mixed_schema


def discrete_pair(counts) -> DiscretePair:
    counts = np.asarray(counts, dtype=np.int64)
    return DiscretePair(i=0, j=1, counts=counts, n=int(counts.sum()))


def gaussian_pair(rho: float, n: int) -> GaussianPair:
    return GaussianPair(
        i=0, j=1, n=n, mean_i=0.0, mean_j=0.0, var_i=1.0, var_j=1.0, cov=rho
    )


def mixed_pair(probs, means, var, n=1.0) -> MixedPair:
    probs = np.asarray(probs, dtype=np.float64)
    return MixedPair(
        gauss=0,
        disc=1,
        n=float(n),
        class_counts=probs * n,
        class_means=np.asarray(means, dtype=np.float64),
        resid_var=var,
    )


def plugin_mi_oracle(counts) -> float:
    """n x plug-in MI by an explicit double loop over the table."""
    counts = np.asarray(counts, dtype=float)
    n = counts.sum()
    pij = counts / n
    pi = pij.sum(axis=1)
    pj = pij.sum(axis=0)
    total = 0.0
    for a in range(counts.shape[0]):
        for b in range(counts.shape[1]):
            if pij[a, b] > 0:
                total += pij[a, b] * math.log(pij[a, b] / (pi[a] * pj[b]))
    return n * total


class TestCollectPairStats:
    def test_discrete_counting(self):
        schema = mixed_schema("dd")
        ds = dataset_from_columns(schema, [0, 0, 1, 1], [0, 0, 1, 1])
        stats = collect_pair_stats(ds, 0, 1)
        assert stats.counts.tolist() == [[2, 0], [0, 2]]
        assert stats.row_counts.tolist() == [2, 2]
        assert stats.col_counts.tolist() == [2, 2]
        assert stats.n == 4

    def test_same_vertex(self):
        schema = mixed_schema("dd")
        ds = dataset_from_columns(schema, [0, 1], [0, 1])
        with pytest.raises(SameVertex):
            collect_pair_stats(ds, 1, 1)

    def test_identical_gaussian_columns_give_rho_one(self):
        schema = mixed_schema("gg")
        x = [0.0, 1.0, 2.0, 5.0]
        ds = dataset_from_columns(schema, x, x)
        stats = collect_pair_stats(ds, 0, 1)
        assert stats.rho == 1.0
        assert mi_gaussian(stats) == math.inf

    def test_constant_gaussian_column_degenerate(self):
        schema = mixed_schema("gg")
        ds = dataset_from_columns(schema, [1.0, 1.0, 1.0], [0.0, 1.0, 2.0])
        with pytest.raises(DegenerateGaussian, match="'v0'"):
            collect_pair_stats(ds, 0, 1)

    def test_mixed_hand_example(self):
        # rows (x, y): (1, A), (3, A), (10, B), (12, B)
        schema = mixed_schema("gd")
        ds = dataset_from_columns(schema, [1.0, 3.0, 10.0, 12.0], [0, 0, 1, 1])
        stats = collect_pair_stats(ds, 0, 1)
        assert stats.gauss == 0 and stats.disc == 1
        assert stats.class_means.tolist() == [2.0, 11.0]
        assert stats.resid_var == 1.0
        assert stats.class_counts.tolist() == [2.0, 2.0]

    def test_mixed_swap_records_members(self):
        schema = mixed_schema("dg")
        ds = dataset_from_columns(schema, [0, 0, 1, 1], [1.0, 3.0, 10.0, 12.0])
        stats = collect_pair_stats(ds, 0, 1)
        assert stats.gauss == 1 and stats.disc == 0
        assert stats.class_means.tolist() == [2.0, 11.0]

    def test_mixed_symmetric_in_argument_order(self):
        rng = np.random.default_rng(0)
        schema = mixed_schema("gD")
        x = rng.standard_normal(60)
        y = rng.integers(0, 3, size=60)
        ds = dataset_from_columns(schema, x, y)
        a = collect_pair_stats(ds, 0, 1)
        b = collect_pair_stats(ds, 1, 0)
        assert a.gauss == b.gauss == 0
        assert np.array_equal(a.class_means, b.class_means)
        assert a.resid_var == b.resid_var


class TestMiDiscrete:
    def test_perfect_dependence(self):
        assert mi_discrete(discrete_pair([[2, 0], [0, 2]])) == pytest.approx(
            4 * math.log(2), rel=1e-15
        )

    def test_exact_independence_is_zero(self):
        assert mi_discrete(discrete_pair([[1, 1], [1, 1]])) == 0.0

    def test_frozen_value(self):
        # computed with plugin_mi_oracle before the implementation existed
        assert mi_discrete(discrete_pair([[30, 10], [10, 50]])) == pytest.approx(
            17.774088384195018, rel=1e-12
        )

    def test_oracle_equivalence_on_random_tables(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            shape = (int(rng.integers(2, 5)), int(rng.integers(2, 5)))
            counts = rng.integers(0, 40, size=shape)
            if counts.sum() == 0:
                continue
            got = mi_discrete(discrete_pair(counts))
            want = plugin_mi_oracle(counts)
            assert got == pytest.approx(want, rel=1e-12, abs=1e-12)

    def test_nonnegative_and_symmetric(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            counts = rng.integers(0, 30, size=(3, 4))
            if counts.sum() == 0:
                continue
            v = mi_discrete(discrete_pair(counts))
            assert v >= 0.0
            assert v == pytest.approx(
                mi_discrete(discrete_pair(counts.T)), rel=1e-12, abs=1e-12
            )


class TestMiGaussian:
    def test_zero_correlation(self):
        assert mi_gaussian(gaussian_pair(0.0, 50)) == 0.0

    def test_frozen_closed_form(self):
        # -(100/2) ln(1 - 0.36) = -50 ln 0.64
        got = mi_gaussian(gaussian_pair(0.6, 100))
        assert got == pytest.approx(22.314355131420974, rel=1e-12)
        assert got == pytest.approx(-50 * math.log(0.64), rel=1e-12)

    def test_perfect_correlation_sentinel(self):
        assert mi_gaussian(gaussian_pair(1.0, 10)) == math.inf
        assert mi_gaussian(gaussian_pair(-1.0, 10)) == math.inf

    def test_strictly_increasing_in_abs_rho(self):
        rhos = np.linspace(0.0, 0.999, 200)
        vals = [mi_gaussian(gaussian_pair(float(r), 7)) for r in rhos]
        assert all(b > a for a, b in zip(vals, vals[1:]))
        assert mi_gaussian(gaussian_pair(-0.5, 7)) == mi_gaussian(gaussian_pair(0.5, 7))

    def test_degenerate_variance(self):
        stats = GaussianPair(
            i=0, j=1, n=5, mean_i=0, mean_j=0, var_i=0.0, var_j=1.0, cov=0.0
        )
        with pytest.raises(DegenerateGaussian):
            mi_gaussian(stats)


class TestMiMixed:
    def test_identical_class_means_is_zero(self):
        assert mi_mixed(mixed_pair([0.5, 0.5], [3.0, 3.0], 2.0)) == 0.0

    def test_well_separated_two_class(self):
        got = mi_mixed(mixed_pair([0.5, 0.5], [-10.0, 10.0], 1.0))
        assert got == pytest.approx(math.log(2), abs=1e-4)

    def test_moderate_overlap_frozen_value(self):
        # 0.33683082034683154 computed by adaptive quadrature (scipy quad,
        # split at each component mean) before this implementation existed
        got = mi_mixed(mixed_pair([0.5, 0.5], [-1.0, 1.0], 1.0))
        assert got == pytest.approx(0.33683082034683154, rel=1e-9)

    def test_scales_with_n(self):
        per_sample = mi_mixed(mixed_pair([0.5, 0.5], [2.0, 11.0], 1.0, n=1))
        scaled = mi_mixed(mixed_pair([0.5, 0.5], [2.0, 11.0], 1.0, n=4))
        assert scaled == pytest.approx(4 * per_sample, rel=1e-12)

    def test_empty_classes_dropped(self):
        full = mi_mixed(mixed_pair([0.5, 0.5], [-1.0, 1.0], 1.0))
        padded = mi_mixed(mixed_pair([0.5, 0.0, 0.5], [-1.0, 99.0, 1.0], 1.0))
        assert padded == pytest.approx(full, rel=1e-12)

    def test_single_class_is_zero(self):
        assert mi_mixed(mixed_pair([1.0], [2.0], 1.0)) == 0.0

    def test_entropy_bound_on_random_factors(self):
        rng = np.random.default_rng(9)
        for _ in range(25):
            k = int(rng.integers(2, 6))
            probs = rng.dirichlet(np.ones(k))
            means = rng.uniform(-6, 6, size=k)
            var = float(rng.uniform(0.1, 4.0))
            value = mi_mixed(mixed_pair(probs, means, var))
            entropy = float(-(probs * np.log(probs)).sum())
            assert 0.0 <= value <= entropy

    def test_degenerate_residual_variance(self):
        with pytest.raises(DegenerateGaussian):
            mi_mixed(mixed_pair([0.5, 0.5], [0.0, 1.0], 0.0))

    def test_quadrature_failure_when_ladder_capped(self, monkeypatch):
        # a 6-sigma separation changes by ~4.5e-4 between orders 8 and 16,
        # so a ceiling of 16 cannot confirm it at the default tolerance
        monkeypatch.setattr("dendrofit.estimators._MAX_QUAD_ORDER", 16)
        with pytest.raises(QuadratureFailure):
            mi_mixed(
                mixed_pair([0.5, 0.5], [-3.0, 3.0], 1.0),
                QuadratureSpec(order=8),
            )

    def test_quadrature_failure_on_inconsistent_kernel(self, monkeypatch):
        calls = []

        def unstable(probs, means, var, nodes, weights):
            calls.append(len(nodes))
            return np.full(len(probs), float(len(calls)))  # changes every evaluation

        monkeypatch.setattr("dendrofit.estimators.kernels.mixture_mi_batch", unstable)
        with pytest.raises(QuadratureFailure):
            mi_mixed(mixed_pair([0.5, 0.5], [-1.0, 1.0], 1.0))

    def test_escalation_handles_slow_knee_case(self):
        # 4-8 sigma separations converge too slowly at order 64; the
        # ladder must still confirm them at the default tolerance
        got = mi_mixed(mixed_pair([0.5, 0.5], [-3.0, 3.0], 1.0))
        assert got == pytest.approx(math.log(2), rel=1e-2)
        got_wide = mi_mixed(mixed_pair([0.3, 0.7], [-2.0, 12.0], 4.0))
        assert 0.0 < got_wide < math.log(2)


class TestQuadratureSpec:
    def test_order_must_be_even(self):
        with pytest.raises(ValueError):
            QuadratureSpec(order=9)

    def test_order_must_be_at_least_eight(self):
        with pytest.raises(ValueError):
            QuadratureSpec(order=6)

    def test_tolerance_positive(self):
        with pytest.raises(ValueError):
            QuadratureSpec(tolerance=0.0)

    def test_hermite_rule_matches_numpy_reference(self):
        for order in (8, 32, 64):
            nodes, weights = _hermite_rule(order)
            ref_nodes, ref_weights = np.polynomial.hermite.hermgauss(order)
            np.testing.assert_allclose(nodes, ref_nodes, atol=1e-13)
            np.testing.assert_allclose(weights, ref_weights, atol=1e-13)

    def test_hermite_rule_stable_at_high_order(self):
        nodes, weights = _hermite_rule(1024)
        assert np.isfinite(nodes).all() and np.isfinite(weights).all()
        assert weights.sum() == pytest.approx(math.sqrt(math.pi), rel=1e-12)
