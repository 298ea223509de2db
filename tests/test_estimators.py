import math
import pickle
import subprocess
import sys
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from dendrofit import (
    Dataset,
    Discrete,
    DiscretePair,
    Gaussian,
    GaussianPair,
    MixedPair,
    QuadratureSpec,
    Variable,
    VariableSchema,
    collect_pair_stats,
    dataio,
    mi_discrete,
    mi_gaussian,
    mi_mixed,
    oracle,
)
from dendrofit.errors import DegenerateGaussian, DendrofitError, QuadratureFailure, SameVertex
from dendrofit.estimators import (
    _HALF_WIDTH,
    _MAX_QUAD_ORDER,
    _QUAD_ATOL,
    _by_four,
    _rung,
    _rho,
    collect_stats,
    pair_mi_table,
)

from conftest import dataset_from_columns, dispatch_envs, mixed_schema


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

    @settings(max_examples=500)
    @given(
        cov=st.floats(allow_nan=False, allow_infinity=False),
        var_i=st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
        var_j=st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
    )
    @example(cov=-0.0, var_i=2.0**-1074, var_j=1.0)
    @example(cov=3e-160, var_i=1e-160, var_j=1e-160)
    @example(cov=-2e150, var_i=1e150, var_j=4e150)
    def test_rho_is_the_plain_formula_where_it_is_exact(self, cov, var_i, var_j):
        """_rho's scaling by powers of four changes no bit where the plain
        formula neither overflows nor underflows. Its result must also be
        2^-1021 or more in size (or 0): below that the scaled cov, up to
        twice the result, can be subnormal and lose a bit the plain
        quotient keeps."""
        cov, var_i, var_j = map(np.float64, (cov, var_i, var_j))
        with np.errstate(all="raise"):
            try:
                plain = np.clip(cov / np.sqrt(var_i * var_j), -1.0, 1.0)
            except FloatingPointError:
                assume(False)
        assume(plain == 0.0 or abs(plain) >= 2.0**-1021)
        assert float(_rho(cov, _by_four(var_i), _by_four(var_j))).hex() == float(plain).hex()

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

    def test_no_occupied_class_raises(self):
        with pytest.raises(ValueError, match="^mixed pair has no occupied classes$"):
            mi_mixed(mixed_pair([0.0, 0.0], [np.nan, np.nan], 1.0))

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
        # a 6-sigma separation changes by about 20% between orders 8 and
        # 16, so a ceiling of 16 cannot confirm it at the default tolerance
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
            # sums that grow faster than the step shrinks, so the step
            # times their running total changes at every doubling
            return np.full(len(probs), 4.0 ** len(calls))

        monkeypatch.setattr("dendrofit.estimators.kernels.mixture_mi_batch", unstable)
        with pytest.raises(QuadratureFailure):
            mi_mixed(mixed_pair([0.5, 0.5], [-1.0, 1.0], 1.0))

    @pytest.mark.parametrize(
        "start, rungs",
        [
            (8, [8, 16, 32, 64, 128, 256, 512, 1024]),
            (10, [10, 20, 40, 80, 160, 320, 640]),
            (66, [66, 132, 264, 528]),
            (96, [96, 192, 384, 768]),
            (512, [512, 1024]),
        ],
    )
    def test_ladder_never_passes_the_ceiling(self, monkeypatch, start, rungs):
        orders = []

        def unstable(probs, means, var, nodes, weights):
            orders.append(len(nodes))
            return np.full(len(probs), 4.0 ** len(orders))  # never confirms

        monkeypatch.setattr("dendrofit.estimators.kernels.mixture_mi_batch", unstable)
        with pytest.raises(QuadratureFailure) as failure:
            mi_mixed(mixed_pair([0.5, 0.5], [-1.0, 1.0], 1.0), QuadratureSpec(order=start))
        # the first rung's q + 1 nodes, then the q/2 new ones of each order q
        assert orders == [rungs[0] + 1] + [q // 2 for q in rungs[1:]]
        assert str(failure.value).startswith(
            f"doubling up to order {rungs[-1]} never confirmed the integral (last value "
        )

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

    def test_order_must_be_an_integer(self):
        # a rung takes order // 2 multiples of its step on each side
        with pytest.raises(ValueError, match="even integer"):
            QuadratureSpec(order=64.0)
        assert QuadratureSpec(order=np.int64(64)).order == 64

    def test_tolerance_positive(self):
        with pytest.raises(ValueError):
            QuadratureSpec(tolerance=0.0)

    @pytest.mark.parametrize("tolerance", [math.inf, float("1e400"), math.nan])
    def test_tolerance_finite(self, tolerance):
        with pytest.raises(ValueError, match="^tolerance must be finite and positive, got "):
            QuadratureSpec(tolerance=tolerance)


class TestTrapezoidLadder:
    """The nested trapezoidal rule of ``mi_mixed`` and ``pair_mi_table``."""

    @pytest.mark.parametrize("start", [8, 10, 66, 96, 512])
    def test_rungs_nest_bit_for_bit(self, start):
        # each rung adds the odd multiples of its step, so the rungs up to
        # order q hold each multiple k 2T/q, |k| <= q/2, once, with its
        # weight e^{-t^2}
        order, rungs = start, []
        while order <= _MAX_QUAD_ORDER:
            rungs.append(_rung(order, order == start))
            nodes, weights = (np.concatenate(part) for part in zip(*rungs))
            ascending = np.argsort(nodes)
            half = order // 2
            multiples = np.arange(-half, half + 1) * (2.0 * _HALF_WIDTH / order)
            assert nodes[ascending].tobytes() == multiples.tobytes()
            assert weights.tolist() == [math.exp(-t * t) for t in nodes.tolist()]
            order *= 2
        assert math.exp(-_HALF_WIDTH**2) == pytest.approx(1e-30, rel=1e-12)

    def test_same_bytes_with_numpy_dispatch_targets_off(self):
        """The nodes and weights come from Python's own arithmetic and
        math.exp, so they have the same bytes whether or not numpy's SIMD
        loops are switched off, at every order from 64 to 1024."""
        code = (
            "import sys; from dendrofit.estimators import _rung; "
            "sys.stdout.buffer.write(b''.join(part.tobytes() for q in (64, 128, 256, 512, 1024) "
            "for first in (True, False) for part in _rung(q, first)))"
        )
        outputs = []
        for env in dispatch_envs():
            run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                                 timeout=120)
            assert (run.returncode, run.stderr) == (0, b"")
            outputs.append(run.stdout)
        # a first rung's q + 1 nodes and a later rung's q/2, 8 bytes a node
        # and 8 a weight
        assert len(outputs[0]) == 16 * sum(q + 1 + q // 2 for q in (64, 128, 256, 512, 1024))
        assert outputs[0] == outputs[1]


@st.composite
def mixed_datasets(draw):
    """A discrete column of 2-8 classes, each occupied, and 1-3 Gaussian
    columns of 20-200 rows, each standard noise around class means up to
    30 sd apart, at a scale from 1e-6 to 1e6."""
    k, n = draw(st.integers(2, 8)), draw(st.integers(20, 200))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    probs = rng.dirichlet(np.ones(k))
    codes = rng.permutation(np.concatenate([np.arange(k), rng.choice(k, n - k, p=probs)]))
    columns = [codes]
    for _ in range(draw(st.integers(1, 3))):
        spread = draw(st.sampled_from([0.0, 0.5, 2.0, 5.0, 8.0, 15.0, 30.0]))
        scale = 10.0 ** draw(st.floats(-6.0, 6.0))
        means = rng.uniform(-0.5, 0.5, k) * spread
        columns.append((means[codes] + rng.standard_normal(n)) * scale)
    schema = VariableSchema(
        (Variable("d", Discrete(tuple(f"c{c}" for c in range(k)))),)
        + tuple(Variable(f"g{g}", Gaussian()) for g in range(len(columns) - 1))
    )
    return dataset_from_columns(schema, *columns)


class TestMixedAgainstTheFineTrapezoid:
    @settings(max_examples=100, deadline=None)
    @given(
        ds=mixed_datasets(),
        quad=st.builds(
            QuadratureSpec,
            order=st.sampled_from([64, 66, 96]),
            tolerance=st.sampled_from([1e-6, 1e-8, 1e-10]),
        ),
    )
    def test_within_the_tolerance_of_the_reference(self, ds, quad):
        """Every mixed I_n, from the pair table and from mi_mixed, is
        within quad.tolerance relative, plus the absolute floor, of n
        times oracle.mixture_mi_fine, the trapezoid at step 1/256."""
        _, j, mi = pair_mi_table(ds, quad)
        for g, value in zip(j[: ds.schema.n_vars - 1].tolist(), mi.tolist()):
            stats = collect_pair_stats(ds, 0, g)
            probs = stats.class_counts / stats.n
            want = stats.n * oracle.mixture_mi_fine(probs, stats.class_means, stats.resid_var)
            for got in (value, mi_mixed(stats, quad)):
                assert abs(got - want) <= quad.tolerance * abs(want) + stats.n * _QUAD_ATOL


class TestStatisticsPassMemory:
    """The statistics pass holds no copy of all the Gaussian columns, only
    two groups of rows at a time: above its inputs, ``pair_mi_table`` and
    ``collect_stats`` each peak at most 8 columns, whatever the number of
    Gaussian columns (10 here and 30 in the subclass below)."""

    N, GAUSS, DISC = 50_000, 10, 3

    @pytest.fixture(scope="class")
    def dataset(self):
        rng = np.random.default_rng(15)
        labels = rng.integers(0, 4, (self.DISC, self.N))
        # Gaussian column k shifts with the label of discrete column k % 3
        shift = rng.standard_normal((self.GAUSS, 4))
        k = np.arange(self.GAUSS)
        gauss = shift[k[:, None], labels[k % self.DISC]] + rng.standard_normal((self.GAUSS, self.N))
        variables = [Variable(f"d{m}", Discrete(("a", "b", "c", "d"))) for m in range(self.DISC)]
        variables += [Variable(f"g{m}", Gaussian()) for m in range(self.GAUSS)]
        return Dataset(VariableSchema(tuple(variables)), (*labels, *gauss))

    def peak(self, run) -> int:
        run()  # first-call allocations (the quadrature rungs) are not counted
        tracemalloc.start()
        try:
            run()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def bound(self) -> int:
        return 8 * self.N * 8

    def test_pair_table(self, dataset):
        assert self.peak(lambda: pair_mi_table(dataset)) <= self.bound()

    def test_collect_stats(self, dataset):
        d, g = self.DISC, self.DISC + self.GAUSS
        pairs = [(0, d), (2, g - 1), (1, d + 4), (d, d + 1), (d + 2, g - 1), (0, 1)]
        run = lambda: collect_stats(dataset, range(g), pairs)  # noqa: E731
        assert self.peak(run) <= self.bound()


class TestStatisticsPassMemoryThirtyGaussians(TestStatisticsPassMemory):
    GAUSS = 30


# a Gaussian column's scale: 2^532 overflows its variance in original
# units, 2^-560 underflows it, and at 2^-332 a product of two variances
# underflows
SCALES = [0] * 4 + [532, -332, -560]
BOUNDARY_MODES = ["noise", "classes", "function", "constant", "near-copy", "copy"]


@st.composite
def grouped_datasets(draw):
    """2-9 columns and 2-30 rows, with at least one Gaussian column.
    Discrete columns leave some of their 2-5 classes empty. A Gaussian
    column is noise, noise around class means, an exact function of the
    classes (a zero residual), a constant, or an affine copy of an
    earlier Gaussian column with or without noise 1e-9 of its size
    (R^2 -> 1), each at one of SCALES."""
    kinds = draw(st.lists(st.sampled_from("dgg"), min_size=1, max_size=8)) + ["g"]
    kinds = draw(st.permutations(kinds))
    n = draw(st.integers(2, 30))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    variables, columns = [], []
    codes, unscaled = {}, {}  # column -> its codes, or its Gaussian values at scale 1
    for k, kind in enumerate(kinds):
        if kind == "d":
            card = draw(st.integers(2, 5))
            used = rng.permutation(card)[: draw(st.integers(1, card))]
            codes[k] = rng.choice(used, size=n)
            variables.append(Variable(f"v{k}", Discrete(tuple(f"c{c}" for c in range(card)))))
            columns.append(codes[k])
            continue
        mode = draw(st.sampled_from(BOUNDARY_MODES))
        if mode in ("classes", "function") and not codes:
            mode = "noise"
        if mode in ("near-copy", "copy") and not unscaled:
            mode = "noise"
        if mode == "noise":
            x = rng.standard_normal(n)
        elif mode == "constant":
            x = np.full(n, draw(st.sampled_from([0.1, 1 / 3, -2.2])))
        elif mode in ("classes", "function"):
            y = codes[draw(st.sampled_from(sorted(codes)))]
            x = rng.uniform(-4.0, 4.0, 5)[y]
            if mode == "classes":
                x = x + rng.standard_normal(n)
        else:
            source = unscaled[draw(st.sampled_from(sorted(unscaled)))]
            x = rng.uniform(0.5, 2.0) * source + rng.uniform(-1.0, 1.0) * np.abs(source).max()
            if mode == "near-copy":
                x = x + 1e-9 * np.abs(x).max() * rng.standard_normal(n)
        unscaled[k] = x
        variables.append(Variable(f"v{k}", Gaussian()))
        columns.append(np.ldexp(x, draw(st.sampled_from(SCALES))))
    return Dataset(VariableSchema(tuple(variables)), tuple(columns))


class TestGroupBoundaries:
    """The statistics pass walks the Gaussian columns in groups of
    ``dataio.block_rows(n)`` rows. With groups of 1, 2 or 3 rows, or all
    of them, ``pair_mi_table`` and ``collect_stats`` give the same bits,
    or the same first error."""

    @staticmethod
    def outcomes(ds, pairs):
        """pair_mi_table, collect_stats of every vertex and pair, and
        collect_stats of the given pairs, each pickled, or the type and
        message of its error."""
        n_vars = ds.schema.n_vars
        runs = [
            lambda: pair_mi_table(ds),
            lambda: collect_stats(ds, range(n_vars), np.transpose(np.triu_indices(n_vars, 1))),
            lambda: collect_stats(ds, (), pairs),
        ]
        got = []
        for run in runs:
            try:
                got.append(pickle.dumps(run()))
            except DendrofitError as err:
                got.append((type(err), str(err)))
        return got

    @settings(max_examples=150, deadline=None)
    @given(ds=grouped_datasets(), data=st.data())
    def test_same_bits_at_every_group_size(self, ds, data):
        n_vars = ds.schema.n_vars
        pairs = data.draw(st.lists(st.sampled_from(np.transpose(np.triu_indices(n_vars, 1)).tolist())))
        outcomes = []
        for rows in (1, 2, 3, n_vars):
            with mock.patch.object(dataio, "BLOCK_CELLS", rows * ds.n):
                assert dataio.block_rows(ds.n) == rows
                outcomes.append(self.outcomes(ds, pairs))
        assert all(got == outcomes[-1] for got in outcomes[:-1])
