import contextlib
import hashlib
import itertools
import json
import math
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dendrofit import (
    Criterion,
    DendroidModel,
    DiscreteEdgeFactor,
    DiscreteMarginal,
    Forest,
    GaussianEdgeFactor,
    GaussianMarginal,
    MixedEdgeFactor,
    description_length,
    fit,
    log_likelihood,
    mi_discrete,
    mi_gaussian,
    orient_forest,
    sample,
    score_all_pairs,
    collect_pair_stats,
)
from dendrofit import dataio
from dendrofit import model as model_module
from dendrofit import oracle
from dendrofit.core import Discrete, Gaussian, Variable, VariableSchema
from dendrofit.errors import DegenerateGaussian, InvalidCount, SchemaMismatch
from dendrofit.forest import build_forest_suzuki
from dendrofit.dataio import block_rows, render_csv
from dendrofit.model import count_parameters, sample_blocks
from dendrofit.oracle import directed_log_likelihood, sample_whole

from conftest import (
    all_forests,
    column_dtype,
    dataset_from_columns,
    discrete_schema,
    every_kind_model,
    mixed_schema,
    random_discrete_dataset,
    random_mixed_case,
)


def discrete_chain_model() -> DendroidModel:
    """Binary chain v0 - v1 - v2 with consistent pairwise tables."""
    schema = discrete_schema(2, 2, 2)
    p0 = np.array([0.3, 0.7])
    cond10 = np.array([[0.8, 0.2], [0.1, 0.9]])  # P(v1 | v0) rows by v0
    t01 = p0[:, None] * cond10
    p1 = t01.sum(axis=0)
    cond21 = np.array([[0.6, 0.4], [0.25, 0.75]])  # P(v2 | v1) rows by v1
    t12 = p1[:, None] * cond21
    p2 = t12.sum(axis=0)
    return DendroidModel.build(
        schema=schema,
        forest=Forest.from_edges(3, [(0, 1), (1, 2)]),
        marginals=(DiscreteMarginal(p0), DiscreteMarginal(p1), DiscreteMarginal(p2)),
        factors=(
            DiscreteEdgeFactor(0, 1, t01),
            DiscreteEdgeFactor(1, 2, t12),
        ),
        n=1,
    )


def assert_one_moment_per_vertex(ds, forest) -> None:
    """Each Gaussian factor of fit(ds, forest) holds its endpoints'
    marginal moments, and each factor is its edge's collect_pair_stats."""
    model = fit(ds, forest)
    for factor, edge in zip(model.factors, forest.sorted_edges):
        stats = collect_pair_stats(ds, *edge)
        if isinstance(factor, DiscreteEdgeFactor):
            assert (factor.table == stats.counts / ds.n).all()
        elif isinstance(factor, GaussianEdgeFactor):
            for v, mean, var in ((factor.i, factor.mean_i, factor.var_i),
                                 (factor.j, factor.mean_j, factor.var_j)):
                assert (mean, var) == (model.marginals[v].mean, model.marginals[v].var)
            assert (factor.mean_i, factor.var_i, factor.mean_j, factor.var_j, factor.rho) == (
                stats.mean_i, stats.var_i, stats.mean_j, stats.var_j, stats.rho
            )
        else:
            occupied = stats.class_counts > 0
            assert (factor.gauss, factor.disc, factor.resid_var) == (
                stats.gauss, stats.disc, stats.resid_var
            )
            assert (factor.class_probs == stats.class_counts / ds.n).all()
            assert (factor.class_means[occupied] == stats.class_means[occupied]).all()


PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def assert_mi_within_fitted_gain(ds, forest) -> int:
    """On each mixed edge of the forest whose discrete endpoint is the
    parent, I_n <= (n/2) ln(var / resid_var), the fitted model's gain in
    log-likelihood over the child's marginal: a Gaussian has the largest
    entropy for its variance. The slack covers the quadrature tolerance.
    Edges oriented the other way have no such bound. Returns the number
    of edges checked."""
    model = fit(ds, forest)
    mi = {(e.i, e.j): e.mi for e in score_all_pairs(ds, Criterion.maximum_likelihood())}
    checked = 0
    for child, parent in enumerate(orient_forest(forest, ds.schema).parents):
        if parent is None or not ds.schema.is_discrete(parent) or ds.schema.is_discrete(child):
            continue
        factor = model.factor_for(child, parent)
        gain = 0.5 * ds.n * math.log(model.marginals[child].var / factor.resid_var)
        assert mi[min(child, parent), max(child, parent)] <= gain * (1 + 1e-7) + 1e-9 * ds.n
        checked += 1
    return checked


class TestMixedEdgeGain:
    @pytest.mark.parametrize("seed", [7, 11])
    @pytest.mark.parametrize("workload", ["wide", "mixed-hard"])
    def test_benchmark_forests(self, tmp_path, workload, seed):
        subprocess.run(
            [sys.executable, "generate.py", workload, str(seed), "full", str(tmp_path)],
            cwd=PERFBENCH, check=True, capture_output=True,
        )
        schema = dataio.read_schema(tmp_path / "schema.json")
        ds = dataio.read_csv_dataset(tmp_path / "data.csv", schema)
        forest = build_forest_suzuki(score_all_pairs(ds, Criterion.mdl()))
        assert assert_mi_within_fitted_gain(ds, forest) > 0

    def test_random_small_datasets(self):
        rng = np.random.default_rng(23)
        checked = sum(assert_mi_within_fitted_gain(*random_mixed_case(rng)) for _ in range(150))
        assert checked > 50


class TestFit:
    def test_one_mean_and_variance_per_gaussian_vertex(self):
        # a Gaussian chain on which the exactly rounded variance and the
        # moment kernel's pairwise sum differ for some columns, so a
        # marginal computed another way would not be the variance its
        # factors hold (np.var adds in the kernel's order, to the same bits)
        rng = np.random.default_rng(7)
        columns = [rng.standard_normal(2000) * 10.0 ** rng.uniform(-2, 2) for _ in range(10)]
        ds = dataset_from_columns(mixed_schema("g" * 10), *columns)
        model = fit(ds, Forest.from_edges(10, [(v, v + 1) for v in range(9)]))
        exact = [math.fsum((x - math.fsum(x) / x.size) ** 2) / x.size for x in columns]
        assert any(var != f.var_i for var, f in zip(exact, model.factors))
        assert_one_moment_per_vertex(ds, model.forest)
        for _ in range(40):
            assert_one_moment_per_vertex(*random_mixed_case(rng))

    def test_binary_marginal_relative_frequencies(self):
        schema = discrete_schema(2)
        ds = dataset_from_columns(schema, [0, 0, 1, 1])
        model = fit(ds, Forest.from_edges(1, []))
        assert model.marginals[0].probs.tolist() == [0.5, 0.5]

    def test_mixed_edge_stores_hand_computed_mles(self):
        schema = mixed_schema("gd")
        ds = dataset_from_columns(schema, [1.0, 3.0, 10.0, 12.0], [0, 0, 1, 1])
        model = fit(ds, Forest.from_edges(2, [(0, 1)]))
        factor = model.factors[0]
        assert isinstance(factor, MixedEdgeFactor)
        assert factor.class_means.tolist() == [2.0, 11.0]
        assert factor.resid_var == 1.0
        assert factor.class_probs.tolist() == [0.5, 0.5]

    def test_discrete_table_marginals_consistent(self):
        rng = np.random.default_rng(5)
        ds = random_discrete_dataset(rng, (2, 3, 2), 200)
        model = fit(ds, Forest.from_edges(3, [(0, 1), (1, 2)]))
        for factor in model.factors:
            np.testing.assert_allclose(
                factor.table.sum(axis=1), model.marginals[factor.i].probs, atol=1e-12
            )
            np.testing.assert_allclose(
                factor.table.sum(axis=0), model.marginals[factor.j].probs, atol=1e-12
            )

    def test_perfectly_correlated_gaussian_edge_rejected(self):
        schema = mixed_schema("gg")
        x = np.array([0.0, 1.0, 2.0, 3.0])
        ds = dataset_from_columns(schema, x, 2 * x)
        with pytest.raises(DegenerateGaussian):
            fit(ds, Forest.from_edges(2, [(0, 1)]))

    def test_constant_gaussian_column_rejected(self):
        schema = mixed_schema("gg")
        ds = dataset_from_columns(schema, [1.0, 1.0], [0.0, 1.0])
        with pytest.raises(DegenerateGaussian):
            fit(ds, Forest.from_edges(2, []))

    @pytest.mark.parametrize(
        "column, edges, message",
        [
            # the mean of seven 0.1s is not 0.1, so np.var gives 1.9e-34
            ([0.1] * 7, [], "column 'v0' has zero sample variance"),
            # the residual variance around the class means comes out 5.3e-33
            ([0.1, 0.7] * 3 + [0.1], [(0, 1)], "zero pooled residual variance"),
        ],
    )
    def test_degeneracy_is_exact_not_rounded(self, column, edges, message):
        ds = dataset_from_columns(mixed_schema("gd"), column, [0, 1] * 3 + [0])
        with pytest.raises(DegenerateGaussian, match=message):
            fit(ds, Forest.from_edges(2, edges))

    def test_forest_of_another_size_rejected(self):
        ds = dataset_from_columns(mixed_schema("gd"), [0.5, -0.5], [0, 1])
        with pytest.raises(ValueError, match="disagree on the number of vertices"):
            fit(ds, Forest.from_edges(3, []))


class TestParameterCount:
    def test_edgeless_is_sum_of_node_params(self):
        schema = mixed_schema("dgDg")
        k = count_parameters(schema, Forest.from_edges(4, []))
        assert k == 1 + 2 + 2 + 2

    def test_two_gaussians_one_edge(self):
        schema = mixed_schema("gg")
        assert count_parameters(schema, Forest.from_edges(2, [(0, 1)])) == 5

    def test_matches_directed_conditional_count_on_random_trees(self):
        # sum over i of (alpha_i - 1) alpha_pi(i), alpha of a missing
        # parent being 1, must equal the node-plus-increment form
        rng = np.random.default_rng(8)
        for _ in range(25):
            n = int(rng.integers(2, 7))
            cards = tuple(int(c) for c in rng.integers(2, 5, size=n))
            schema = discrete_schema(*cards)
            pairs = [(int(rng.integers(0, v)), v) for v in range(1, n)]
            forest = Forest.from_edges(n, pairs)
            rooted = orient_forest(forest, schema)
            directed = 0
            for v, parent in enumerate(rooted.parents):
                alpha_parent = 1 if parent is None else cards[parent]
                directed += (cards[v] - 1) * alpha_parent
            assert count_parameters(schema, forest) == directed


class TestLogLikelihood:
    def test_single_binary_uniform(self):
        schema = discrete_schema(2)
        ds = dataset_from_columns(schema, [0, 0, 1, 1])
        model = fit(ds, Forest.from_edges(1, []))
        assert log_likelihood(model, ds) == pytest.approx(4 * math.log(0.5), rel=1e-12)

    def test_edgeless_equals_negative_n_times_entropy(self):
        rng = np.random.default_rng(11)
        ds = random_discrete_dataset(rng, (2, 3, 4), 150)
        model = fit(ds, Forest.from_edges(3, []))
        entropy = 0.0
        for v in range(3):
            p = model.marginals[v].probs
            p = p[p > 0]
            entropy += float(-(p * np.log(p)).sum())
        assert log_likelihood(model, ds) == pytest.approx(-150 * entropy, rel=1e-9)

    def test_adding_an_edge_adds_its_mutual_information(self):
        rng = np.random.default_rng(12)
        ds = random_discrete_dataset(rng, (2, 3, 2, 4), 120)
        base_edges = [(0, 1)]
        for new_edge in [(1, 2), (2, 3), (0, 2)]:
            without = fit(ds, Forest.from_edges(4, base_edges))
            augmented = Forest.from_edges(4, base_edges + [new_edge])
            with_edge = fit(ds, augmented)
            gain = log_likelihood(with_edge, ds) - log_likelihood(without, ds)
            expected = mi_discrete(collect_pair_stats(ds, *new_edge))
            assert gain == pytest.approx(expected, rel=1e-9)

    def test_adding_a_gaussian_edge_adds_its_mutual_information(self):
        rng = np.random.default_rng(13)
        n = 400
        x0 = rng.standard_normal(n)
        x1 = 3.0 - 0.8 * x0 + rng.standard_normal(n)
        x2 = 5e4 + 1e-3 * (0.6 * x1 + rng.standard_normal(n))  # offset 5e4, sd 1e-3
        x3 = 20.0 * x0 + rng.standard_normal(n)
        ds = dataset_from_columns(mixed_schema("gggg"), x0, x1, x2, x3)
        base_edges = [(0, 1)]
        for new_edge in [(1, 2), (2, 3), (0, 2), (0, 3)]:
            without = fit(ds, Forest.from_edges(4, base_edges))
            with_edge = fit(ds, Forest.from_edges(4, base_edges + [new_edge]))
            gain = log_likelihood(with_edge, ds) - log_likelihood(without, ds)
            expected = mi_gaussian(collect_pair_stats(ds, *new_edge))
            assert gain == pytest.approx(expected, rel=1e-9)

    def test_unseen_category_gives_minus_infinity(self):
        schema = discrete_schema(2)
        train = dataset_from_columns(schema, [0, 0, 0])
        model = fit(train, Forest.from_edges(1, []))
        held_out = dataset_from_columns(schema, [0, 1])
        assert log_likelihood(model, held_out) == -math.inf

    def test_unseen_pair_combination_gives_minus_infinity(self):
        schema = discrete_schema(2, 2)
        train = dataset_from_columns(schema, [0, 0, 1, 1], [0, 0, 1, 1])
        model = fit(train, Forest.from_edges(2, [(0, 1)]))
        held_out = dataset_from_columns(schema, [0], [1])
        assert log_likelihood(model, held_out) == -math.inf

    def test_schema_mismatch(self):
        ds_a = dataset_from_columns(discrete_schema(2), [0, 1])
        ds_b = dataset_from_columns(discrete_schema(3), [0, 1])
        model = fit(ds_a, Forest.from_edges(1, []))
        with pytest.raises(SchemaMismatch):
            log_likelihood(model, ds_b)

    def test_gaussian_chain_matches_direct_bivariate_density(self):
        rng = np.random.default_rng(13)
        schema = mixed_schema("gg")
        x = rng.standard_normal(300)
        y = 0.7 * x + rng.standard_normal(300)
        ds = dataset_from_columns(schema, x, y)
        model = fit(ds, Forest.from_edges(2, [(0, 1)]))
        factor = model.factors[0]
        mx, my = factor.mean_i, factor.mean_j
        vx, vy, r = factor.var_i, factor.var_j, factor.rho
        cov = np.array(
            [[vx, r * math.sqrt(vx * vy)], [r * math.sqrt(vx * vy), vy]]
        )
        inv = np.linalg.inv(cov)
        z = np.stack([ds.column(0) - mx, ds.column(1) - my], axis=1)
        quad = (z @ inv * z).sum(axis=1)
        direct = float(
            (-math.log(2 * math.pi) - 0.5 * math.log(np.linalg.det(cov)) - 0.5 * quad).sum()
        )
        assert log_likelihood(model, ds) == pytest.approx(direct, rel=1e-10)


class TestDescriptionLength:
    def test_ml_is_negative_log_likelihood(self):
        rng = np.random.default_rng(14)
        ds = random_discrete_dataset(rng, (2, 2), 50)
        model = fit(ds, Forest.from_edges(2, [(0, 1)]))
        assert description_length(model, ds, Criterion.maximum_likelihood()) == (
            -log_likelihood(model, ds)
        )

    def test_mdl_penalizes_by_half_k_log_n(self):
        rng = np.random.default_rng(15)
        ds = random_discrete_dataset(rng, (2, 3), 80)
        model = fit(ds, Forest.from_edges(2, [(0, 1)]))
        expected = -log_likelihood(model, ds) + 0.5 * model.param_count * math.log(80)
        assert description_length(model, ds, Criterion.mdl()) == pytest.approx(
            expected, rel=1e-12
        )

    def test_learned_forest_minimizes_dl_over_all_forests(self):
        rng = np.random.default_rng(16)
        ds = random_discrete_dataset(rng, (2, 2, 3), 100)
        edges = score_all_pairs(ds, Criterion.mdl())
        learned = build_forest_suzuki(edges)
        learned_dl = description_length(fit(ds, learned), ds, Criterion.mdl())
        for forest in all_forests(3):
            dl = description_length(fit(ds, forest), ds, Criterion.mdl())
            assert learned_dl <= dl + 1e-9


# sha256 of the CSV text of 40 rows drawn from every_kind_model(), by seed
PINNED_SAMPLE_SHA256 = {
    5: "f21019d62b26b08cd5b067061937c2ebdc2c6173a78bbc227f113e226aae9bc9",
    6: "5aa19da70282f0604d8b38312286bf8873d26f84dc3ef4e599e8b84a86d87b66",
}


# sha256 of the CSV text of rows drawn from every_kind_model(), by (seed,
# count), taken from the whole-column sampler. Rows of 9 cells make render
# blocks of 1,820 rows: 1821 and 7281 end one row into a block of one and
# of four of them, and 25001 spans several of each
PINNED_BLOCKS_SAMPLE_SHA256 = {
    (5, 1821): "d1516cc9c6a5ce3cf1c21e54fa572a10569dc6b1f1420a4c8ec18fa42a7cd31f",
    (5, 7281): "8a6b5dc5003e9a85febd9da03ecf3c80ed8d2a65b8539226e6d772f08ced0d8a",
    (5, 25001): "6f85483938babbcc6e02e360fed25724ad07620646abc93d9121eca33a563221",
    (6, 1821): "c4725e39c4fbcb5fe57c3f17a207c42c59cd4284ba346d44da8b11cd033af7a5",
    (6, 7281): "d3dc8798992f1eefbb985785177a09197163cdc347af9d7e75521a205b4f700e",
    (6, 25001): "f7bf7b0690ab520d61144ce0b8ba869155d2db39d0d8478099d287af6d4598af",
}


@contextlib.contextmanager
def blocks_of(rows: int, n_vars: int):
    """sample_blocks draws blocks of rows rows of n_vars cells within."""
    with mock.patch.object(model_module, "DRAW_BLOCKS", 1):
        with mock.patch.object(dataio, "BLOCK_CELLS", rows * n_vars):
            yield


def assert_same_bits(drawn, reference) -> None:
    for v, (column, expected) in enumerate(zip(drawn.columns, reference.columns)):
        assert column.dtype == expected.dtype == column_dtype(drawn.schema, v)
        assert column.tobytes() == expected.tobytes()


@st.composite
def small_forest_models(draw):
    """A model fitted on a random forest over 2-7 mixed vertices, some
    discrete columns leaving classes empty, so tables and class
    probabilities hold zeros."""
    kinds = "".join(draw(st.lists(st.sampled_from("dDg"), min_size=2, max_size=7)))
    n = draw(st.integers(12, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    columns = []
    for kind in kinds:
        if kind == "g":
            x = rng.standard_normal(n)
            if columns and draw(st.booleans()):
                x += 3.0 * columns[-1]
            columns.append(x)
        else:
            levels = draw(st.integers(1, 2 if kind == "d" else 3))
            columns.append(rng.integers(0, levels, n))
    # each vertex after the first in a random order joins the one before
    # it (so that paths are long) or another earlier one, or starts a tree
    order = draw(st.permutations(range(len(kinds))))
    edges = []
    for k in range(1, len(order)):
        earlier = st.one_of(st.just(order[k - 1]), st.sampled_from(order[:k]))
        joined = draw(st.one_of(st.none(), earlier, earlier))
        if joined is not None:
            edges.append((min(joined, order[k]), max(joined, order[k])))
    ds = dataset_from_columns(mixed_schema(kinds), *columns)
    return fit(ds, Forest.from_edges(len(kinds), edges))


class TestSampling:
    def test_fixed_seed_bit_identical(self):
        model = discrete_chain_model()
        a = sample(model, 500, seed=42)
        b = sample(model, 500, seed=42)
        for v in range(3):
            assert np.array_equal(a.column(v), b.column(v))
        c = sample(model, 500, seed=43)
        assert any(not np.array_equal(a.column(v), c.column(v)) for v in range(3))

    @pytest.mark.parametrize("seed", sorted(PINNED_SAMPLE_SHA256))
    def test_csv_bytes_are_pinned(self, seed):
        # literal parameters, so no fit (and no BLAS) can move their bits;
        # every factor kind is drawn in both orientations
        text = render_csv(sample(every_kind_model(), 40, seed))
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() == PINNED_SAMPLE_SHA256[seed]

    @settings(max_examples=150, deadline=None)
    @given(
        model=small_forest_models(),
        count=st.integers(1, 300),
        rows=st.integers(1, 40),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_blocks_match_the_whole_column_reference(self, model, count, rows, seed):
        with blocks_of(rows, model.schema.n_vars):
            drawn = sample(model, count, seed)
        assert_same_bits(drawn, sample_whole(model, count, seed))

    @pytest.mark.parametrize("rows", [1, 2, 3, 7, 40, 333, 1000])
    @pytest.mark.parametrize("count", [1, 2, 39, 40, 41, 333])
    def test_every_kind_blocks_match_the_reference(self, count, rows):
        model = every_kind_model()
        with blocks_of(rows, model.schema.n_vars):
            drawn = sample(model, count, 9)
        assert_same_bits(drawn, sample_whole(model, count, 9))

    @pytest.mark.parametrize("rows", [1, 7, 333])
    @pytest.mark.parametrize("classes", [8, 12])
    def test_many_class_bayes_vertex_blocks_match_the_reference(self, classes, rows):
        # small_forest_models' Bayes vertices have at most 3 classes. From 8
        # classes numpy sums a row of weights in another order than a column
        # of them, and a draw seldom shows a cdf's last bit, so the cdfs of
        # z are compared too
        model = many_class_bayes_chain(classes)
        cdfs: dict[str, list] = {"blocks": [], "whole": []}

        def recorded(module, key):
            draw = module._draw_categorical

            def recording(rng, cdf_rows, count, *last):
                if cdf_rows.shape == (count, classes):
                    cdfs[key].append(cdf_rows.copy())
                return draw(rng, cdf_rows, count, *last)

            return mock.patch.object(module, "_draw_categorical", recording)

        with recorded(model_module, "blocks"), recorded(oracle, "whole"):
            with blocks_of(rows, model.schema.n_vars):
                drawn = sample(model, 1000, 5)
            assert_same_bits(drawn, sample_whole(model, 1000, 5))
        assert set(drawn.column(2).tolist()) == set(range(classes - 1))
        blocks, whole = (np.concatenate(cdfs[key]) for key in ("blocks", "whole"))
        assert whole.shape == (1000, classes) and blocks.tobytes() == whole.tobytes()

    @pytest.mark.parametrize("block_cells", [dataio.BLOCK_CELLS, 90])
    @pytest.mark.parametrize("seed, count", sorted(PINNED_BLOCKS_SAMPLE_SHA256))
    def test_csv_bytes_above_one_block_are_pinned(self, seed, count, block_cells):
        with mock.patch.object(dataio, "BLOCK_CELLS", block_cells):
            text = render_csv(sample(every_kind_model(), count, seed))
        digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
        assert digest == PINNED_BLOCKS_SAMPLE_SHA256[(seed, count)]

    def test_blocks_are_draw_blocks_of_render_blocks(self):
        model = every_kind_model()
        rows = model_module.DRAW_BLOCKS * block_rows(model.schema.n_vars)
        sizes = [len(block[0]) for block in sample_blocks(model, 2 * rows + 5, 1)]
        assert sizes == [rows, rows, 5]

    def test_count_is_checked_before_the_first_block(self):
        with pytest.raises(InvalidCount):
            sample_blocks(every_kind_model(), 0, seed=1)

    def test_factor_for_looks_up_either_orientation(self):
        model = discrete_chain_model()
        for factor in model.factors:
            assert model.factor_for(factor.i, factor.j) is factor
            assert model.factor_for(factor.j, factor.i) is factor

    def test_factor_for_missing_edge_raises_in_either_orientation(self):
        model = discrete_chain_model()
        for i, j in ((0, 2), (2, 0)):
            with pytest.raises(KeyError, match=r"no factor for edge \(0, 2\)"):
                model.factor_for(i, j)

    def test_count_must_be_positive(self):
        model = discrete_chain_model()
        with pytest.raises(InvalidCount):
            sample(model, 0, seed=1)
        with pytest.raises(InvalidCount):
            sample(model, -3, seed=1)

    def test_edgeless_model_gives_independent_columns(self):
        schema = mixed_schema("dg")
        model = DendroidModel.build(
            schema=schema,
            forest=Forest.from_edges(2, []),
            marginals=(
                DiscreteMarginal(np.array([0.25, 0.75])),
                GaussianMarginal(mean=2.0, var=4.0),
            ),
            factors=(),
            n=1,
        )
        ds = sample(model, 40_000, seed=7)
        y, x = ds.column(0), ds.column(1)
        assert abs(y.mean() - 0.75) < 3 * math.sqrt(0.25 * 0.75 / 40_000)
        assert abs(x.mean() - 2.0) < 3 * 2.0 / math.sqrt(40_000)
        # class-conditional means of an independent pair agree
        assert abs(x[y == 0].mean() - x[y == 1].mean()) < 4 * 2.0 / math.sqrt(10_000)

    def test_discrete_chain_pairwise_tables_within_3se(self):
        model = discrete_chain_model()
        n = 50_000
        ds = sample(model, n, seed=3)
        for factor in model.factors:
            xi, xj = ds.column(factor.i), ds.column(factor.j)
            for a in range(2):
                for b in range(2):
                    p = factor.table[a, b]
                    se = math.sqrt(p * (1 - p) / n)
                    freq = float(((xi == a) & (xj == b)).mean())
                    assert abs(freq - p) <= 3 * se

    def test_fit_of_samples_recovers_gaussian_parameters(self):
        schema = mixed_schema("gg")
        model = DendroidModel.build(
            schema=schema,
            forest=Forest.from_edges(2, [(0, 1)]),
            marginals=(
                GaussianMarginal(mean=1.0, var=2.0),
                GaussianMarginal(mean=-1.0, var=3.0),
            ),
            factors=(
                GaussianEdgeFactor(
                    0, 1, rho=0.6, mean_i=1.0, var_i=2.0, mean_j=-1.0, var_j=3.0
                ),
            ),
            n=1,
        )
        n = 50_000
        refit = fit(sample(model, n, seed=11), Forest.from_edges(2, [(0, 1)]))
        factor = refit.factors[0]
        assert abs(factor.rho - 0.6) <= 3 * (1 - 0.6**2) / math.sqrt(n)
        assert abs(factor.mean_i - 1.0) <= 3 * math.sqrt(2.0 / n)
        assert abs(factor.mean_j + 1.0) <= 3 * math.sqrt(3.0 / n)
        assert abs(factor.var_i - 2.0) <= 3 * 2.0 * math.sqrt(2.0 / n)

    def test_bayes_inversion_matches_grid_integration(self):
        # chain d - g - d: the far discrete vertex is a discrete child of
        # a Gaussian parent, sampled by inverting the mixed factor
        schema = mixed_schema("dgd")
        p0 = np.array([0.4, 0.6])
        g1 = np.array([-2.0, 2.0])
        mean1 = float((p0 * g1).sum())
        var1 = 1.0 + float((p0 * (g1 - mean1) ** 2).sum())
        # both class mixtures reproduce the marginal of vertex 1
        p2 = np.array([0.5, 0.5])
        g2 = mean1 + np.array([-1.0, 1.0])
        r2 = var1 - float((p2 * (g2 - mean1) ** 2).sum())
        model = DendroidModel.build(
            schema=schema,
            forest=Forest.from_edges(3, [(0, 1), (1, 2)]),
            marginals=(
                DiscreteMarginal(p0),
                GaussianMarginal(mean=mean1, var=var1),
                DiscreteMarginal(p2),
            ),
            factors=(
                MixedEdgeFactor(
                    gauss=1, disc=0, class_probs=p0, class_means=g1, resid_var=1.0
                ),
                MixedEdgeFactor(
                    gauss=1, disc=2, class_probs=p2, class_means=g2, resid_var=r2
                ),
            ),
            n=1,
        )
        rooted = orient_forest(model.forest, schema)
        assert rooted.parents == (None, 0, 1)  # vertex 2 needs inversion

        # independent oracle: dense-grid integration of the sampler's law
        grid = np.linspace(-14.0, 14.0, 40_001)
        fx = sum(
            p0[y] * np.exp(-((grid - g1[y]) ** 2) / 2.0) / math.sqrt(2 * math.pi)
            for y in range(2)
        )
        w1 = p2[1] * np.exp(-((grid - g2[1]) ** 2) / (2.0 * r2))
        w0 = p2[0] * np.exp(-((grid - g2[0]) ** 2) / (2.0 * r2))
        post1 = w1 / (w0 + w1)
        prob_y2 = float(np.trapezoid(fx * post1, grid))
        mean_x_given_y2 = float(np.trapezoid(grid * fx * post1, grid)) / prob_y2

        n = 60_000
        ds = sample(model, n, seed=17)
        x, y2 = ds.column(1), ds.column(2)
        freq = float((y2 == 1).mean())
        assert abs(freq - prob_y2) <= 3 * math.sqrt(prob_y2 * (1 - prob_y2) / n)
        picked = x[y2 == 1]
        assert abs(picked.mean() - mean_x_given_y2) <= 4 * picked.std() / math.sqrt(
            picked.size
        )


class LargestUniform:
    """A generator whose every uniform is the largest that
    Generator.random() returns, 1 - 2**-53."""

    def random(self, count: int) -> np.ndarray:
        return np.full(count, 1.0 - 2.0**-53)


def cdf_short_of_one_model() -> DendroidModel:
    """z | y and w | x, each with a category of probability 0 whose cdf
    ends at 1 - 2**-53 before it: the marginal (49, 12, 28, 7, 0) / 96
    of a lone vertex, the table row z | y = p, and the Bayes inversion
    w | x over ten classes of 0.1 at one mean and an empty eleventh."""
    schema = VariableSchema((
        Variable("y", Discrete(("p", "q"))),
        Variable("z", Discrete(tuple("abcde"))),
        Variable("x", Gaussian()),
        Variable("w", Discrete(tuple(f"c{k}" for k in range(11)))),
        Variable("u", Discrete(tuple("abcde"))),
    ))
    counts = np.array([[49, 12, 28, 7, 0], [1, 1, 1, 1, 1]], dtype=np.float64)
    joint = counts / counts.sum()
    classes = np.array([0.1] * 10 + [0.0])
    return DendroidModel.build(
        schema=schema,
        forest=Forest.from_edges(5, [(0, 1), (2, 3)]),
        marginals=(
            DiscreteMarginal(joint.sum(axis=1)),
            DiscreteMarginal(joint.sum(axis=0)),
            GaussianMarginal(0.0, 1.0),
            DiscreteMarginal(classes),
            DiscreteMarginal(np.array([49, 12, 28, 7, 0]) / 96),
        ),
        factors=(
            DiscreteEdgeFactor(0, 1, joint),
            MixedEdgeFactor(gauss=2, disc=3, class_probs=classes,
                            class_means=np.zeros(11), resid_var=1.0),
        ),
        n=1,
    )


class TestLargestUniform:
    """The largest uniform draws a category of positive probability when
    the cdf before an empty last category rounds to below 1, so eval
    never scores a sampled row -inf."""

    CASES = {
        "marginal": (4, None, None),
        "table": (1, 0, np.zeros(3, dtype=np.int64)),
        "bayes inversion": (3, 2, np.array([0.0, 1.5, -40.0])),
    }

    def draw(self, case):
        v, parent, par = self.CASES[case]
        draw, log_density = model_module._conditional(cdf_short_of_one_model(), v, parent)
        col = draw(LargestUniform(), par, 3)
        return log_density(col, par)

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_draws_a_category_of_positive_probability(self, case):
        assert np.isfinite(self.draw(case)).all()

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_the_last_category_would_be_empty(self, case):
        # the case is one the old clamp to the last category gets wrong
        def last(probs):
            return np.full(probs.shape[:-1], probs.shape[-1] - 1)

        with mock.patch.object(model_module, "_last_positive", last):
            assert np.isneginf(self.draw(case)).all()


def mixed_factor(gauss, disc, probs, means, resid_var) -> MixedEdgeFactor:
    return MixedEdgeFactor(
        gauss=gauss,
        disc=disc,
        class_probs=np.array(probs, dtype=np.float64),
        class_means=np.array(means, dtype=np.float64),
        resid_var=resid_var,
    )


def class_mixture(factor: MixedEdgeFactor) -> GaussianMarginal:
    """The Gaussian marginal that a mixed factor's class mixture gives."""
    mean = float((factor.class_probs * factor.class_means).sum())
    spread = float((factor.class_probs * (factor.class_means - mean) ** 2).sum())
    return GaussianMarginal(mean=mean, var=factor.resid_var + spread)


def split_in_two(gauss, disc, marg: GaussianMarginal, sep: float) -> MixedEdgeFactor:
    """A mixed factor of two equally likely classes sep residual sds
    apart whose mixture reproduces marg."""
    resid_var = marg.var / (1.0 + sep * sep / 4.0)
    half = 0.5 * sep * math.sqrt(resid_var)
    return mixed_factor(gauss, disc, [0.5, 0.5], [marg.mean - half, marg.mean + half], resid_var)


def bayes_chain(sep: float) -> DendroidModel:
    """y - x - z, x Gaussian: oriented from y, z is a discrete child of a
    Gaussian parent. Each mixed factor's classes are sep residual sds
    apart."""
    xy = mixed_factor(1, 0, [0.4, 0.6], [0.0, sep], 1.0)
    x = class_mixture(xy)
    return DendroidModel.build(
        schema=mixed_schema("dgd"),
        forest=Forest.from_edges(3, [(0, 1), (1, 2)]),
        marginals=(
            DiscreteMarginal(np.array([0.4, 0.6])), x, DiscreteMarginal(np.array([0.5, 0.5]))
        ),
        factors=(xy, split_in_two(1, 2, x, sep)),
        n=1,
    )


def bayes_under_gaussian_edge() -> DendroidModel:
    """y - x1 - x2 - z: z's Gaussian parent x2 is the child of another
    Gaussian."""
    a = mixed_factor(1, 0, [0.3, 0.7], [-1.0, 1.0], 0.5)
    x1, x2 = class_mixture(a), GaussianMarginal(mean=2.0, var=3.0)
    return DendroidModel.build(
        schema=mixed_schema("dggd"),
        forest=Forest.from_edges(4, [(0, 1), (1, 2), (2, 3)]),
        marginals=(
            DiscreteMarginal(np.array([0.3, 0.7])), x1, x2, DiscreteMarginal(np.array([0.5, 0.5]))
        ),
        factors=(
            a,
            GaussianEdgeFactor(1, 2, rho=0.8, mean_i=x1.mean, var_i=x1.var, mean_j=2.0, var_j=3.0),
            split_in_two(2, 3, x2, 2.0),
        ),
        n=1,
    )


def discrete_under_bayes() -> DendroidModel:
    """y - x - z - w: z is drawn by Bayes inversion, w from a table given z."""
    xy = mixed_factor(1, 0, [0.25, 0.75], [-2.0, 1.0], 1.5)
    x = class_mixture(xy)
    return DendroidModel.build(
        schema=mixed_schema("dgDd"),
        forest=Forest.from_edges(4, [(0, 1), (1, 2), (2, 3)]),
        marginals=(
            DiscreteMarginal(np.array([0.25, 0.75])),
            x,
            DiscreteMarginal(np.array([0.25, 0.25, 0.5])),
            DiscreteMarginal(np.array([0.625, 0.375])),
        ),
        factors=(
            xy,
            mixed_factor(1, 2, [0.25, 0.25, 0.5], x.mean + np.array([-2.0, 0.0, 1.0]), x.var - 1.5),
            DiscreteEdgeFactor(2, 3, np.array([[0.25, 0.0], [0.125, 0.125], [0.25, 0.25]])),
        ),
        n=1,
    )


def no_bayes_vertex() -> DendroidModel:
    """y - w - x: a table and a Gaussian child of a discrete parent."""
    yw = np.array([[0.125, 0.375], [0.25, 0.25]])
    xw = mixed_factor(2, 1, [0.375, 0.625], [2.0, -1.0], 1.0)
    return DendroidModel.build(
        schema=mixed_schema("ddg"),
        forest=Forest.from_edges(3, [(0, 1), (1, 2)]),
        marginals=(
            DiscreteMarginal(yw.sum(axis=1)), DiscreteMarginal(yw.sum(axis=0)), class_mixture(xw)
        ),
        factors=(DiscreteEdgeFactor(0, 1, yw), xw),
        n=1,
    )


def gaussian_pair_beside_a_discrete() -> DendroidModel:
    """x0 - x1 and a lone discrete vertex: a Gaussian root and child."""
    return DendroidModel.build(
        schema=mixed_schema("ggD"),
        forest=Forest.from_edges(3, [(0, 1)]),
        marginals=(
            GaussianMarginal(mean=1.0, var=2.0),
            GaussianMarginal(mean=-1.0, var=0.5),
            DiscreteMarginal(np.array([0.5, 0.25, 0.25])),
        ),
        factors=(
            GaussianEdgeFactor(0, 1, rho=-0.7, mean_i=1.0, var_i=2.0, mean_j=-1.0, var_j=0.5),
        ),
        n=1,
    )


def total_mass(model: DendroidModel) -> float:
    """exp(log_likelihood) summed over every discrete value and integrated
    over each Gaussian coordinate by 40-node Gauss-Legendre on its
    marginal's mean +- 8 sd, one row at a time."""
    schema = model.schema
    t, w = np.polynomial.legendre.leggauss(40)
    axes = []
    for v, marg in enumerate(model.marginals):
        if schema.is_discrete(v):
            axes.append([(k, 1.0) for k in range(schema.cardinality(v))])
        else:
            half = 8.0 * math.sqrt(marg.var)
            axes.append(list(zip((marg.mean + half * t).tolist(), (half * w).tolist())))
    total = 0.0
    for point in itertools.product(*axes):
        row = dataset_from_columns(schema, *([value] for value, _ in point))
        total += math.exp(log_likelihood(model, row)) * math.prod(weight for _, weight in point)
    return total


# the models of TestDirectedDensity, and whether a discrete vertex has a
# Gaussian parent once oriented
DENSITY_MODELS = {
    "chain, classes 1 sd apart": (lambda: bayes_chain(1.0), True),
    "chain, classes 3 sd apart": (lambda: bayes_chain(3.0), True),
    "Bayes vertex under a Gaussian edge": (bayes_under_gaussian_edge, True),
    "table under a Bayes vertex": (discrete_under_bayes, True),
    "table and Gaussian child": (no_bayes_vertex, False),
    "Gaussian pair beside a discrete": (gaussian_pair_beside_a_discrete, False),
}


class TestDirectedDensity:
    @pytest.mark.parametrize("name", sorted(DENSITY_MODELS))
    def test_density_integrates_to_one(self, name):
        build, has_bayes_vertex = DENSITY_MODELS[name]
        model = build()
        parents = orient_forest(model.forest, model.schema).parents
        bayes = [
            v
            for v, parent in enumerate(parents)
            if parent is not None and model.schema.is_discrete(v)
            and not model.schema.is_discrete(parent)
        ]
        assert bool(bayes) == has_bayes_vertex
        assert total_mass(model) == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_every_kind_matches_the_row_reference(self, seed):
        model = every_kind_model()
        ds = sample(model, 300, seed)
        assert log_likelihood(model, ds) == pytest.approx(
            directed_log_likelihood(model, ds), rel=1e-12
        )

    @settings(max_examples=100, deadline=None)
    @given(
        model=small_forest_models(),
        count=st.integers(1, 300),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_the_row_reference(self, model, count, seed):
        ds = sample(model, count, seed)
        assert log_likelihood(model, ds) == pytest.approx(
            directed_log_likelihood(model, ds), rel=1e-12
        )

    def test_bayes_chain_value_is_pinned(self):
        model = bayes_chain(3.0)
        ds = dataset_from_columns(
            model.schema, [0, 1, 1, 0, 1], [-0.5, 3.25, 1.5, 2.0, -1.0], [0, 1, 0, 1, 1]
        )
        assert repr(log_likelihood(model, ds)) == "-28.544940258703967"

    @pytest.mark.parametrize("x", [1e200, -1e200])
    def test_parent_beyond_the_float_range_of_the_square_scores_minus_inf(self, x):
        # (x - m)^2 overflows for every class mean: no nan and no warning
        model = bayes_chain(3.0)
        ds = dataset_from_columns(model.schema, [0, 1], [x, 1.5], [1, 0])
        assert log_likelihood(model, ds) == -np.inf


def many_class_bayes_chain(classes: int) -> DendroidModel:
    """y - x - z with z a discrete child of Gaussian x over the given
    number of classes, 1 residual sd apart, the last one empty."""
    probs = np.append(np.arange(1.0, classes), 0.0)
    zx = mixed_factor(1, 2, probs / probs.sum(), np.arange(float(classes)), 1.0)
    x = class_mixture(zx)
    return DendroidModel.build(
        schema=VariableSchema(
            (
                Variable("y", Discrete(("a", "b"))),
                Variable("x", Gaussian()),
                Variable("z", Discrete(tuple(f"c{k}" for k in range(classes)))),
            )
        ),
        forest=Forest.from_edges(3, [(0, 1), (1, 2)]),
        marginals=(DiscreteMarginal(np.array([0.5, 0.5])), x, DiscreteMarginal(zx.class_probs)),
        factors=(split_in_two(1, 0, x, 2.0), zx),
        n=1,
    )


# z's classes and their probabilities in far_chain
FAR_MEANS, FAR_PROBS = np.array([-2e6, 0.0, 2e6]), np.array([0.125, 0.75, 0.125])


def far_chain() -> DendroidModel:
    """y - x - z with x | y at means -1e6 and 1e6 and z | x at FAR_MEANS,
    both residual variances 1e-300: x is drawn at a class mean of y, 1e6
    from two of z's class means, so every class term of z overflows."""
    xy = mixed_factor(1, 0, [0.5, 0.5], [-1e6, 1e6], 1e-300)
    zx = mixed_factor(1, 2, FAR_PROBS, FAR_MEANS, 1e-300)
    return DendroidModel.build(
        schema=mixed_schema("dgD"),
        forest=Forest.from_edges(3, [(0, 1), (1, 2)]),
        marginals=(
            DiscreteMarginal(np.array([0.5, 0.5])), class_mixture(xy), DiscreteMarginal(FAR_PROBS)
        ),
        factors=(xy, zx),
        n=1,
    )


class TestFarParent:
    """A Gaussian parent so far from every class mean of its discrete
    child that each (x - m_k)^2 / (2 r) overflows: the occupied classes
    nearest the parent take the mass, in proportion to p_k, in the draw
    and in the density alike. A RuntimeWarning fails these tests."""

    def test_draw_takes_only_the_nearest_classes(self):
        ds = sample(far_chain(), 4000, 1)
        # the reference weighs these rows exactly, in fractions
        assert_same_bits(ds, sample_whole(far_chain(), 4000, 1))
        y, x, z = ds.columns
        assert (x == np.where(y == 1, 1e6, -1e6)).all()
        # given y = a, x = -1e6 is as near to z's classes 0 and 1; given b,
        # x = 1e6 to 1 and 2. Class 1 takes 0.75 / 0.875 of the mass
        for given, nearest in ((0, {0, 1}), (1, {1, 2})):
            drawn = z[y == given]
            assert set(drawn.tolist()) == nearest
            share, sd = (drawn == 1).mean(), math.sqrt(6 / 49 / len(drawn))
            assert abs(share - 6 / 7) <= 4 * sd

    def test_each_row_scores_the_share_of_the_nearest_classes(self):
        model = far_chain()
        ds = sample(model, 4000, 1)
        y, x, z = ds.columns
        assert math.isfinite(log_likelihood(model, ds))
        z_term = model_module._conditional(model, 2, 1)[1](z, x)
        nearest = np.abs(x[:, None] - FAR_MEANS) == 1e6
        want = np.log(FAR_PROBS[z] / (nearest * FAR_PROBS).sum(axis=1))
        np.testing.assert_allclose(z_term, want, rtol=1e-15)
        reference = np.array(oracle.directed_log_densities(model, ds))
        np.testing.assert_allclose(z_term, reference[:, 2], rtol=1e-15)
        assert log_likelihood(model, ds) == pytest.approx(
            directed_log_likelihood(model, ds), rel=1e-12
        )

    def test_an_empty_class_at_the_parent_takes_nothing(self):
        # a fourth class of z, empty, with its mean at x = 1e6 itself:
        # the nearest occupied classes still take the mass, in the
        # reference as in the model
        xy = mixed_factor(1, 0, [0.5, 0.5], [-1e6, 1e6], 1e-300)
        probs = np.append(FAR_PROBS, 0.0)
        zx = mixed_factor(1, 2, probs, np.append(FAR_MEANS, 1e6), 1e-300)
        model = DendroidModel.build(
            schema=VariableSchema(
                (
                    Variable("y", Discrete(("a", "b"))),
                    Variable("x", Gaussian()),
                    Variable("z", Discrete(("p", "q", "r", "s"))),
                )
            ),
            forest=Forest.from_edges(3, [(0, 1), (1, 2)]),
            marginals=(
                DiscreteMarginal(np.array([0.5, 0.5])), class_mixture(xy), DiscreteMarginal(probs)
            ),
            factors=(xy, zx),
            n=1,
        )
        ds = sample(model, 2000, 2)
        assert_same_bits(ds, sample_whole(model, 2000, 2))
        y, x, z = ds.columns
        assert 3 not in z.tolist()
        z_term = model_module._conditional(model, 2, 1)[1](z, x)
        reference = np.array(oracle.directed_log_densities(model, ds))
        np.testing.assert_allclose(z_term, reference[:, 2], rtol=1e-15)


def likelihood_in_blocks_of(rows: int, model: DendroidModel, ds) -> tuple[float, bytes]:
    """log_likelihood with its row blocks patched to rows rows, and the
    bytes of the per-row totals that it sums."""
    totals = []
    fill = model_module.fill_columns

    def recording(blocks):
        columns = fill(blocks)
        totals.append(columns[0].tobytes())
        return columns

    with mock.patch.object(model_module, "DRAW_BLOCKS", rows), mock.patch.object(
        model_module, "block_rows", lambda n_vars: 1
    ), mock.patch.object(model_module, "fill_columns", recording):
        value = log_likelihood(model, ds)
    (row_totals,) = totals
    return value, row_totals


def with_unseen_rows(model: DendroidModel, ds, rng: np.random.Generator):
    """ds with some discrete cells moved to a random category, which can
    be one the model gives probability 0, so that such rows score -inf."""
    columns = [c.copy() for c in ds.columns]
    for v in range(ds.schema.n_vars):
        if ds.schema.is_discrete(v):
            rows = rng.random(ds.n) < 0.1
            columns[v][rows] = rng.integers(0, ds.schema.cardinality(v), int(rows.sum()))
    return dataset_from_columns(ds.schema, *columns)


class TestLikelihoodBlocks:
    """log_likelihood goes by row blocks; each row's total depends on its
    own row alone, so the bits do not depend on the block size."""

    @settings(max_examples=100, deadline=None)
    @given(model=small_forest_models(), count=st.integers(1, 60), seed=st.integers(0, 2**32 - 1))
    def test_same_bits_for_any_block_size(self, model, count, seed):
        rng = np.random.default_rng(seed)
        ds = with_unseen_rows(model, sample(model, count, seed), rng)
        results = {rows: likelihood_in_blocks_of(rows, model, ds) for rows in (1, 7, count)}
        assert len(set(results.values())) == 1
        value, totals = results[count]
        reference = directed_log_likelihood(model, ds)
        if math.isinf(reference):
            assert value == reference
        else:
            assert value == pytest.approx(reference, rel=1e-9, abs=1e-9)

    @pytest.mark.parametrize("classes", [8, 12])
    def test_many_class_bayes_vertex(self, classes):
        # from 8 classes numpy sums a (K, 1) block of class weights
        # pairwise, not class by class as it sums a (K, rows) block
        model = many_class_bayes_chain(classes)
        ds = sample(model, 1000, 3)
        seen = likelihood_in_blocks_of(1000, model, ds)
        assert math.isfinite(seen[0])
        for rows in (1, 7):
            assert likelihood_in_blocks_of(rows, model, ds) == seen
        # the last class is empty: rows that hold it score -inf
        z = ds.column(2).copy()
        z[::50] = classes - 1
        unseen = dataset_from_columns(ds.schema, ds.column(0), ds.column(1), z)
        results = [likelihood_in_blocks_of(rows, model, unseen) for rows in (1, 7, 1000)]
        assert results[0] == results[1] == results[2] and results[0][0] == -math.inf
        terms = np.frombuffer(results[0][1])
        assert np.isneginf(terms[::50]).all() and np.isfinite(np.delete(terms, np.s_[::50])).all()


class TestSlope:
    def test_same_likelihood_in_either_column_order(self):
        # sd(x) / sd(y) is about 1e155: var(x) / var(y) overflows, so the
        # slope of x on y is only finite with the variances scaled
        rng = np.random.default_rng(1)
        z, w = rng.standard_normal(500), rng.standard_normal(500)
        x, y = 1e150 * z, 1e-5 * (z + 0.5 * w)
        values = []
        for columns in ((x, y), (y, x)):
            ds = dataset_from_columns(mixed_schema("gg"), *columns)
            model = fit(ds, Forest.from_edges(2, [(0, 1)]))
            values.append(log_likelihood(model, ds))
            assert values[-1] == pytest.approx(directed_log_likelihood(model, ds), rel=1e-12)
            drawn = sample(model, 300, 2)
            assert_same_bits(drawn, sample_whole(model, 300, 2))
        assert values[0] == values[1] and math.isfinite(values[0])

    @settings(max_examples=500)
    @given(
        rho=st.floats(-1.0, 1.0),
        var_c=st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
        var_p=st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
    )
    @example(rho=-0.5, var_c=1e308, var_p=5e-324)  # -inf
    @example(rho=0.7, var_c=5e-324, var_p=1e308)  # a subnormal slope
    @example(rho=-0.0, var_c=3.0, var_p=2e-300)
    @example(rho=1.0, var_c=2.0**-1074, var_p=2.0**1023)
    def test_slope_is_the_scaled_reference_bit_for_bit(self, rho, var_c, var_p):
        got = model_module._slope(rho, var_c, var_p)
        assert type(got) is float
        assert got.hex() == oracle._scaled_slope(rho, var_c, var_p).hex()


# each model class with a probability array: how to build it around the
# array, the array's shape and field, and the start of its message
PROBABILITY_ARRAYS = {
    "marginal": (DiscreteMarginal, (4,), "probs", "marginal probabilities"),
    "joint": (lambda table: DiscreteEdgeFactor(0, 1, table), (2, 2), "table", "joint table"),
    "mixed": (
        lambda probs: MixedEdgeFactor(0, 1, probs, np.zeros(probs.shape), 1.0),
        (4,),
        "class_probs",
        "class probabilities",
    ),
}
each_probability_array = pytest.mark.parametrize(
    "make, shape, field, what", PROBABILITY_ARRAYS.values(), ids=PROBABILITY_ARRAYS.keys()
)


class TestProbabilityCheck:
    """Every probability array of a model is nonnegative and sums to 1
    within 1e-12, or its class raises its own message."""

    @staticmethod
    def uniform_plus(shape, excess: float) -> np.ndarray:
        probs = np.full(shape, 0.25)
        probs.flat[-1] += excess
        return probs

    @each_probability_array
    def test_negative_entry_raises(self, make, shape, field, what):
        probs = np.array([0.5, 0.5, 0.25, -0.25]).reshape(shape)
        assert probs.sum() == 1.0
        with pytest.raises(ValueError, match=f"^{what} must be nonnegative and sum to 1$"):
            make(probs)

    @pytest.mark.parametrize("excess", [2e-12, -2e-12])
    @each_probability_array
    def test_sum_off_by_more_than_the_tolerance_raises(self, make, shape, field, what, excess):
        with pytest.raises(ValueError, match=f"^{what} must be nonnegative and sum to 1$"):
            make(self.uniform_plus(shape, excess))

    @pytest.mark.parametrize("excess", [1e-13, -1e-13])
    @each_probability_array
    def test_sum_within_the_tolerance_is_accepted(self, make, shape, field, what, excess):
        probs = self.uniform_plus(shape, excess)
        np.testing.assert_array_equal(getattr(make(probs), field), probs)

    def test_mixed_factor_checks_shapes_before_the_sum(self):
        with pytest.raises(ValueError, match="must align"):
            MixedEdgeFactor(0, 1, np.array([0.5, 0.6]), np.zeros(3), 1.0)


class TestSerialization:
    def test_round_trip_preserves_parameters_exactly(self):
        inputs = {
            # three mixed factors
            "dgDg": lambda rng: (
                rng.integers(0, 2, 300),
                rng.standard_normal(300),
                rng.integers(0, 3, 300),
                rng.standard_normal(300) * 2.0 + 1.0,
            ),
            # one discrete, one mixed and one Gaussian factor
            "dDgg": lambda rng: (
                rng.integers(0, 2, 300),
                rng.integers(0, 3, 300),
                rng.standard_normal(300),
                rng.standard_normal(300) * 2.0 + 1.0,
            ),
        }
        for kinds, draw in inputs.items():
            schema = mixed_schema(kinds)
            ds = dataset_from_columns(schema, *draw(np.random.default_rng(19)))
            model = fit(ds, Forest.from_edges(4, [(0, 1), (1, 2), (2, 3)]))
            doc = json.loads(json.dumps(model.to_json_dict()))
            restored = DendroidModel.from_json_dict(doc)
            assert restored.schema == model.schema
            assert restored.forest == model.forest
            assert restored.param_count == model.param_count
            assert log_likelihood(restored, ds) == log_likelihood(model, ds)

    def test_document_text_is_pinned(self):
        # one marginal and one factor of each kind; the text is the model
        # file format, key order included
        model = DendroidModel.build(
            schema=mixed_schema("ddgg"),
            forest=Forest.from_edges(4, [(0, 1), (0, 2), (2, 3)]),
            marginals=(
                DiscreteMarginal(np.array([0.5, 0.5])),
                DiscreteMarginal(np.array([0.375, 0.625])),
                GaussianMarginal(mean=0.0, var=1.5),
                GaussianMarginal(mean=2.0, var=4.0),
            ),
            factors=(
                DiscreteEdgeFactor(0, 1, np.array([[0.25, 0.25], [0.125, 0.375]])),
                MixedEdgeFactor(
                    gauss=2, disc=0, class_probs=np.array([0.5, 0.5]),
                    class_means=np.array([-1.0, 1.0]), resid_var=0.5,
                ),
                GaussianEdgeFactor(2, 3, rho=0.5, mean_i=0.0, var_i=1.5, mean_j=2.0, var_j=4.0),
            ),
            n=8,
        )
        text = json.dumps(model.to_json_dict(), indent=2)
        assert text == PINNED_MODEL_TEXT
        restored = DendroidModel.from_json_dict(json.loads(text))
        assert json.dumps(restored.to_json_dict(), indent=2) == text

    def test_rejects_wrong_format(self):
        with pytest.raises(ValueError):
            DendroidModel.from_json_dict({"format": "something-else", "version": 1})

    def test_rejects_tampered_param_count(self):
        schema = discrete_schema(2)
        ds = dataset_from_columns(schema, [0, 1, 1])
        model = fit(ds, Forest.from_edges(1, []))
        doc = model.to_json_dict()
        doc["param_count"] = 99
        with pytest.raises(ValueError):
            DendroidModel.from_json_dict(doc)

    def test_build_tolerates_rounding_between_factors_and_marginals(self):
        # earlier versions took each Gaussian marginal from np.mean and
        # np.var, which round differently from the moment kernels
        doc = every_kind_model().to_json_dict()
        for marg in doc["marginals"]:
            if marg["kind"] == "gaussian":
                marg["mean"] = float(np.nextafter(marg["mean"], math.inf))
                marg["var"] = float(np.nextafter(np.nextafter(marg["var"], 0.0), 0.0))
        DendroidModel.from_json_dict(doc)

    def test_build_rejects_a_forest_of_another_vertex_count(self):
        with pytest.raises(
            ValueError, match="^forest and schema disagree on the number of vertices$"
        ):
            DendroidModel.build(
                schema=discrete_schema(2, 2),
                forest=Forest.from_edges(3, []),
                marginals=(DiscreteMarginal(np.array([0.5, 0.5])),) * 2,
                factors=(),
                n=1,
            )

    def test_build_rejects_inconsistent_table_marginals(self):
        schema = discrete_schema(2, 2)
        with pytest.raises(ValueError, match="marginals"):
            DendroidModel.build(
                schema=schema,
                forest=Forest.from_edges(2, [(0, 1)]),
                marginals=(
                    DiscreteMarginal(np.array([0.5, 0.5])),
                    DiscreteMarginal(np.array([0.5, 0.5])),
                ),
                factors=(
                    DiscreteEdgeFactor(0, 1, np.array([[0.7, 0.1], [0.1, 0.1]])),
                ),
                n=1,
            )


PINNED_MODEL_TEXT = """\
{
  "format": "dendrofit-model",
  "version": 1,
  "schema": [
    {
      "name": "v0",
      "kind": "discrete",
      "labels": [
        "c0",
        "c1"
      ]
    },
    {
      "name": "v1",
      "kind": "discrete",
      "labels": [
        "c0",
        "c1"
      ]
    },
    {
      "name": "v2",
      "kind": "gaussian"
    },
    {
      "name": "v3",
      "kind": "gaussian"
    }
  ],
  "edges": [
    [
      0,
      1
    ],
    [
      0,
      2
    ],
    [
      2,
      3
    ]
  ],
  "marginals": [
    {
      "kind": "discrete",
      "probs": [
        0.5,
        0.5
      ]
    },
    {
      "kind": "discrete",
      "probs": [
        0.375,
        0.625
      ]
    },
    {
      "kind": "gaussian",
      "mean": 0.0,
      "var": 1.5
    },
    {
      "kind": "gaussian",
      "mean": 2.0,
      "var": 4.0
    }
  ],
  "edge_factors": [
    {
      "kind": "discrete",
      "i": 0,
      "j": 1,
      "table": [
        [
          0.25,
          0.25
        ],
        [
          0.125,
          0.375
        ]
      ]
    },
    {
      "kind": "mixed",
      "gauss": 2,
      "disc": 0,
      "class_probs": [
        0.5,
        0.5
      ],
      "class_means": [
        -1.0,
        1.0
      ],
      "resid_var": 0.5
    },
    {
      "kind": "gaussian",
      "i": 2,
      "j": 3,
      "rho": 0.5,
      "mean_i": 0.0,
      "var_i": 1.5,
      "mean_j": 2.0,
      "var_j": 4.0
    }
  ],
  "n": 8,
  "param_count": 9
}"""
