import hashlib
import json
import math

import numpy as np
import pytest

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
from dendrofit.errors import DegenerateGaussian, InvalidCount, SchemaMismatch
from dendrofit.forest import build_forest_suzuki
from dendrofit.dataio import render_csv
from dendrofit.model import count_parameters

from conftest import (
    all_forests,
    dataset_from_columns,
    discrete_schema,
    every_kind_model,
    mixed_schema,
    random_discrete_dataset,
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


def random_mixed_case(rng: np.random.Generator):
    """A random mixed dataset, its Gaussian columns at random offsets and
    scales, some shifted by the column before them, and a random forest."""
    kinds = "".join(rng.choice(list("dDg"), size=int(rng.integers(2, 8))))
    n = int(rng.integers(5, 300))
    columns = []
    for kind in kinds:
        if kind != "g":
            columns.append(rng.integers(0, 2 if kind == "d" else 3, n))
            continue
        x = rng.standard_normal(n)
        if columns and rng.random() < 0.5:
            x += 2.0 * (columns[-1] - columns[-1].mean()) / (columns[-1].std() or 1.0)
        columns.append(rng.choice([0.0, -7.0, 5e4]) + 10.0 ** rng.uniform(-3, 3) * x)
    edges = [(int(rng.integers(0, v)), v) for v in range(1, len(kinds)) if rng.random() < 0.8]
    forest = Forest.from_edges(len(kinds), edges)
    return dataset_from_columns(mixed_schema(kinds), *columns), forest


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


class TestFit:
    def test_one_mean_and_variance_per_gaussian_vertex(self):
        # a Gaussian chain on which np.var and the moment kernel round
        # differently for some columns, so a marginal taken from np.var
        # would not be the variance its factors hold
        rng = np.random.default_rng(7)
        columns = [rng.standard_normal(2000) * 10.0 ** rng.uniform(-2, 2) for _ in range(10)]
        ds = dataset_from_columns(mixed_schema("g" * 10), *columns)
        model = fit(ds, Forest.from_edges(10, [(v, v + 1) for v in range(9)]))
        assert any(float(np.var(x)) != f.var_i for x, f in zip(columns, model.factors))
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
