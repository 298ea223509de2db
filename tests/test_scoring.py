import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dendrofit import (
    Criterion,
    Dataset,
    Discrete,
    Gaussian,
    QuadratureSpec,
    Variable,
    VariableSchema,
    penalty_weight,
    score_all_pairs,
)
from dendrofit import estimators, kernels, scoring
from dendrofit.errors import DegenerateGaussian, DendrofitError, QuadratureFailure
from dendrofit.scoring import scored_edges_from_mi

from conftest import dataset_from_columns, mixed_schema, random_discrete_dataset

D = lambda card: Discrete(tuple(f"c{k}" for k in range(card)))

# the worked six-pair instance: I values with per-variable cardinalities
# (5, 2, 3, 4) and d_n = 2 give J = (8, 2, -6, 6, 1, -4) in canonical order
TABLE2_MI = {(0, 1): 12.0, (0, 2): 10.0, (1, 2): 8.0, (0, 3): 6.0, (1, 3): 4.0, (2, 3): 2.0}
TABLE2_KINDS = [D(5), D(2), D(3), D(4)]
TABLE2_J = {(0, 1): 8.0, (0, 2): 2.0, (0, 3): -6.0, (1, 2): 6.0, (1, 3): 1.0, (2, 3): -4.0}


class TestCriterion:
    def test_dn_values(self):
        assert Criterion.maximum_likelihood().dn(100) == 0.0
        assert Criterion.mdl().dn(100) == math.log(100)
        assert Criterion.aic().dn(100) == 2.0
        assert Criterion.custom(3.5).dn(100) == 3.5

    def test_custom_requires_nonnegative(self):
        with pytest.raises(ValueError):
            Criterion.custom(-1.0)

    def test_presets_reject_stray_dn(self):
        with pytest.raises(ValueError):
            Criterion("mdl", custom_dn=1.0)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            Criterion("bic")


class TestPenaltyWeight:
    def test_discrete_discrete(self):
        assert penalty_weight(D(5), D(2), 2.0) == 4.0

    def test_gaussian_gaussian(self):
        assert penalty_weight(Gaussian(), Gaussian(), 2.0) == 1.0

    def test_gaussian_discrete(self):
        assert penalty_weight(Gaussian(), D(4), 2.0) == 3.0

    def test_symmetric_in_kinds(self):
        kinds = [D(2), D(5), Gaussian(), D(3)]
        for a in kinds:
            for b in kinds:
                assert penalty_weight(a, b, 1.7) == penalty_weight(b, a, 1.7)

    def test_negative_dn_rejected(self):
        with pytest.raises(ValueError):
            penalty_weight(D(2), D(2), -0.1)

    def test_zero_dn_means_zero_penalty(self):
        assert penalty_weight(D(9), D(9), 0.0) == 0.0


class TestTable2:
    def test_j_values_reproduced_exactly(self):
        edges = scored_edges_from_mi(TABLE2_MI, TABLE2_KINDS, dn=2.0)
        got = {(e.i, e.j): e.score for e in edges}
        assert got == TABLE2_J

    def test_canonical_order(self):
        edges = scored_edges_from_mi(TABLE2_MI, TABLE2_KINDS, dn=2.0)
        assert [(e.i, e.j) for e in edges] == sorted(TABLE2_MI)


class TestScoreAllPairs:
    def test_orthogonal_gaussians_score_zero_under_ml(self):
        # rows of a Hadamard-style design: mean-zero, exactly orthogonal
        h = np.array(
            [
                [1, 1, 1, 1, -1, -1, -1, -1],
                [1, 1, -1, -1, 1, 1, -1, -1],
                [1, -1, 1, -1, 1, -1, 1, -1],
                [1, -1, -1, 1, -1, 1, 1, -1],
            ],
            dtype=float,
        )
        schema = mixed_schema("gggg")
        ds = dataset_from_columns(schema, *h)
        edges = score_all_pairs(ds, Criterion.maximum_likelihood())
        assert len(edges) == 6
        assert all(e.mi == 0.0 and e.penalty == 0.0 and e.score == 0.0 for e in edges)

    def test_pair_count_and_order(self):
        rng = np.random.default_rng(0)
        ds = random_discrete_dataset(rng, (2, 3, 2, 4, 2), 50)
        edges = score_all_pairs(ds, Criterion.mdl())
        assert len(edges) == 10
        assert [(e.i, e.j) for e in edges] == [
            (i, j) for i in range(5) for j in range(i + 1, 5)
        ]

    def test_ml_dominates_mdl_pairwise(self):
        rng = np.random.default_rng(1)
        ds = random_discrete_dataset(rng, (2, 3, 4), 80)
        ml = score_all_pairs(ds, Criterion.maximum_likelihood())
        mdl = score_all_pairs(ds, Criterion.mdl())
        for a, b in zip(ml, mdl):
            assert a.mi == b.mi
            assert a.score >= b.score

    def test_scores_monotone_nonincreasing_in_dn(self):
        rng = np.random.default_rng(2)
        ds = random_discrete_dataset(rng, (3, 2, 3), 60)
        ladders = [
            score_all_pairs(ds, Criterion.custom(dn)) for dn in (0.0, 1.0, 2.0, 5.0)
        ]
        for prev, nxt in zip(ladders, ladders[1:]):
            for a, b in zip(prev, nxt):
                assert b.score <= a.score

    def test_under_ml_score_equals_mi(self):
        rng = np.random.default_rng(3)
        ds = random_discrete_dataset(rng, (2, 2, 3), 40)
        for e in score_all_pairs(ds, Criterion.maximum_likelihood()):
            assert e.score == e.mi and e.penalty == 0.0

    def test_estimator_error_names_the_pair(self):
        schema = mixed_schema("gg")
        ds = dataset_from_columns(schema, [1.0, 1.0, 1.0], [0.0, 0.5, 1.0])
        with pytest.raises(DegenerateGaussian, match=r"pair \('v0', 'v1'\)"):
            score_all_pairs(ds, Criterion.maximum_likelihood())

    def test_needs_two_variables(self):
        schema = mixed_schema("d")
        ds = dataset_from_columns(schema, [0, 1])
        with pytest.raises(ValueError):
            score_all_pairs(ds, Criterion.maximum_likelihood())


GAUSSIAN_MODES = ["noise"] * 3 + ["classes"] * 3 + ["function", "constant"]


@st.composite
def mixed_datasets(draw):
    """2-8 columns of mixed kinds. Discrete columns have 2-8 classes, some
    of them left empty. A Gaussian column is noise, noise around class
    means of a discrete column up to 8 sd apart, an exact function of
    those classes (a zero residual), or constant. Scales run from 1e-3 to
    1e3 and columns sit up to 1e6 scales from 0. Constants are values
    like 0.1 whose mean does not round-trip."""
    kinds = draw(st.lists(st.sampled_from("dg"), min_size=2, max_size=8))
    n = draw(st.integers(2, 60))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    classes = {}  # discrete column -> (cardinality, codes)
    for k in [k for k, kind in enumerate(kinds) if kind == "d"]:
        card = draw(st.integers(2, 8))
        used = rng.permutation(card)[: draw(st.integers(1, card))]
        classes[k] = (card, rng.choice(used, size=n).astype(np.int64))
    variables, columns = [], []
    for k, kind in enumerate(kinds):
        if kind == "d":
            card, codes = classes[k]
            variables.append(Variable(f"v{k}", D(card)))
            columns.append(codes)
            continue
        variables.append(Variable(f"v{k}", Gaussian()))
        mode = draw(st.sampled_from(GAUSSIAN_MODES))
        if mode in ("classes", "function") and not classes:
            mode = "noise"
        scale = 10.0 ** rng.uniform(-3, 3)
        offset = scale * rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-2, 6)
        if mode == "noise":
            columns.append(offset + scale * rng.standard_normal(n))
        elif mode == "constant":
            columns.append(np.full(n, draw(st.sampled_from([0.1, 0.7, 1 / 3, -2.2]))))
        else:
            card, codes = classes[draw(st.sampled_from(sorted(classes)))]
            means = offset + scale * rng.uniform(-4.0, 4.0, size=card)
            noise = scale * rng.standard_normal(n) if mode == "classes" else 0.0
            columns.append(means[codes] + noise)
    return Dataset(VariableSchema(tuple(variables)), tuple(columns))


def per_pair_mi(ds, i, j, quad):
    """I_n(i, j) from collect_pair_stats and the mi_* estimator of its kind."""
    stats = estimators.collect_pair_stats(ds, i, j)
    if isinstance(stats, estimators.DiscretePair):
        return estimators.mi_discrete(stats)
    if isinstance(stats, estimators.GaussianPair):
        return estimators.mi_gaussian(stats)
    return estimators.mi_mixed(stats, quad)


def per_pair_outcome(ds, quad):
    """The pair table from per_pair_mi one pair at a time, or the type and
    message of the first error in canonical pair order."""
    n_vars = ds.schema.n_vars
    table = np.zeros((n_vars, n_vars))
    for i in range(n_vars):
        for j in range(i + 1, n_vars):
            try:
                table[i, j] = per_pair_mi(ds, i, j, quad)
            except DendrofitError as err:
                names = (ds.schema.name(i), ds.schema.name(j))
                return type(err), f"pair {names!r}: {err}"
    return table


def table_outcome(ds, quad):
    """estimate_all_mi's table, or the type and message of its error."""
    try:
        return scoring.estimate_all_mi(ds, quad)
    except DendrofitError as err:
        return type(err), str(err)


def assert_same_outcome(got, want):
    """The same error type and message, or tables with the same bits."""
    if isinstance(want, tuple):
        assert got == want
    else:
        assert not isinstance(got, tuple)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


def scaled_by_powers_of_two(ds, rng):
    """ds with each Gaussian column times 2^k, k drawn per column so that
    every nonzero cell stays a normal float."""
    columns = []
    for v, column in enumerate(ds.columns):
        if not ds.schema.is_discrete(v):
            size = np.abs(column[column != 0])
            if size.size:
                lo = -1021 - np.frexp(size.min())[1]
                hi = 1023 - np.frexp(size.max())[1]
                column = np.ldexp(column, int(rng.integers(lo, hi + 1)))
        columns.append(column)
    return Dataset(ds.schema, tuple(columns))


class TestBatchedPairTable:
    @settings(max_examples=300, deadline=None)
    @given(ds=mixed_datasets())
    def test_matches_the_per_pair_estimators(self, ds):
        quad = QuadratureSpec()
        assert_same_outcome(table_outcome(ds, quad), per_pair_outcome(ds, quad))

    @settings(max_examples=300, deadline=None)
    @given(ds=mixed_datasets(), seed=st.integers(0, 2**32 - 1))
    def test_power_of_two_scaling_leaves_every_value_unchanged(self, ds, seed):
        scaled = scaled_by_powers_of_two(ds, np.random.default_rng(seed))
        quad = QuadratureSpec()
        assert_same_outcome(table_outcome(scaled, quad), table_outcome(ds, quad))

    def test_chunking_does_not_change_the_values(self, monkeypatch):
        # 8 classes 6 sd apart: one pair climbs past order 128, so the
        # rungs hold different numbers of pairs
        rng = np.random.default_rng(4)
        codes = rng.integers(0, 8, 400)
        columns = [codes] + [
            6.0 * rng.permutation(codes) + rng.standard_normal(400) for _ in range(4)
        ]
        columns[1] = 6.0 * codes + rng.standard_normal(400)
        schema = VariableSchema(
            (Variable("d", D(8)),) + tuple(Variable(f"g{k}", Gaussian()) for k in range(4))
        )
        ds = dataset_from_columns(schema, *columns)
        base = scoring.estimate_all_mi(ds, QuadratureSpec())
        for bound in (1, 2**20):
            monkeypatch.setattr(kernels, "_BATCH_ELEMENTS", bound)
            assert (scoring.estimate_all_mi(ds, QuadratureSpec()) == base).all()

    def test_ladder_failure_is_named_as_the_per_pair_path_names_it(self, monkeypatch):
        # v0 has equal class means, so v1 and v2 (classes about 6 sd apart,
        # where orders 8 and 16 disagree) make the first pair that fails
        monkeypatch.setattr(estimators, "_MAX_QUAD_ORDER", 16)
        schema = mixed_schema("gdg")
        ds = dataset_from_columns(
            schema, [1.0, 2.0, 2.0, 1.0], [0, 0, 1, 1], [-4.0, -2.0, 2.0, 4.0]
        )
        quad = QuadratureSpec(order=8)
        assert_same_outcome(table_outcome(ds, quad), per_pair_outcome(ds, quad))
        with pytest.raises(QuadratureFailure, match=r"^pair \('v1', 'v2'\): doubling"):
            scoring.estimate_all_mi(ds, QuadratureSpec(order=8))

    def test_entropy_failure_is_named_as_the_per_pair_path_names_it(self, monkeypatch):
        monkeypatch.setattr(
            kernels, "mixture_mi_batch", lambda probs, *rest: np.full(len(probs), 5.0)
        )
        ds = dataset_from_columns(mixed_schema("dg"), [0, 0, 1, 1], [0.0, 0.1, 2.0, 2.1])
        quad = QuadratureSpec()
        assert_same_outcome(table_outcome(ds, quad), per_pair_outcome(ds, quad))
        with pytest.raises(QuadratureFailure, match="exceeds the class entropy bound"):
            scoring.estimate_all_mi(ds, QuadratureSpec())
