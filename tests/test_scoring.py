import math
import tracemalloc

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
    ScoredEdge,
    Variable,
    VariableSchema,
    penalty_weight,
    score_all_pairs,
)
from dendrofit import estimators, kernels, scoring
from dendrofit.errors import DegenerateGaussian, DendrofitError, QuadratureFailure
from dendrofit.scoring import scored_edges_from_mi, scores_from_mi

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

    @pytest.mark.parametrize("dn", [math.inf, math.nan])
    def test_custom_requires_finite(self, dn):
        with pytest.raises(ValueError, match="d_n must be finite and nonnegative"):
            Criterion.custom(dn)

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

    @pytest.mark.parametrize("dn", [math.inf, math.nan])
    def test_non_finite_dn_rejected_as_the_criterion_rejects_it(self, dn):
        with pytest.raises(ValueError) as want:
            Criterion.custom(dn)
        with pytest.raises(ValueError) as got:
            penalty_weight(D(2), D(2), dn)
        assert str(got.value) == str(want.value) == f"d_n must be finite and nonnegative, got {dn}"

    def test_zero_dn_means_zero_penalty(self):
        assert penalty_weight(D(9), D(9), 0.0) == 0.0


KINDS = [D(2), D(3), D(5), D(8), Gaussian()]


class TestArrayScores:
    """scores_from_mi against ScoredEdge.from_mi and penalty_weight, one
    pair at a time."""

    @settings(max_examples=300, deadline=None)
    @given(
        kinds=st.lists(st.sampled_from(KINDS), min_size=2, max_size=6),
        mi=st.lists(
            st.one_of(
                st.sampled_from([math.inf, 0.0, -0.0, -1e-10, -9.9e-10, 5e-324]),
                st.floats(0.0, 1e6),
            ),
            min_size=15,
            max_size=15,
        ),
        dn=st.one_of(st.sampled_from([0.0, 2.0, math.log(7)]), st.floats(0.0, 1e3)),
    )
    def test_same_bits_as_one_pair_at_a_time(self, kinds, mi, dn):
        i, j = np.triu_indices(len(kinds), 1)
        mi = mi[: len(i)]
        want = [
            ScoredEdge.from_mi(a, b, m, penalty_weight(kinds[a], kinds[b], dn))
            for a, b, m in zip(i.tolist(), j.tolist(), mi)
        ]
        got = scores_from_mi(i, j, np.array(mi), kinds, dn).edges()
        assert [tuple(map(repr, vars(e).values())) for e in got] == [
            tuple(map(repr, vars(e).values())) for e in want
        ]

    @pytest.mark.parametrize("bad", [-1e-9, -3.0, math.nan])
    def test_first_rejected_pair_raises_as_scored_edge_does(self, bad):
        mi = [1.0, bad, -5.0]
        with pytest.raises(ValueError) as want:
            ScoredEdge.from_mi(0, 2, bad, 0.0)
        with pytest.raises(ValueError) as got:
            scores_from_mi([0, 0, 1], [1, 2, 2], mi, [D(2)] * 3, 0.0)
        assert str(got.value) == str(want.value)

    def test_an_overflowing_penalty_behaves_as_in_python_floats(self):
        kinds = [D(8), D(8), Gaussian()]
        got = scores_from_mi([0, 0, 1], [1, 2, 2], [3.0, 4.0, 5.0], kinds, 1e308).edges()
        want = [ScoredEdge.from_mi(a, b, m, penalty_weight(kinds[a], kinds[b], 1e308))
                for a, b, m in [(0, 1, 3.0), (0, 2, 4.0), (1, 2, 5.0)]]
        assert got == want and got[0].score == -math.inf
        with pytest.raises(ValueError, match="score nan"):
            scores_from_mi([0], [1], [math.inf], kinds, 1e308)

    @pytest.mark.parametrize("dn", [-1.0, math.inf, math.nan])
    def test_rejects_a_non_finite_or_negative_dn(self, dn):
        with pytest.raises(ValueError, match="d_n"):
            scores_from_mi([0], [1], [1.0], [D(2), D(2)], dn)


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
    """The pair table from per_pair_mi one pair at a time: the pairs i < j
    in canonical order and their I_n, or the type and message of the
    first error in that order."""
    i, j = np.triu_indices(ds.schema.n_vars, 1)
    mi = np.zeros(i.size)
    for k, (a, b) in enumerate(zip(i.tolist(), j.tolist())):
        try:
            mi[k] = per_pair_mi(ds, a, b, quad)
        except DendrofitError as err:
            names = (ds.schema.name(a), ds.schema.name(b))
            return type(err), f"pair {names!r}: {err}"
    return i, j, mi


def table_outcome(ds, quad):
    """pair_mi_table's (i, j, mi), or the type and message of its error."""
    try:
        return scoring.pair_mi_table(ds, quad)
    except DendrofitError as err:
        return type(err), str(err)


def assert_same_outcome(got, want):
    """The same error type and message, or the same pairs and I_n, with
    the same dtypes and bits."""
    if isinstance(want[0], type):
        assert isinstance(got[0], type) and got == want
    else:
        assert not isinstance(got[0], type)
        assert [v.dtype for v in got] == [v.dtype for v in want]
        assert [v.tobytes() for v in got] == [v.tobytes() for v in want]


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
        base = scoring.pair_mi_table(ds, QuadratureSpec())
        for bound in (1, 2**20):
            monkeypatch.setattr(kernels, "_BATCH_ELEMENTS", bound)
            assert_same_outcome(scoring.pair_mi_table(ds, QuadratureSpec()), base)

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
            scoring.pair_mi_table(ds, QuadratureSpec(order=8))

    def test_entropy_failure_is_named_as_the_per_pair_path_names_it(self, monkeypatch):
        monkeypatch.setattr(
            kernels, "mixture_mi_batch", lambda probs, *rest: np.full(len(probs), 5.0)
        )
        ds = dataset_from_columns(mixed_schema("dg"), [0, 0, 1, 1], [0.0, 0.1, 2.0, 2.1])
        quad = QuadratureSpec()
        assert_same_outcome(table_outcome(ds, quad), per_pair_outcome(ds, quad))
        with pytest.raises(QuadratureFailure, match="exceeds the class entropy bound"):
            scoring.pair_mi_table(ds, QuadratureSpec())


class TestPairScoresMemory:
    """The pairs are held once, as vectors in canonical order: with 400
    Gaussian columns of 5 rows (79,800 pairs), ``pair_scores`` peaks at
    most 112 bytes a pair above its inputs under ``tracemalloc``. Its
    result holds 40 of them (two index and three float vectors)."""

    N_VARS, ROWS, BYTES_PER_PAIR = 400, 5, 112

    def test_peak_per_pair(self):
        rng = np.random.default_rng(1)
        schema = VariableSchema(tuple(Variable(f"g{k}", Gaussian()) for k in range(self.N_VARS)))
        ds = Dataset(schema, tuple(rng.standard_normal((self.N_VARS, self.ROWS))))
        run = lambda: scoring.pair_scores(ds, Criterion.mdl())  # noqa: E731
        run()  # first-call allocations are not counted
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        pairs = self.N_VARS * (self.N_VARS - 1) // 2
        assert peak <= self.BYTES_PER_PAIR * pairs, peak / pairs
