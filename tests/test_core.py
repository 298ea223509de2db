import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dendrofit import (
    Dataset,
    Discrete,
    Forest,
    Gaussian,
    RootedForest,
    ScoredEdge,
    Variable,
    VariableSchema,
    orient_forest,
    validate_dataset,
)
from dendrofit.errors import (
    ArityMismatch,
    CyclicInput,
    EmptyDataset,
    NonFiniteValue,
    UnknownCategory,
)

from dendrofit.core import UnionFind
from dendrofit.oracle import sweep_topological_order

from conftest import discrete_schema, mixed_schema, dataset_from_columns


class TestKindsAndSchema:
    def test_discrete_cardinality_matches_labels(self):
        kind = Discrete(("no", "yes", "maybe"))
        assert kind.cardinality == 3

    def test_discrete_rejects_duplicate_labels(self):
        with pytest.raises(ValueError, match="duplicate"):
            Discrete(("a", "a"))

    def test_discrete_rejects_single_label(self):
        with pytest.raises(ValueError, match="at least 2"):
            Discrete(("only",))

    def test_schema_rejects_duplicate_names(self):
        with pytest.raises(ValueError, match="duplicate"):
            VariableSchema((Variable("x", Gaussian()), Variable("x", Gaussian())))

    def test_schema_rejects_empty(self):
        with pytest.raises(ValueError):
            VariableSchema(())

    def test_variable_rejects_empty_name(self):
        with pytest.raises(ValueError):
            Variable("", Gaussian())


class TestValidateDataset:
    def test_labels_map_by_schema_order(self):
        schema = VariableSchema((Variable("A", Discrete(("no", "yes"))),))
        ds = validate_dataset(schema, [["yes"], ["no"]])
        assert ds.column(0).tolist() == [1, 0]

    def test_nan_rejected(self):
        schema = VariableSchema((Variable("A", Gaussian()),))
        with pytest.raises(NonFiniteValue):
            validate_dataset(schema, [[float("nan")]])

    def test_infinity_rejected(self):
        schema = VariableSchema((Variable("A", Gaussian()),))
        with pytest.raises(NonFiniteValue):
            validate_dataset(schema, [[float("inf")]])

    def test_arity_mismatch(self):
        schema = mixed_schema("dddd")
        with pytest.raises(ArityMismatch):
            validate_dataset(schema, [["c0", "c1", "c0"]])

    def test_empty_rows(self):
        schema = mixed_schema("d")
        with pytest.raises(EmptyDataset):
            validate_dataset(schema, [])

    def test_unknown_category_names_column(self):
        schema = VariableSchema((Variable("A", Discrete(("no", "yes"))),))
        with pytest.raises(UnknownCategory, match="'A'"):
            validate_dataset(schema, [["maybe"]])

    def test_gaussian_accepts_numeric_strings(self):
        schema = VariableSchema((Variable("A", Gaussian()),))
        ds = validate_dataset(schema, [["1.25"], [3]])
        assert ds.column(0).tolist() == [1.25, 3.0]

    def test_non_numeric_gaussian_cell(self):
        schema = VariableSchema((Variable("A", Gaussian()),))
        with pytest.raises(NonFiniteValue):
            validate_dataset(schema, [["not-a-number"]])

    def test_row_errors_carry_row_index(self):
        schema = VariableSchema((Variable("A", Discrete(("no", "yes"))),))
        with pytest.raises(UnknownCategory) as exc:
            validate_dataset(schema, [["yes"], ["nope"]])
        assert exc.value.row_index == 1

    def test_columns_are_read_only(self):
        schema = mixed_schema("dg")
        ds = dataset_from_columns(schema, [0, 1], [0.5, -0.5])
        with pytest.raises(ValueError):
            ds.column(0)[0] = 1


def dataset_of(kinds: str, *columns) -> Dataset:
    """A Dataset built from the arrays as given, without conversion."""
    return Dataset(mixed_schema(kinds), tuple(columns))


INT, REAL = np.array([0, 1]), np.array([0.5, -0.5])

# each constructor call that must fail, with its error and message
BAD_CONSTRUCTIONS = {
    "column count": (lambda: dataset_of("dg", INT), ValueError, "expected 2 columns, got 1"),
    "ragged columns": (
        lambda: dataset_of("dg", INT, np.array([0.5])),
        ValueError,
        r"ragged columns: lengths \[1, 2\]",
    ),
    "zero rows": (
        lambda: dataset_of("dg", INT[:0], REAL[:0]), EmptyDataset, "at least one row"
    ),
    "0-d column": (lambda: dataset_of("dg", INT, np.float64(0.5)), ValueError, "'v1' is not 1-D"),
    "2-D column": (lambda: dataset_of("dg", INT[:, None], REAL), ValueError, "'v0' is not 1-D"),
    "discrete dtype": (
        lambda: dataset_of("dg", INT.astype(np.int32), REAL),
        ValueError,
        "'v0' must be int64 or uint8",
    ),
    "gaussian dtype": (
        lambda: dataset_of("dg", INT, REAL.astype(np.float32)), ValueError, "'v1' must be float64"
    ),
    "code range": (
        lambda: dataset_of("dg", np.array([0, 2]), REAL), ValueError, r"outside \[0, 1\]"
    ),
    "negative code": (
        lambda: dataset_of("dg", np.array([-1, 0]), REAL), ValueError, r"outside \[0, 1\]"
    ),
    "non-finite value": (
        lambda: dataset_of("dg", INT, np.array([0.5, np.inf])), NonFiniteValue, "'v1'"
    ),
    "cardinality of a Gaussian": (
        lambda: mixed_schema("dg").cardinality(1), ValueError, "'v1' is not discrete"
    ),
    "forest with no vertex": (
        lambda: Forest(0, frozenset()), ValueError, "at least one vertex"
    ),
    "parent out of range": (
        lambda: RootedForest((None, 2)), ValueError, "parent 2 of vertex 1 out of range"
    ),
    "orient_forest size mismatch": (
        lambda: orient_forest(Forest.from_edges(3, []), mixed_schema("dg")),
        ValueError,
        "forest has 3 vertices but schema has 2",
    ),
    "negative penalty": (
        lambda: ScoredEdge(0, 1, mi=1.0, penalty=-1.0, score=2.0),
        ValueError,
        "penalty must be >= 0",
    ),
}


class TestConstructorErrors:
    @pytest.mark.parametrize(
        "build, error, message", BAD_CONSTRUCTIONS.values(), ids=BAD_CONSTRUCTIONS.keys()
    )
    def test_rejects_with_its_documented_error(self, build, error, message):
        with pytest.raises(error, match=message):
            build()


class TestScoredEdge:
    def test_score_is_mi_minus_penalty(self):
        e = ScoredEdge.from_mi(0, 1, 3.0, 1.25)
        assert e.score == 3.0 - 1.25

    def test_vertex_order_enforced(self):
        with pytest.raises(ValueError):
            ScoredEdge.from_mi(2, 1, 1.0)

    def test_tiny_negative_mi_clamped(self):
        e = ScoredEdge.from_mi(0, 1, -1e-12)
        assert e.mi == 0.0

    def test_large_negative_mi_rejected(self):
        with pytest.raises(ValueError):
            ScoredEdge.from_mi(0, 1, -0.5)

    def test_inconsistent_score_rejected(self):
        with pytest.raises(ValueError, match="score"):
            ScoredEdge(0, 1, mi=2.0, penalty=1.0, score=0.5)

    def test_infinite_mi_allowed(self):
        e = ScoredEdge.from_mi(0, 1, float("inf"), 5.0)
        assert e.score == float("inf")


class TestForest:
    def test_cycle_rejected(self):
        with pytest.raises(CyclicInput):
            Forest.from_edges(3, [(0, 1), (1, 2), (0, 2)])

    def test_self_loop_rejected(self):
        with pytest.raises(CyclicInput):
            Forest.from_edges(3, [(1, 1)])

    def test_pairs_normalized(self):
        f = Forest.from_edges(3, [(2, 0)])
        assert f.sorted_edges == ((0, 2),)

    def test_out_of_range_vertex(self):
        with pytest.raises(ValueError):
            Forest.from_edges(2, [(0, 5)])

    def test_union_find_replay_on_random_forests(self):
        # growing random forests edge by edge always passes validation,
        # and adding any closing edge always fails it
        rng = np.random.default_rng(7)
        for _ in range(50):
            n = int(rng.integers(2, 9))
            vertices = list(range(n))
            parent = {v: v for v in vertices}

            def find(x):
                while parent[x] != x:
                    x = parent[x]
                return x

            chosen = []
            pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
            rng.shuffle(pairs)
            for i, j in pairs:
                ri, rj = find(i), find(j)
                if ri != rj and rng.random() < 0.7:
                    parent[rj] = ri
                    chosen.append((i, j))
            forest = Forest.from_edges(n, chosen)
            assert len(forest.edges) <= n - 1
            closing = [(i, j) for i, j in pairs if find(i) == find(j) and (i, j) not in chosen]
            if closing:
                with pytest.raises(CyclicInput):
                    Forest.from_edges(n, chosen + [closing[0]])


class TestRootedForest:
    def test_parent_cycle_rejected(self):
        for parents in ((1, 0), (2, 0, 1), (None, 2, 3, 1, 0)):
            with pytest.raises(CyclicInput):
                RootedForest(parents)

    def test_self_parent_rejected(self):
        with pytest.raises(CyclicInput):
            RootedForest((0,))

    def test_topological_order_respects_parents(self):
        rooted = RootedForest((None, 0, 1, 1, None))
        order = rooted.topological_order()
        pos = {v: k for k, v in enumerate(order)}
        for v, p in enumerate(rooted.parents):
            if p is not None:
                assert pos[p] < pos[v]

    def test_topological_order_is_ascending_sweeps_not_lowest_ready(self):
        # vertex 1 waits for the second sweep: its parent 2 comes after it
        assert RootedForest((None, 2, None, 0)).topological_order() == [0, 2, 3, 1]

    def test_topological_order_matches_sweep_reference(self):
        rng = np.random.default_rng(11)
        n = 300
        chain = RootedForest(tuple(v + 1 for v in range(n - 1)) + (None,))
        assert chain.topological_order() == sweep_topological_order(chain)
        for _ in range(300):
            n = int(rng.integers(1, 40))
            perm = rng.permutation(n)
            parents = [None] * n
            for k in range(1, n):
                if rng.random() < 0.9:
                    parents[perm[k]] = int(perm[rng.integers(0, k)])
            rooted = RootedForest(tuple(parents))
            assert rooted.topological_order() == sweep_topological_order(rooted)


@st.composite
def kinded_forests(draw):
    """A schema of 1-10 discrete or Gaussian variables and a random forest
    over it: each vertex, in a random order, joins an earlier one or not."""
    n = draw(st.integers(1, 10))
    schema = mixed_schema(draw(st.text(alphabet="dg", min_size=n, max_size=n)))
    order = draw(st.permutations(range(n)))
    edges = []
    for k in range(1, n):
        attach = draw(st.one_of(st.none(), st.integers(0, k - 1)))
        if attach is not None:
            edges.append((order[k], order[attach]))
    return schema, Forest.from_edges(n, edges)


class TestOrientForest:
    # in a tree the root fixes every parent, so these pin the output
    @settings(max_examples=300, deadline=None)
    @given(case=kinded_forests())
    def test_roots_are_lowest_discrete_else_lowest_and_edges_kept(self, case):
        schema, forest = case
        n = forest.n_vertices
        rooted = orient_forest(forest, schema)
        uf = UnionFind(n)
        for i, j in forest.edges:
            uf.union(i, j)
        components: dict[int, list[int]] = {}
        for v in range(n):
            components.setdefault(uf.find(v), []).append(v)
        for members in components.values():
            discrete = [v for v in members if schema.is_discrete(v)]
            roots = [v for v in members if rooted.parents[v] is None]
            assert roots == [min(discrete or members)]
        for v, p in enumerate(rooted.parents):
            assert p is None or (min(v, p), max(v, p)) in forest.edges
        assert rooted.undirected() == forest

    def test_star_orientation(self):
        # vertices 1..4 with hub 1; vertex 0 stays isolated
        schema = discrete_schema(2, 2, 2, 2, 2)
        forest = Forest.from_edges(5, [(1, 2), (1, 3), (1, 4)])
        rooted = orient_forest(forest, schema)
        assert rooted.parents == (None, None, 1, 1, 1)

    def test_empty_edges_all_roots(self):
        schema = discrete_schema(2, 2, 2)
        rooted = orient_forest(Forest.from_edges(3, []), schema)
        assert rooted.parents == (None, None, None)

    def test_chain_prefers_discrete_root(self):
        # g - d - g: enumerate both endpoint rootings and the middle one;
        # the discrete-parent edge count must be maximal for the result
        schema = mixed_schema("gdg")
        forest = Forest.from_edges(3, [(0, 1), (1, 2)])
        rooted = orient_forest(forest, schema)
        assert rooted.parents == (1, None, 1)

        def discrete_parent_edges(parents):
            return sum(
                1
                for v, p in enumerate(parents)
                if p is not None and not schema.is_discrete(v) and schema.is_discrete(p)
            )

        candidates = [(1, None, 1), (None, 0, 1), (1, 2, None)]
        best = max(discrete_parent_edges(p) for p in candidates)
        assert discrete_parent_edges(rooted.parents) == best == 2

    def test_lowest_discrete_id_wins(self):
        schema = mixed_schema("gdd")
        forest = Forest.from_edges(3, [(0, 1), (1, 2)])
        rooted = orient_forest(forest, schema)
        assert rooted.parents[1] is None

    def test_all_gaussian_component_roots_lowest_id(self):
        schema = mixed_schema("ggg")
        forest = Forest.from_edges(3, [(1, 2), (0, 2)])
        rooted = orient_forest(forest, schema)
        assert rooted.parents[0] is None

    def test_orientation_roundtrip_is_identity_on_edges(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            n = int(rng.integers(2, 9))
            kinds = "".join(rng.choice(list("dg"), size=n))
            schema = mixed_schema(kinds)
            pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
            rng.shuffle(pairs)
            parent = list(range(n))

            def find(x):
                while parent[x] != x:
                    x = parent[x]
                return x

            chosen = []
            for i, j in pairs:
                ri, rj = find(i), find(j)
                if ri != rj and rng.random() < 0.6:
                    parent[rj] = ri
                    chosen.append((i, j))
            forest = Forest.from_edges(n, chosen)
            assert orient_forest(forest, schema).undirected() == forest
