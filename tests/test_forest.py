import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dendrofit import ScoredEdge, build_forest_suzuki, build_tree_chow_liu
from dendrofit.errors import EmptyEdgeList
from dendrofit.forest import REASONS, UnionFind, greedy_outcomes, kruskal_decisions
from dendrofit.oracle import brute_force_best_forest, brute_force_best_total, greedy_decisions

from conftest import complete_random_edges, edges_from_weights

# the worked four-variable instance: descending mutual informations
# 12, 10, 8, 6, 4, 2 on pairs (0,1), (0,2), (1,2), (0,3), (1,3), (2,3)
TABLE1 = {(0, 1): 12.0, (0, 2): 10.0, (1, 2): 8.0, (0, 3): 6.0, (1, 3): 4.0, (2, 3): 2.0}
# the same mutual informations after the d_n = 2 penalties of the
# (5, 2, 3, 4)-cardinality schema
TABLE2_J = {(0, 1): 8.0, (0, 2): 2.0, (1, 2): 6.0, (0, 3): -6.0, (1, 3): 1.0, (2, 3): -4.0}


def table2_edges() -> list[ScoredEdge]:
    return [
        ScoredEdge(i, j, mi=TABLE1[(i, j)], penalty=TABLE1[(i, j)] - J, score=J)
        for (i, j), J in sorted(TABLE2_J.items())
    ]


class TestUnionFind:
    def test_components_merge_once(self):
        uf = UnionFind(4)
        assert uf.union(0, 1)
        assert not uf.union(1, 0)
        assert uf.union(2, 3)
        assert uf.union(0, 3)
        assert not uf.union(1, 2)

    def test_find_idempotent(self):
        uf = UnionFind(5)
        uf.union(0, 1)
        uf.union(1, 2)
        root = uf.find(2)
        assert uf.find(2) == root == uf.find(0)


@pytest.mark.parametrize(
    "build",
    [
        build_tree_chow_liu,
        build_forest_suzuki,
        lambda edges, n_vertices: kruskal_decisions(edges, True, n_vertices),
    ],
    ids=["chow-liu", "suzuki", "kruskal-decisions"],
)
def test_edge_past_the_vertex_count_is_named(build):
    """An endpoint at or past n_vertices raises ValueError naming the
    first such edge in input order, not an IndexError from the union-find."""
    edges = [
        ScoredEdge.from_mi(0, 1, 1.0),
        ScoredEdge.from_mi(1, 3, 2.0),
        ScoredEdge.from_mi(0, 4, 3.0),
    ]
    with pytest.raises(ValueError, match=r"^edge \(1, 3\) out of range for 3 vertices$"):
        build(edges, n_vertices=3)
    with pytest.raises(ValueError, match=r"^edge \(0, 4\) out of range for 4 vertices$"):
        build(edges, n_vertices=4)


class TestChowLiu:
    def test_table1_structure(self):
        tree = build_tree_chow_liu(edges_from_weights(TABLE1))
        assert tree.sorted_edges == ((0, 1), (0, 2), (0, 3))

    def test_table1_rejects_the_loop_closer(self):
        decisions = kruskal_decisions(edges_from_weights(TABLE1), penalized=False)
        by_pair = {(d.edge.i, d.edge.j): d for d in decisions}
        assert by_pair[(1, 2)].accepted is False
        assert by_pair[(1, 2)].reason == "loop"
        assert [
            (d.edge.i, d.edge.j) for d in decisions if d.accepted
        ] == [(0, 1), (0, 2), (0, 3)]

    def test_two_vertices(self):
        tree = build_tree_chow_liu(edges_from_weights({(0, 1): 1.0}))
        assert tree.sorted_edges == ((0, 1),)

    def test_empty_edges(self):
        with pytest.raises(EmptyEdgeList):
            build_tree_chow_liu([])

    def test_ties_break_lexicographically(self):
        tree = build_tree_chow_liu(
            edges_from_weights({(i, j): 5.0 for i in range(4) for j in range(i + 1, 4)})
        )
        assert tree.sorted_edges == ((0, 1), (0, 2), (0, 3))

    def test_infinite_weight_sorts_first(self):
        weights = {(0, 1): 1.0, (0, 2): 2.0, (1, 2): float("inf")}
        tree = build_tree_chow_liu(edges_from_weights(weights))
        assert (1, 2) in tree.edges

    def test_matches_exhaustive_spanning_optimum(self):
        rng = np.random.default_rng(12)
        for _ in range(60):
            n = int(rng.integers(3, 7))
            edges = complete_random_edges(rng, n)
            greedy = build_tree_chow_liu(edges)
            total = sum(
                next(e.mi for e in edges if (e.i, e.j) == pair)
                for pair in greedy.sorted_edges
            )
            best = brute_force_best_total(edges, require_spanning_tree=True)
            assert total == pytest.approx(best, rel=1e-12)


class TestSuzuki:
    def test_table2_structure(self):
        forest = build_forest_suzuki(table2_edges())
        assert forest.sorted_edges == ((0, 1), (1, 2), (1, 3))

    def test_table2_decision_reasons(self):
        decisions = kruskal_decisions(table2_edges(), penalized=True)
        by_pair = {(d.edge.i, d.edge.j): d for d in decisions}
        assert by_pair[(0, 2)].reason == "loop"
        assert by_pair[(0, 3)].reason == "negative"
        assert by_pair[(2, 3)].reason == "negative"
        assert [p for p, d in sorted(by_pair.items()) if d.accepted] == [
            (0, 1),
            (1, 2),
            (1, 3),
        ]

    def test_all_negative_scores_give_empty_forest(self):
        edges = [ScoredEdge(0, 1, 1.0, 5.0, -4.0), ScoredEdge(0, 2, 2.0, 9.0, -7.0)]
        forest = build_forest_suzuki(edges)
        assert forest.edges == frozenset()

    def test_zero_score_admitted(self):
        edges = [ScoredEdge(0, 1, 2.0, 2.0, 0.0)]
        forest = build_forest_suzuki(edges)
        assert forest.sorted_edges == ((0, 1),)

    def test_equals_chow_liu_when_unpenalized(self):
        rng = np.random.default_rng(21)
        for _ in range(40):
            n = int(rng.integers(3, 7))
            edges = complete_random_edges(rng, n, lo=0.01)
            assert build_forest_suzuki(edges) == build_tree_chow_liu(edges)

    def test_matches_exhaustive_forest_optimum(self):
        rng = np.random.default_rng(22)
        for _ in range(60):
            n = int(rng.integers(3, 7))
            edges = complete_random_edges(rng, n, lo=0.0, hi=10.0, penalty_hi=12.0)
            greedy = build_forest_suzuki(edges)
            total = sum(
                next(e.score for e in edges if (e.i, e.j) == pair)
                for pair in greedy.sorted_edges
            )
            best = brute_force_best_total(edges)
            assert total == pytest.approx(best, rel=1e-12, abs=1e-12)

    def test_forest_is_subgraph_of_best_spanning_tree(self):
        rng = np.random.default_rng(23)
        for _ in range(40):
            n = int(rng.integers(3, 7))
            edges = complete_random_edges(rng, n, lo=0.0, hi=10.0, penalty_hi=12.0)
            forest = build_forest_suzuki(edges)
            tree = brute_force_best_forest(edges, require_spanning_tree=True)
            assert forest.edges <= tree.edges

    def test_deterministic_under_input_shuffling(self):
        rng = np.random.default_rng(24)
        edges = complete_random_edges(rng, 6, penalty_hi=8.0)
        reference = build_forest_suzuki(edges)
        for _ in range(5):
            shuffled = list(edges)
            rng.shuffle(shuffled)
            assert build_forest_suzuki(shuffled) == reference


# a few values, so that weights tie, with +inf and 0 among them
WEIGHTS = st.one_of(
    st.sampled_from([float("inf"), 0.0, -0.0, 1.0, 2.5, 7.0]),
    st.floats(0.0, 30.0),
)
PENALTIES = st.one_of(st.sampled_from([0.0, 1.0, 2.5]), st.floats(0.0, 30.0))


@st.composite
def edge_lists(draw):
    """Edges over 2-7 vertices in any order, some pairs missing or
    repeated, with tied, infinite and zero weights and scores."""
    n = draw(st.integers(2, 7))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), min_size=1, max_size=2 * len(pairs)))
    edges = [ScoredEdge.from_mi(i, j, draw(WEIGHTS), draw(PENALTIES)) for i, j in chosen]
    return n, edges


class TestArrayGreedy:
    @settings(max_examples=300, deadline=None)
    @given(case=edge_lists(), penalized=st.booleans())
    def test_matches_the_one_object_per_edge_loop(self, case, penalized):
        n, edges = case
        want = greedy_decisions(edges, penalized, n)
        assert kruskal_decisions(edges, penalized, n) == want
        # the array form: the same edges in the same order, for the same reasons
        i = np.array([e.i for e in edges])
        j = np.array([e.j for e in edges])
        weight = np.array([e.score if penalized else e.mi for e in edges])
        order, outcome = greedy_outcomes(i, j, weight, n)
        assert [edges[k] for k in order.tolist()] == [d.edge for d in want]
        assert [REASONS[o] for o in outcome.tolist()] == [d.reason for d in want]

    def test_infinite_weight_first_then_ties_by_pair(self):
        inf = float("inf")
        i = np.array([1, 0, 0, 2, 0])
        j = np.array([2, 3, 1, 3, 2])
        weight = np.array([1.0, inf, 1.0, -1.0, inf])
        order, outcome = greedy_outcomes(i, j, weight, n_vertices=4)
        assert order.tolist() == [4, 1, 2, 0, 3]
        assert [REASONS[o] for o in outcome.tolist()] == [None, None, None, "loop", "negative"]
