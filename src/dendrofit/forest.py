"""Maximum-weight forest construction: Kruskal's greedy with union-find.

Two admission rules: plain maximum weight spanning (every loop-free edge
is taken, heaviest first) and the penalized variant that additionally
requires a nonnegative net score and so may leave the forest
disconnected. Both builders are the forest of the accepted decisions of
one greedy loop, ``kruskal_decisions``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from .core import Forest, ScoredEdge, UnionFind
from .errors import EmptyEdgeList


@dataclass(frozen=True)
class EdgeDecision:
    """One greedy step: the edge considered, whether it was admitted, and
    if not, why ("loop" or "negative")."""

    edge: ScoredEdge
    accepted: bool
    reason: Optional[str] = None


def _infer_n_vertices(edges: Sequence[ScoredEdge], n_vertices: Optional[int]) -> int:
    if n_vertices is not None:
        return n_vertices
    return max(e.j for e in edges) + 1


def _greedy_order(edges: Sequence[ScoredEdge], weight: Callable[[ScoredEdge], float]):
    # descending weight, ties broken (i, j) lexicographic ascending;
    # +inf weights sort first
    return sorted(edges, key=lambda e: (-weight(e), e.i, e.j))


def kruskal_decisions(
    edges: Sequence[ScoredEdge],
    penalized: bool,
    n_vertices: Optional[int] = None,
) -> list[EdgeDecision]:
    """Run the greedy admission loop and report every edge's fate.

    With ``penalized`` the net score is the weight and negative-score
    edges are rejected; otherwise the raw mutual information is the
    weight and only loop-closing edges are rejected.
    """
    if not edges:
        raise EmptyEdgeList("no candidate edges supplied")
    n = _infer_n_vertices(edges, n_vertices)
    weight = (lambda e: e.score) if penalized else (lambda e: e.mi)
    uf = UnionFind(n)
    decisions = []
    for edge in _greedy_order(edges, weight):
        if penalized and edge.score < 0.0:
            decisions.append(EdgeDecision(edge, accepted=False, reason="negative"))
        elif uf.union(edge.i, edge.j):
            decisions.append(EdgeDecision(edge, accepted=True))
        else:
            decisions.append(EdgeDecision(edge, accepted=False, reason="loop"))
    return decisions


def accepted_forest(decisions: Sequence[EdgeDecision], n_vertices: int) -> Forest:
    """The forest of the accepted edges of a greedy run."""
    return Forest.from_edges(
        n_vertices, [(d.edge.i, d.edge.j) for d in decisions if d.accepted]
    )


def build_tree_chow_liu(
    edges: Sequence[ScoredEdge], n_vertices: Optional[int] = None
) -> Forest:
    """Maximum-mutual-information spanning structure.

    Greedy by descending mi; an edge is admitted iff it joins two distinct
    components. With all pairs present the result is a spanning tree.
    """
    decisions = kruskal_decisions(edges, penalized=False, n_vertices=n_vertices)
    return accepted_forest(decisions, _infer_n_vertices(edges, n_vertices))


def build_forest_suzuki(
    edges: Sequence[ScoredEdge], n_vertices: Optional[int] = None
) -> Forest:
    """Maximum net-score forest.

    Greedy by descending score; an edge is admitted iff its score is >= 0
    and it joins two distinct components, so the output may be
    disconnected.
    """
    decisions = kruskal_decisions(edges, penalized=True, n_vertices=n_vertices)
    return accepted_forest(decisions, _infer_n_vertices(edges, n_vertices))
