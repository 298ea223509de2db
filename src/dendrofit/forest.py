"""Maximum-weight forest construction: Kruskal's greedy with union-find.

One admission rule: heaviest first, an edge is taken iff its weight is
nonnegative and it joins two components. With I_n, never negative, as
the weight this is Chow-Liu's tree; with J_n it is Suzuki's MDL forest,
which may be disconnected. Every builder runs the one greedy loop,
``greedy_outcomes``, which works on arrays; ``kruskal_decisions`` is its
form for a list of ``ScoredEdge``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .core import Forest, ScoredEdge, UnionFind
from .errors import EmptyEdgeList

# outcome codes of greedy_outcomes, and the rejection reason of each
ACCEPTED, LOOP, NEGATIVE = 0, 1, 2
REASONS = (None, "loop", "negative")


@dataclass(frozen=True)
class EdgeDecision:
    """One greedy step: the edge considered, whether it was admitted, and
    if not, why ("loop" or "negative")."""

    edge: ScoredEdge
    accepted: bool
    reason: Optional[str] = None


def greedy_outcomes(
    i: np.ndarray, j: np.ndarray, weight: np.ndarray, n_vertices: int
) -> tuple[np.ndarray, np.ndarray]:
    """Run the greedy admission loop over edges (i[k], j[k]) of weight[k].

    Returns the greedy order (positions k: descending weight, +inf first,
    ties broken by (i, j) ascending, then by position) and, for each step
    of it, ACCEPTED, LOOP or NEGATIVE. An edge of negative weight is
    rejected as NEGATIVE; any other edge is accepted iff it joins two
    components. Weights must not be NaN.
    """
    order = np.lexsort((j, i, -weight))
    outcome = np.full(len(order), LOOP, dtype=np.int8)
    # the nonnegative weights sort before the negative ones
    stop = int(np.count_nonzero(weight >= 0.0))
    outcome[stop:] = NEGATIVE
    union = UnionFind(n_vertices).union
    head = order[:stop]
    accepted = [
        k for k, (a, b) in enumerate(zip(i[head].tolist(), j[head].tolist())) if union(a, b)
    ]
    outcome[accepted] = ACCEPTED
    return order, outcome


def _infer_n_vertices(edges: Sequence[ScoredEdge], n_vertices: Optional[int]) -> int:
    if n_vertices is not None:
        return n_vertices
    return max(e.j for e in edges) + 1


def kruskal_decisions(
    edges: Sequence[ScoredEdge],
    penalized: bool,
    n_vertices: Optional[int] = None,
) -> list[EdgeDecision]:
    """Run the greedy admission loop and report every edge's fate.

    With ``penalized`` the net score is the weight and negative-score
    edges are rejected; otherwise the raw mutual information is the
    weight and only loop-closing edges are rejected. An edge with an
    endpoint at or past ``n_vertices`` raises ValueError, naming the
    first such edge.
    """
    if not edges:
        raise EmptyEdgeList("no candidate edges supplied")
    n = _infer_n_vertices(edges, n_vertices)
    i = np.array([e.i for e in edges], dtype=np.intp)
    j = np.array([e.j for e in edges], dtype=np.intp)
    outside = np.flatnonzero(j >= n)  # a ScoredEdge has 0 <= i < j
    if outside.size:
        edge = edges[outside[0]]
        raise ValueError(f"edge ({edge.i}, {edge.j}) out of range for {n} vertices")
    weight = np.array([e.score if penalized else e.mi for e in edges], dtype=np.float64)
    order, outcome = greedy_outcomes(i, j, weight, n)
    return [
        EdgeDecision(edges[k], accepted=o == ACCEPTED, reason=REASONS[o])
        for k, o in zip(order.tolist(), outcome.tolist())
    ]


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
