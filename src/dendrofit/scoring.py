"""Edge scoring: turn mutual information estimates into net edge weights
under a chosen criterion.

The penalty for joining (i, j) is (1/2)(a_i - 1)(a_j - 1) d_n where a is
the cardinality for a discrete variable and 2 for a Gaussian one; d_n is
0 for plain maximum likelihood, ln n for MDL, 2 for AIC, or a supplied
constant. Structure-independent terms are dropped since they cancel in
every comparison.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .core import Dataset, Discrete, ScoredEdge, VariableKind
from .estimators import QuadratureSpec, pair_mi_table

_KINDS = ("ml", "mdl", "aic", "custom")


def _check_dn(dn) -> None:
    """The one rule for a d_n: finite and nonnegative."""
    if dn is None or not 0.0 <= dn < math.inf:
        raise ValueError(f"d_n must be finite and nonnegative, got {dn}")


@dataclass(frozen=True)
class Criterion:
    """Scoring criterion: which d_n sequence penalizes added parameters.

    ``ml`` is penalty-free, ``mdl`` uses d_n = ln n, ``aic`` uses d_n = 2
    (a convenience extrapolation; only the ln n case and the general
    nonnegative d_n family are canonical), ``custom`` uses a fixed
    user-supplied value.
    """

    kind: str
    custom_dn: Optional[float] = None

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"unknown criterion {self.kind!r}, expected one of {_KINDS}")
        if self.kind == "custom":
            _check_dn(self.custom_dn)
        elif self.custom_dn is not None:
            raise ValueError(f"criterion {self.kind!r} does not take a custom d_n")

    @classmethod
    def maximum_likelihood(cls) -> "Criterion":
        return cls("ml")

    @classmethod
    def mdl(cls) -> "Criterion":
        return cls("mdl")

    @classmethod
    def aic(cls) -> "Criterion":
        return cls("aic")

    @classmethod
    def custom(cls, dn: float) -> "Criterion":
        return cls("custom", custom_dn=float(dn))

    def dn(self, n: int) -> float:
        """The penalty scale for a sample of size n."""
        if self.kind == "ml":
            return 0.0
        if self.kind == "mdl":
            return math.log(n)
        if self.kind == "aic":
            return 2.0
        return float(self.custom_dn)


def effective_cardinality(kind: VariableKind) -> int:
    """Parameter-counting cardinality: alpha for discrete, 2 for Gaussian."""
    return kind.cardinality if isinstance(kind, Discrete) else 2


def penalty_weight(kind_i: VariableKind, kind_j: VariableKind, dn: float) -> float:
    """Penalty in nats for adding edge (i, j):
    (1/2)(a_i - 1)(a_j - 1) d_n."""
    _check_dn(dn)
    a_i = effective_cardinality(kind_i)
    a_j = effective_cardinality(kind_j)
    return 0.5 * (a_i - 1) * (a_j - 1) * dn


@dataclass(frozen=True, eq=False)
class PairScores:
    """Pairs (i, j) with their I_n, penalty and net score J_n = I_n -
    penalty, one array each. ``pair_scores`` gives every pair in
    canonical (i asc, then j asc) order."""

    i: np.ndarray
    j: np.ndarray
    mi: np.ndarray
    penalty: np.ndarray
    score: np.ndarray

    def take(self, index: np.ndarray) -> "PairScores":
        """The pairs at ``index`` (positions or a mask), in its order."""
        return PairScores(
            self.i[index], self.j[index], self.mi[index], self.penalty[index], self.score[index]
        )

    def edges(self) -> list[ScoredEdge]:
        """The pairs as ``ScoredEdge``s, in order."""
        columns = (self.i, self.j, self.mi, self.penalty, self.score)
        return [ScoredEdge(*row) for row in zip(*(c.tolist() for c in columns))]


def scores_from_mi(
    i: np.ndarray, j: np.ndarray, mi: np.ndarray, kinds: Sequence[VariableKind], dn: float
) -> PairScores:
    """Attach penalties to the I_n of pairs (i, j), as ``ScoredEdge.from_mi``
    and ``penalty_weight`` would one pair at a time, to the same bits: mi
    in (-1e-9, 0) is clamped to 0, and the penalty multiplies in the same
    order. Raises the ``ValueError`` of ``ScoredEdge`` for the first pair
    it would reject."""
    _check_dn(dn)
    i = np.asarray(i, dtype=np.intp)
    j = np.asarray(j, dtype=np.intp)
    mi = np.array(mi, dtype=np.float64)
    mi[(-1e-9 < mi) & (mi < 0.0)] = 0.0
    a_less_1 = np.array([effective_cardinality(k) - 1 for k in kinds], dtype=np.float64)
    # as in Python floats: a penalty may overflow to inf, and inf - inf
    # gives NaN, which the check below rejects
    with np.errstate(over="ignore", invalid="ignore"):
        penalty = 0.5 * a_less_1[i] * a_less_1[j] * dn
        score = mi - penalty
    bad = ~(mi >= 0.0) | ~(penalty >= 0.0) | np.isnan(score) | ~((0 <= i) & (i < j))
    if bad.any():
        k = int(np.argmax(bad))
        ScoredEdge(int(i[k]), int(j[k]), float(mi[k]), float(penalty[k]), float(score[k]))
    return PairScores(i, j, mi, penalty, score)


def scored_edges_from_mi(
    mi_values: dict[tuple[int, int], float],
    kinds: Sequence[VariableKind],
    dn: float,
) -> list[ScoredEdge]:
    """Attach penalties to externally supplied mutual informations.

    ``mi_values`` maps (i, j) with i < j to I_n(i, j); output is in
    canonical (i, j) ascending order.
    """
    pairs = sorted(mi_values)
    i = np.array([p[0] for p in pairs], dtype=np.intp)
    j = np.array([p[1] for p in pairs], dtype=np.intp)
    mi = np.array([mi_values[p] for p in pairs], dtype=np.float64)
    return scores_from_mi(i, j, mi, kinds, dn).edges()


def pair_scores(
    dataset: Dataset,
    criterion: Criterion,
    quad: QuadratureSpec = QuadratureSpec(),
) -> PairScores:
    """Score every vertex pair of the dataset under the criterion: all
    N(N-1)/2 pairs in canonical (i asc, then j asc) order. An estimator
    error comes from ``pair_mi_table``, which names the failing pair."""
    schema = dataset.schema
    if schema.n_vars < 2:
        raise ValueError("need at least two variables to score pairs")
    i, j, mi = pair_mi_table(dataset, quad)
    kinds = [schema.kind(v) for v in range(schema.n_vars)]
    return scores_from_mi(i, j, mi, kinds, criterion.dn(dataset.n))


def score_all_pairs(
    dataset: Dataset,
    criterion: Criterion,
    quad: QuadratureSpec = QuadratureSpec(),
) -> list[ScoredEdge]:
    """``pair_scores`` as a list of edges: exactly N(N-1)/2 edges in
    canonical (i asc, then j asc) order."""
    return pair_scores(dataset, criterion, quad).edges()
