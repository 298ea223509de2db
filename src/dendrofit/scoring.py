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
            if self.custom_dn is None or not self.custom_dn >= 0.0:
                raise ValueError("custom criterion needs a nonnegative d_n")
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
    if not dn >= 0.0:
        raise ValueError(f"d_n must be nonnegative, got {dn}")
    a_i = effective_cardinality(kind_i)
    a_j = effective_cardinality(kind_j)
    return 0.5 * (a_i - 1) * (a_j - 1) * dn


def estimate_all_mi(dataset: Dataset, quad: QuadratureSpec) -> np.ndarray:
    """I_n of every pair, as ``pair_mi_table`` computes it. Module-level so
    tests can monkeypatch known mutual informations into the scoring
    pipeline."""
    return pair_mi_table(dataset, quad)


def scored_edges_from_mi(
    mi_values: dict[tuple[int, int], float],
    kinds: Sequence[VariableKind],
    dn: float,
) -> list[ScoredEdge]:
    """Attach penalties to externally supplied mutual informations.

    ``mi_values`` maps (i, j) with i < j to I_n(i, j); output is in
    canonical (i, j) ascending order.
    """
    edges = []
    for (i, j), mi in sorted(mi_values.items()):
        penalty = penalty_weight(kinds[i], kinds[j], dn)
        edges.append(ScoredEdge.from_mi(i, j, mi, penalty))
    return edges


def score_all_pairs(
    dataset: Dataset,
    criterion: Criterion,
    quad: QuadratureSpec = QuadratureSpec(),
) -> list[ScoredEdge]:
    """Score every vertex pair of the dataset under the criterion.

    Returns exactly N(N-1)/2 edges in canonical (i asc, then j asc)
    order. Estimator errors are re-raised with the offending pair named.
    """
    schema = dataset.schema
    if schema.n_vars < 2:
        raise ValueError("need at least two variables to score pairs")
    mi = estimate_all_mi(dataset, quad).tolist()
    dn = criterion.dn(dataset.n)
    edges = []
    for i in range(schema.n_vars):
        for j in range(i + 1, schema.n_vars):
            penalty = penalty_weight(schema.kind(i), schema.kind(j), dn)
            edges.append(ScoredEdge.from_mi(i, j, mi[i][j], penalty))
    return edges
