"""Shared builders for the test suite."""

from __future__ import annotations

from itertools import combinations

import numpy as np
from hypothesis import settings

from dendrofit import (
    Dataset,
    Discrete,
    Forest,
    Gaussian,
    ScoredEdge,
    Variable,
    VariableSchema,
)

# `pytest --hypothesis-profile=ci` (as CI runs tier-1): the same examples
# on every run, and a failure prints the blob that reproduces it locally
settings.register_profile("ci", derandomize=True, print_blob=True, deadline=None)


def discrete_schema(*cards: int, prefix: str = "v") -> VariableSchema:
    variables = []
    for k, card in enumerate(cards):
        labels = tuple(f"c{m}" for m in range(card))
        variables.append(Variable(f"{prefix}{k}", Discrete(labels)))
    return VariableSchema(tuple(variables))


def mixed_schema(kinds: str) -> VariableSchema:
    """kinds: one char per variable, 'd' (binary), 'D' (ternary), 'g'."""
    variables = []
    for k, ch in enumerate(kinds):
        if ch == "d":
            variables.append(Variable(f"v{k}", Discrete(("c0", "c1"))))
        elif ch == "D":
            variables.append(Variable(f"v{k}", Discrete(("c0", "c1", "c2"))))
        else:
            variables.append(Variable(f"v{k}", Gaussian()))
    return VariableSchema(tuple(variables))


def dataset_from_columns(schema: VariableSchema, *cols) -> Dataset:
    arrays = []
    for i, col in enumerate(cols):
        dtype = np.int64 if schema.is_discrete(i) else np.float64
        arrays.append(np.asarray(col, dtype=dtype))
    return Dataset(schema, tuple(arrays))


def random_discrete_dataset(
    rng: np.random.Generator, cards: tuple[int, ...], n: int
) -> Dataset:
    schema = discrete_schema(*cards)
    cols = tuple(rng.integers(0, card, size=n).astype(np.int64) for card in cards)
    return Dataset(schema, cols)


def edges_from_weights(
    weights: dict[tuple[int, int], float], penalty: float = 0.0
) -> list[ScoredEdge]:
    return [
        ScoredEdge.from_mi(i, j, w, penalty) for (i, j), w in sorted(weights.items())
    ]


def complete_random_edges(
    rng: np.random.Generator, n: int, lo: float = 0.0, hi: float = 20.0, penalty_hi: float = 0.0
) -> list[ScoredEdge]:
    """All pairs with continuous random mi (distinct w.p. 1) and optional
    random penalties."""
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            mi = float(rng.uniform(lo, hi))
            penalty = float(rng.uniform(0.0, penalty_hi)) if penalty_hi > 0 else 0.0
            edges.append(ScoredEdge.from_mi(i, j, mi, penalty))
    return edges


def all_forests(n: int) -> list[Forest]:
    """Every acyclic edge subset of the complete graph on n vertices."""
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    out = []
    for r in range(len(pairs) + 1):
        for subset in combinations(pairs, r):
            try:
                out.append(Forest.from_edges(n, list(subset)))
            except Exception:
                continue
    return out
