"""Shared builders for the test suite."""

from __future__ import annotations

import os
import subprocess
import sys
from itertools import combinations
from pathlib import Path

import numpy as np
from hypothesis import settings

import dendrofit
from dendrofit import (
    Dataset,
    DendroidModel,
    Discrete,
    DiscreteEdgeFactor,
    DiscreteMarginal,
    Forest,
    Gaussian,
    GaussianEdgeFactor,
    GaussianMarginal,
    MixedEdgeFactor,
    ScoredEdge,
    Variable,
    VariableSchema,
)
from dendrofit.core import code_dtype

# `pytest --hypothesis-profile=ci` (as CI runs tier-1): the same examples
# on every run, and a failure prints the blob that reproduces it locally
settings.register_profile("ci", derandomize=True, print_blob=True, deadline=None)


def dispatch_envs() -> tuple[dict, dict]:
    """(base, off): the environment of a child that imports this
    dendrofit, and the same with every numpy dispatch target (AVX2 and
    AVX-512 on x86) that this host has switched off, which a child
    confirms. On a host with none, both take the same loops, and a test
    that compares them shows nothing."""
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy 1
        from numpy.core import _multiarray_umath as umath
    targets = [name for name in umath.__cpu_dispatch__ if umath.__cpu_features__.get(name)]
    package = str(Path(dendrofit.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [package, os.environ.get("PYTHONPATH")]))
    base = {**os.environ, "PYTHONPATH": path}
    base.pop("NPY_DISABLE_CPU_FEATURES", None)
    off = {**base, "NPY_DISABLE_CPU_FEATURES": " ".join(targets)}
    code = f"import {umath.__name__} as m; print([m.__cpu_features__[t] for t in {targets!r}])"
    run = subprocess.run([sys.executable, "-c", code], env=off, capture_output=True,
                         text=True, timeout=120)
    assert run.stdout == f"{[False] * len(targets)}\n", run.stderr  # switched off
    return base, off


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


def column_dtype(schema: VariableSchema, i: int) -> np.dtype:
    """The dtype a Dataset stores column i in: the code dtype of its
    cardinality for a discrete column, float64 for a Gaussian one."""
    return code_dtype(schema.cardinality(i)) if schema.is_discrete(i) else np.dtype(np.float64)


def dataset_from_columns(schema: VariableSchema, *cols) -> Dataset:
    arrays = []
    for i, col in enumerate(cols):
        dtype = np.int64 if schema.is_discrete(i) else np.float64
        arrays.append(np.asarray(col, dtype=dtype))
    return Dataset(schema, tuple(arrays))


def every_kind_model() -> DendroidModel:
    """A model from literal parameters with every marginal and factor kind,
    each factor kind met by sampling in both orientations.

    Oriented, component {0..5} roots at discrete 1 and component {6, 7, 8}
    at Gaussian 6: Gaussian 0 is a child of discrete 1 (mixed), 3 of 1
    and 2 of 3 (discrete, child as column then as row, one zero cell),
    4 of 0 (Gaussian), discrete 5 of Gaussian 4 (mixed, Bayes inversion),
    8 of 6 and 7 of 8 (Gaussian, child as j then as i). The values are
    dyadic, so each table reproduces its marginals exactly.
    """
    p1 = np.array([0.375, 0.25, 0.375])
    p5 = np.array([0.25, 0.75])
    return DendroidModel.build(
        schema=mixed_schema("gDddgdggg"),
        forest=Forest.from_edges(
            9, [(0, 1), (0, 4), (1, 3), (2, 3), (4, 5), (6, 8), (7, 8)]
        ),
        marginals=(
            GaussianMarginal(mean=0.5, var=5.4375),
            DiscreteMarginal(p1),
            DiscreteMarginal(np.array([0.375, 0.625])),
            DiscreteMarginal(np.array([0.5, 0.5])),
            GaussianMarginal(mean=-1.0, var=2.0),
            DiscreteMarginal(p5),
            GaussianMarginal(mean=3.0, var=0.5),
            GaussianMarginal(mean=10.0, var=9.0),
            GaussianMarginal(mean=0.0, var=1.0),
        ),
        factors=(
            MixedEdgeFactor(
                gauss=0, disc=1, class_probs=p1,
                class_means=np.array([-2.0, 0.5, 3.0]), resid_var=0.75,
            ),
            GaussianEdgeFactor(0, 4, rho=0.6, mean_i=0.5, var_i=5.4375, mean_j=-1.0, var_j=2.0),
            DiscreteEdgeFactor(
                1, 3, np.array([[0.25, 0.125], [0.125, 0.125], [0.125, 0.25]])
            ),
            DiscreteEdgeFactor(2, 3, np.array([[0.375, 0.0], [0.125, 0.5]])),
            MixedEdgeFactor(
                gauss=4, disc=5, class_probs=p5,
                class_means=np.array([-2.5, -0.5]), resid_var=1.25,
            ),
            GaussianEdgeFactor(6, 8, rho=-0.4, mean_i=3.0, var_i=0.5, mean_j=0.0, var_j=1.0),
            GaussianEdgeFactor(7, 8, rho=0.9, mean_i=10.0, var_i=9.0, mean_j=0.0, var_j=1.0),
        ),
        n=16,
    )


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
