"""Seeded input generation for the workloads in ``workloads.py``.

    python3 perfbench/generate.py WORKLOAD SEED SIZE DIR

writes DIR/schema.json, DIR/data.csv and DIR/reference.json. The same
seed gives byte-identical files. The program under test only ever sees
the schema and the CSV; reference.json holds the row and column counts
and the edges a correct learner should recover, for ``edge_recall``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np

from workloads import NAMES, SHAPES, Shape

LEVELS = ("a", "b", "c", "d", "e", "f", "g", "h")
# mixed-hard: share of cells in which a discrete child differs from its
# parent. Fewer make the parent and its neighbours hard to tell apart; more
# blur the class means, so fewer mixed pairs climb past order 128.
REDRAW = 0.003


def _names(shape: Shape) -> list[str]:
    return [f"d{k}" for k in range(shape.discrete)] + [f"g{k}" for k in range(shape.gaussian)]


def _schema_doc(shape: Shape) -> list[dict]:
    labels = list(LEVELS[: shape.levels])
    doc = [{"name": f"d{k}", "kind": "discrete", "labels": labels} for k in range(shape.discrete)]
    return doc + [{"name": f"g{k}", "kind": "gaussian"} for k in range(shape.gaussian)]


def _csv_text(shape: Shape, columns: list[np.ndarray]) -> str:
    labels = np.array(LEVELS[: shape.levels])
    cells = [labels[c].tolist() for c in columns[: shape.discrete]]
    cells += [[repr(x) for x in c.tolist()] for c in columns[shape.discrete :]]
    lines = [",".join(_names(shape))]
    lines.extend(",".join(row) for row in zip(*cells))
    return "\n".join(lines) + "\n"


def planted_tree(shape: Shape, rng: np.random.Generator):
    """Columns drawn along a random recursive tree over all N vertices
    (discrete vertices first, then Gaussian ones).

    Every tree edge is a strong dependence, so the MDL forest should hold
    all N - 1 planted edges; they are the reference for edge_recall.
    """
    n, k = shape.rows, shape.levels
    order = rng.permutation(shape.columns)
    columns: list = [None] * shape.columns
    edges = []
    for t, v in enumerate(order):
        discrete = v < shape.discrete
        if t == 0:
            columns[v] = rng.integers(k, size=n) if discrete else rng.standard_normal(n)
            continue
        p = int(order[rng.integers(t)])
        edges.append(sorted((int(v), p)))
        parent = columns[p]
        if discrete and p < shape.discrete:
            # a permuted copy of the parent, a quarter of the cells redrawn
            keep = rng.random(n) < 0.75
            columns[v] = np.where(keep, rng.permutation(k)[parent], rng.integers(k, size=n))
        elif discrete:
            # the parent plus noise, cut into k equally likely bins
            noisy = parent / parent.std() + 0.5 * rng.standard_normal(n)
            cuts = np.quantile(noisy, np.arange(1, k) / k)
            columns[v] = np.searchsorted(cuts, noisy).astype(np.int64)
        elif p < shape.discrete:
            # class means 0.8/0.6 = 1.3 sd apart: the quadrature ladder
            # confirms such pairs at its first doubling
            means = rng.permutation(np.linspace(-1.2, 1.2, k))
            columns[v] = means[parent] + 0.6 * rng.standard_normal(n)
        else:
            columns[v] = 0.8 * parent / parent.std() + 0.6 * rng.standard_normal(n)
    return columns, sorted(edges)


def _mean_map(k: int, chosen: list[np.ndarray], rng: np.random.Generator) -> np.ndarray:
    """Class means for one Gaussian: k classes on k/2 values 6 sd apart,
    two classes per value, correlated at most 0.9 with every map in
    ``chosen``."""
    while True:
        means = 6.0 * (rng.permutation(k) // 2)
        if all(abs(np.corrcoef(means, m)[0, 1]) <= 0.9 for m in chosen):
            chosen.append(means)
            return means


def planted_ladder(shape: Shape, rng: np.random.Generator):
    """A planted tree whose mixed scores decide its Gaussian edges.

    The discrete columns form a tree of near-copies: tree node t > 0 is
    node (t - 1) // 2 with a share REDRAW of its cells changed, and the
    nodes sit in the columns in a random order. Every discrete column is
    close to one latent class. Gaussian column g hangs off tree node
    g mod D: its class means take k/2 values 6 sd apart (two classes share
    each value), plus N(0, 1). The tree has the same shape for every seed,
    so the work of a learn varies little from seed to seed. And:

    - a Gaussian's mixed MI with its parent is about ln(k/2), and with
      another discrete column a little less, because the changed cells
      blur the class means; picking the parent needs accurate mixed MI;
    - planted discrete edges (MI near ln k) beat every mixed edge even
      after their larger MDL penalty, and two Gaussians' maps correlate
      at most 0.9, so no Gaussian pair beats a mixed edge;
    - mixed pairs keep class means 3-6 sd apart, which the quadrature
      ladder confirms only at order 256-512.
    """
    n, k = shape.rows, shape.levels
    column_of = rng.permutation(shape.discrete)
    columns: list = [None] * shape.discrete
    edges = []
    for t, v in enumerate(column_of):
        if t == 0:
            columns[v] = rng.integers(k, size=n)
            continue
        p = column_of[(t - 1) // 2]
        edges.append(sorted((int(v), int(p))))
        child = columns[p].copy()
        cells = rng.choice(n, size=max(2, round(REDRAW * n)), replace=False)
        child[cells] = (child[cells] + rng.integers(1, k, size=cells.size)) % k
        columns[v] = child
    chosen: list[np.ndarray] = []
    for g in range(shape.gaussian):
        p = int(column_of[g % shape.discrete])
        edges.append([p, shape.discrete + g])
        columns.append(_mean_map(k, chosen, rng)[columns[p]] + rng.standard_normal(n))
    return columns, sorted(edges)


GENERATORS = {"tall": planted_tree, "wide": planted_tree, "mixed-hard": planted_ladder}


def write_inputs(name: str, seed: int, size: str, out: Path) -> None:
    shape = SHAPES[name][size]
    rng = np.random.default_rng([seed, NAMES.index(name)])
    columns, edges = GENERATORS[name](shape, rng)
    (out / "schema.json").write_text(json.dumps(_schema_doc(shape), indent=1) + "\n", "utf-8")
    (out / "data.csv").write_text(_csv_text(shape, columns), "utf-8")
    reference = {"rows": shape.rows, "columns": shape.columns, "edges": edges}
    (out / "reference.json").write_text(json.dumps(reference) + "\n", "utf-8")


if __name__ == "__main__":
    name, seed, size, out = sys.argv[1:]
    write_inputs(name, int(seed), size, Path(out))
