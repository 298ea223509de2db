"""Brute-force reference implementations for desk-scale verification:
exhaustive forest search, exact KL divergence of small discrete joints
against their forest factorization, Monte Carlo mutual information
for mixed factors, and a row-at-a-time CSV renderer.

Everything here is deliberately slow and independent of the production
code paths it checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .core import Dataset, Discrete, Forest, RootedForest, ScoredEdge
from .errors import TooLarge, UnsupportedSupport
from .model import MixedEdgeFactor

_MAX_JOINT_VARS = 6
_MAX_ENUM_VERTICES = 8


@dataclass(frozen=True, eq=False)
class SmallJoint:
    """Explicit joint probability table over a handful of discrete
    variables; axis v enumerates the categories of variable v."""

    table: np.ndarray

    def __post_init__(self) -> None:
        table = np.asarray(self.table, dtype=np.float64)
        object.__setattr__(self, "table", table)
        if table.ndim > _MAX_JOINT_VARS:
            raise TooLarge(
                f"explicit joints support at most {_MAX_JOINT_VARS} variables, "
                f"got {table.ndim}"
            )
        if (table < 0).any() or abs(float(table.sum()) - 1.0) > 1e-12:
            raise ValueError("joint table must be nonnegative and sum to 1")

    @property
    def n_vars(self) -> int:
        return self.table.ndim

    @property
    def cardinalities(self) -> tuple[int, ...]:
        return self.table.shape

    def marginal(self, i: int) -> np.ndarray:
        axes = tuple(a for a in range(self.n_vars) if a != i)
        return self.table.sum(axis=axes)

    def pair_marginal(self, i: int, j: int) -> np.ndarray:
        """2-D marginal with axes ordered (i, j)."""
        axes = tuple(a for a in range(self.n_vars) if a not in (i, j))
        out = self.table.sum(axis=axes)
        return out if i < j else out.T

    def product_of_marginals(self) -> np.ndarray:
        out = np.ones((1,) * self.n_vars)
        for i in range(self.n_vars):
            out = out * _along_axis(self.marginal(i), i, self.n_vars)
        return out

    def exact_mi(self, i: int, j: int) -> float:
        """Exact mutual information of the (i, j) pair marginal, nats."""
        pij = self.pair_marginal(i, j)
        prod = np.outer(self.marginal(i), self.marginal(j))
        mask = pij > 0
        return float((pij[mask] * np.log(pij[mask] / prod[mask])).sum())

    def total_correlation(self) -> float:
        """D(P || product of marginals), nats."""
        prod = self.product_of_marginals()
        mask = self.table > 0
        return float(
            (self.table[mask] * np.log(self.table[mask] / prod[mask])).sum()
        )


def _along_axis(vec: np.ndarray, axis: int, n_vars: int) -> np.ndarray:
    shape = [1] * n_vars
    shape[axis] = vec.shape[0]
    return vec.reshape(shape)


def _pair_along_axes(mat: np.ndarray, i: int, j: int, n_vars: int) -> np.ndarray:
    """Broadcast a 2-D array with axes (i, j) into an n_vars-dim shape."""
    if i > j:
        mat = mat.T
        i, j = j, i
    shape = [1] * n_vars
    shape[i] = mat.shape[0]
    shape[j] = mat.shape[1]
    return mat.reshape(shape)


def dendroid_joint(joint: SmallJoint, rooted: RootedForest) -> np.ndarray:
    """The forest factorization of ``joint`` along the parent map, as an
    explicit table built from the joint's own (pairwise) marginals."""
    if rooted.n_vertices != joint.n_vars:
        raise ValueError("parent map and joint disagree on the number of variables")
    n_vars = joint.n_vars
    q = np.ones((1,) * n_vars)
    for v, parent in enumerate(rooted.parents):
        if parent is None:
            q = q * _along_axis(joint.marginal(v), v, n_vars)
        else:
            pair = joint.pair_marginal(v, parent)
            denom = joint.marginal(parent)
            with np.errstate(divide="ignore", invalid="ignore"):
                cond = np.where(denom[None, :] > 0, pair / denom[None, :], 0.0)
            q = q * _pair_along_axes(cond, v, parent, n_vars)
    return q


def sweep_topological_order(rooted: RootedForest) -> list[int]:
    """Reference for ``RootedForest.topological_order``: repeated ascending
    sweeps over the vertices, each taking every vertex whose parent is
    already taken. O(N^2) on long chains."""
    n = rooted.n_vertices
    done = [False] * n
    order: list[int] = []
    while len(order) < n:
        for v in range(n):
            if done[v]:
                continue
            p = rooted.parents[v]
            if p is None or done[p]:
                done[v] = True
                order.append(v)
    return order


def mixture_mi_loop(
    probs: np.ndarray,
    means: np.ndarray,
    var: float,
    nodes: np.ndarray,
    weights: np.ndarray,
) -> float:
    """Reference for ``kernels.mixture_mi_batch`` on one mixture: one
    Python pass per class over every node, evaluating
    -t^2 - log sum_k p_k exp(-(x - m_k)^2 / (2 var)) at
    x = m_y + sqrt(2 var) t with ``np.logaddexp.reduce``."""
    logp = np.log(probs)
    scale = math.sqrt(2.0 * var)
    total = 0.0
    for py, gy in zip(probs, means):
        x = gy + scale * nodes
        comp = logp[None, :] - (x[:, None] - means[None, :]) ** 2 / (2.0 * var)
        lse = np.logaddexp.reduce(comp, axis=1)
        total += py * float(weights @ (-nodes * nodes - lse))
    return total / math.sqrt(math.pi)


def csv_record(fields: Sequence[str]) -> str:
    """One CSV record as Python 3.13's csv.writer writes it with minimal
    quoting and a "\n" line terminator: a field holding a comma, a quote,
    "\r" or "\n" is quoted with its quotes doubled, and a record of one
    empty field is written as ""."""
    if list(fields) == [""]:
        return '""\n'
    quoted = (
        '"' + f.replace('"', '""') + '"' if any(c in f for c in ',"\r\n') else f
        for f in fields
    )
    return ",".join(quoted) + "\n"


def render_csv_rows(dataset: Dataset) -> str:
    """Reference for ``dataio.render_csv``: one record per data row, with
    labels for discrete cells and 17-significant-digit decimals for
    Gaussian cells."""
    lines = [csv_record(dataset.schema.names)]
    kinds = [var.kind for var in dataset.schema.variables]
    for r in range(dataset.n):
        row = []
        for kind, col in zip(kinds, dataset.columns):
            if isinstance(kind, Discrete):
                row.append(kind.labels[int(col[r])])
            else:
                row.append(format(float(col[r]), ".17g"))
        lines.append(csv_record(row))
    return "".join(lines)


def exact_kl_dendroid(joint: SmallJoint, rooted: RootedForest) -> float:
    """D(P || Q) by full enumeration, Q the dendroid factorization of P
    along the parent map.

    Raises UnsupportedSupport if Q vanishes where P has mass (cannot
    happen when Q comes from P's own marginals, but guards injected Qs).
    """
    q = dendroid_joint(joint, rooted)
    p = joint.table
    mask = p > 0
    q_masked = np.broadcast_to(q, p.shape)[mask]
    if (q_masked <= 0).any():
        raise UnsupportedSupport("factorized distribution is zero where the joint has mass")
    return float((p[mask] * np.log(p[mask] / q_masked)).sum())


def _best_forest_search(
    edges: Sequence[ScoredEdge], n: int, require_spanning_tree: bool
) -> tuple[float, tuple[tuple[int, int], ...]]:
    """DFS over acyclic edge subsets (equivalent to a bitmask sweep with a
    cycle check, but cyclic supersets are pruned)."""
    target = n - 1
    best_total = -np.inf
    best_edges: Optional[tuple[tuple[int, int], ...]] = None

    def consider(total: float, chosen: list[tuple[int, int]]) -> None:
        nonlocal best_total, best_edges
        if require_spanning_tree and len(chosen) != target:
            return
        key = tuple(sorted(chosen))
        if total > best_total or (total == best_total and (best_edges is None or key < best_edges)):
            best_total = total
            best_edges = key

    parents = list(range(n))

    def find(x: int) -> int:
        # no path compression: the take-branch undo below relies on
        # parents[rj] = ri being the only mutation
        while parents[x] != x:
            x = parents[x]
        return x

    def recurse(pos: int, total: float, chosen: list[tuple[int, int]]) -> None:
        if pos == len(edges):
            consider(total, chosen)
            return
        edge = edges[pos]
        # skip this edge
        recurse(pos + 1, total, chosen)
        # take it if loop-free
        ri, rj = find(edge.i), find(edge.j)
        if ri != rj:
            parents[rj] = ri
            chosen.append((edge.i, edge.j))
            recurse(pos + 1, total + edge.score, chosen)
            chosen.pop()
            parents[rj] = rj
        return

    recurse(0, 0.0, [])
    if best_edges is None:
        raise ValueError("no admissible forest found (no spanning tree exists?)")
    return best_total, best_edges


def brute_force_best_forest(
    edges: Sequence[ScoredEdge],
    require_spanning_tree: bool = False,
    n_vertices: Optional[int] = None,
) -> Forest:
    """Exhaustively maximize the total score over all acyclic edge
    subsets, or over all spanning trees when flagged.

    Score ties are broken toward the lexicographically smallest sorted
    edge tuple, matching the greedy builder's preference for low-index
    pairs.
    """
    if not edges:
        raise ValueError("no candidate edges supplied")
    n = n_vertices if n_vertices is not None else max(e.j for e in edges) + 1
    if n > _MAX_ENUM_VERTICES:
        raise TooLarge(
            f"exhaustive search is limited to {_MAX_ENUM_VERTICES} vertices, got {n}"
        )
    _, best = _best_forest_search(list(edges), n, require_spanning_tree)
    return Forest.from_edges(n, best)


def brute_force_best_total(
    edges: Sequence[ScoredEdge],
    require_spanning_tree: bool = False,
    n_vertices: Optional[int] = None,
) -> float:
    """The optimal total score itself (same search as
    brute_force_best_forest)."""
    if not edges:
        raise ValueError("no candidate edges supplied")
    n = n_vertices if n_vertices is not None else max(e.j for e in edges) + 1
    if n > _MAX_ENUM_VERTICES:
        raise TooLarge(
            f"exhaustive search is limited to {_MAX_ENUM_VERTICES} vertices, got {n}"
        )
    total, _ = _best_forest_search(list(edges), n, require_spanning_tree)
    return total


def mc_mutual_information(
    factor: MixedEdgeFactor, draws: int, seed: int
) -> tuple[float, float]:
    """Monte Carlo estimate (and standard error) of the per-sample mutual
    information of a mixed factor's class-mixture model."""
    if draws < 10_000:
        raise ValueError(f"need at least 10000 draws for a stable estimate, got {draws}")
    rng = np.random.default_rng(seed)
    probs = np.asarray(factor.class_probs, dtype=np.float64)
    means = np.asarray(factor.class_means, dtype=np.float64)
    keep = probs > 0
    probs = probs[keep] / probs[keep].sum()
    means = means[keep]
    var = float(factor.resid_var)

    y = rng.choice(probs.shape[0], size=draws, p=probs)
    x = means[y] + np.sqrt(var) * rng.standard_normal(draws)
    # log f(x|y) - log sum_z p_z f(x|z); the shared normalizer cancels
    own = -((x - means[y]) ** 2) / (2.0 * var)
    comp = np.log(probs)[None, :] - (x[:, None] - means[None, :]) ** 2 / (2.0 * var)
    mix = np.logaddexp.reduce(comp, axis=1)
    values = own - mix
    estimate = float(values.mean())
    stderr = float(values.std(ddof=1) / np.sqrt(draws))
    return estimate, stderr
