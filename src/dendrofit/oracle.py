"""Brute-force reference implementations for desk-scale verification:
exhaustive forest search, exact KL divergence of small discrete joints
against their forest factorization, Monte Carlo mutual information
for mixed factors, the mixture integral at a fine trapezoidal step, a
row-at-a-time CSV renderer, a whole-file CSV reader, a whole-column
sampler, a row-at-a-time log-likelihood (exact in fractions where every
Bayes class term overflows), and the one-object-per-edge greedy loop
and report renderers of the CLI.

Everything here is deliberately slow and independent of the production
code paths it checks.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, TextIO

import numpy as np

from .core import (
    Dataset,
    Discrete,
    Forest,
    RootedForest,
    ScoredEdge,
    UnionFind,
    VariableSchema,
    orient_forest,
    validate_dataset,
)
from .errors import (
    DataFormatError,
    DendrofitError,
    SchemaMismatch,
    TooLarge,
    UnsupportedSupport,
)
from .forest import EdgeDecision
from .model import (
    DendroidModel,
    DiscreteEdgeFactor,
    DiscreteMarginal,
    GaussianEdgeFactor,
    MixedEdgeFactor,
)

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


def mixture_mi_fine(probs: np.ndarray, means: np.ndarray, var: float) -> float:
    """Value reference for the estimators' quadrature ladder: one
    mixture's ``mixture_mi_loop`` by the trapezoid at step 1/256 over
    |t| <= 9, far finer and wider than any rung of the ladder."""
    nodes = np.arange(-9 * 256, 9 * 256 + 1) / 256
    return mixture_mi_loop(probs, means, var, nodes, np.exp(-nodes * nodes) / 256)


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


def _draw_categorical(rng: np.random.Generator, cdf_rows: np.ndarray, count: int) -> np.ndarray:
    u = rng.random(count)
    idx = (cdf_rows <= u[:, None]).sum(axis=1)
    return np.minimum(idx, cdf_rows.shape[1] - 1).astype(np.int64)


def _scaled_slope(rho: float, var_c: float, var_p: float) -> float:
    """rho sqrt(var_c / var_p) as rho sqrt(a / b) 2^(i - j), where var_c =
    a 4^i and var_p = b 4^j with a and b in [1/2, 2); +-inf past the
    float range."""
    (a, i), (b, j) = math.frexp(var_c), math.frexp(var_p)
    a, b = math.ldexp(a, i % 2), math.ldexp(b, j % 2)
    try:
        return math.ldexp(rho * math.sqrt(a / b), i // 2 - j // 2)
    except OverflowError:
        return math.copysign(math.inf, rho)


def sample_whole(model: DendroidModel, count: int, seed: int) -> Dataset:
    """Reference for ``model.sample``: one generator, and one draw of a
    whole column per vertex in topological order, each conditional built
    for all count rows at once. A Bayes inversion takes the weights of
    ``_far_weights`` in the rows where every class term overflows."""
    rng = np.random.default_rng(seed)
    rooted = orient_forest(model.forest, model.schema)
    columns: list[Optional[np.ndarray]] = [None] * model.schema.n_vars

    for v in rooted.topological_order():
        parent = rooted.parents[v]
        marg = model.marginals[v]
        if parent is None:
            if isinstance(marg, DiscreteMarginal):
                columns[v] = _draw_categorical(rng, np.cumsum(marg.probs)[None, :], count)
            else:
                columns[v] = marg.mean + math.sqrt(marg.var) * rng.standard_normal(count)
            continue

        factor = model.factor_for(v, parent)
        parent_col = columns[parent]
        if isinstance(factor, DiscreteEdgeFactor):
            joint = factor.table.T if v == factor.i else factor.table  # rows: parent
            rows = joint.sum(axis=1, keepdims=True)
            cdf_rows = np.cumsum(joint / np.where(rows > 0, rows, 1.0), axis=1)[parent_col]
            columns[v] = _draw_categorical(rng, cdf_rows, count)
        elif isinstance(factor, GaussianEdgeFactor):
            if v == factor.i:
                mean_c, var_c = factor.mean_i, factor.var_i
                mean_p, var_p = factor.mean_j, factor.var_j
            else:
                mean_c, var_c = factor.mean_j, factor.var_j
                mean_p, var_p = factor.mean_i, factor.var_i
            rho = factor.rho
            cond_mean = mean_c + _scaled_slope(rho, var_c, var_p) * (parent_col - mean_p)
            cond_sd = math.sqrt(var_c * (1.0 - rho * rho))
            columns[v] = cond_mean + cond_sd * rng.standard_normal(count)
        elif v == factor.gauss:  # Gaussian child of a discrete parent
            columns[v] = factor.class_means[parent_col] + math.sqrt(
                factor.resid_var
            ) * rng.standard_normal(count)
        else:  # discrete child of a Gaussian parent: Bayes inversion
            with np.errstate(divide="ignore", over="ignore"):
                logits = np.log(factor.class_probs)[None, :] - (
                    parent_col[:, None] - factor.class_means[None, :]
                ) ** 2 / (2.0 * factor.resid_var)
            top = logits.max(axis=1, keepdims=True)
            far = np.flatnonzero(np.isneginf(top[:, 0])).tolist()
            top[far] = 0.0
            logits -= top
            weights = np.exp(logits)
            for r in far:  # every class term overflowed
                weights[r] = _far_weights(float(parent_col[r]), factor)
            weights /= weights.sum(axis=1, keepdims=True)
            cdf_rows = np.cumsum(weights, axis=1)
            columns[v] = _draw_categorical(rng, cdf_rows, count)

    return Dataset(schema=model.schema, columns=tuple(columns))


def _log_or_minus_inf(p: float) -> float:
    return math.log(p) if p > 0.0 else -math.inf


def _log_normal(x: float, mean: float, var: float) -> float:
    """-inf where the square overflows."""
    try:
        return -0.5 * math.log(2.0 * math.pi * var) - (x - mean) ** 2 / (2.0 * var)
    except OverflowError:
        return -math.inf


def _far_weights(x: float, factor: MixedEdgeFactor) -> list[float]:
    """The Bayes class weights at a parent value x where every class term
    overflows: p_k exp(-q_k), with q_k = ((x - m_k)^2 - min_j (x - m_j)^2)
    / (2 r), the minimum over the occupied classes j, computed exactly in
    fractions of the floats and rounded to a float once (inf where it
    overflows)."""
    probs, means = factor.class_probs.tolist(), factor.class_means.tolist()
    squares = [(Fraction(x) - Fraction(m)) ** 2 for m in means]
    least = min(sq for sq, p in zip(squares, probs) if p > 0.0)
    weights = []
    for sq, p in zip(squares, probs):
        try:
            q = float((sq - least) / (2 * Fraction(factor.resid_var)))
        except OverflowError:
            q = math.inf
        weights.append(p * math.exp(-q))
    return weights


def directed_log_likelihood(model: DendroidModel, dataset: Dataset) -> float:
    """Reference for ``model.log_likelihood``: the terms of
    ``directed_log_densities``, added row by row in vertex order."""
    total = 0.0
    for terms in directed_log_densities(model, dataset):
        for term in terms:
            total += term
    return total


def directed_log_densities(model: DendroidModel, dataset: Dataset) -> list[list[float]]:
    """Each row's log-density of each vertex under the forest as
    ``orient_forest`` orients it, one row and one vertex at a time in
    Python floats. A discrete child of a Gaussian parent takes the
    posterior of its class, log p_y N(x; m_y, r) - log sum_k p_k N(x; m_k,
    r), with the sum shifted by its largest term; where every term is
    -inf, from the weights of ``_far_weights``."""
    if dataset.schema != model.schema:
        raise SchemaMismatch("dataset schema differs from the model's schema")
    parents = orient_forest(model.forest, model.schema).parents
    columns = [dataset.column(v).tolist() for v in range(model.schema.n_vars)]
    rows = []
    for row in zip(*columns):
        rows.append([])
        for v, parent in enumerate(parents):
            x, marg = row[v], model.marginals[v]
            if parent is None:
                if isinstance(marg, DiscreteMarginal):
                    rows[-1].append(_log_or_minus_inf(float(marg.probs[x])))
                else:
                    rows[-1].append(_log_normal(x, marg.mean, marg.var))
                continue
            factor, x_parent = model.factor_for(v, parent), row[parent]
            if isinstance(factor, DiscreteEdgeFactor):
                cells = factor.table.tolist()
                if v == factor.i:  # the parent's value picks a column
                    given = [cells_of_row[x_parent] for cells_of_row in cells]
                else:
                    given = cells[x_parent]
                mass = sum(given)
                rows[-1].append(_log_or_minus_inf(given[x] / mass) if mass > 0.0 else -math.inf)
            elif isinstance(factor, GaussianEdgeFactor):
                if v == factor.i:
                    mean_c, var_c = factor.mean_i, factor.var_i
                    mean_p, var_p = factor.mean_j, factor.var_j
                else:
                    mean_c, var_c = factor.mean_j, factor.var_j
                    mean_p, var_p = factor.mean_i, factor.var_i
                rho = factor.rho
                mean = mean_c + _scaled_slope(rho, var_c, var_p) * (x_parent - mean_p)
                rows[-1].append(_log_normal(x, mean, var_c * (1.0 - rho * rho)))
            elif v == factor.gauss:
                rows[-1].append(
                    _log_normal(x, float(factor.class_means[x_parent]), factor.resid_var)
                )
            else:
                terms = [
                    _log_or_minus_inf(p) + _log_normal(x_parent, m, factor.resid_var)
                    for p, m in zip(factor.class_probs.tolist(), factor.class_means.tolist())
                ]
                top = max(terms)
                if top == -math.inf:
                    weights = _far_weights(x_parent, factor)
                    rows[-1].append(_log_or_minus_inf(weights[x]) - math.log(sum(weights)))
                else:
                    rows[-1].append(
                        terms[x] - top - math.log(sum(math.exp(t - top) for t in terms))
                    )
    return rows


def read_csv_whole(path, schema: VariableSchema) -> Dataset:
    """Reference for ``dataio.read_csv_dataset``: every record read into one
    list of rows before any is checked, so a decode or CSV error anywhere
    wins over an earlier bad cell. A bad cell is reported at the line its
    record starts at, as one csv.reader over the whole file counts them."""
    rows, starts = [], [1]  # record k starts at line starts[k]
    try:
        with open(path, "r", encoding="utf-8-sig", newline="") as fh:
            reader = csv.reader(fh)
            for record in reader:
                rows.append(record)
                starts.append(reader.line_num + 1)
    except (UnicodeDecodeError, csv.Error) as err:
        raise DataFormatError(f"{path}: {err}") from err
    if not rows:
        raise DataFormatError(f"{path}: empty file (missing header row)")
    header = rows.pop(0)
    if tuple(header) != schema.names:
        raise SchemaMismatch(
            f"{path}: header {header} does not match schema columns "
            f"{list(schema.names)}"
        )
    while rows and not rows[-1]:
        rows.pop()
    try:
        return validate_dataset(schema, rows)
    except DendrofitError as err:
        row = getattr(err, "row_index", None)
        if row is not None:
            raise type(err)(f"{path} line {starts[row + 1]}: {err}") from err
        raise type(err)(f"{path}: {err}") from err


def greedy_decisions(
    edges: Sequence[ScoredEdge], penalized: bool, n_vertices: int
) -> list[EdgeDecision]:
    """Reference for ``forest.greedy_outcomes``: Kruskal's greedy loop one
    edge object at a time, in ``sorted`` order of (-weight, i, j)."""
    weight = (lambda e: e.score) if penalized else (lambda e: e.mi)
    uf = UnionFind(n_vertices)
    decisions = []
    for edge in sorted(edges, key=lambda e: (-weight(e), e.i, e.j)):
        if penalized and edge.score < 0.0:
            decisions.append(EdgeDecision(edge, accepted=False, reason="negative"))
        elif uf.union(edge.i, edge.j):
            decisions.append(EdgeDecision(edge, accepted=True))
        else:
            decisions.append(EdgeDecision(edge, accepted=False, reason="loop"))
    return decisions


def print_report(
    schema: VariableSchema, decisions: Sequence[EdgeDecision], stream: TextIO
) -> None:
    """Reference for the edge table ``learn`` prints, one row at a time."""
    rows = [("i", "j", "pair", "I_n", "penalty", "J_n", "decision")]
    for d in decisions:
        e = d.edge
        decision = "accepted" if d.accepted else f"rejected ({d.reason})"
        rows.append(
            (
                str(e.i),
                str(e.j),
                f"({schema.name(e.i)}, {schema.name(e.j)})",
                f"{e.mi:.4f}",
                f"{e.penalty:.4f}",
                f"{e.score:.4f}",
                decision,
            )
        )
    widths = [max(len(r[c]) for r in rows) for c in range(len(rows[0]))]
    for r in rows:
        print("  ".join(cell.ljust(w) for cell, w in zip(r, widths)).rstrip(), file=stream)


def edge_report(schema: VariableSchema, decisions: Sequence[EdgeDecision]) -> list[dict]:
    """Reference for the "report" list of the forest JSON, which
    ``json.dumps(indent=2)`` renders."""
    return [
        {**_pair_object(schema, d.edge), "accepted": d.accepted, "reason": d.reason}
        for d in decisions
    ]


def score_pairs(schema: VariableSchema, edges: Sequence[ScoredEdge]) -> list[dict]:
    """Reference for the "pairs" list of ``score --format json``."""
    return [_pair_object(schema, e) for e in edges]


def _pair_object(schema: VariableSchema, e: ScoredEdge) -> dict:
    return {
        "i": e.i,
        "j": e.j,
        "name_i": schema.name(e.i),
        "name_j": schema.name(e.j),
        "mi": e.mi,
        "penalty": e.penalty,
        "score": e.score,
    }


def score_csv(schema: VariableSchema, edges: Sequence[ScoredEdge]) -> str:
    """Reference for the CSV of ``score``, one record at a time."""
    header = ("i", "j", "name_i", "name_j", "mi", "penalty", "score")
    rows = [
        (
            str(e.i),
            str(e.j),
            schema.name(e.i),
            schema.name(e.j),
            *(format(v, ".17g") for v in (e.mi, e.penalty, e.score)),
        )
        for e in edges
    ]
    return "".join(csv_record(row) for row in [header, *rows])


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
