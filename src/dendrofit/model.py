"""Fitted forest-structured models over mixed variables: node marginals
plus one pairwise factor per edge, enough to evaluate likelihood and
description length and to draw synthetic data.

The joint factorizes in the undirected pairwise-ratio form

    q(x) = prod_i p_i(x_i) * prod_{(i,j) in E} pair_ij(x_i, x_j) /
           (p_i(x_i) p_j(x_j))

which never needs a conditional family for a discrete child of a
Gaussian parent; sampling orients the forest and inverts the mixed
factor by Bayes' rule where that orientation comes up.

Sampling uses numpy's PCG64 generator (``numpy.random.default_rng``);
for a fixed seed the output is bit-identical across runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Union

import numpy as np

from .core import (
    Dataset,
    Discrete,
    Forest,
    Gaussian,
    VariableSchema,
    orient_forest,
)
from .errors import DegenerateGaussian, EmptyDataset, InvalidCount, SchemaMismatch
from .estimators import (
    DiscretePair,
    GaussianPair,
    check_gaussian_column,
    collect_pair_stats,
)
from .scoring import effective_cardinality

MODEL_FORMAT = "dendrofit-model"
MODEL_VERSION = 1

_MARGINAL_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class DiscreteMarginal:
    probs: np.ndarray  # (cardinality,), sums to 1

    def __post_init__(self) -> None:
        probs = np.asarray(self.probs, dtype=np.float64)
        object.__setattr__(self, "probs", probs)
        if (probs < 0).any() or abs(float(probs.sum()) - 1.0) > _MARGINAL_TOL:
            raise ValueError("marginal probabilities must be nonnegative and sum to 1")


@dataclass(frozen=True)
class GaussianMarginal:
    mean: float
    var: float

    def __post_init__(self) -> None:
        if not self.var > 0.0:
            raise DegenerateGaussian(f"marginal variance must be positive, got {self.var}")


NodeMarginal = Union[DiscreteMarginal, GaussianMarginal]


@dataclass(frozen=True, eq=False)
class DiscreteEdgeFactor:
    """Joint probability table of a discrete pair, i < j."""

    i: int
    j: int
    table: np.ndarray  # (card_i, card_j), sums to 1

    def __post_init__(self) -> None:
        table = np.asarray(self.table, dtype=np.float64)
        object.__setattr__(self, "table", table)
        if (table < 0).any() or abs(float(table.sum()) - 1.0) > _MARGINAL_TOL:
            raise ValueError("joint table must be nonnegative and sum to 1")


@dataclass(frozen=True)
class GaussianEdgeFactor:
    """Bivariate normal factor: correlation plus both marginals'
    parameters, i < j."""

    i: int
    j: int
    rho: float
    mean_i: float
    var_i: float
    mean_j: float
    var_j: float

    def __post_init__(self) -> None:
        if not abs(self.rho) < 1.0:
            raise DegenerateGaussian(
                f"edge ({self.i}, {self.j}): |rho| = {abs(self.rho)} is not usable"
            )
        if not (self.var_i > 0.0 and self.var_j > 0.0):
            raise DegenerateGaussian(f"edge ({self.i}, {self.j}): zero variance")


@dataclass(frozen=True, eq=False)
class MixedEdgeFactor:
    """Gaussian/discrete factor: class probabilities, class-conditional
    means, and the shared residual variance."""

    gauss: int
    disc: int
    class_probs: np.ndarray
    class_means: np.ndarray
    resid_var: float

    def __post_init__(self) -> None:
        probs = np.asarray(self.class_probs, dtype=np.float64)
        means = np.asarray(self.class_means, dtype=np.float64)
        object.__setattr__(self, "class_probs", probs)
        object.__setattr__(self, "class_means", means)
        if probs.shape != means.shape:
            raise ValueError("class_probs and class_means must align")
        if (probs < 0).any() or abs(float(probs.sum()) - 1.0) > _MARGINAL_TOL:
            raise ValueError("class probabilities must be nonnegative and sum to 1")
        if not self.resid_var > 0.0:
            raise DegenerateGaussian(
                f"edge ({self.gauss}, {self.disc}): residual variance must be positive"
            )

    def pair(self) -> tuple[int, int]:
        return (min(self.gauss, self.disc), max(self.gauss, self.disc))


EdgeFactor = Union[DiscreteEdgeFactor, GaussianEdgeFactor, MixedEdgeFactor]


def _factor_pair(factor: EdgeFactor) -> tuple[int, int]:
    if isinstance(factor, MixedEdgeFactor):
        return factor.pair()
    return (factor.i, factor.j)


def count_parameters(schema: VariableSchema, forest: Forest) -> int:
    """Free parameters: alpha_i - 1 per discrete node, 2 per Gaussian
    node, plus (a_i - 1)(a_j - 1) per edge with a = 2 for Gaussian."""
    k = 0
    for i in range(schema.n_vars):
        kind = schema.kind(i)
        k += (kind.cardinality - 1) if isinstance(kind, Discrete) else 2
    for i, j in forest.edges:
        k += (effective_cardinality(schema.kind(i)) - 1) * (
            effective_cardinality(schema.kind(j)) - 1
        )
    return k


@dataclass(frozen=True, eq=False)
class DendroidModel:
    """A fitted forest model: schema, structure, parameters, and the
    sample count the parameters came from."""

    schema: VariableSchema
    forest: Forest
    marginals: tuple[NodeMarginal, ...]
    factors: tuple[EdgeFactor, ...]  # aligned with forest.sorted_edges
    n: int
    param_count: int

    @classmethod
    def build(
        cls,
        schema: VariableSchema,
        forest: Forest,
        marginals: tuple[NodeMarginal, ...],
        factors: tuple[EdgeFactor, ...],
        n: int,
    ) -> "DendroidModel":
        """Assemble and cross-validate a model; computes the parameter
        count."""
        if forest.n_vertices != schema.n_vars:
            raise ValueError("forest and schema disagree on the number of vertices")
        if len(marginals) != schema.n_vars:
            raise ValueError("need one marginal per vertex")
        edges = forest.sorted_edges
        if tuple(_factor_pair(f) for f in factors) != edges:
            raise ValueError("factors must align with the forest's sorted edges")
        for v in range(schema.n_vars):
            kind = schema.kind(v)
            marg = marginals[v]
            if isinstance(kind, Discrete) != isinstance(marg, DiscreteMarginal):
                raise ValueError(f"marginal kind mismatch at vertex {v}")
            if isinstance(marg, DiscreteMarginal) and marg.probs.shape[0] != kind.cardinality:
                raise ValueError(f"marginal cardinality mismatch at vertex {v}")
        for factor in factors:
            if isinstance(factor, DiscreteEdgeFactor):
                row = factor.table.sum(axis=1)
                col = factor.table.sum(axis=0)
                if not (
                    np.allclose(row, marginals[factor.i].probs, rtol=0.0, atol=_MARGINAL_TOL)
                    and np.allclose(col, marginals[factor.j].probs, rtol=0.0, atol=_MARGINAL_TOL)
                ):
                    raise ValueError(
                        f"edge ({factor.i}, {factor.j}): table marginals do not "
                        "reproduce the node marginals"
                    )
        return cls(
            schema=schema,
            forest=forest,
            marginals=marginals,
            factors=factors,
            n=n,
            param_count=count_parameters(schema, forest),
        )

    @cached_property
    def _factor_by_pair(self) -> dict[tuple[int, int], EdgeFactor]:
        return {_factor_pair(factor): factor for factor in self.factors}

    def factor_for(self, i: int, j: int) -> EdgeFactor:
        pair = (min(i, j), max(i, j))
        try:
            return self._factor_by_pair[pair]
        except KeyError:
            raise KeyError(f"no factor for edge {pair}") from None

    # -- serialization --------------------------------------------------------

    def to_json_dict(self) -> dict:
        """Single-document JSON form; floats keep full precision."""
        marginals = []
        for marg in self.marginals:
            if isinstance(marg, DiscreteMarginal):
                marginals.append({"kind": "discrete", "probs": marg.probs.tolist()})
            else:
                marginals.append({"kind": "gaussian", "mean": marg.mean, "var": marg.var})
        factors = []
        for factor in self.factors:
            if isinstance(factor, DiscreteEdgeFactor):
                factors.append(
                    {
                        "kind": "discrete",
                        "i": factor.i,
                        "j": factor.j,
                        "table": factor.table.tolist(),
                    }
                )
            elif isinstance(factor, GaussianEdgeFactor):
                factors.append(
                    {
                        "kind": "gaussian",
                        "i": factor.i,
                        "j": factor.j,
                        "rho": factor.rho,
                        "mean_i": factor.mean_i,
                        "var_i": factor.var_i,
                        "mean_j": factor.mean_j,
                        "var_j": factor.var_j,
                    }
                )
            else:
                factors.append(
                    {
                        "kind": "mixed",
                        "gauss": factor.gauss,
                        "disc": factor.disc,
                        "class_probs": factor.class_probs.tolist(),
                        "class_means": factor.class_means.tolist(),
                        "resid_var": factor.resid_var,
                    }
                )
        from .dataio import schema_to_jsonable

        return {
            "format": MODEL_FORMAT,
            "version": MODEL_VERSION,
            "schema": schema_to_jsonable(self.schema),
            "edges": [list(edge) for edge in self.forest.sorted_edges],
            "marginals": marginals,
            "edge_factors": factors,
            "n": self.n,
            "param_count": self.param_count,
        }

    @classmethod
    def from_json_dict(cls, doc: dict) -> "DendroidModel":
        from .dataio import schema_from_jsonable

        if doc.get("format") != MODEL_FORMAT:
            raise ValueError(f"not a {MODEL_FORMAT} document")
        if doc.get("version") != MODEL_VERSION:
            raise ValueError(f"unsupported model version {doc.get('version')!r}")
        schema = schema_from_jsonable(doc["schema"])
        forest = Forest.from_edges(schema.n_vars, [tuple(e) for e in doc["edges"]])
        marginals = []
        for obj in doc["marginals"]:
            if obj["kind"] == "discrete":
                marginals.append(DiscreteMarginal(np.asarray(obj["probs"])))
            else:
                marginals.append(GaussianMarginal(mean=obj["mean"], var=obj["var"]))
        factors = []
        for obj in doc["edge_factors"]:
            if obj["kind"] == "discrete":
                factors.append(
                    DiscreteEdgeFactor(i=obj["i"], j=obj["j"], table=np.asarray(obj["table"]))
                )
            elif obj["kind"] == "gaussian":
                factors.append(
                    GaussianEdgeFactor(
                        i=obj["i"],
                        j=obj["j"],
                        rho=obj["rho"],
                        mean_i=obj["mean_i"],
                        var_i=obj["var_i"],
                        mean_j=obj["mean_j"],
                        var_j=obj["var_j"],
                    )
                )
            else:
                factors.append(
                    MixedEdgeFactor(
                        gauss=obj["gauss"],
                        disc=obj["disc"],
                        class_probs=np.asarray(obj["class_probs"]),
                        class_means=np.asarray(obj["class_means"]),
                        resid_var=obj["resid_var"],
                    )
                )
        model = cls.build(
            schema=schema,
            forest=forest,
            marginals=tuple(marginals),
            factors=tuple(factors),
            n=int(doc["n"]),
        )
        if model.param_count != int(doc["param_count"]):
            raise ValueError(
                f"stored param_count {doc['param_count']} disagrees with "
                f"recomputed {model.param_count}"
            )
        return model


def fit(dataset: Dataset, forest: Forest) -> DendroidModel:
    """Maximum-likelihood fit of marginals and edge factors on a given
    structure."""
    schema = dataset.schema
    if forest.n_vertices != schema.n_vars:
        raise ValueError("forest and dataset disagree on the number of vertices")
    if dataset.n < 1:
        raise EmptyDataset("cannot fit on an empty dataset")
    n = dataset.n

    marginals: list[NodeMarginal] = []
    for v in range(schema.n_vars):
        col = dataset.column(v)
        if schema.is_discrete(v):
            counts = np.bincount(col, minlength=schema.cardinality(v))
            marginals.append(DiscreteMarginal(counts / n))
        else:
            check_gaussian_column(dataset, v)
            marginals.append(GaussianMarginal(mean=float(np.mean(col)), var=float(np.var(col))))

    factors: list[EdgeFactor] = []
    for i, j in forest.sorted_edges:
        stats = collect_pair_stats(dataset, i, j)
        if isinstance(stats, DiscretePair):
            factors.append(
                DiscreteEdgeFactor(i=stats.i, j=stats.j, table=stats.counts / n)
            )
        elif isinstance(stats, GaussianPair):
            if abs(stats.rho) >= 1.0:
                raise DegenerateGaussian(
                    f"edge ({schema.name(i)!r}, {schema.name(j)!r}): perfectly "
                    "correlated columns cannot be fitted"
                )
            factors.append(
                GaussianEdgeFactor(
                    i=stats.i,
                    j=stats.j,
                    rho=stats.rho,
                    mean_i=stats.mean_i,
                    var_i=stats.var_i,
                    mean_j=stats.mean_j,
                    var_j=stats.var_j,
                )
            )
        else:
            if stats.resid_var <= 0.0:
                raise DegenerateGaussian(
                    f"edge ({schema.name(i)!r}, {schema.name(j)!r}): zero pooled "
                    "residual variance"
                )
            means = np.where(stats.class_counts > 0, stats.class_means, 0.0)
            factors.append(
                MixedEdgeFactor(
                    gauss=stats.gauss,
                    disc=stats.disc,
                    class_probs=stats.class_counts / stats.n,
                    class_means=means,
                    resid_var=stats.resid_var,
                )
            )
    return DendroidModel.build(
        schema=schema,
        forest=forest,
        marginals=tuple(marginals),
        factors=tuple(factors),
        n=n,
    )


def _gaussian_logpdf(x: np.ndarray, mean: float, var: float) -> np.ndarray:
    return -0.5 * math.log(2.0 * math.pi * var) - (x - mean) ** 2 / (2.0 * var)


def log_likelihood(model: DendroidModel, dataset: Dataset) -> float:
    """Total log probability (masses and densities mixed) of the rows
    under the model; rows hitting a zero-probability discrete cell
    contribute -inf."""
    if dataset.schema != model.schema:
        raise SchemaMismatch("dataset schema differs from the model's schema")
    n = dataset.n
    total = np.zeros(n, dtype=np.float64)
    zero_mask = np.zeros(n, dtype=bool)

    with np.errstate(divide="ignore", invalid="ignore"):
        for v in range(model.schema.n_vars):
            col = dataset.column(v)
            marg = model.marginals[v]
            if isinstance(marg, DiscreteMarginal):
                p = marg.probs[col]
                zero_mask |= p == 0.0
                total += np.log(p)
            else:
                total += _gaussian_logpdf(col, marg.mean, marg.var)

        for factor in model.factors:
            if isinstance(factor, DiscreteEdgeFactor):
                xi = dataset.column(factor.i)
                xj = dataset.column(factor.j)
                pij = factor.table[xi, xj]
                zero_mask |= pij == 0.0
                total += (
                    np.log(pij)
                    - np.log(model.marginals[factor.i].probs[xi])
                    - np.log(model.marginals[factor.j].probs[xj])
                )
            elif isinstance(factor, GaussianEdgeFactor):
                xi = dataset.column(factor.i)
                xj = dataset.column(factor.j)
                rho = factor.rho
                zi = (xi - factor.mean_i) / math.sqrt(factor.var_i)
                zj = (xj - factor.mean_j) / math.sqrt(factor.var_j)
                total += -0.5 * math.log1p(-rho * rho) + (
                    2.0 * rho * zi * zj - rho * rho * (zi * zi + zj * zj)
                ) / (2.0 * (1.0 - rho * rho))
            else:
                x = dataset.column(factor.gauss)
                y = dataset.column(factor.disc)
                zero_mask |= factor.class_probs[y] == 0.0
                marg = model.marginals[factor.gauss]
                total += _gaussian_logpdf(
                    x, factor.class_means[y], factor.resid_var
                ) - _gaussian_logpdf(x, marg.mean, marg.var)

    total = np.where(zero_mask, -np.inf, total)
    return float(total.sum())


def description_length(model: DendroidModel, dataset: Dataset, criterion) -> float:
    """Two-part code length: -log-likelihood + (k/2) d_n, the
    structure-independent constant omitted."""
    dn = criterion.dn(dataset.n)
    return -log_likelihood(model, dataset) + 0.5 * model.param_count * dn


def _draw_categorical(rng: np.random.Generator, cdf_rows: np.ndarray, count: int) -> np.ndarray:
    """One uniform per row, inverted through each row's cdf."""
    u = rng.random(count)
    idx = (cdf_rows <= u[:, None]).sum(axis=1)
    return np.minimum(idx, cdf_rows.shape[1] - 1).astype(np.int64)


def sample(model: DendroidModel, count: int, seed: int) -> Dataset:
    """Ancestral sampling along the oriented forest.

    Roots are drawn from their marginals, children from the stored
    factors' conditionals; a discrete child of a Gaussian parent is drawn
    by Bayes inversion of the mixed factor. Deterministic for a fixed
    seed (PCG64; one batched draw per vertex in topological order).
    """
    if not isinstance(count, int) or isinstance(count, bool) or count < 1:
        raise InvalidCount(f"sample count must be a positive integer, got {count!r}")
    rng = np.random.default_rng(seed)
    rooted = orient_forest(model.forest, model.schema)
    columns: list[Optional[np.ndarray]] = [None] * model.schema.n_vars

    for v in rooted.topological_order():
        parent = rooted.parents[v]
        marg = model.marginals[v]
        if parent is None:
            if isinstance(marg, DiscreteMarginal):
                cdf = np.cumsum(marg.probs)[None, :]
                columns[v] = _draw_categorical(rng, np.broadcast_to(cdf, (count, cdf.shape[1])), count)
            else:
                columns[v] = marg.mean + math.sqrt(marg.var) * rng.standard_normal(count)
            continue

        factor = model.factor_for(v, parent)
        parent_col = columns[parent]
        if isinstance(factor, DiscreteEdgeFactor):
            if v == factor.i:  # child indexes rows, parent indexes columns
                cond = factor.table / np.where(
                    factor.table.sum(axis=0) > 0, factor.table.sum(axis=0), 1.0
                )
                cond = cond.T
            else:
                cond = factor.table / np.where(
                    factor.table.sum(axis=1)[:, None] > 0,
                    factor.table.sum(axis=1)[:, None],
                    1.0,
                )
            cdf_rows = np.cumsum(cond, axis=1)[parent_col]
            columns[v] = _draw_categorical(rng, cdf_rows, count)
        elif isinstance(factor, GaussianEdgeFactor):
            if v == factor.i:
                mean_c, var_c = factor.mean_i, factor.var_i
                mean_p, var_p = factor.mean_j, factor.var_j
            else:
                mean_c, var_c = factor.mean_j, factor.var_j
                mean_p, var_p = factor.mean_i, factor.var_i
            rho = factor.rho
            cond_mean = mean_c + rho * math.sqrt(var_c / var_p) * (parent_col - mean_p)
            cond_sd = math.sqrt(var_c * (1.0 - rho * rho))
            columns[v] = cond_mean + cond_sd * rng.standard_normal(count)
        elif v == factor.gauss:  # Gaussian child of a discrete parent
            columns[v] = factor.class_means[parent_col] + math.sqrt(
                factor.resid_var
            ) * rng.standard_normal(count)
        else:  # discrete child of a Gaussian parent: Bayes inversion
            with np.errstate(divide="ignore"):
                logits = np.log(factor.class_probs)[None, :] - (
                    parent_col[:, None] - factor.class_means[None, :]
                ) ** 2 / (2.0 * factor.resid_var)
            logits -= logits.max(axis=1, keepdims=True)
            weights = np.exp(logits)
            weights /= weights.sum(axis=1, keepdims=True)
            cdf_rows = np.cumsum(weights, axis=1)
            columns[v] = _draw_categorical(rng, cdf_rows, count)

    return Dataset(schema=model.schema, columns=tuple(columns))
