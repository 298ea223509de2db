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
import sys
from dataclasses import dataclass, fields
from functools import cached_property
from typing import Optional, Union

import numpy as np

from .core import (
    Dataset,
    Discrete,
    Forest,
    VariableSchema,
    orient_forest,
)
from .dataio import schema_from_jsonable, schema_to_jsonable
from .errors import DegenerateGaussian, InvalidCount, SchemaMismatch
from .estimators import DiscretePair, GaussianPair, collect_stats
from .scoring import effective_cardinality

MODEL_FORMAT = "dendrofit-model"
MODEL_VERSION = 1

_MARGINAL_TOL = 1e-12
# relative tolerance to which a Gaussian or mixed factor must reproduce
# its Gaussian endpoint's marginal (see _moments_agree). fit stores the
# marginal's own moments; model files of earlier versions are within
# 4.2e-16 (Gaussian factors) and 4e-15 (class mixtures) on the benchmark
_MOMENT_RTOL = 1e-9


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


EdgeFactor = Union[DiscreteEdgeFactor, GaussianEdgeFactor, MixedEdgeFactor]


def _factor_pair(factor: EdgeFactor) -> tuple[int, int]:
    if isinstance(factor, MixedEdgeFactor):
        return (min(factor.gauss, factor.disc), max(factor.gauss, factor.disc))
    return (factor.i, factor.j)


def _probs_agree(probs: np.ndarray, marg: DiscreteMarginal) -> bool:
    return bool((np.abs(probs - marg.probs) <= _MARGINAL_TOL).all())


def _moments_agree(mean: float, var: float, marg: GaussianMarginal) -> bool:
    """Whether mean and var reproduce marg within _MOMENT_RTOL relative to
    |mean| + sd and to sd (|mean| + sd): the scales at which rounding
    moves a mean and a variance of data at that offset and spread."""
    sd = math.sqrt(marg.var)
    scale = abs(marg.mean) + sd
    return (
        abs(mean - marg.mean) <= _MOMENT_RTOL * scale
        and abs(var - marg.var) <= _MOMENT_RTOL * sd * scale
    )


def _contradiction(factor: EdgeFactor, marginals: tuple[NodeMarginal, ...]) -> Optional[str]:
    """What in factor contradicts its endpoints' marginals, or None."""
    if isinstance(factor, DiscreteEdgeFactor):
        rows, cols = factor.table.sum(axis=1), factor.table.sum(axis=0)
        if not _probs_agree(rows, marginals[factor.i]) or not _probs_agree(
            cols, marginals[factor.j]
        ):
            return "table marginals do not reproduce the node marginals"
    elif isinstance(factor, GaussianEdgeFactor):
        for end, v, mean, var in (
            ("i", factor.i, factor.mean_i, factor.var_i),
            ("j", factor.j, factor.mean_j, factor.var_j),
        ):
            if not _moments_agree(mean, var, marginals[v]):
                return f"mean_{end} and var_{end} do not reproduce the marginal of vertex {v}"
    elif not _probs_agree(factor.class_probs, marginals[factor.disc]):
        return f"class_probs do not reproduce the marginal of vertex {factor.disc}"
    else:
        # the class mixture: mean sum_k p_k m_k, variance
        # resid_var + sum_k p_k (m_k - mean)^2, over the occupied classes
        occupied = factor.class_probs > 0
        p, m = factor.class_probs[occupied], factor.class_means[occupied]
        with np.errstate(over="ignore", invalid="ignore"):
            mean = float(p @ m)
            var = factor.resid_var + float(p @ (m - mean) ** 2)
        if not _moments_agree(mean, var, marginals[factor.gauss]):
            return f"the class mixture does not reproduce the marginal of vertex {factor.gauss}"
    return None


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
        for v, marg in enumerate(marginals):
            if schema.is_discrete(v) != isinstance(marg, DiscreteMarginal):
                raise ValueError(f"marginal kind mismatch at vertex {v}")
            if isinstance(marg, DiscreteMarginal) and marg.probs.shape != (schema.cardinality(v),):
                raise ValueError(f"vertex {v}: probs must have shape {(schema.cardinality(v),)}")
        for factor, edge in zip(factors, edges):
            # whether each endpoint is discrete, and the vertices whose
            # cardinalities give each array's shape
            if isinstance(factor, DiscreteEdgeFactor):
                ends, arrays = {factor.i: True, factor.j: True}, {"table": edge}
            elif isinstance(factor, GaussianEdgeFactor):
                ends, arrays = {factor.i: False, factor.j: False}, {}
            else:
                ends = {factor.gauss: False, factor.disc: True}
                arrays = {"class_probs": (factor.disc,), "class_means": (factor.disc,)}
            for v, discrete in ends.items():
                if schema.is_discrete(v) != discrete:
                    raise ValueError(
                        f"edge {edge}: a {_KIND_OF[type(factor)]} factor needs vertex "
                        f"{v} to be {'discrete' if discrete else 'Gaussian'}"
                    )
            for name, vertices in arrays.items():
                shape = tuple(schema.cardinality(v) for v in vertices)
                if getattr(factor, name).shape != shape:
                    raise ValueError(f"edge {edge}: {name} must have shape {shape}")
            contradiction = _contradiction(factor, marginals)
            if contradiction:
                raise ValueError(f"edge {edge}: {contradiction}")
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
        return {
            "format": MODEL_FORMAT,
            "version": MODEL_VERSION,
            "schema": schema_to_jsonable(self.schema),
            "edges": [list(edge) for edge in self.forest.sorted_edges],
            "marginals": [_part_to_json(marg) for marg in self.marginals],
            "edge_factors": [_part_to_json(factor) for factor in self.factors],
            "n": self.n,
            "param_count": self.param_count,
        }

    @classmethod
    def from_json_dict(cls, doc: dict) -> "DendroidModel":
        """The model of a to_json_dict document. Raises ValueError,
        KeyError, TypeError or a DendrofitError on a document that does
        not describe a valid model."""
        if not isinstance(doc, dict) or doc.get("format") != MODEL_FORMAT:
            raise ValueError(f"not a {MODEL_FORMAT} document")
        if doc.get("version") != MODEL_VERSION:
            raise ValueError(f"unsupported model version {doc.get('version')!r}")
        schema = schema_from_jsonable(doc["schema"])
        edges = [tuple(_read("int", "edges", v) for v in edge) for edge in doc["edges"]]
        model = cls.build(
            schema=schema,
            forest=Forest.from_edges(schema.n_vars, edges),
            marginals=tuple(_part_from_json(MARGINAL_KINDS, obj) for obj in doc["marginals"]),
            factors=tuple(_part_from_json(FACTOR_KINDS, obj) for obj in doc["edge_factors"]),
            n=_read("int", "n", doc["n"]),
        )
        if model.param_count != _read("int", "param_count", doc["param_count"]):
            raise ValueError(
                f"stored param_count {doc['param_count']} disagrees with "
                f"recomputed {model.param_count}"
            )
        return model


# the "kind" of each marginal and factor in a model document
MARGINAL_KINDS = {"discrete": DiscreteMarginal, "gaussian": GaussianMarginal}
FACTOR_KINDS = {
    "discrete": DiscreteEdgeFactor,
    "gaussian": GaussianEdgeFactor,
    "mixed": MixedEdgeFactor,
}
_KIND_OF = {cls: kind for kinds in (MARGINAL_KINDS, FACTOR_KINDS) for kind, cls in kinds.items()}


def _part_to_json(part: Union[NodeMarginal, EdgeFactor]) -> dict:
    """{"kind": k, then each dataclass field in declaration order}, arrays
    as nested lists."""
    doc = {"kind": _KIND_OF[type(part)]}
    for f in fields(part):
        value = getattr(part, f.name)
        doc[f.name] = value.tolist() if isinstance(value, np.ndarray) else value
    return doc


# what _read accepts for each annotation of a model document field
_EXPECTED = {"int": "an integer", "float": "a finite real", "np.ndarray": "a list of finite reals"}


def _read(annotation: str, name: str, value):
    """value as the field's annotation asks for it: an int, a finite real
    as float, or a (nested) list of finite reals as a float64 array. A
    bool is not a number here."""
    real = isinstance(value, (int, float)) and not isinstance(value, bool)
    if annotation == "int" and real and isinstance(value, int):
        return value
    # the comparison is exact, so a huge integer is refused, not overflowed
    if annotation == "float" and real and abs(value) <= sys.float_info.max:
        return float(value)
    if annotation == "np.ndarray" and isinstance(value, list):
        array = np.array(value)
        # np.array reads a bool among numbers as 0 or 1
        bools = any(isinstance(x, bool) for x in np.array(value, dtype=object).flat)
        if array.dtype.kind in "iuf" and np.isfinite(array).all() and not bools:
            return array.astype(np.float64)
    raise ValueError(f"{name!r} must be {_EXPECTED[annotation]}")


def _part_from_json(kinds: dict, obj) -> Union[NodeMarginal, EdgeFactor]:
    """The dataclass of obj's "kind", built from its fields in obj."""
    cls = kinds.get(obj["kind"])
    if cls is None:
        raise ValueError(f"unknown kind {obj['kind']!r}, expected one of {list(kinds)}")
    return cls(**{f.name: _read(f.type, f.name, obj[f.name]) for f in fields(cls)})


def fit(dataset: Dataset, forest: Forest) -> DendroidModel:
    """Maximum-likelihood fit of marginals and edge factors on a given
    structure, from one ``collect_stats`` pass: a Gaussian vertex's
    marginal and its factors hold the same mean and variance."""
    schema, n = dataset.schema, dataset.n
    if forest.n_vertices != schema.n_vars:
        raise ValueError("forest and dataset disagree on the number of vertices")
    moments, stats = collect_stats(dataset, range(schema.n_vars), forest.sorted_edges)
    marginals = tuple(
        GaussianMarginal(*moments[v])
        if v in moments
        else DiscreteMarginal(np.bincount(dataset.column(v), minlength=schema.cardinality(v)) / n)
        for v in range(schema.n_vars)
    )
    factors: list[EdgeFactor] = []
    for (i, j), pair in zip(forest.sorted_edges, stats):
        edge = f"edge ({schema.name(i)!r}, {schema.name(j)!r})"
        if isinstance(pair, DiscretePair):
            factors.append(DiscreteEdgeFactor(i=i, j=j, table=pair.counts / n))
        elif isinstance(pair, GaussianPair):
            if abs(pair.rho) >= 1.0:
                raise DegenerateGaussian(f"{edge}: perfectly correlated columns cannot be fitted")
            names = [f.name for f in fields(GaussianEdgeFactor)]
            factors.append(GaussianEdgeFactor(**{k: getattr(pair, k) for k in names}))
        elif pair.resid_var <= 0.0:
            raise DegenerateGaussian(f"{edge}: zero pooled residual variance")
        else:
            factors.append(
                MixedEdgeFactor(
                    gauss=pair.gauss,
                    disc=pair.disc,
                    class_probs=pair.class_counts / pair.n,
                    class_means=np.where(pair.class_counts > 0, pair.class_means, 0.0),
                    resid_var=pair.resid_var,
                )
            )
    return DendroidModel.build(
        schema=schema,
        forest=forest,
        marginals=marginals,
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
