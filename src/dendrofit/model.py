"""Fitted forest-structured models over mixed variables: node marginals
plus one pairwise factor per edge, enough to evaluate likelihood and
description length and to draw synthetic data.

The model is one directed factorisation: ``orient_forest`` roots each
component, and

    q(x) = prod_v q_v(x_v | x_parent(v))

where a root takes its marginal and a child the conditional of the edge
factor it shares with its parent; a discrete child of a Gaussian parent
inverts the mixed factor by Bayes' rule. Each conditional is built once
(``_conditional``) for both ``sample``'s draw and ``log_likelihood``'s
log-density, so the density scored is the one drawn from, and it is
normalised for every forest. The Bayes class terms of both come from
``_class_terms``; where a parent is so far from every class mean that
each term overflows, the nearest occupied classes take the mass in
proportion to their probabilities. A Gaussian child's slope on its
parent is scaled (``_slope``) so that it does not overflow where the
ratio of the variances would.

Sampling uses numpy's PCG64 generator (``numpy.random.default_rng``);
for a fixed seed the output is bit-identical across runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import cached_property
from typing import Callable, Iterable, Iterator, Optional, Sequence, Union

import numpy as np

from .core import (
    Dataset,
    Discrete,
    Forest,
    VariableSchema,
    code_dtype,
    orient_forest,
)
from .dataio import _part_from_json, _part_to_json, _read, block_rows, fill_columns
from .dataio import schema_from_jsonable, schema_to_jsonable
from .errors import DegenerateGaussian, InvalidCount, NonFiniteValue, SchemaMismatch
from .estimators import DiscretePair, GaussianPair, _by_four, collect_stats
from .scoring import effective_cardinality

MODEL_FORMAT = "dendrofit-model"
MODEL_VERSION = 1

_MARGINAL_TOL = 1e-12
# relative tolerance to which a Gaussian or mixed factor must reproduce
# its Gaussian endpoint's marginal (see _moments_agree). fit stores the
# marginal's own moments; model files of earlier versions are within
# 4.2e-16 (Gaussian factors) and 4e-15 (class mixtures) on the benchmark
_MOMENT_RTOL = 1e-9


def _probabilities(values, what: str) -> np.ndarray:
    """``values`` as float64, checked nonnegative and summing to 1 within _MARGINAL_TOL."""
    probs = np.asarray(values, dtype=np.float64)
    with np.errstate(over="ignore"):  # an infinite sum fails the check
        total = float(probs.sum())
    if (probs < 0).any() or abs(total - 1.0) > _MARGINAL_TOL:
        raise ValueError(f"{what} must be nonnegative and sum to 1")
    return probs


@dataclass(frozen=True, eq=False)
class DiscreteMarginal:
    probs: np.ndarray  # (cardinality,), sums to 1

    def __post_init__(self) -> None:
        object.__setattr__(self, "probs", _probabilities(self.probs, "marginal probabilities"))


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
        object.__setattr__(self, "table", _probabilities(self.table, "joint table"))


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
        # each end's variance given the other, as _conditional computes it
        if not min(self.var_i, self.var_j) * (1.0 - self.rho * self.rho) > 0.0:
            raise DegenerateGaussian(
                f"edge ({self.i}, {self.j}): conditional variance var (1 - rho^2) underflows to 0"
            )


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
        object.__setattr__(self, "class_means", means)
        if probs.shape != means.shape:
            raise ValueError("class_probs and class_means must align")
        object.__setattr__(self, "class_probs", _probabilities(probs, "class probabilities"))
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
            mean = float((p * m).sum())
            var = factor.resid_var + float((p * (m - mean) ** 2).sum())
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
        if n < 1:
            raise ValueError(f"n must be a positive sample count, got {n}")
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
            "marginals": [_part_to_json(MARGINAL_KINDS, marg) for marg in self.marginals],
            "edge_factors": [_part_to_json(FACTOR_KINDS, factor) for factor in self.factors],
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
            marginals=_parts_from_json(MARGINAL_KINDS, doc["marginals"], "marginal"),
            factors=_parts_from_json(FACTOR_KINDS, doc["edge_factors"], "edge factor"),
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
_KIND_OF = {cls: kind for kind, cls in FACTOR_KINDS.items()}


def _parts_from_json(kinds: dict, objs, what: str) -> tuple:
    """``_part_from_json`` of each object in objs; a fault in one, which
    its reader or its dataclass rejects, is named ``what k: ``, as a
    schema fault is named ``schema entry k: ``."""
    parts = []
    for k, obj in enumerate(objs):
        try:
            parts.append(_part_from_json(kinds, obj))
        except (ValueError, DegenerateGaussian) as err:
            raise type(err)(f"{what} {k}: {err}") from err
    return tuple(parts)


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


def _gaussian_logpdf(x: np.ndarray, mean: Union[float, np.ndarray], var: float) -> np.ndarray:
    """-inf where x is so far from the mean that the square overflows."""
    with np.errstate(over="ignore"):
        return -0.5 * math.log(2.0 * math.pi * var) - (x - mean) ** 2 / (2.0 * var)


def _log(probs: np.ndarray) -> np.ndarray:
    """Elementwise log, -inf where a probability is zero."""
    with np.errstate(divide="ignore"):
        return np.log(probs)


def log_likelihood(model: DendroidModel, dataset: Dataset) -> float:
    """Total log probability (masses and densities mixed) of the rows
    under the model: the sum over vertices of each conditional's
    log-density given its parent in ``orient_forest``'s orientation.
    Rows hitting a zero-probability discrete value contribute -inf.

    The per-row totals (``row_log_likelihoods``) are made one block of
    DRAW_BLOCKS * dataio.block_rows(n_vars) rows at a time and joined as
    they come, so no vertex holds more than a block's terms; each row's
    total depends on that row alone, and the one sum runs over all n of
    them, so the bits do not depend on the block size."""
    if dataset.schema != model.schema:
        raise SchemaMismatch("dataset schema differs from the model's schema")
    rows = DRAW_BLOCKS * block_rows(model.schema.n_vars)
    blocks = (
        [column[start : start + rows] for column in dataset.columns]
        for start in range(0, dataset.n, rows)
    )
    return float(row_log_likelihoods(model, blocks).sum())


def row_log_likelihoods(model: DendroidModel, blocks: Iterable[Sequence[np.ndarray]]) -> np.ndarray:
    """Each row's log probability under the model, for the rows of blocks
    (one array per column of model.schema each, as
    dataio.read_csv_blocks gives them): per block, every vertex's
    log-density is added into the block's totals in vertex order, and the
    totals are joined into one n-array that doubles as it fills
    (dataio.fill_columns). So only one block of rows is held besides 8
    bytes a row (16 while the array doubles), and ``log_likelihood``'s
    sum of the array has the same bits for any blocks."""
    parents = orient_forest(model.forest, model.schema).parents
    densities = [(v, parent, _conditional(model, v, parent)[1]) for v, parent in enumerate(parents)]

    def totals() -> Iterator[tuple[np.ndarray]]:
        for block in blocks:
            total = np.zeros(len(block[0]), dtype=np.float64)
            for v, parent, log_density in densities:
                total += log_density(block[v], None if parent is None else block[parent])
            yield (total,)

    return fill_columns(totals())[0]


def description_length(model: DendroidModel, dataset: Dataset, criterion) -> float:
    """Two-part code length: -log-likelihood + (k/2) d_n, the
    structure-independent constant omitted."""
    return code_length(log_likelihood(model, dataset), model.param_count, criterion.dn(dataset.n))


def code_length(log_lik: float, param_count: int, dn: float) -> float:
    """``description_length`` from a log-likelihood already computed."""
    return -log_lik + 0.5 * param_count * dn


def _draw_categorical(
    rng: np.random.Generator, cdf_rows: np.ndarray, count: int, last: Union[int, np.ndarray]
) -> np.ndarray:
    """One uniform per row, inverted through each row's cdf, as codes of
    core.code_dtype(K) for K categories. A cdf can end below the largest
    uniform, 1 - 2**-53: such a uniform takes the row's last category of
    positive mass, last (_last_positive)."""
    u = rng.random(count)
    idx = (cdf_rows <= u[:, None]).sum(axis=1)
    return np.minimum(idx, last).astype(code_dtype(cdf_rows.shape[1]))


def _last_positive(probs: np.ndarray) -> Union[int, np.ndarray]:
    """The index of the last positive entry along the last axis (the
    last index where all are 0)."""
    return probs.shape[-1] - 1 - np.argmax(probs[..., ::-1] > 0, axis=-1)


# render blocks (dataio.block_rows) per block that sample_blocks draws: the
# fewest whose per-block numpy calls, a few per vertex, do not slow the
# draw of a wide model (163 rows per render block at 100 columns); more
# would raise the peak, since a block holds its columns and cdf temporaries
DRAW_BLOCKS = 8


def _conditional(model: DendroidModel, v: int, parent: Optional[int]) -> tuple[Callable, Callable]:
    """Vertex v's conditional given its parent, with every table and
    constant built once: its draw and its log-density. A Gaussian vertex
    draws normals, a discrete one uniforms.

    The draw maps (v's generator, the parent's block column or None, the
    block's rows) to v's block column, computed row by row as a
    whole-column draw computes it, so blocks give the same bits. The
    log-density maps (v's column, the parent's column or None) to each
    row's log probability or log density, -inf where a discrete value
    has probability zero."""
    marg = model.marginals[v]
    factor = None if parent is None else model.factor_for(v, parent)
    if isinstance(marg, GaussianMarginal):  # a normal around a mean the parent sets
        if factor is None:
            mean, var = (lambda _: marg.mean), marg.var
        elif isinstance(factor, GaussianEdgeFactor):
            if v == factor.i:
                mean_c, var_c = factor.mean_i, factor.var_i
                mean_p, var_p = factor.mean_j, factor.var_j
            else:
                mean_c, var_c = factor.mean_j, factor.var_j
                mean_p, var_p = factor.mean_i, factor.var_i
            rho, slope = factor.rho, _slope(factor.rho, var_c, var_p)
            mean, var = (lambda par: mean_c + slope * (par - mean_p)), var_c * (1.0 - rho * rho)
        else:  # a discrete parent
            means = factor.class_means
            mean, var = (lambda par: means[par]), factor.resid_var
        sd = math.sqrt(var)
        return (
            (lambda rng, par, rows: mean(par) + sd * rng.standard_normal(rows)),
            (lambda col, par: _gaussian_logpdf(col, mean(par), var)),
        )

    if factor is None:
        cdf, log_probs = np.cumsum(marg.probs)[None, :], _log(marg.probs)
        last = _last_positive(marg.probs)
        return (
            (lambda rng, _, rows: _draw_categorical(rng, cdf, rows, last)),
            (lambda col, _: log_probs[col]),
        )
    if isinstance(factor, DiscreteEdgeFactor):
        joint = factor.table.T if v == factor.i else factor.table  # rows: parent
        rows_sum = joint.sum(axis=1, keepdims=True)
        cond = joint / np.where(rows_sum > 0, rows_sum, 1.0)
        table, log_cond, last = np.cumsum(cond, axis=1), _log(cond), _last_positive(cond)
        return (
            (lambda rng, par, rows: _draw_categorical(rng, table[par], rows, last[par])),
            (lambda col, par: log_cond[par, col]),
        )

    # a Gaussian parent: Bayes inversion of the mixed factor
    def invert(rng: np.random.Generator, par: np.ndarray, rows: int) -> np.ndarray:
        # normalised row by row, (rows, K), as the whole-column draw does
        weights = _class_terms(factor, par).T.copy()
        np.exp(weights, out=weights)
        weights /= weights.sum(axis=1, keepdims=True)
        return _draw_categorical(rng, np.cumsum(weights, axis=1), rows, _last_positive(weights))

    def log_posterior(col: np.ndarray, par: np.ndarray) -> np.ndarray:
        # class-major (K, rows), summed class by class: numpy would sum a
        # block of one row pairwise, so a row's bits would depend on the
        # number of rows beside it
        terms = _class_terms(factor, par)
        own = terms[col, np.arange(len(col))]
        np.exp(terms, out=terms)
        mass = terms[0].copy()
        for term in terms[1:]:
            mass += term
        return own - np.log(mass)

    return invert, log_posterior


def _slope(rho: float, var_c: float, var_p: float) -> float:
    """rho sqrt(var_c / var_p), the slope of a Gaussian child on its
    Gaussian parent, with each variance first brought into [1/2, 2) by
    ``_by_four`` (as ``estimators._rho`` does), so that the ratio cannot
    overflow or underflow. The bits are the plain formula's wherever it
    does neither; +-inf where the slope is beyond the float range."""
    (m_c, k_c), (m_p, k_p) = _by_four(var_c), _by_four(var_p)
    with np.errstate(over="ignore"):
        return float(np.ldexp(rho * np.sqrt(m_c / m_p), k_c - k_p))


def _class_terms(factor: MixedEdgeFactor, par: np.ndarray) -> np.ndarray:
    """The Bayes class terms log p_k - (x - m_k)^2 / (2 r) of the parent
    values x = par, without the log of the normal constant that the
    classes share, class-major (K, rows), less each row's largest term.
    Where every square overflows, the occupied classes whose means lie
    nearest x take the mass in proportion to p_k, which is the posterior
    to within rounding (README, Numerics)."""
    log_probs, means = _log(factor.class_probs)[:, None], factor.class_means[:, None]
    with np.errstate(over="ignore"):
        terms = log_probs - (par - means) ** 2 / (2.0 * factor.resid_var)
        shift = terms.max(axis=0)
        far = np.flatnonzero(np.isneginf(shift))
        if far.size:
            distance = np.abs(par[far] - means)
            nearest = np.where(np.isneginf(log_probs), np.inf, distance).min(axis=0)
            terms[:, far] = np.where(distance == nearest, log_probs, -np.inf)
            shift[far] = terms[:, far].max(axis=0)
    terms -= shift
    return terms


def sample_blocks(model: DendroidModel, count: int, seed: int) -> Iterator[tuple[np.ndarray, ...]]:
    """The rows of ``sample(model, count, seed)`` in blocks of
    DRAW_BLOCKS * dataio.block_rows(n_vars) rows, each one array per
    column, drawn one block at a time: the memory held does not grow with
    count. The count is checked here; the draw starts at the first block.

    PCG64 draws a whole column per vertex in topological order, so each
    vertex starts from the shared generator's state after its
    predecessors' count draws. A first pass copies that state for each
    vertex, then moves the shared generator past the vertex's draws by
    drawing and discarding them a block at a time (the ziggurat normal
    takes a variable number of raw outputs, so the state cannot be jumped
    ahead). Each block then draws every vertex from its own generator.
    """
    if not isinstance(count, int) or isinstance(count, bool) or count < 1:
        raise InvalidCount(f"sample count must be a positive integer, got {count!r}")
    return _draw_blocks(model, count, seed, DRAW_BLOCKS * block_rows(model.schema.n_vars))


def _draw_blocks(
    model: DendroidModel, count: int, seed: int, rows: int
) -> Iterator[tuple[np.ndarray, ...]]:
    shared = np.random.default_rng(seed)
    rooted = orient_forest(model.forest, model.schema)
    discard = np.empty(min(rows, count))
    draws = []
    for v in rooted.topological_order():
        parent = rooted.parents[v]
        draw, _ = _conditional(model, v, parent)
        normal = not model.schema.is_discrete(v)
        rng = np.random.Generator(np.random.PCG64(seed))
        rng.bit_generator.state = shared.bit_generator.state  # where v's draws start
        draws.append((v, parent, rng, draw, normal))
        fill = shared.standard_normal if normal else shared.random
        for start in range(0, count, rows):
            fill(out=discard[: min(rows, count - start)])
    del discard

    for start in range(0, count, rows):
        size = min(rows, count - start)
        # a new list, so that the last block is not held while this one is drawn
        columns: list[Optional[np.ndarray]] = [None] * model.schema.n_vars
        for v, parent, rng, draw, normal in draws:
            columns[v] = draw(rng, None if parent is None else columns[parent], size)
            # parameters at the edge of the float range can overflow
            if normal and not np.isfinite(columns[v]).all():
                raise NonFiniteValue(
                    f"column {model.schema.name(v)!r} contains non-finite values"
                )
        yield tuple(columns)


def sample(model: DendroidModel, count: int, seed: int) -> Dataset:
    """Ancestral sampling along the oriented forest.

    Roots are drawn from their marginals, children from the stored
    factors' conditionals; a discrete child of a Gaussian parent is drawn
    by Bayes inversion of the mixed factor. Deterministic for a fixed
    seed: PCG64 draws the vertices' columns one after another in
    topological order. The rows are the blocks of ``sample_blocks``,
    joined by ``dataio.fill_columns`` as they come.
    """
    columns = fill_columns(sample_blocks(model, count, seed))
    return Dataset(schema=model.schema, columns=tuple(columns))
