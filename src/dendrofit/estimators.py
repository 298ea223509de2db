"""Sufficient statistics and sample-scaled mutual information estimators
for the three pair kinds: discrete x discrete, Gaussian x Gaussian, and
Gaussian x discrete.

All estimators return I_n(i, j) = n * (plug-in mutual information) in
nats, the log-likelihood gain from joining the pair by an edge. Plug-in
parameters are maximum-likelihood throughout: relative frequencies,
divide-by-n moments, per-class means with a pooled residual variance.
``pair_mi_table`` computes I_n for every pair of a dataset in one batched
pass, with the same formulas as the per-pair estimators.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Optional, Union

import numpy as np

from . import kernels
from .core import Dataset
from .errors import DegenerateGaussian, QuadratureFailure, SameVertex

# absolute floor used alongside the relative tolerance when comparing the
# quadrature value against its order-doubled refinement
_QUAD_ATOL = 1e-12
# hard ceiling for the order-escalation ladder
_MAX_QUAD_ORDER = 1024


@dataclass(frozen=True)
class QuadratureSpec:
    """Gauss-Hermite settings for the mixed-pair integral.

    ``order`` is the starting node count of the self-consistency ladder;
    ``tolerance`` is the relative change under order-doubling below which
    a value counts as confirmed. The ladder must be able to double the
    order at least once, so ``order`` is at most half the order ceiling.
    """

    order: int = 64
    tolerance: float = 1e-8

    def __post_init__(self) -> None:
        if self.order < 8 or self.order % 2 != 0:
            raise ValueError(f"quadrature order must be even and >= 8, got {self.order}")
        if self.order > _MAX_QUAD_ORDER // 2:
            raise ValueError(
                f"quadrature order must be at most {_MAX_QUAD_ORDER // 2}, so that one "
                f"doubling stays within the ceiling {_MAX_QUAD_ORDER}; got {self.order}"
            )
        if not self.tolerance > 0:
            raise ValueError(f"tolerance must be positive, got {self.tolerance}")


@lru_cache(maxsize=32)
def _hermite_rule(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Hermite nodes/weights for weight e^{-t^2} by Golub-Welsch.

    numpy's hermgauss overflows past order ~256; the symmetric
    tridiagonal Jacobi eigenproblem stays stable at the orders the
    escalation ladder can reach.
    """
    off = np.sqrt(np.arange(1, order) / 2.0)
    nodes, vectors = np.linalg.eigh(np.diag(off, 1) + np.diag(off, -1))
    weights = math.sqrt(math.pi) * vectors[0, :] ** 2
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


@dataclass(frozen=True, eq=False)
class DiscretePair:
    """Joint counts of a discrete pair; marginal counts are the table sums."""

    i: int
    j: int
    counts: np.ndarray  # (card_i, card_j) int64
    n: int

    @property
    def row_counts(self) -> np.ndarray:
        return self.counts.sum(axis=1)

    @property
    def col_counts(self) -> np.ndarray:
        return self.counts.sum(axis=0)


@dataclass(frozen=True)
class GaussianPair:
    """Biased-MLE moments of a Gaussian pair."""

    i: int
    j: int
    n: int
    mean_i: float
    mean_j: float
    var_i: float
    var_j: float
    cov: float

    @property
    def rho(self) -> float:
        r = self.cov / math.sqrt(self.var_i * self.var_j)
        return max(-1.0, min(1.0, r))


@dataclass(frozen=True, eq=False)
class MixedPair:
    """Class-conditional statistics of a Gaussian member against a
    discrete member.

    ``gauss`` and ``disc`` record which original vertex is which (the
    collector swaps so the Gaussian member always comes first).
    ``class_means`` is NaN for classes that never occur. Counts are kept
    as floats so idealized class weights can be injected in tests.
    """

    gauss: int
    disc: int
    n: float
    class_counts: np.ndarray  # (card,) float64, sums to n
    class_means: np.ndarray  # (card,) float64
    resid_var: float


PairStats = Union[DiscretePair, GaussianPair, MixedPair]


def check_gaussian_column(dataset: Dataset, v: int) -> None:
    """Raise DegenerateGaussian when Gaussian column v has zero variance,
    that is when all its cells are equal."""
    if kernels.all_equal(dataset.column(v)):
        raise DegenerateGaussian(
            f"column {dataset.schema.name(v)!r} has zero sample variance"
        )


def collect_pair_stats(dataset: Dataset, i: int, j: int) -> PairStats:
    """Gather the sufficient statistics for vertex pair (i, j).

    The returned variant matches the (kind_i, kind_j) combination; for a
    mixed pair the Gaussian member is recorded first regardless of
    argument order. A mixed pair's residual variance is exactly 0 when
    every class holds one repeated value.

    Raises
    ------
    SameVertex
        if i == j.
    DegenerateGaussian
        if a Gaussian column involved has all its cells equal.
    """
    if i == j:
        raise SameVertex(f"pair statistics need two distinct vertices, got {i}")
    schema = dataset.schema
    n = dataset.n

    disc_i = schema.is_discrete(i)
    disc_j = schema.is_discrete(j)
    if disc_i and disc_j:
        a, b = (i, j) if i < j else (j, i)
        counts = kernels.joint_counts(
            dataset.column(a),
            dataset.column(b),
            schema.cardinality(a),
            schema.cardinality(b),
        )
        return DiscretePair(i=a, j=b, counts=counts, n=n)
    if not disc_i and not disc_j:
        a, b = (i, j) if i < j else (j, i)
        check_gaussian_column(dataset, a)
        check_gaussian_column(dataset, b)
        mean_a, mean_b, var_a, var_b, cov = kernels.gaussian_moments(
            dataset.column(a), dataset.column(b)
        )
        return GaussianPair(
            i=a, j=b, n=n, mean_i=mean_a, mean_j=mean_b, var_i=var_a, var_j=var_b, cov=cov
        )
    gauss, disc = (i, j) if disc_j else (j, i)
    check_gaussian_column(dataset, gauss)
    counts, means, resid_var = kernels.class_stats(
        dataset.column(gauss), dataset.column(disc), schema.cardinality(disc)
    )
    return MixedPair(
        gauss=gauss,
        disc=disc,
        n=float(n),
        class_counts=counts,
        class_means=means,
        resid_var=resid_var,
    )


def _discrete_mi(counts: np.ndarray, n: int) -> np.ndarray:
    """I_n of each contingency table on the last two axes of counts."""
    counts = counts.astype(np.float64)
    ci = counts.sum(axis=-1, keepdims=True)
    cj = counts.sum(axis=-2, keepdims=True)
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = counts * np.log(n * counts / (ci * cj))
    return np.maximum(np.where(counts > 0, terms, 0.0).sum(axis=(-2, -1)), 0.0)


def _gaussian_mi(rho, n: int):
    """I_n of Gaussian pairs with correlations rho: -(n/2) ln(1 - rho^2),
    +inf where |rho| = 1."""
    with np.errstate(divide="ignore"):
        return -0.5 * n * np.log1p(-rho * rho)


def _confirm(
    evaluate: Callable[[int, np.ndarray], np.ndarray], count: int, quad: QuadratureSpec
) -> tuple[np.ndarray, np.ndarray, int]:
    """The order-doubling ladder for ``count`` integrals in lockstep.

    ``evaluate(order, idx)`` returns the integrals ``idx`` at that order.
    Every integral starts at ``quad.order``; one doubling confirms it when
    it changes the value by at most ``quad.tolerance`` relative plus
    ``_QUAD_ATOL``, and only the integrals not yet confirmed go on to the
    next rung. Returns the confirmed (refined) values, NaN where doubling
    up to the order ceiling confirmed nothing, and the last values and
    order of those.
    """
    order = quad.order
    active = np.arange(count)
    value = evaluate(order, active)
    confirmed = np.full(count, np.nan)
    while active.size and order < _MAX_QUAD_ORDER:
        order *= 2
        refined = evaluate(order, active)
        done = np.abs(refined - value) <= quad.tolerance * np.maximum(
            np.abs(refined), np.abs(value)
        ) + _QUAD_ATOL
        confirmed[active[done]] = refined[done]
        active, value = active[~done], refined[~done]
    return confirmed, value, order


def _entropy_bound(confirmed: np.ndarray, probs: np.ndarray):
    """Clamp per-sample integrals to [0, H], H the class entropy of each
    row of probs. Returns the clamped values, H, and whether each value
    was within H up to rounding."""
    entropy = -(probs * np.log(probs)).sum(axis=-1)
    within = confirmed <= entropy + 1e-9 * np.maximum(entropy, 1.0)
    return np.minimum(np.maximum(confirmed, 0.0), entropy), entropy, within


def mi_discrete(stats: DiscretePair) -> float:
    """I_n of a discrete pair: sum over occupied cells of
    c(x, y) * ln(n c(x, y) / (c(x) c(y))), clamped at 0."""
    return float(_discrete_mi(stats.counts, stats.n))


def mi_gaussian(stats: GaussianPair) -> float:
    """I_n of a Gaussian pair: -(n/2) ln(1 - rho^2); +inf when |rho| = 1."""
    if stats.var_i <= 0.0 or stats.var_j <= 0.0:
        raise DegenerateGaussian("a member of the pair has zero variance")
    return float(_gaussian_mi(stats.rho, stats.n))


def mi_mixed(stats: MixedPair, quad: QuadratureSpec = QuadratureSpec()) -> float:
    """I_n of a Gaussian/discrete pair via Gauss-Hermite quadrature.

    Starting at ``quad.order`` the class-mixture integral is re-evaluated
    at doubled orders until one doubling changes the value by less than
    ``quad.tolerance`` relative; the refined value is then returned,
    scaled by n. Mixtures whose components sit 4-8 standard deviations
    apart converge slowly under a fixed-order rule, which is what the
    escalation absorbs. Empty classes are dropped from the mixture. The
    per-sample value is clamped to [0, H] where H is the class entropy.

    Raises
    ------
    DegenerateGaussian
        if the pooled residual variance is zero.
    QuadratureFailure
        if no doubling up to the order ceiling confirms the value, or
        the entropy bound is violated beyond rounding.
    """
    if stats.resid_var <= 0.0:
        raise DegenerateGaussian("pooled residual variance is zero")
    occupied = stats.class_counts > 0
    probs = stats.class_counts[occupied] / stats.n
    means = stats.class_means[occupied]
    if probs.size == 0:
        raise ValueError("mixed pair has no occupied classes")
    if probs.size == 1:
        return 0.0
    var = float(stats.resid_var)

    def evaluate(order: int, _) -> np.ndarray:
        nodes, weights = _hermite_rule(order)
        return np.array([kernels.mixture_mi(probs, means, var, nodes, weights)])

    confirmed, last, order = _confirm(evaluate, 1, quad)
    if np.isnan(confirmed[0]):
        raise QuadratureFailure(
            f"doubling up to order {_MAX_QUAD_ORDER} never confirmed the integral "
            f"(last values {float(last[0])!r} at order {order})"
        )
    value, entropy, within = _entropy_bound(confirmed, probs[None])
    if not within[0]:
        raise QuadratureFailure(
            f"integral {float(confirmed[0])!r} exceeds the class entropy bound "
            f"{float(entropy[0])!r}"
        )
    return stats.n * float(value[0])


# -- all pairs at once -----------------------------------------------------------


def pair_mi_table(
    dataset: Dataset, quad: QuadratureSpec = QuadratureSpec()
) -> Optional[np.ndarray]:
    """I_n of every pair in one batched pass: an (N, N) array holding
    I_n(i, j) at [i, j] for i < j, zero elsewhere.

    The values are those of collect_pair_stats and the mi_* estimators
    up to rounding: discrete pairs from per-pair joint tables, Gaussian
    pairs from the centred Gram matrix, and mixed pairs from class sums
    against all Gaussian columns at once, with the quadrature ladder run
    in lockstep over the pairs with the same number of occupied classes.
    Returns None when any pair would raise in the per-pair estimators
    (a degenerate column or residual, or a ladder or entropy failure);
    the per-pair path then names it.
    """
    schema = dataset.schema
    table = np.zeros((schema.n_vars, schema.n_vars))
    disc = [v for v in range(schema.n_vars) if schema.is_discrete(v)]
    gauss = np.array([v for v in range(schema.n_vars) if not schema.is_discrete(v)], dtype=int)
    _discrete_into(table, dataset, disc)
    if not gauss.size:
        return table
    xt = np.stack([dataset.column(g) for g in gauss])
    if kernels.all_equal(xt).any():
        return None
    if _gaussian_into(table, xt, gauss) and _mixed_into(table, dataset, disc, gauss, xt, quad):
        return table
    return None


def _discrete_into(table: np.ndarray, dataset: Dataset, disc: list[int]) -> None:
    """Fill in I_n of every discrete pair, one stack of joint tables per
    pair of cardinalities."""
    schema = dataset.schema
    by_shape = defaultdict(list)
    for k, a in enumerate(disc):
        for b in disc[k + 1 :]:
            by_shape[schema.cardinality(a), schema.cardinality(b)].append((a, b))
    for (card_a, card_b), pairs in by_shape.items():
        counts = [
            kernels.joint_counts(dataset.column(a), dataset.column(b), card_a, card_b)
            for a, b in pairs
        ]
        a, b = np.array(pairs).T
        table[a, b] = _discrete_mi(np.stack(counts), dataset.n)


def _gaussian_into(table: np.ndarray, xt: np.ndarray, gauss: np.ndarray) -> bool:
    """Fill in I_n of every Gaussian pair (columns gauss, values xt) from
    the centred Gram matrix; False when one would fail."""
    n = xt.shape[1]
    centred = xt - (xt.sum(axis=1) / n)[:, None]
    gram = centred @ centred.T / n
    var = np.diag(gram)
    a, b = np.triu_indices(gauss.size, 1)
    scale = np.sqrt(var[a] * var[b])
    if (scale <= 0.0).any():  # a zero variance, or a product that underflows
        return False
    rho = np.clip(gram[a, b] / scale, -1.0, 1.0)
    table[gauss[a], gauss[b]] = _gaussian_mi(rho, n)
    return True


def _mixed_into(
    table: np.ndarray,
    dataset: Dataset,
    disc: list[int],
    gauss: np.ndarray,
    xt: np.ndarray,
    quad: QuadratureSpec,
) -> bool:
    """Fill in I_n of every mixed pair, with the ladder in lockstep over
    the pairs whose discrete member has the same number of occupied
    classes; False when one would fail."""
    n = dataset.n
    groups = defaultdict(list)  # occupied classes -> [(disc, probs, means, var)]
    for d in disc:
        counts, means, var = kernels.class_stats_rows(
            xt, dataset.column(d), dataset.schema.cardinality(d)
        )
        if (var <= 0.0).any():
            return False
        occupied = counts > 0
        if occupied.sum() > 1:  # one class leaves I_n = 0
            groups[occupied.sum()].append((d, counts[occupied] / n, means[:, occupied], var))
    for members in groups.values():
        values = _mixture_mi_lockstep(
            np.concatenate([np.broadcast_to(p, m.shape) for _, p, m, _ in members]),
            np.concatenate([m for _, _, m, _ in members]),
            np.concatenate([v for _, _, _, v in members]),
            quad,
        )
        if values is None:
            return False
        pair_disc = np.repeat([d for d, _, _, _ in members], gauss.size)
        pair_gauss = np.tile(gauss, len(members))
        table[np.minimum(pair_disc, pair_gauss), np.maximum(pair_disc, pair_gauss)] = n * values
    return True


def _mixture_mi_lockstep(
    probs: np.ndarray, means: np.ndarray, var: np.ndarray, quad: QuadratureSpec
) -> Optional[np.ndarray]:
    """Per-sample mutual information of each mixture (a row of probs and
    means, with variance var), as mi_mixed computes it for one, with the
    ladder run in lockstep; None when any mixture fails the ladder or the
    entropy check."""

    def evaluate(order: int, idx: np.ndarray) -> np.ndarray:
        nodes, weights = _hermite_rule(order)
        return kernels.mixture_mi_batch(probs[idx], means[idx], var[idx], nodes, weights)

    confirmed, _, _ = _confirm(evaluate, len(var), quad)
    value, _, within = _entropy_bound(confirmed, probs)
    if np.isnan(confirmed).any() or not within.all():
        return None
    return value
