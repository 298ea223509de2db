"""Sufficient statistics and sample-scaled mutual information estimators
for the three pair kinds: discrete x discrete, Gaussian x Gaussian, and
Gaussian x discrete.

All estimators return I_n(i, j) = n * (plug-in mutual information) in
nats, the log-likelihood gain from joining the pair by an edge. Plug-in
parameters are maximum-likelihood throughout: relative frequencies,
divide-by-n moments, per-class means with a pooled residual variance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Union

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


def collect_pair_stats(dataset: Dataset, i: int, j: int) -> PairStats:
    """Gather the sufficient statistics for vertex pair (i, j).

    The returned variant matches the (kind_i, kind_j) combination; for a
    mixed pair the Gaussian member is recorded first regardless of
    argument order.

    Raises
    ------
    SameVertex
        if i == j.
    DegenerateGaussian
        if a Gaussian column involved has zero sample variance.
    """
    if i == j:
        raise SameVertex(f"pair statistics need two distinct vertices, got {i}")
    schema = dataset.schema
    n = dataset.n

    def check_variance(v: int, var: float) -> None:
        if var <= 0.0:
            raise DegenerateGaussian(
                f"column {schema.name(v)!r} has zero sample variance"
            )

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
        mean_a, mean_b, var_a, var_b, cov = kernels.gaussian_moments(
            dataset.column(a), dataset.column(b)
        )
        check_variance(a, var_a)
        check_variance(b, var_b)
        return GaussianPair(
            i=a, j=b, n=n, mean_i=mean_a, mean_j=mean_b, var_i=var_a, var_j=var_b, cov=cov
        )
    gauss, disc = (i, j) if disc_j else (j, i)
    x = dataset.column(gauss)
    var_x = float(np.var(x))
    check_variance(gauss, var_x)
    counts, means, resid_var = kernels.class_stats(
        x, dataset.column(disc), schema.cardinality(disc)
    )
    return MixedPair(
        gauss=gauss,
        disc=disc,
        n=float(n),
        class_counts=counts,
        class_means=means,
        resid_var=resid_var,
    )


def mi_discrete(stats: DiscretePair) -> float:
    """I_n of a discrete pair: sum over occupied cells of
    c(x, y) * ln(n c(x, y) / (c(x) c(y))), clamped at 0."""
    counts = stats.counts.astype(np.float64)
    ci = counts.sum(axis=1)
    cj = counts.sum(axis=0)
    mask = counts > 0
    prod = np.outer(ci, cj)
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = counts * np.log(stats.n * counts / prod)
    return max(float(terms[mask].sum()), 0.0)


def mi_gaussian(stats: GaussianPair) -> float:
    """I_n of a Gaussian pair: -(n/2) ln(1 - rho^2); +inf when |rho| = 1."""
    if stats.var_i <= 0.0 or stats.var_j <= 0.0:
        raise DegenerateGaussian("a member of the pair has zero variance")
    rho = stats.rho
    if abs(rho) >= 1.0:
        return math.inf
    return -0.5 * stats.n * math.log1p(-rho * rho)


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

    def evaluate(order: int) -> float:
        nodes, weights = _hermite_rule(order)
        return float(
            kernels.mixture_mi(probs, means, float(stats.resid_var), nodes, weights)
        )

    order = quad.order
    value = evaluate(order)
    confirmed = None
    while order < _MAX_QUAD_ORDER:
        order *= 2
        refined = evaluate(order)
        if abs(refined - value) <= quad.tolerance * max(abs(refined), abs(value)) + _QUAD_ATOL:
            confirmed = refined
            break
        value = refined
    if confirmed is None:
        raise QuadratureFailure(
            f"doubling up to order {_MAX_QUAD_ORDER} never confirmed the integral "
            f"(last values {value!r} at order {order})"
        )
    entropy = float(-(probs * np.log(probs)).sum())
    if confirmed > entropy + 1e-9 * max(entropy, 1.0):
        raise QuadratureFailure(
            f"integral {confirmed!r} exceeds the class entropy bound {entropy!r}"
        )
    return stats.n * min(max(confirmed, 0.0), entropy)
