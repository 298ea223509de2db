"""Sufficient statistics and sample-scaled mutual information estimators
for the three pair kinds: discrete x discrete, Gaussian x Gaussian, and
Gaussian x discrete.

All estimators return I_n(i, j) = n * (plug-in mutual information) in
nats, the log-likelihood gain from joining the pair by an edge. Plug-in
parameters are maximum-likelihood throughout: relative frequencies,
divide-by-n moments, per-class means with a pooled residual variance.
``pair_mi_table`` computes I_n for every pair in one batched pass, and
``collect_stats`` the statistics of given vertices and pairs in another
(``fit`` calls it once; ``collect_pair_stats`` is its one-pair case).
Through them the ``mi_*`` estimators share the row-invariant kernels
and the quadrature ladder with the table, so a pair's I_n and its error
are the same bits and the same message on every path.
"""

from __future__ import annotations

import math
import numbers
from collections import defaultdict
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence, Union

import numpy as np

from . import kernels
from .core import Dataset
from .errors import DegenerateGaussian, QuadratureFailure, SameVertex

# absolute floor used alongside the relative tolerance when comparing the
# quadrature value against its order-doubled refinement
_QUAD_ATOL = 1e-12
# hard ceiling for the order-escalation ladder
_MAX_QUAD_ORDER = 1024
_ZERO_RESIDUAL = "pooled residual variance is zero"


@dataclass(frozen=True)
class QuadratureSpec:
    """Gauss-Hermite settings for the mixed-pair integral.

    ``order`` is the starting node count of the self-consistency ladder,
    an even integer; ``tolerance`` (finite and positive) is the relative
    change under order-doubling below which a value counts as confirmed.
    The ladder must be able to double the order at least once, so
    ``order`` is at most half the order ceiling.
    """

    order: int = 64
    tolerance: float = 1e-8

    def __post_init__(self) -> None:
        if not isinstance(self.order, numbers.Integral) or self.order < 8 or self.order % 2:
            raise ValueError(f"quadrature order must be an even integer >= 8, got {self.order}")
        if self.order > _MAX_QUAD_ORDER // 2:
            raise ValueError(
                f"quadrature order must be at most {_MAX_QUAD_ORDER // 2}, so that one "
                f"doubling stays within the ceiling {_MAX_QUAD_ORDER}; got {self.order}"
            )
        if not 0 < self.tolerance < math.inf:
            raise ValueError(f"tolerance must be finite and positive, got {self.tolerance}")


# steps between two renormalisations of the Hermite recurrence: near the
# nodes of an order n <= 1024, one step grows the larger of two consecutive
# values by at most |x| + n/2 + 1 < 2^10, so 64 steps stay below 2^640
_RENORM_STEPS = 64


@lru_cache(maxsize=32)
def _hermite_rule(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Hermite nodes/weights for weight e^{-t^2}, for an even order,
    ascending.

    Newton's method on the Hermite function psi_n(t) = h_n(t) e^{-t^2/2},
    h_n = H_n / 2^n the monic orthogonal polynomial for e^{-t^2}, from
    asymptotic initial guesses, as in Townsend, Trogdon & Olver 2016. A
    step is psi_n / psi_n' = h_n / (n h_{n-1} - t h_n), one pass of the
    three-term recurrence over the order/2 positive nodes; since
    psi_n'' = (t^2 - 2n - 1) psi_n vanishes at the nodes it converges
    cubically, and two steps reach rounding. The weights
    (n-1)! sqrt(pi) / (n 2^(n-1) h_{n-1}(t)^2) come from the same pass.
    The negative half mirrors the positive one, so nodes are exactly
    antisymmetric and weights exactly symmetric. No eigensolver is
    involved, and nothing overflows at any order the ladder reaches.
    """
    x = _hermite_guess(order)
    for _ in range(4):
        h_n, h_prev, exponent = _monic_hermite(x, order)
        step = h_n / (order * h_prev - x * h_n)
        x_eval, x = x, x - step
        if np.abs(step).max() <= 1e-10:
            break
    else:
        raise ArithmeticError(f"Newton's method found no order-{order} Gauss-Hermite nodes")
    # The weight as a function of the point evaluated, W(t), has
    # W'/W = -4t at a node, so W(x_eval) (1 + 4 x_eval step) is the weight
    # at x to first order in the step, which is at most 1e-10.
    factorial = math.factorial(order - 1)
    shift = max(factorial.bit_length() - 64, 0)
    norm = math.sqrt(math.pi) * float(factorial >> shift)  # (n-1)! sqrt(pi) / 2^shift
    weights = np.ldexp(
        norm * (1.0 + 4.0 * x_eval * step) / (order * h_prev * h_prev),
        shift - (order - 1) - 2 * exponent,
    )
    nodes = np.concatenate([-x[::-1], x])
    weights = np.concatenate([weights[::-1], weights])
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


def _hermite_guess(order: int) -> np.ndarray:
    """Initial guesses, ascending, for the order/2 positive Gauss-Hermite
    nodes, from the expansions Townsend, Trogdon & Olver 2016 patch
    together: Tricomi's for every node but the outermost, and Gatteschi's
    in the first zero of the Airy function Ai for the outermost, where
    Tricomi's is least accurate. Each is within 1e-4 of its node."""
    m = order // 2
    nu = 2.0 * order + 1.0
    # t = cos^2(theta/2), with theta - sin(theta) = (4m - 4k + 3) pi / nu for
    # node k = 1..m from the inside; theta^3/6 = r starts Newton's method
    # below the root
    r = np.arange(4 * m - 1, 0, -4) * (math.pi / nu)
    theta = np.cbrt(6.0 * r)
    for _ in range(3):
        theta -= (theta - np.sin(theta) - r) / (1.0 - np.cos(theta))
    t = np.cos(theta / 2) ** 2
    x = np.sqrt(nu * t - (5.0 / (4.0 * (1.0 - t) ** 2) - 1.0 / (1.0 - t) - 0.25) / (3.0 * nu))
    a, c = -2.338107410459767, 2.0 ** (1 / 3)  # the first zero of Ai, and 2^(1/3)
    x[-1] = math.sqrt(
        nu
        + c * c * a * nu ** (1 / 3)
        + 0.4 * c * a**2 * nu ** (-1 / 3)
        + (9 / 140 - 12 / 175 * a**3) / nu
        + c * c * (16 / 1575 * a + 92 / 7875 * a**4) * nu ** (-5 / 3)
        - c * (15152 / 3031875 * a**5 + 1088 / 121275 * a**2) * nu ** (-7 / 3)
    )
    return x


def _monic_hermite(x: np.ndarray, order: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(u, v, e): h_n(x) = u 2^e and h_{n-1}(x) = v 2^e for n = order, with
    h_k = H_k / 2^k the monic Hermite polynomials, by
    h_{k+1} = x h_k - (k/2) h_{k-1}, whose coefficients are exact.
    Every ``_RENORM_STEPS`` steps and at the end, both values are scaled
    by the exact power of two that brings the larger into [1/2, 1)."""
    prev, cur = np.ones_like(x), x.copy()
    exponent = np.zeros(x.shape, dtype=np.int64)
    for k in range(1, order):
        nxt = x * cur
        prev *= 0.5 * k
        nxt -= prev
        prev, cur = cur, nxt
        if k % _RENORM_STEPS == 0 or k == order - 1:
            shift = np.frexp(np.maximum(np.abs(cur), np.abs(prev)))[1]
            cur, prev = np.ldexp(cur, -shift), np.ldexp(prev, -shift)
            exponent += shift
    return cur, prev, exponent


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
        return float(_rho(self.cov, self.var_i, self.var_j))


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


def _zero_variance(name: str) -> DegenerateGaussian:
    return DegenerateGaussian(f"column {name!r} has zero sample variance")


def _beyond_range(name: str) -> DegenerateGaussian:
    return DegenerateGaussian(f"column {name!r} has a variance beyond the float range")


def collect_stats(
    dataset: Dataset, vertices: Sequence[int], pairs: Sequence[tuple[int, int]]
) -> tuple[dict[int, tuple[float, float]], list[PairStats]]:
    """(mean, variance) in original units of each Gaussian vertex in
    ``vertices``, by vertex, and ``collect_pair_stats`` of each pair, in
    one batched pass. The Gaussian columns are centred once, so a vertex
    and its Gaussian pairs hold the same moments, and each discrete
    member of a mixed pair makes one ``class_stats_rows`` call. No value
    depends on what else is asked for. Vertices are checked in order,
    then pairs in order, each as ``collect_pair_stats`` checks it.
    """
    schema, n = dataset.schema, dataset.n
    gauss = sorted(v for v in set(vertices).union(*pairs) if not schema.is_discrete(v))
    row = {g: r for r, g in enumerate(gauss)}
    xt = np.stack([dataset.column(g) for g in gauss]) if gauss else np.empty((0, n))
    degenerate = kernels.all_equal(xt)
    e, mean, centred = kernels.centred_rows(xt)
    with np.errstate(over="ignore"):
        mean, var = np.ldexp(mean, e), np.ldexp([c @ c / n for c in centred], 2 * e)
    partners = defaultdict(dict)  # discrete member -> {partner's stack row: its class_stats row}
    for pair in pairs:
        if schema.is_discrete(pair[0]) != schema.is_discrete(pair[1]):
            g, d = sorted(pair, key=schema.is_discrete)
            partners[d].setdefault(row[g], len(partners[d]))
    class_stats = {
        d: kernels.class_stats_rows(xt[list(rows)], dataset.column(d), schema.cardinality(d))
        for d, rows in partners.items()
    }

    def check(*columns: int) -> None:
        for g in columns:
            if degenerate[row[g]]:
                raise _zero_variance(schema.name(g))
        for g in columns:
            if not 0.0 < var[row[g]] < math.inf:
                raise _beyond_range(schema.name(g))

    moments = {}
    for v in vertices:
        if not schema.is_discrete(v):
            check(v)
            moments[v] = (float(mean[row[v]]), float(var[row[v]]))
    stats: list[PairStats] = []
    for i, j in pairs:
        a, b = min(i, j), max(i, j)
        if schema.is_discrete(i) and schema.is_discrete(j):
            cards = schema.cardinality(a), schema.cardinality(b)
            counts = kernels.joint_counts(dataset.column(a), dataset.column(b), *cards)
            stats.append(DiscretePair(a, b, counts, n))
        elif not (schema.is_discrete(i) or schema.is_discrete(j)):
            check(a, b)
            r, s = row[a], row[b]
            with np.errstate(over="ignore"):
                cov = np.ldexp(centred[r] @ centred[s] / n, e[r] + e[s])
            moments_ab = map(float, (mean[r], mean[s], var[r], var[s], cov))
            stats.append(GaussianPair(a, b, n, *moments_ab))
        else:
            g, d = sorted((i, j), key=schema.is_discrete)
            if degenerate[row[g]]:
                raise _zero_variance(schema.name(g))
            e_d, counts, means, resid = class_stats[d]
            k = partners[d][row[g]]
            with np.errstate(over="ignore"):
                resid_var = float(np.ldexp(resid[k], 2 * e_d[k]))
            # a zero residual is an exact degeneracy, which mi_mixed reports
            if resid[k] > 0.0 and not 0.0 < resid_var < math.inf:
                raise _beyond_range(schema.name(g))
            stats.append(MixedPair(g, d, float(n), counts, np.ldexp(means[k], e_d[k]), resid_var))
    return moments, stats


def collect_pair_stats(dataset: Dataset, i: int, j: int) -> PairStats:
    """Gather the sufficient statistics for vertex pair (i, j): the
    one-pair case of ``collect_stats``.

    The returned variant matches the (kind_i, kind_j) combination; for a
    mixed pair the Gaussian member is recorded first regardless of
    argument order. Moments come from the kernels ``pair_mi_table`` uses,
    in original units. A mixed pair's residual variance is exactly 0
    when every class holds one repeated value.

    Raises
    ------
    SameVertex
        if i == j.
    DegenerateGaussian
        if a Gaussian column involved has all its cells equal, or a
        nonzero variance that underflows or overflows in original units.
    """
    if i == j:
        raise SameVertex(f"pair statistics need two distinct vertices, got {i}")
    return collect_stats(dataset, (), ((i, j),))[1][0]


def _discrete_mi(counts: np.ndarray, n: int) -> np.ndarray:
    """I_n of each contingency table on the last two axes of counts."""
    counts = counts.astype(np.float64)
    ci = counts.sum(axis=-1, keepdims=True)
    cj = counts.sum(axis=-2, keepdims=True)
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = counts * np.log(n * counts / (ci * cj))
    return np.maximum(np.where(counts > 0, terms, 0.0).sum(axis=(-2, -1)), 0.0)


def _rho(cov, var_i, var_j):
    """Correlations cov / sqrt(var_i var_j), clipped to [-1, 1], with each
    variance first brought into [1/2, 2) by an exact power of four (and
    cov by the matching power of two) so that the product cannot
    underflow or overflow. The bits are the plain formula's wherever it
    does neither, for scaled moments and original units alike."""
    k_i = np.frexp(var_i)[1] // 2
    k_j = np.frexp(var_j)[1] // 2
    root = np.sqrt(np.ldexp(var_i, -2 * k_i) * np.ldexp(var_j, -2 * k_j))
    return np.clip(np.ldexp(cov, -(k_i + k_j)) / root, -1.0, 1.0)


def _gaussian_mi(rho, n: int):
    """I_n of Gaussian pairs with correlations rho: -(n/2) ln(1 - rho^2),
    +inf where |rho| = 1."""
    with np.errstate(divide="ignore"):
        return -0.5 * n * np.log1p(-rho * rho)


def _mixture_mi(
    probs: np.ndarray, means: np.ndarray, var: np.ndarray, quad: QuadratureSpec
) -> tuple[np.ndarray, list[tuple[int, str]]]:
    """Per-sample mutual information of each mixture (a row of probs and
    means, with variance var) against its class variable, with the
    order-doubling ladder in lockstep: one doubling confirms an integral
    when it changes it by at most ``quad.tolerance`` relative plus
    ``_QUAD_ATOL``, and only the rest go on to the next rung. Returns the
    refined values clamped to [0, H], H the class entropy, and
    (row, message) for each mixture that no doubling confirmed or whose
    value exceeds H beyond rounding. Orders double while they stay within
    ``_MAX_QUAD_ORDER``, so a start that is not a power of two times 8
    stops below it (start 96 at 768).
    """
    order, active = quad.order // 2, np.arange(len(var))
    last, confirmed = np.full(len(var), np.nan), np.full(len(var), np.nan)
    while active.size and order * 2 <= _MAX_QUAD_ORDER:
        order *= 2  # quad.order first, where no last value confirms anything
        nodes, weights = _hermite_rule(order)
        value = kernels.mixture_mi_batch(probs[active], means[active], var[active], nodes, weights)
        done = np.abs(value - last[active]) <= quad.tolerance * np.maximum(
            np.abs(value), np.abs(last[active])
        ) + _QUAD_ATOL
        confirmed[active[done]] = value[done]
        last[active] = value
        active = active[~done]
    entropy = -(probs * np.log(probs)).sum(axis=-1)
    beyond = confirmed > entropy + 1e-9 * np.maximum(entropy, 1.0)
    failures = [
        (k, f"doubling up to order {order} never confirmed the integral "
            f"(last value {float(last[k])!r})")
        for k in active
    ]
    failures += [
        (k, f"integral {float(confirmed[k])!r} exceeds the class entropy bound "
            f"{float(entropy[k])!r}")
        for k in np.flatnonzero(beyond)
    ]
    return np.minimum(np.maximum(confirmed, 0.0), entropy), failures


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
        raise DegenerateGaussian(_ZERO_RESIDUAL)
    occupied = stats.class_counts > 0
    probs = stats.class_counts[occupied] / stats.n
    means = stats.class_means[occupied]
    if probs.size == 0:
        raise ValueError("mixed pair has no occupied classes")
    if probs.size == 1:
        return 0.0
    value, failures = _mixture_mi(probs[None], means[None], np.array([stats.resid_var]), quad)
    if failures:
        raise QuadratureFailure(failures[0][1])
    return stats.n * float(value[0])


# -- all pairs at once -----------------------------------------------------------


def pair_mi_table(dataset: Dataset, quad: QuadratureSpec = QuadratureSpec()) -> np.ndarray:
    """I_n of every pair in one batched pass: an (N, N) array holding
    I_n(i, j) at [i, j] for i < j, zero elsewhere.

    Each value is that of collect_pair_stats and the mi_* estimators bit
    for bit: discrete pairs from stacked joint tables, Gaussian pairs from
    the moments of all Gaussian columns at once, and mixed pairs from the
    class statistics of all Gaussian columns against each discrete
    column, with the ladder in lockstep over the pairs with the same
    number of occupied classes. The first failing pair in canonical
    order raises the per-pair path's error, with the pair named.
    """
    schema = dataset.schema
    table = np.zeros((schema.n_vars, schema.n_vars))
    failures = []  # (i, j, error), in the order the per-pair path checks a pair
    disc = [v for v in range(schema.n_vars) if schema.is_discrete(v)]
    gauss = np.array([v for v in range(schema.n_vars) if not schema.is_discrete(v)], dtype=int)
    _discrete_into(table, dataset, disc)
    if gauss.size and schema.n_vars > 1:
        xt = np.stack([dataset.column(g) for g in gauss])
        degenerate = kernels.all_equal(xt)
        if degenerate.any():
            # every pair holding a degenerate column fails; the first of
            # them in canonical order holds the lowest one
            g = int(gauss[degenerate][0])
            failures.append((0, g or 1, _zero_variance(schema.name(g))))
            gauss, xt = gauss[~degenerate], xt[~degenerate]
        _, _, cov = kernels.gaussian_moments(xt)
        a, b = np.triu_indices(gauss.size, 1)
        var = np.diag(cov)
        table[gauss[a], gauss[b]] = _gaussian_mi(_rho(cov[a, b], var[a], var[b]), dataset.n)
        _mixed_into(table, failures, dataset, disc, gauss, xt, quad)
    if failures:
        i, j, err = min(failures, key=lambda failure: failure[:2])
        raise type(err)(f"pair ({schema.name(i)!r}, {schema.name(j)!r}): {err}")
    return table


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


def _mixed_into(
    table: np.ndarray,
    failures: list,
    dataset: Dataset,
    disc: list[int],
    gauss: np.ndarray,
    xt: np.ndarray,
    quad: QuadratureSpec,
) -> None:
    """Fill in I_n of every mixed pair, with the ladder in lockstep over
    the pairs whose discrete member has the same number of occupied
    classes, and append the pairs that fail to failures."""
    n = dataset.n
    groups = defaultdict(list)  # occupied classes -> [(i, j, probs, means, var)]
    for d in disc:
        _, counts, means, var = kernels.class_stats_rows(
            xt, dataset.column(d), dataset.schema.cardinality(d)
        )
        zero = var <= 0.0
        failures += [(min(d, g), max(d, g), DegenerateGaussian(_ZERO_RESIDUAL)) for g in gauss[zero]]
        occupied = counts > 0
        if occupied.sum() > 1:  # one class leaves I_n = 0
            g, means = gauss[~zero], means[~zero][:, occupied]
            probs = np.broadcast_to(counts[occupied] / n, means.shape)
            groups[occupied.sum()].append(
                (np.minimum(d, g), np.maximum(d, g), probs, means, var[~zero])
            )
    for members in groups.values():
        i, j, probs, means, var = (np.concatenate(part) for part in zip(*members))
        values, failed = _mixture_mi(probs, means, var, quad)
        table[i, j] = n * values
        failures += [(int(i[k]), int(j[k]), QuadratureFailure(message)) for k, message in failed]
