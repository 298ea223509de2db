"""Sufficient statistics and sample-scaled mutual information estimators
for the three pair kinds: discrete x discrete, Gaussian x Gaussian, and
Gaussian x discrete.

All estimators return I_n(i, j) = n * (plug-in mutual information) in
nats, the log-likelihood gain from joining the pair by an edge. Plug-in
parameters are maximum-likelihood throughout: relative frequencies,
divide-by-n moments, per-class means with a pooled residual variance.
One pass, ``_statistics``, gathers the statistics of given vertices and
pairs and is the only caller of the statistics kernels. Its two readers
are ``pair_mi_table``, every pair and its I_n as vectors in canonical
order, and ``collect_stats``, the statistics in original units (``fit``
calls it once, and ``collect_pair_stats`` is its one-pair case). The
``mi_*`` estimators share the quadrature ladder with the table, so a
pair's I_n and its error are the same bits and message on every path.
"""

from __future__ import annotations

import math
import numbers
from collections import defaultdict
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence, Union

import numpy as np

from . import dataio, kernels
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
    """Nested trapezoidal settings for the mixed-pair integral.

    ``order`` is the starting order q of the self-consistency ladder, an
    even integer (the step 2T/q); ``tolerance`` (finite and positive) is
    the relative change under order-doubling below which a value counts
    as confirmed. The ladder must be able to double the order at least
    once, so ``order`` is at most half the order ceiling.
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


# the trapezoidal rule's half-width T: e^{-T^2} = 1e-30 at |t| = T, far
# below the ladder's absolute tolerance
_HALF_WIDTH = math.sqrt(30.0 * math.log(10.0))


@lru_cache(maxsize=32)
def _rung(order: int, first: bool) -> tuple[np.ndarray, np.ndarray]:
    """Nodes t = k h, h = 2T/order, |k| <= order/2, and weights e^{-t^2},
    host-free in Python's arithmetic and ``math.exp``: every k on a
    ladder's first rung, odd k on each later one, whose even nodes are
    the earlier rungs' bit for bit (halving h is exact)."""
    h, half = 2.0 * _HALF_WIDTH / order, order // 2
    nodes = [k * h for k in range(-half, half + 1) if first or k % 2]
    rule = np.array(nodes), np.array([math.exp(-t * t) for t in nodes])
    for part in rule:
        part.setflags(write=False)
    return rule


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
        return float(_rho(self.cov, _by_four(self.var_i), _by_four(self.var_j)))


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


def _statistics(dataset: Dataset, vertices: Sequence[int], a, b) -> tuple:
    """The one statistics pass behind ``pair_mi_table`` and
    ``collect_stats``, over some vertices and the pairs (a[k], b[k]),
    a[k] < b[k], in the scaled units of ``kernels.scaled_rows``. The
    Gaussian columns among them are never stacked at once: they are
    walked in groups of ``dataio.block_rows(n)`` rows, about BLOCK_CELLS
    cells a group. The class statistics read a group's uncentred rows,
    around each class column's ``kernels.class_members``, computed once;
    then the group is centred in place for its variances and the
    covariances within it, and each later group that shares a pair with
    it is scaled and centred again for their covariances, so at most two
    groups are held. Every statistic is a kernel result on one row or one
    pair of rows, so its bits do not depend on the groups.
    Returns row (each Gaussian vertex's row among them, -1 elsewhere);
    each row's e, mean, var and constant (all equal: its variance is
    exactly zero); whether each pair is discrete and whether it is
    gaussian; each discrete pair's joint table (counts) and each Gaussian
    pair's covariance (cov), in pair order; and classes: each discrete
    member of a mixed pair -> its partners' rows, ascending, its class
    counts, and their class means and residual variances.
    """
    schema, col, n = dataset.schema, dataset.column, dataset.n
    is_discrete = np.array([schema.is_discrete(v) for v in range(schema.n_vars)])
    asked = np.zeros(schema.n_vars, dtype=bool)
    asked[list(vertices)] = asked[a] = asked[b] = True
    gauss = np.flatnonzero(asked & ~is_discrete)
    row = np.full(schema.n_vars, -1)
    row[gauss] = np.arange(gauss.size)
    discrete = is_discrete[a] & is_discrete[b]
    gaussian = ~(is_discrete[a] | is_discrete[b])
    counts = [
        kernels.joint_counts(col(i), col(j), schema.cardinality(i), schema.cardinality(j))
        for i, j in zip(a[discrete].tolist(), b[discrete].tolist())
    ]
    mixed = is_discrete[a] != is_discrete[b]
    d, g = np.where(is_discrete[a], (a, b), (b, a))[:, mixed]
    size = dataio.block_rows(n)
    starts = np.arange(0, gauss.size + size, size)  # each group's first row, then the end
    classes, walks = {}, []
    # np.unique would import numpy.ma: about 1 MB and 15 ms in a cold process
    for v in np.flatnonzero(np.bincount(d)).tolist():
        rows, card = np.sort(row[g[d == v]]), schema.cardinality(v)
        sizes, member = kernels.class_members(col(v), card)
        classes[v] = rows, sizes, np.empty((rows.size, card)), np.empty(rows.size)
        walks.append((v, member, np.searchsorted(rows, starts).tolist()))
    e, constant = np.empty(gauss.size, dtype=np.intc), np.empty(gauss.size, dtype=bool)
    mean, var = np.empty(gauss.size), np.empty(gauss.size)
    r, s = row[a[gaussian]], row[b[gaussian]]
    first, second = r // size, s // size  # the groups of each Gaussian pair
    cov = np.empty(r.size)
    # one class column's codes at a time, cast to intp into one array: a
    # fresh column-sized array per group costs page faults, not just a cast
    codes = np.empty(n, dtype=np.intp)
    for at, lo in enumerate(starts[:-1].tolist()):
        part = slice(lo, lo + size)
        e[part], scaled, mean[part], constant[part] = kernels.scaled_rows(
            [col(v) for v in gauss[part]], n
        )
        for v, member, bounds in walks:
            rows, sizes, means, resid = classes[v]
            cut = slice(bounds[at], bounds[at + 1])
            if cut.start < cut.stop:
                np.copyto(codes, col(v))
                means[cut], resid[cut] = kernels.class_stats_rows(
                    scaled, rows[cut] - lo, codes, sizes, member
                )
        scaled -= mean[part, None]
        var[part] = kernels.covariances(scaled, scaled, *np.diag_indices(len(scaled)))
        here = np.flatnonzero(first == at)
        for later in np.flatnonzero(np.bincount(second[here])).tolist():
            k = here[second[here] == later]
            other = scaled
            if later > at:
                _, other, other_mean, _ = kernels.scaled_rows(
                    [col(v) for v in gauss[later * size : (later + 1) * size]], n
                )
                other -= other_mean[:, None]
            cov[k] = kernels.covariances(scaled, other, r[k] - lo, s[k] - later * size)
            del other  # the next group is built beside this one alone
    return row, e, mean, var, constant, discrete, gaussian, counts, cov, classes


def collect_stats(
    dataset: Dataset, vertices: Sequence[int], pairs: Sequence[tuple[int, int]]
) -> tuple[dict[int, tuple[float, float]], list[PairStats]]:
    """(mean, variance) in original units of each Gaussian vertex in
    ``vertices``, by vertex, and ``collect_pair_stats`` of each pair: the
    ``_statistics`` pass, converted from scaled to original units. A
    vertex and its Gaussian pairs hold the same moments, and no value
    depends on what else is asked for. Vertices are checked in order,
    then pairs in order, each as ``collect_pair_stats`` checks it.
    """
    schema, n = dataset.schema, dataset.n
    a, b = np.sort(np.array(pairs, dtype=np.intp).reshape(-1, 2), axis=1).T
    row, e, mean, var, constant, discrete, gaussian, counts, cov, classes = _statistics(
        dataset, vertices, a, b
    )
    with np.errstate(over="ignore"):
        mean, var = np.ldexp(mean, e), np.ldexp(var, 2 * e)
        cov = iter(np.ldexp(cov, e[row[a[gaussian]]] + e[row[b[gaussian]]]).tolist())
    counts = iter(counts)

    def check(*columns: int) -> None:
        for g in columns:
            if constant[row[g]]:
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
    for i, j, both_discrete, both_gaussian in zip(a.tolist(), b.tolist(), discrete, gaussian):
        if both_discrete:
            stats.append(DiscretePair(i, j, next(counts), n))
        elif both_gaussian:
            check(i, j)
            moments_ij = map(float, (mean[row[i]], mean[row[j]], var[row[i]], var[row[j]]))
            stats.append(GaussianPair(i, j, n, *moments_ij, next(cov)))
        else:
            g, d = (j, i) if schema.is_discrete(i) else (i, j)
            if constant[row[g]]:
                raise _zero_variance(schema.name(g))
            rows, sizes, means, resid = classes[d]
            k, e_g = np.searchsorted(rows, row[g]), e[row[g]]
            with np.errstate(over="ignore"):
                resid_var = float(np.ldexp(resid[k], 2 * e_g))
            # a zero residual is an exact degeneracy, which mi_mixed reports
            if resid[k] > 0.0 and not 0.0 < resid_var < math.inf:
                raise _beyond_range(schema.name(g))
            stats.append(MixedPair(g, d, float(n), sizes, np.ldexp(means[k], e_g), resid_var))
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


def _by_four(var):
    """(m, k) with var = m 4^k exactly and m in [1/2, 2) for var > 0: a
    variance brought by an exact power of four (its square root by the
    matching power of two) into a range where the product or ratio of
    two cannot underflow or overflow."""
    k = np.frexp(var)[1] // 2
    return np.ldexp(var, -2 * k), k


def _rho(cov, scaled_i, scaled_j):
    """Correlations cov / sqrt(var_i var_j), clipped to [-1, 1], from the
    ``_by_four`` parts (m, k) of each variance, var = m 4^k with m in
    [1/2, 2), and cov brought by the matching power of two, so that the
    product cannot underflow or overflow. The bits are the plain
    formula's wherever it does neither and gives 0 or a size of at least
    2^-1021 (below that the scaled cov can be subnormal), for scaled
    moments and original units alike."""
    (m_i, k_i), (m_j, k_j) = scaled_i, scaled_j
    return np.clip(np.ldexp(cov, -(k_i + k_j)) / np.sqrt(m_i * m_j), -1.0, 1.0)


def _gaussian_mi(rho, n: int):
    """I_n of Gaussian pairs with correlations rho: -(n/2) ln(1 - rho^2),
    +inf where |rho| = 1."""
    with np.errstate(divide="ignore"):
        return -0.5 * n * np.log1p(-rho * rho)


def _mixture_mi(
    probs: np.ndarray, means: np.ndarray, var: np.ndarray, quad: QuadratureSpec
) -> tuple[np.ndarray, list[tuple[int, str]]]:
    """Per-sample mutual information of each mixture (a row of probs and
    means, with variance var) against its class variable, with the nested
    trapezoidal ladder in lockstep: a value is h = 2T/order times a sum
    per mixture of each rung's ``kernels.mixture_mi_batch``, in rung
    order, so it depends on its own mixture alone. One doubling confirms
    an integral when it changes it by at most ``quad.tolerance`` relative
    plus ``_QUAD_ATOL``, and only the rest go on to the next rung.
    Returns the refined values clamped to [0, H], H the class entropy,
    and (row, message) for each mixture that no doubling confirmed or
    whose value exceeds H beyond rounding. Orders double while they stay
    within ``_MAX_QUAD_ORDER``, so a start that is not a power of two
    times 8 stops below it (start 96 at 768).
    """
    order, active = quad.order // 2, np.arange(len(var))
    total = np.zeros(len(var))
    last, confirmed = np.full(len(var), np.nan), np.full(len(var), np.nan)
    while active.size and order * 2 <= _MAX_QUAD_ORDER:
        order *= 2  # quad.order first, where no last value confirms anything
        nodes, weights = _rung(order, order == quad.order)
        total[active] += kernels.mixture_mi_batch(
            probs[active], means[active], var[active], nodes, weights
        )
        value = total[active] * (2.0 * _HALF_WIDTH / order)
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
    """I_n of a Gaussian/discrete pair via the nested trapezoidal rule.

    Starting at ``quad.order`` the class-mixture integral is re-evaluated
    at doubled orders, each reusing every node before it, until one
    doubling changes the value by less than ``quad.tolerance`` relative;
    the refined value is then returned, scaled by n. Mixtures whose
    components sit 4-8 standard deviations apart converge slowly at a
    coarse step, which is what the escalation absorbs. Empty classes are
    dropped. The per-sample value is clamped to [0, H], H the class entropy.

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


def pair_mi_table(dataset: Dataset, quad: QuadratureSpec = QuadratureSpec()) -> tuple:
    """I_n of every pair in one batched pass: (i, j, mi), the pairs i < j
    in canonical order (``np.triu_indices``) and their I_n, as vectors.

    The ``_statistics`` pass over all pairs, then each kind's estimator
    over all its pairs at once: discrete pairs from stacks of joint
    tables, Gaussian pairs from their correlations, and mixed pairs with
    the ladder in lockstep over the pairs with the same number of
    occupied classes. Each value is that of collect_pair_stats and the
    mi_* estimators bit for bit. The failing pair at the smallest
    position raises the per-pair path's error, with the pair named.
    """
    schema, n = dataset.schema, dataset.n
    a, b = np.triu_indices(schema.n_vars, 1)
    row, _, _, var, constant, discrete, gaussian, counts, cov, classes = _statistics(
        dataset, (), a, b
    )
    gauss = np.flatnonzero(row >= 0)  # the vertex of each stack row
    mi = np.zeros(a.size)
    failures = []  # (position, error), in the order the per-pair path checks a pair
    if constant.any():
        # every pair holding a constant column fails; the first of them,
        # (0, g) or (0, 1), holds the lowest one
        g = int(gauss[constant][0])
        failures.append((max(g - 1, 0), _zero_variance(schema.name(g))))
    by_shape = defaultdict(list)  # table shape -> [index among the discrete pairs]
    for k, joint in enumerate(counts):
        by_shape[joint.shape].append(k)
    at = np.flatnonzero(discrete)
    for ks in by_shape.values():
        mi[at[ks]] = _discrete_mi(np.stack([counts[k] for k in ks]), n)
    r, s = row[a[gaussian]], row[b[gaussian]]
    live = ~(constant[r] | constant[s])
    gaussian[gaussian] = live  # now the Gaussian pairs without a constant column
    # scaled once a column, before the gather: no pair-sized scaling arrays
    m, k = _by_four(var)
    r, s = r[live], s[live]
    mi[gaussian] = _gaussian_mi(_rho(cov[live], (m[r], k[r]), (m[s], k[s])), n)

    groups = defaultdict(list)  # occupied classes -> [(positions, probs, means, var)]
    for d, (rows, counts, means, var) in classes.items():
        # a constant column's residual is exactly zero too, but its own
        # failure comes first
        g, zero = gauss[rows], var <= 0.0
        lo, hi = np.minimum(d, g), np.maximum(d, g)
        at = lo * (2 * schema.n_vars - lo - 1) // 2 + hi - lo - 1  # the pairs' positions
        failures += [(k, DegenerateGaussian(_ZERO_RESIDUAL)) for k in at[zero].tolist()]
        occupied = counts > 0
        if occupied.sum() > 1:  # one class leaves I_n = 0
            means = means[~zero][:, occupied]
            probs = np.broadcast_to(counts[occupied] / n, means.shape)
            groups[occupied.sum()].append((at[~zero], probs, means, var[~zero]))
    for members in groups.values():
        at, probs, means, var = (np.concatenate(part) for part in zip(*members))
        values, failed = _mixture_mi(probs, means, var, quad)
        mi[at] = n * values
        failures += [(int(at[k]), QuadratureFailure(message)) for k, message in failed]
    if failures:
        k, err = min(failures, key=lambda failure: failure[0])
        names = schema.name(int(a[k])), schema.name(int(b[k]))
        raise type(err)(f"pair {names!r}: {err}")
    return a, b, mi
