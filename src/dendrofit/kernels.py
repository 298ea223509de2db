"""Hot numeric kernels, in numpy: joint counts, the scaled rows of a
group of Gaussian columns, class statistics read from a group's rows by
index around class counts computed once per class column, every
variance and covariance of one or two groups once their caller has
centred them in place, and the mixture integral at the nodes and
weights of one quadrature rung, whose Gaussian kernel separates into one
per-class factor and one per-node factor contracted by numpy's own
``einsum`` loops. A statistic of a row or pair of rows has the same bits
whatever other rows are grouped with it, and no kernel calls BLAS.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

__all__ = [
    "joint_counts",
    "scaled_rows",
    "covariances",
    "class_members",
    "class_stats_rows",
    "mixture_mi_batch",
]

# most elements of the largest array that one step of mixture_mi_batch
# holds, (mixtures, classes, nodes) in the separable form, which holds two
# such arrays at once. On the benchmark workloads 2^15 to 2^17 ran the
# kernel about 7% faster but raised mixed-hard learn's peak RSS by 0.5 MB;
# 2^13 and 2^18 ran 15-40% slower than 2^15
_BATCH_ELEMENTS = 2**14
# the largest 2 max|u| max|t| - log min p of a mixture in the separable
# form of mixture_mi_batch; e^600 is about 4e260
_SEPARABLE_LIMIT = 600.0


def joint_counts(xi: np.ndarray, xj: np.ndarray, card_i: int, card_j: int) -> np.ndarray:
    """Contingency table of two dense-coded discrete columns. The codes
    are cast to intp before they are multiplied: a uint8 product would
    wrap at 256. The cast is the one column-sized array it makes."""
    flat = xi.astype(np.intp)
    flat *= card_j
    flat += xj
    return np.bincount(flat, minlength=card_i * card_j).reshape(card_i, card_j)


def scaled_rows(columns: Sequence[np.ndarray], n: int):
    """(e, scaled, mean, constant): the columns (n values each) stacked
    as rows, row r scaled by 2^-e[r] with e[r] the np.frexp exponent of
    its largest |x|; the scaled rows' means (row sums / n); and whether
    each row is all equal, the exact test for a zero variance, which a
    variance around a rounded mean is not. Scaling brings each row into
    (-1, 1), where no statistic overflows; it is exact for every cell
    above 2^-1021 times its row's largest |x|, and a scaled row is all
    equal exactly when its column is. In original units, mean[r] is
    ldexp(mean[r], e[r]), and a covariance of rows r and s is scaled by
    2^(e[r] + e[s]). Each row's values depend on its column alone, so a
    caller may stack the columns a group at a time, take what it needs
    of a group's uncentred rows, then centre them in place
    (``scaled -= mean[:, None]``) for ``covariances``.
    """
    scaled = np.array(columns, dtype=np.float64).reshape(len(columns), n)
    e = np.frexp(np.maximum(scaled.max(axis=1), -scaled.min(axis=1)))[1]
    np.ldexp(scaled, -e[:, None], out=scaled)
    return e, scaled, scaled.sum(axis=1) / n, (scaled == scaled[:, :1]).all(axis=1)


def covariances(left: np.ndarray, right: np.ndarray, r, s) -> np.ndarray:
    """Biased covariances sum(left[r[k]] * right[s[k]]) / n of rows of
    left and right (each rows x n: ``scaled_rows`` of a group minus its
    means; the same array for pairs within one group), for index
    sequences r and s; r[k] = s[k] of one array gives a variance. Each
    entry is numpy's pairwise sum of the product of two rows, never a
    BLAS dot or matrix product, so its bits depend neither on the other
    rows stacked with them nor on the BLAS kernel or thread count of the
    machine. The sums fill one array, divided by n once."""
    sums = (np.add.reduce(left[a] * right[b]) for a, b in zip(r, s))
    return np.fromiter(sums, dtype=np.float64, count=len(r)) / left.shape[1]


def class_members(y: np.ndarray, n_classes: int):
    """(counts, member): the class counts of y, as floats, and the index
    of one cell of each occupied class (0 for an empty one), the
    invariants of a class column that ``class_stats_rows`` reads for
    every group of rows."""
    counts = np.bincount(y, minlength=n_classes).astype(np.float64)
    member = np.zeros(n_classes, dtype=np.intp)
    member[y] = np.arange(y.size)
    return counts, member


def class_stats_rows(scaled: np.ndarray, rows, y: np.ndarray, counts, member):
    """(means, var): per-class means (len(rows), n_classes) and pooled
    (divide-by-n) residual variances around them of the rows of scaled
    (the uncentred ``scaled_rows`` of a group) at the indices rows, each
    read in place rather than gathered, for classes y with the
    ``class_members`` counts and member. y should be intp: each row's
    bincount and gathers would cast narrower codes again, so the caller
    casts them once, into one reused array.

    Classes that never occur get mean NaN. The variance is a second pass
    around the class means, never sum(x^2) - sum(S^2)/c, which loses
    every digit as R^2 -> 1, and it is exactly 0 when every class holds
    one repeated value: the exact test for a zero residual, which a
    variance around rounded class means is not. Each row is its own
    bincount and pairwise sum of squares, never a BLAS dot, so its bits
    depend neither on the other rows stacked with it nor on the machine's
    BLAS.
    """
    n_classes, n = counts.size, y.size
    occupied = counts > 0
    # a row within (-1, 1) whose classes each hold one value has residuals
    # below 2 n 2^-53 (a class mean of c equal cells carries under c
    # roundings), so only a variance below (n 2^-51)^2 can be one and
    # takes the test
    tiny = (n * 2.0**-51) ** 2
    means = np.full((len(rows), n_classes), np.nan)
    var = np.empty(len(rows))
    for k, r in enumerate(rows):
        row = scaled[r]
        sums = np.bincount(y, weights=row, minlength=n_classes)
        np.divide(sums, counts, out=means[k], where=occupied)
        # in place: one column-sized array at a time beside y
        resid = means[k][y]
        np.subtract(row, resid, out=resid)
        resid *= resid
        var[k] = np.add.reduce(resid) / n
        if var[k] <= tiny and (row == row[member[y]]).all():
            var[k] = 0.0
    return means, var


def mixture_mi_batch(
    probs: np.ndarray,
    means: np.ndarray,
    var: np.ndarray,
    nodes: np.ndarray,
    weights: np.ndarray,
) -> np.ndarray:
    """Per-sample mutual information of P univariate Gaussian mixtures
    against their class variables, sum_y p_y sum_t w_t f_y(t) / sqrt(pi)
    for nodes t and weights w_t of a rule for the weight e^{-t^2}, or of
    a trapezoidal rung (weights e^{-t^2}, the step left to the caller).

    ``probs`` and ``means`` are (P, K): each row one mixture's class
    probabilities, which must be strictly positive (drop empty classes
    first), and class means; the components of mixture p share variance
    ``var[p]``. With x = m_y + sqrt(2 var) t for class y, the
    integrand f_y is -log sum_k p_k exp(-d_yk (2t + d_yk)), where
    d_yk = u_y - u_k and u = (m - c) / sqrt(2 var), centred on the
    class-weighted mean c. The exponent separates,
    -d_yk (2t + d_yk) = -(u_y - u_k)^2 - 2 u_y t + 2 u_k t, so the log-sum
    is -2 u_y t + log sum_k M_yk D_k(t) with M_yk = p_k exp(-(u_y - u_k)^2)
    and D_k(t) = exp(2 u_k t): one (K x K)(K x T) contraction per mixture
    and K^2 + K T exponentials, not K^2 T. The -2 u_y t terms cancel from
    the p-weighted sum, since the centring makes sum_y p_y u_y = 0.

    A mixture takes this form when 2 max|u| max|t| - log min p is at most
    ``_SEPARABLE_LIMIT``. Then every D lies within e^{-600} and e^{600},
    and every sum, which its k = y term keeps at least p_y exp(2 u_y t),
    at or above e^{-600}: nothing overflows and no sum underflows. Any
    other mixture (with nodes out to |t| = 8.3, one with a class about
    50 sd or more from c) takes the direct form, a max-shifted
    log-sum-exp over a (mixtures, classes, classes, nodes) array. Each
    step holds at most ``_BATCH_ELEMENTS`` elements of its largest array
    (and at least one mixture). Each mixture's value depends only on its
    own row, so it does not change with the batch or the chunk.
    """
    scale = np.sqrt(2.0 * var)
    centre = (probs * means).sum(axis=1) / probs.sum(axis=1)
    u = (means - centre[:, None]) / scale[:, None]
    reach = np.abs(u).max(axis=1) * (2.0 * np.abs(nodes).max()) - np.log(probs.min(axis=1))
    near = reach <= _SEPARABLE_LIMIT
    out = np.empty(len(var))
    out[near] = _separable(probs[near], u[near], nodes, weights)
    out[~near] = _direct(probs[~near], means[~near], scale[~near], nodes, weights)
    return out / -math.sqrt(math.pi)


def _separable(probs, u, t, w):
    """sum_y p_y sum_t w_t log sum_k M_yk D_k(t) of each mixture."""
    count, k = probs.shape
    step = max(1, _BATCH_ELEMENTS // (k * t.size))
    out = np.empty(count)
    for lo in range(0, count, step):
        p, v = probs[lo : lo + step], u[lo : lo + step]
        gap = v[:, :, None] - v[:, None, :]
        m = np.exp(-gap * gap)
        m *= p[:, None, :]
        d = (2.0 * v)[:, :, None] * t
        np.exp(d, out=d)
        # numpy's own loops: matmul would take BLAS's summation order
        s = np.einsum("pyk,pkt->pyt", m, d)
        np.log(s, out=s)
        s *= w
        out[lo : lo + step] = (p * s.sum(axis=2)).sum(axis=1)
    return out


def _direct(probs, means, scale, t, w):
    """sum_y p_y sum_t w_t log sum_k p_k exp(-d_yk (2t + d_yk)) of each
    mixture, max-shifted over k."""
    count, k = probs.shape
    step = max(1, _BATCH_ELEMENTS // (k * k * t.size))
    out = np.empty(count)
    for lo in range(0, count, step):
        p, m = probs[lo : lo + step], means[lo : lo + step]
        d = (m[:, :, None] - m[:, None, :]) / scale[lo : lo + step, None, None]
        # a term with |d| > 1e150 is exp(-1e300) = 0 either way; the cap
        # keeps d^2 finite where a subnormal variance puts classes 1e160
        # sd apart
        d = np.clip(d, -1e150, 1e150)[..., None]
        # expo[p, y, k, node] = log p_k - d_yk (2t + d_yk)
        expo = 2.0 * t + d
        expo *= d
        np.subtract(np.log(p)[:, None, :, None], expo, out=expo)
        peak = expo.max(axis=2)
        expo -= peak[:, :, None, :]
        np.exp(expo, out=expo)
        lse = np.log(expo.sum(axis=2)) + peak
        lse *= w
        out[lo : lo + step] = (p * lse.sum(axis=2)).sum(axis=1)
    return out
