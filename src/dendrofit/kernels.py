"""Hot numeric kernels: pairwise statistics collection and the
Gauss-Hermite mixture integral, in numpy.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "joint_counts",
    "gaussian_moments",
    "all_equal",
    "class_stats_rows",
    "mixture_mi_batch",
]

# nodes whose weight is at most this are skipped, a cut by magnitude (the
# weights sum to sqrt(pi) and fall off like e^{-t^2}); the terms they carry
# are far below the quadrature ladder's absolute tolerance
_NODE_WEIGHT_FLOOR = 1e-30
# most elements of the (mixtures, classes, classes, nodes) array that one
# step of mixture_mi_batch holds: 2^14 to 2^18 ran equally fast on the
# benchmark workloads, 2^13 slower, and larger chunks only hold more memory
_BATCH_ELEMENTS = 2**15


def joint_counts(xi: np.ndarray, xj: np.ndarray, card_i: int, card_j: int) -> np.ndarray:
    """Contingency table of two dense-coded discrete columns."""
    flat = xi * card_j + xj
    return np.bincount(flat, minlength=card_i * card_j).reshape(card_i, card_j)


def all_equal(x: np.ndarray) -> np.ndarray:
    """Whether all values along the last axis of x are equal: the exact
    test for a zero-variance column, which a variance computed around a
    rounded mean is not."""
    return (x == x[..., :1]).all(axis=-1)


def _exponents(xt: np.ndarray) -> np.ndarray:
    """Per row of xt, the exponent e that np.frexp gives for its largest
    |x|. Scaling the row by 2^-e is exact and brings rows of normal
    floats into (-1, 1), where no statistic below overflows."""
    return np.frexp(np.maximum(xt.max(axis=1), -xt.min(axis=1)))[1]


def gaussian_moments(xt: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(e, mean, cov): the ``_exponents`` of the rows of xt (rows x n), and
    the biased (divide-by-n) means and covariance matrix of the rows
    scaled by them. Row r's mean is ldexp(mean[r], e[r]) and cov[r, s] is
    ldexp(cov[r, s], e[r] + e[s]) in original units. Each entry is a row
    sum or one dot product of two centred rows, never a matrix product,
    so its bits do not depend on the other rows stacked with it.
    """
    e = _exponents(xt)
    xs = np.ldexp(xt, -e[:, None])
    n = xs.shape[1]
    mean = xs.sum(axis=1) / n
    centred = xs - mean[:, None]
    cov = np.empty((len(xs), len(xs)))
    for r, row in enumerate(centred):
        for s in range(r, len(xs)):
            cov[r, s] = cov[s, r] = row @ centred[s] / n
    return e, mean, cov


def class_stats_rows(xt: np.ndarray, y: np.ndarray, n_classes: int):
    """(e, counts, means, var): the ``_exponents`` of the rows of xt
    (rows x n), the class counts of y, and per-class means
    (rows, n_classes) and pooled (divide-by-n) residual variances around
    them of the rows scaled by them. Row r's means are
    ldexp(means[r], e[r]) and its variance ldexp(var[r], 2 e[r]) in
    original units.

    Classes that never occur get count 0 and mean NaN. The variance is
    a second pass around the class means, never sum(x^2) - sum(S^2)/c,
    which loses every digit as R^2 -> 1, and it is exactly 0 when every
    class holds one repeated value: the exact test for a zero residual,
    which a variance around rounded class means is not. Each row is its
    own bincount and dot product, so its bits do not depend on the other
    rows stacked with it.
    """
    e = _exponents(xt)
    n = y.size
    counts = np.bincount(y, minlength=n_classes).astype(np.float64)
    occupied = counts > 0
    member = np.zeros(n_classes, dtype=np.intp)
    member[y] = np.arange(n)  # some cell of each occupied class
    member = member[y]
    # a scaled row whose classes each hold one value has residuals below
    # 2 n 2^-53 (a class mean of c equal cells carries under c roundings),
    # so only a variance below (n 2^-51)^2 can be one and takes the test
    tiny = (n * 2.0**-51) ** 2
    means = np.full((len(xt), n_classes), np.nan)
    var = np.empty(len(xt))
    for r, row in enumerate(xt):
        row = np.ldexp(row, -e[r])
        sums = np.bincount(y, weights=row, minlength=n_classes)
        np.divide(sums, counts, out=means[r], where=occupied)
        resid = row - means[r][y]
        var[r] = resid @ resid / n
        if var[r] <= tiny and (row == row[member]).all():
            var[r] = 0.0
    return e, counts, means, var


def mixture_mi_batch(
    probs: np.ndarray,
    means: np.ndarray,
    var: np.ndarray,
    nodes: np.ndarray,
    weights: np.ndarray,
) -> np.ndarray:
    """Per-sample mutual information of P univariate Gaussian mixtures
    against their class variables, by Gauss-Hermite quadrature.

    ``probs`` and ``means`` are (P, K): each row one mixture's class
    probabilities, which must be strictly positive (drop empty classes
    first), and class means; the components of mixture p share variance
    ``var[p]``. ``nodes``/``weights`` are the raw Hermite points for
    weight e^{-t^2}. With x = m_y + sqrt(2 var) t for class y, the
    integrand is -log sum_k p_k exp(-d_yk (2t + d_yk)), where
    d_yk = (m_y - m_k) / sqrt(2 var); it is evaluated over a
    (mixtures, classes, classes, nodes) array with a max-shifted
    log-sum-exp, at most ``_BATCH_ELEMENTS`` elements (and at least one
    mixture) at a time. Nodes whose weight is at most
    ``_NODE_WEIGHT_FLOOR`` are skipped. Each mixture's value depends only
    on its own row, so it does not change with the batch or the chunk.
    """
    keep = weights > _NODE_WEIGHT_FLOOR
    t, w = nodes[keep], weights[keep]
    count, k = probs.shape
    step = max(1, _BATCH_ELEMENTS // (k * k * t.size))
    out = np.empty(count)
    for lo in range(0, count, step):
        p, m = probs[lo : lo + step], means[lo : lo + step]
        scale = np.sqrt(2.0 * var[lo : lo + step])[:, None, None]
        d = ((m[:, :, None] - m[:, None, :]) / scale)[..., None]
        # expo[p, y, k, node] = log p_k - d_yk (2t + d_yk)
        expo = 2.0 * t + d
        expo *= d
        np.subtract(np.log(p)[:, None, :, None], expo, out=expo)
        peak = expo.max(axis=2)
        expo -= peak[:, :, None, :]
        np.exp(expo, out=expo)
        lse = np.log(expo.sum(axis=2)) + peak
        lse *= w
        out[lo : lo + step] = -(p * lse.sum(axis=2)).sum(axis=1) / math.sqrt(math.pi)
    return out
