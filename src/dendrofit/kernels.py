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
    "equal_within_classes",
    "class_stats",
    "class_stats_rows",
    "mixture_mi",
    "mixture_mi_batch",
]

# Golub-Welsch weights at or below this are rounding noise (the weights sum
# to sqrt(pi)); the terms they carry are far below the quadrature ladder's
# absolute tolerance
_NODE_WEIGHT_FLOOR = 1e-30
# most elements of the (mixtures, classes, classes, nodes) array that one
# step of mixture_mi_batch holds: 2^14 to 2^18 ran equally fast on the
# benchmark workloads, 2^13 slower, and larger chunks only hold more memory
_BATCH_ELEMENTS = 2**15


def joint_counts(xi: np.ndarray, xj: np.ndarray, card_i: int, card_j: int) -> np.ndarray:
    """Contingency table of two dense-coded discrete columns."""
    flat = xi * card_j + xj
    return np.bincount(flat, minlength=card_i * card_j).reshape(card_i, card_j)


def gaussian_moments(x: np.ndarray, y: np.ndarray):
    """Biased (divide-by-n) means, variances and covariance of two columns.

    Returns (mean_x, mean_y, var_x, var_y, cov_xy).
    """
    n = x.shape[0]
    mean_x = x.sum() / n
    mean_y = y.sum() / n
    dx = x - mean_x
    dy = y - mean_y
    return mean_x, mean_y, float(dx @ dx) / n, float(dy @ dy) / n, float(dx @ dy) / n


def all_equal(x: np.ndarray) -> np.ndarray:
    """Whether all values along the last axis of x are equal: the exact
    test for a zero-variance column, which a variance computed around a
    rounded mean is not."""
    return (x == x[..., :1]).all(axis=-1)


def equal_within_classes(x: np.ndarray, y: np.ndarray, n_classes: int) -> np.ndarray:
    """Whether every class of y holds one repeated value of x, along the
    last axis of x: the exact test for a zero pooled residual variance."""
    member = np.zeros(n_classes, dtype=np.intp)
    member[y] = np.arange(y.size)  # some row of each occupied class
    return (x == np.take(x, member[y], axis=-1)).all(axis=-1)


def class_stats(x: np.ndarray, y: np.ndarray, n_classes: int):
    """Per-class counts and means of x grouped by y, plus the pooled
    (divide-by-n) residual variance around the class means.

    Classes that never occur get count 0 and mean NaN. The residual
    variance is exactly 0 when every class holds one repeated value.
    """
    counts = np.bincount(y, minlength=n_classes).astype(np.float64)
    sums = np.bincount(y, weights=x, minlength=n_classes)
    means = np.divide(sums, counts, out=np.full(n_classes, np.nan), where=counts > 0)
    if equal_within_classes(x, y, n_classes):
        return counts, means, 0.0
    resid = x - means[y]
    return counts, means, float(resid @ resid) / x.shape[0]


def class_stats_rows(xt: np.ndarray, y: np.ndarray, n_classes: int):
    """class_stats of every row of xt (columns x rows) against one class
    column y: counts (n_classes,), means (columns, n_classes) and residual
    variances (columns,).

    The class sums are one matrix product with the one-hot coding of y;
    the residual sum of squares is a second pass around the class means,
    never sum(x^2) - sum(S^2)/c, which loses every digit as R^2 -> 1.
    """
    degenerate = equal_within_classes(xt, y, n_classes)
    counts = np.bincount(y, minlength=n_classes).astype(np.float64)
    onehot = (y == np.arange(n_classes)[:, None]).astype(np.float64)
    sums = xt @ onehot.T
    means = np.divide(sums, counts, out=np.full(sums.shape, np.nan), where=counts > 0)
    resid = np.take(means, y, axis=1)
    np.subtract(xt, resid, out=resid)
    resid *= resid
    var = resid.sum(axis=1) / xt.shape[1]
    var[degenerate] = 0.0
    return counts, means, var


def mixture_mi(
    probs: np.ndarray,
    means: np.ndarray,
    var: float,
    nodes: np.ndarray,
    weights: np.ndarray,
) -> float:
    """Per-sample mutual information of one univariate Gaussian mixture
    against its class variable: mixture_mi_batch for a single mixture."""
    value = mixture_mi_batch(probs[None], means[None], np.array([var]), nodes, weights)
    return float(value[0])


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
