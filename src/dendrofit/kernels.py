"""Hot numeric kernels: pairwise statistics collection and the
Gauss-Hermite mixture integral, in numpy.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["joint_counts", "gaussian_moments", "class_stats", "mixture_mi"]

# Golub-Welsch weights at or below this are rounding noise (the weights sum
# to sqrt(pi)); the terms they carry are far below the quadrature ladder's
# absolute tolerance
_NODE_WEIGHT_FLOOR = 1e-30


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


def class_stats(x: np.ndarray, y: np.ndarray, n_classes: int):
    """Per-class counts and means of x grouped by y, plus the pooled
    (divide-by-n) residual variance around the class means.

    Classes that never occur get count 0 and mean NaN.
    """
    counts = np.bincount(y, minlength=n_classes).astype(np.float64)
    sums = np.bincount(y, weights=x, minlength=n_classes)
    means = np.divide(sums, counts, out=np.full(n_classes, np.nan), where=counts > 0)
    resid = x - means[y]
    return counts, means, float(resid @ resid) / x.shape[0]


def mixture_mi(
    probs: np.ndarray,
    means: np.ndarray,
    var: float,
    nodes: np.ndarray,
    weights: np.ndarray,
) -> float:
    """Per-sample mutual information of a univariate Gaussian mixture
    against its class variable, by Gauss-Hermite quadrature.

    ``probs`` must be strictly positive (drop empty classes first); all
    components share variance ``var``. ``nodes``/``weights`` are the raw
    Hermite points for weight e^{-t^2}. With x = m_y + sqrt(2 var) t for
    class y, the integrand is -log sum_k p_k exp(-d_yk (2t + d_yk)), where
    d_yk = (m_y - m_k) / sqrt(2 var); it is evaluated for all classes and
    nodes at once with a max-shifted log-sum-exp. Nodes whose weight is at
    most ``_NODE_WEIGHT_FLOOR`` are skipped.
    """
    keep = weights > _NODE_WEIGHT_FLOOR
    t = nodes[keep]
    d = ((means[:, None] - means[None, :]) / math.sqrt(2.0 * var))[:, :, None]
    # expo[y, k, node] = log p_k - d_yk (2t + d_yk)
    expo = 2.0 * t + d
    expo *= d
    np.subtract(np.log(probs)[None, :, None], expo, out=expo)
    peak = expo.max(axis=1)
    expo -= peak[:, None, :]
    np.exp(expo, out=expo)
    lse = np.log(expo.sum(axis=1)) + peak
    return -float(probs @ (lse @ weights[keep])) / math.sqrt(math.pi)
