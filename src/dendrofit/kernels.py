"""Hot numeric kernels: pairwise statistics collection and the
Gauss-Hermite mixture integral, in numpy.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["joint_counts", "gaussian_moments", "class_stats", "mixture_mi"]


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
    Hermite points for weight e^{-t^2}; the substitution
    x = mean + sqrt(2 var) t is applied per component.
    """
    logp = np.log(probs)
    scale = math.sqrt(2.0 * var)
    total = 0.0
    for py, gy, lpy in zip(probs, means, logp):
        x = gy + scale * nodes
        comp = logp[None, :] - (x[:, None] - means[None, :]) ** 2 / (2.0 * var)
        lse = np.logaddexp.reduce(comp, axis=1)
        total += py * float(weights @ (-nodes * nodes - lse))
    return total / math.sqrt(math.pi)
