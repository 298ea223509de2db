"""Hot numeric kernels, in numpy: joint counts, the one scaled stack of
Gaussian columns, every variance and covariance, class statistics, and
the Gauss-Hermite mixture integral. A statistic of a row or pair of rows
has the same bits whatever other rows are stacked with it.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

__all__ = [
    "joint_counts",
    "scaled_rows",
    "covariances",
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


def scaled_rows(columns: Sequence[np.ndarray], n: int):
    """(e, scaled, mean, centred, constant): the columns (n values each)
    stacked as rows, row r scaled by 2^-e[r] with e[r] the np.frexp
    exponent of its largest |x|; the scaled rows' means (row sums / n);
    the scaled rows minus their means; and whether each row is all
    equal, the exact test for a zero variance, which a variance around a
    rounded mean is not. Scaling brings each row into (-1, 1), where no
    statistic overflows; it is exact for every cell above 2^-1021 times
    its row's largest |x|, and a scaled row is all equal exactly when its
    column is. In original units, mean[r] is ldexp(mean[r], e[r]), and a
    covariance of rows r and s is scaled by 2^(e[r] + e[s]).
    """
    scaled = np.array(columns, dtype=np.float64).reshape(len(columns), n)
    e = np.frexp(np.maximum(scaled.max(axis=1), -scaled.min(axis=1)))[1]
    np.ldexp(scaled, -e[:, None], out=scaled)
    mean = scaled.sum(axis=1) / n
    return e, scaled, mean, scaled - mean[:, None], (scaled == scaled[:, :1]).all(axis=1)


def covariances(centred: np.ndarray, r, s) -> np.ndarray:
    """Biased covariances centred[r[k]] @ centred[s[k]] / n of the rows
    of centred (rows x n), for index sequences r and s; r[k] = s[k]
    gives a variance. Each entry is one dot product of two rows, never a
    matrix product, so its bits do not depend on the other rows stacked
    with them."""
    n = centred.shape[1]
    return np.array([centred[a] @ centred[b] / n for a, b in zip(r, s)], dtype=np.float64)


def class_stats_rows(scaled: np.ndarray, y: np.ndarray, n_classes: int):
    """(counts, means, var): the class counts of y, and per-class means
    (rows, n_classes) and pooled (divide-by-n) residual variances around
    them of each row of scaled (rows x n, as ``scaled_rows`` gives it).

    Classes that never occur get count 0 and mean NaN. The variance is
    a second pass around the class means, never sum(x^2) - sum(S^2)/c,
    which loses every digit as R^2 -> 1, and it is exactly 0 when every
    class holds one repeated value: the exact test for a zero residual,
    which a variance around rounded class means is not. Each row is its
    own bincount and dot product, so its bits do not depend on the other
    rows stacked with it.
    """
    n = y.size
    counts = np.bincount(y, minlength=n_classes).astype(np.float64)
    occupied = counts > 0
    member = np.zeros(n_classes, dtype=np.intp)
    member[y] = np.arange(n)  # some cell of each occupied class
    member = member[y]
    # a row within (-1, 1) whose classes each hold one value has residuals
    # below 2 n 2^-53 (a class mean of c equal cells carries under c
    # roundings), so only a variance below (n 2^-51)^2 can be one and
    # takes the test
    tiny = (n * 2.0**-51) ** 2
    means = np.full((len(scaled), n_classes), np.nan)
    var = np.empty(len(scaled))
    for r, row in enumerate(scaled):
        sums = np.bincount(y, weights=row, minlength=n_classes)
        np.divide(sums, counts, out=means[r], where=occupied)
        resid = row - means[r][y]
        var[r] = resid @ resid / n
        if var[r] <= tiny and (row == row[member]).all():
            var[r] = 0.0
    return counts, means, var


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
