"""Clustering quality metrics: accuracy (optimal label matching), NMI, purity.

All three are computed from the contingency table and are invariant under
relabeling of either partition. Accuracy matches clusters to classes with a
minimum-cost assignment on the negated contingency table.
"""

from __future__ import annotations

import numpy as np

from .errors import LengthMismatchError
from .spectral import Partition

Array = np.ndarray


def hungarian(cost: Array) -> Array:
    """Permutation p minimizing sum_i cost[i, p[i]] over a square cost matrix.

    Kuhn-Munkres by shortest augmenting paths (Jonker & Volgenant, 1987):
    rows join the matching one at a time, each along a shortest path in the
    costs reduced by row and column potentials u, v (Dijkstra over the
    columns, vectorized), and the potentials keep every reduced cost c_ij -
    u_i - v_j nonnegative and zero on the matching. O(n^3).
    """
    cost = np.asarray(cost, dtype=np.float64)
    if cost.ndim != 2 or cost.shape[0] != cost.shape[1]:
        raise ValueError(f"cost matrix must be square, got shape {cost.shape}")
    if not np.isfinite(cost).all():
        raise ValueError("cost matrix must be finite")
    n = cost.shape[0]
    # columns 1..n, with column 0 standing for the row being added; row_of[j]
    # is column j's row, 1-based, or 0 while j is free
    u, v = np.zeros(n + 1), np.zeros(n + 1)
    row_of = np.zeros(n + 1, dtype=np.int64)
    via = np.zeros(n + 1, dtype=np.int64)
    for i in range(1, n + 1):
        row_of[0], col = i, 0
        dist = np.full(n + 1, np.inf)
        reached = np.zeros(n + 1, dtype=bool)
        while row_of[col]:
            reached[col] = True
            row = row_of[col]
            reduced = cost[row - 1] - u[row] - v[1:]
            closer = ~reached[1:] & (reduced < dist[1:])
            dist[1:][closer] = reduced[closer]
            via[1:][closer] = col
            col = int(np.argmin(np.where(reached, np.inf, dist)))
            delta = dist[col]
            u[row_of[reached]] += delta
            v[reached] -= delta
            dist[~reached] -= delta
        # augment: shift each column's row back along the path to column 0
        while col:
            row_of[col] = row_of[via[col]]
            col = via[col]
    perm = np.empty(n, dtype=np.int64)
    perm[row_of[1:] - 1] = np.arange(n)
    return perm


def _labels_of(p) -> Array:
    labels = p.labels if isinstance(p, Partition) else np.asarray(p)
    return np.asarray(labels, dtype=np.int64).ravel()


def contingency_table(pred, truth) -> Array:
    """Counts C[i, j] = #{samples with pred class i and truth class j}.

    Classes are the distinct labels of each side, in sorted order.
    """
    a = _labels_of(pred)
    b = _labels_of(truth)
    if a.shape[0] != b.shape[0]:
        raise LengthMismatchError(f"{a.shape[0]} predictions vs {b.shape[0]} truths")
    if a.shape[0] == 0:
        raise LengthMismatchError("empty label sequences")
    _, ai = np.unique(a, return_inverse=True)
    _, bi = np.unique(b, return_inverse=True)
    C = np.zeros((ai.max() + 1, bi.max() + 1), dtype=np.int64)
    np.add.at(C, (ai, bi), 1)
    return C


def accuracy(pred, truth) -> float:
    """Fraction of samples correct under the best cluster-to-class mapping.

    The contingency table is zero-padded to square when the class counts
    differ, then matched by minimum-cost assignment on its negation.
    """
    C = contingency_table(pred, truth)
    size = max(C.shape)
    P = np.zeros((size, size), dtype=np.float64)
    P[: C.shape[0], : C.shape[1]] = C
    perm = hungarian(-P)
    matched = P[np.arange(size), perm].sum()
    return float(matched / C.sum())


def nmi(pred, truth) -> float:
    """Mutual information of the two partitions over the geometric mean of
    their entropies, sqrt(Hp * Ht), natural log. A zero normalizer (at least
    one trivial partition) yields 0 by convention.
    """
    C = contingency_table(pred, truth).astype(np.float64)
    n = C.sum()
    pij = C / n
    pi = pij.sum(axis=1)
    qj = pij.sum(axis=0)
    nz = pij > 0
    mi = float((pij[nz] * np.log(pij[nz] / np.outer(pi, qj)[nz])).sum())
    hp = float(-(pi[pi > 0] * np.log(pi[pi > 0])).sum())
    ht = float(-(qj[qj > 0] * np.log(qj[qj > 0])).sum())
    denom = np.sqrt(hp * ht)
    if denom == 0.0:
        return 0.0
    return float(min(max(mi / denom, 0.0), 1.0))


def purity(pred, truth) -> float:
    """Mean over samples of belonging to their cluster's majority class."""
    C = contingency_table(pred, truth)
    return float(C.max(axis=1).sum() / C.sum())
