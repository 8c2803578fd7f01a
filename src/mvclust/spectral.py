"""Spectral clustering on the learned graph, plus k-means utilities.

Normalized-cut variant: symmetrize the graph, embed each sample with the
eigenvectors of the symmetric normalized Laplacian's k smallest eigenvalues
(rows scaled to unit length), and run seeded k-means++ / Lloyd on the
embedding. The eigenvectors come from ARPACK's implicitly restarted Lanczos
(Lehoucq, Sorensen & Yang, 1998), which computes only those k from products
with the graph itself, started from a fixed random vector so that the labels
are deterministic; at k = n, where ARPACK cannot run, LAPACK's dense eigh
computes them.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh
from scipy.sparse.linalg import LinearOperator, eigsh

from .errors import DegenerateGraphWarning

Array = np.ndarray

DEGREE_FLOOR = 1e-12

# Lloyd iterations per k-means run; runs stop earlier once labels settle.
KMEANS_MAX_ITER = 300


@dataclass
class Partition:
    """Cluster assignment: labels in [0, k) for each of n samples."""

    labels: Array
    k: int

    def __post_init__(self):
        self.labels = np.asarray(self.labels, dtype=np.int64)

    @property
    def n(self) -> int:
        return self.labels.shape[0]


def spectral_embed(S: Array, k: int) -> Array:
    """(n, k) embedding from the k smallest eigenvectors of L_sym.

    W = (S + S^T)/2; L_sym = I - N with N = D^{-1/2} W D^{-1/2} and D the
    degree diagonal, so these are the k largest eigenvectors of N. For k < n,
    ARPACK's implicitly restarted Lanczos computes only those k, reading N
    through its product N x = D^{-1/2} (S y + S^T y) / 2 with y = D^{-1/2} x,
    so no n x n array beside S is formed; the degrees are the mean of S's row
    and column sums. It starts from a fixed random vector, so the result is
    deterministic; the start is not the vector of ones, because on a regular
    graph that is an exact eigenvector of N and its Krylov space does not
    grow. ARPACK needs k < n, so k == n forms N in W's buffer for LAPACK's
    eigh. A graph with more connected components than k has a repeated top
    eigenvalue and no unique embedding. Rows of the eigenvector block are
    normalized to unit length; all-zero rows are left as zero. Isolated
    samples (zero degree) trigger a DegenerateGraphWarning and have their
    degree floored.
    """
    S = np.asarray(S, dtype=np.float64)
    n = S.shape[0]
    if not 2 <= k <= n:
        raise ValueError(f"need 2 <= k <= n, got k={k}, n={n}")
    if k < n:
        deg = 0.5 * (S.sum(axis=1) + S.sum(axis=0))
    else:
        W = S + S.T
        W *= 0.5
        deg = W.sum(axis=1)
    if deg.min() <= 0:
        warnings.warn(
            f"{int((deg <= 0).sum())} isolated sample(s); degrees floored",
            DegenerateGraphWarning,
            stacklevel=2,
        )
        deg = np.maximum(deg, DEGREE_FLOOR)
    d_isqrt = 1.0 / np.sqrt(deg)
    # both solvers return N's top k in ascending order; L_sym = I - N has
    # the same eigenvectors, its smallest first in reverse order
    if k < n:

        def matvec(x):
            y = d_isqrt * x.ravel()
            z = S @ y
            z += y @ S
            z *= 0.5 * d_isqrt
            return z

        v0 = np.random.default_rng(0).standard_normal(n)
        N = LinearOperator((n, n), matvec=matvec, dtype=np.float64)
        _, U = eigsh(N, k, which="LA", v0=v0)
    else:
        # float addition commutes, so W is exactly symmetric and its transpose
        # is the same matrix in the Fortran order LAPACK overwrites without a copy
        N = W.T
        N *= d_isqrt[:, None]
        N *= d_isqrt[None, :]
        _, U = eigh(N, overwrite_a=True, subset_by_index=[n - k, n - 1])
    E = U[:, ::-1]
    norms = np.linalg.norm(E, axis=1)
    nz = norms > 0
    E[nz] /= norms[nz, None]
    return E


def _kmeans_pp_centers(X: Array, k: int, rng: np.random.Generator) -> Array:
    n = X.shape[0]
    centers = np.empty((k, X.shape[1]))
    centers[0] = X[rng.integers(n)]
    d2 = ((X - centers[0]) ** 2).sum(axis=1)
    for j in range(1, k):
        total = d2.sum()
        if total > 0:
            idx = rng.choice(n, p=d2 / total)
        else:
            idx = rng.integers(n)  # duplicated points: any choice is equivalent
        centers[j] = X[idx]
        d2 = np.minimum(d2, ((X - centers[j]) ** 2).sum(axis=1))
    return centers


def _lloyd(X: Array, centers: Array) -> tuple[Array, float]:
    n, k = X.shape[0], centers.shape[0]
    labels = np.full(n, -1)
    for _ in range(KMEANS_MAX_ITER):
        d2 = ((X[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        new_labels = d2.argmin(axis=1)
        for j in range(k):
            mask = new_labels == j
            if mask.any():
                centers[j] = X[mask].mean(axis=0)
            else:
                # re-seed an empty cluster at the point farthest from its center
                far = d2[np.arange(n), new_labels].argmax()
                centers[j] = X[far]
                new_labels[far] = j
                d2[far] = -np.inf  # no later empty cluster takes it, even if all d2 are 0
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
    d2 = ((X[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
    wcss = float(d2[np.arange(n), labels].sum())
    return labels, wcss


def kmeans(points: Array, k: int, restarts: int = 10, seed=0) -> Partition:
    """Seeded k-means++ / Lloyd; best of `restarts` runs by within-cluster
    sum of squares. Deterministic for a fixed seed."""
    X = np.asarray(points, dtype=np.float64)
    n = X.shape[0]
    if n < k:
        raise ValueError(f"need n >= k, got n={n}, k={k}")
    if restarts < 1:
        raise ValueError("restarts must be >= 1")
    best_labels, best_wcss = None, np.inf
    for child in np.random.SeedSequence(seed).spawn(restarts):
        rng = np.random.default_rng(child)
        centers = _kmeans_pp_centers(X, k, rng)
        labels, wcss = _lloyd(X, centers)
        if wcss < best_wcss:
            best_labels, best_wcss = labels, wcss
    return Partition(labels=best_labels, k=k)


def cluster_graph(S: Array, k: int, restarts: int = 10, seed=0) -> Partition:
    """Spectral embedding of S followed by k-means."""
    return kmeans(spectral_embed(S, k), k, restarts=restarts, seed=seed)
