"""Spectral clustering on the learned graph, plus k-means utilities.

Normalized-cut variant: symmetrize the graph, embed each sample with the
eigenvectors of the symmetric normalized Laplacian's k smallest eigenvalues
(rows scaled to unit length), and run seeded k-means++ / Lloyd on the
embedding. The eigenvectors come from a restarted block Krylov solver with
Rayleigh-Ritz (Saad, *Numerical Methods for Large Eigenvalue Problems*,
2011, ch. 6), which computes only those k from products with the graph
itself, started from a fixed random block so that the labels are
deterministic. It needs k < n; at k = n every sample is its own cluster,
and `cluster_graph` returns that partition without an embedding.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .consensus import ConsensusGraph, as_graph
from .errors import DegenerateGraphWarning, EigensolverError, MvclustError

Array = np.ndarray

DEGREE_FLOOR = 1e-12

# Lloyd iterations per k-means run; runs stop earlier once labels settle.
KMEANS_MAX_ITER = 300

# The Krylov blocks are k + BLOCK_EXTRA columns wide: the extra columns keep
# the k-th eigenvalue's convergence from hanging on its gap to the (k+1)-th.
BLOCK_EXTRA = 4

# Blocks per restart cycle: one cycle's basis holds KRYLOV_DEPTH blocks, or
# the whole space when that is smaller.
KRYLOV_DEPTH = 6

# Restart cycles before the solver gives up and raises EigensolverError. The
# final graphs of the benchmark workloads converge in one or two; graphs
# without cluster structure, whose top eigenvalues sit at the edge of a dense
# bulk, took 10-54 at n = 100-1500 (uniform random Q, k = 2-8).
MAX_CYCLES = 500

# A Ritz pair (lambda, y) has converged once ||N y - lambda y|| is at most
# RESIDUAL_TOL times the largest |Ritz value|, an estimate of ||N||.
RESIDUAL_TOL = 1e-13

# A new basis column that, once projected off the columns before it and
# normalized, keeps less than DEPENDENT_TOL of its length in two more
# projections lay in them up to rounding (the Krylov space is invariant
# there): a seeded random direction replaces it.
DEPENDENT_TOL = 1e-8


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


def _extend_basis(V: Array, end: int, W: Array, rng: np.random.Generator) -> None:
    """Write the columns of W as V[:, end:end + w], each projected off the
    columns before it by classical Gram-Schmidt, normalized, and projected
    twice more: a column whose residual is tiny against its product (a
    converging Ritz vector's) keeps its direction to rounding."""
    for i, x in enumerate(W.T):
        basis = V[:, : end + i]
        while True:
            y = x - basis @ (basis.T @ x)
            size = np.linalg.norm(y)
            if size > 0:
                y /= size
                for _ in range(2):
                    y -= basis @ (basis.T @ y)
                rho = np.linalg.norm(y)
                if rho > DEPENDENT_TOL:
                    break
            x = rng.standard_normal(V.shape[0])
        V[:, end + i] = y / rho


def top_eigenvectors(matmat, n: int, k: int) -> Array:
    """The (n, k) eigenvectors of the k largest eigenvalues of a symmetric
    n x n operator, in descending order, from its products `matmat(X)` with
    n x b blocks.

    Each cycle grows one preallocated basis V of KRYLOV_DEPTH blocks of b =
    k + BLOCK_EXTRA columns (at most n columns in all) by block Lanczos with
    full reorthogonalization, starting from a fixed seeded block. Each
    block's product is projected on the basis so far, which gives the upper
    triangle of the Rayleigh quotient T = V^T N V exactly, however the basis
    was extended; `np.linalg.eigh` of T gives the Ritz pairs. One more
    product with the top k Ritz vectors gives their residuals: once every
    one is within RESIDUAL_TOL they are returned, and until then each cycle
    restarts from the top b Ritz vectors. A basis of n columns spans the
    whole space, so there Rayleigh-Ritz is exact and one cycle suffices.
    Raises EigensolverError after MAX_CYCLES cycles.
    """
    b = min(k + BLOCK_EXTRA, n)
    m = min(n, KRYLOV_DEPTH * b)
    rng = np.random.default_rng(0)
    V = np.empty((n, m))
    V[:, :b] = np.linalg.qr(rng.standard_normal((n, b)))[0]
    T = np.zeros((m, m))
    for _ in range(MAX_CYCLES):
        for start in range(0, m, b):
            end = min(start + b, m)
            W = matmat(V[:, start:end])
            T[:end, start:end] = V[:, :end].T @ W
            if end < m:
                _extend_basis(V, end, W[:, : min(b, m - end)], rng)
            del W
        theta, Z = np.linalg.eigh(np.triu(T) + np.triu(T, 1).T)
        Z = Z[:, ::-1]
        Y = V @ Z[:, :k]
        R = matmat(Y)
        R -= Y * theta[::-1][:k]
        worst = float(np.linalg.norm(R, axis=0).max())
        if worst <= RESIDUAL_TOL * np.abs(theta).max():
            return Y
        del R, Y
        V[:, :b] = V @ Z[:, :b]
    raise EigensolverError(f"no convergence in {MAX_CYCLES} cycles: largest residual {worst:.3e}")


def spectral_embed(S: ConsensusGraph | Array, k: int) -> Array:
    """(n, k) embedding from the k smallest eigenvectors of L_sym.

    W = (S + S^T)/2; L_sym = I - N with N = D^{-1/2} W D^{-1/2} and D the
    degree diagonal, so these are the k largest eigenvectors of N.
    `top_eigenvectors` computes only those k, for 2 <= k < n, reading N
    through its product N X = D^{-1/2} (S + S^T) Y / 2 with Y = D^{-1/2} X,
    taken from the graph's structure, so no n x n array is formed; the
    degrees are (S + S^T) 1 / 2, from the same product. An array S is read
    as the graph it is, which must be square. A NaN or infinite entry makes
    the degrees of its row and column non-finite, which raises before the
    eigen-solver runs. It starts from a fixed random block, so the result is
    deterministic; the start is not the vector of ones, because on a regular
    graph that is an exact eigenvector of N and its Krylov space does not
    grow. A graph with more connected components than k has a repeated top
    eigenvalue and no unique embedding. Rows of the eigenvector block are
    normalized to unit length; all-zero rows are left as zero. Isolated
    samples (zero degree) trigger a DegenerateGraphWarning and have their
    degree floored.
    """
    S = as_graph(S)
    n = S.shape[0]
    if not 2 <= k < n:
        raise ValueError(f"need 2 <= k < n, got k={k}, n={n}")
    deg = 0.5 * S.symmetric_matmat(np.ones(n))
    if not np.isfinite(deg).all():
        raise MvclustError(f"{int((~np.isfinite(deg)).sum())} sample(s) have a non-finite degree")
    if deg.min() <= 0:
        warnings.warn(
            f"{int((deg <= 0).sum())} isolated sample(s); degrees floored",
            DegenerateGraphWarning,
            stacklevel=2,
        )
        deg = np.maximum(deg, DEGREE_FLOOR)
    d_isqrt = 1.0 / np.sqrt(deg)

    def matmat(X):
        Z = S.symmetric_matmat(d_isqrt[:, None] * X)
        Z *= 0.5 * d_isqrt[:, None]
        return Z

    # N's top k in descending order are L_sym's smallest k in ascending order
    E = top_eigenvectors(matmat, n, k)
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
    if k < 1:
        raise ValueError(f"need k >= 1, got k={k}")
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


def cluster_graph(S: ConsensusGraph | Array, k: int, restarts: int = 10, seed=0) -> Partition:
    """Spectral embedding of S (a `ConsensusGraph` or an n x n array) followed
    by k-means; at k = n, the n singletons."""
    S = as_graph(S)
    n = S.shape[0]
    if 2 <= k == n:
        return Partition(np.arange(n), n)
    return kmeans(spectral_embed(S, k), k, restarts=restarts, seed=seed)
