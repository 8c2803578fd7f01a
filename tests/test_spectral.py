import warnings

import numpy as np
import pytest
from scipy.linalg import subspace_angles

from mvclust import cluster_graph, kmeans
from mvclust.consensus import BLOCK_ROWS, as_graph, gram_similarity
from mvclust.errors import DegenerateGraphWarning
from mvclust.spectral import _lloyd, spectral_embed

from conftest import (
    dense_spectral_embed,
    graph_from_tops,
    hierarchical_dataset,
    jacobi_eigh,
    project_graph,
    traced_peak,
)


def block_graph(sizes):
    """Disjoint union of uniform cliques as a feasible consensus graph."""
    n = sum(sizes)
    S = np.zeros((n, n))
    start = 0
    for size in sizes:
        block = np.full((size, size), 1.0 / (size - 1))
        np.fill_diagonal(block, 0.0)
        S[start : start + size, start : start + size] = block
        start += size
    return S


def test_perfect_two_block_graph():
    S = block_graph([5, 7])
    E = spectral_embed(S, 2)
    truth = np.array([0] * 5 + [1] * 7)
    for c in (0, 1):
        rows = E[truth == c]
        assert np.abs(rows - rows[0]).max() <= 1e-8
    part = kmeans(E, 2, restarts=5, seed=0)
    assert len(set(zip(part.labels, truth))) == 2  # exact correspondence


def test_laplacian_eigenvalue_range_and_symmetry():
    rng = np.random.default_rng(0)
    S = project_graph(rng.random((15, 15)))
    W = (S + S.T) / 2
    deg = W.sum(axis=1)
    L = np.eye(15) - W / np.sqrt(np.outer(deg, deg))
    assert np.abs(L - L.T).max() <= 1e-12
    w = np.linalg.eigvalsh(L)
    assert w.min() >= -1e-10
    assert w.max() <= 2 + 1e-10
    assert w.min() >= -1e-9  # PSD within tolerance


def test_embedding_matches_jacobi_oracle():
    rng = np.random.default_rng(1)
    n, k = 8, 3
    S = project_graph(rng.random((n, n)))
    W = (S + S.T) / 2
    deg = W.sum(axis=1)
    L = np.eye(n) - W / np.sqrt(np.outer(deg, deg))
    L = (L + L.T) / 2

    w_oracle, V_oracle = jacobi_eigh(L)
    w_np = np.linalg.eigvalsh(L)
    assert np.abs(np.sort(w_oracle) - w_np).max() <= 1e-8
    # well-separated third/fourth eigenvalue so the subspace is determined
    assert w_np[k] - w_np[k - 1] > 1e-6

    E = spectral_embed(S, k)
    B = V_oracle[:, :k]
    # row normalization commutes with rotations inside the eigenspace, so
    # normalize the oracle block the same way before comparing subspaces
    B = B / np.linalg.norm(B, axis=1, keepdims=True)
    angles = subspace_angles(E, B)
    assert angles.max() <= 1e-8


def test_isolated_node_warns_and_floors():
    S = block_graph([3, 3, 2])
    S[6:, :] = 0.0  # break the last clique into isolated nodes
    S[:, 6:] = 0.0
    with pytest.warns(DegenerateGraphWarning):
        E = spectral_embed(S, 2)
    assert np.isfinite(E).all()


def test_embedding_requires_valid_k():
    S = block_graph([3, 3])
    with pytest.raises(ValueError):
        spectral_embed(S, 1)
    with pytest.raises(ValueError):
        spectral_embed(S, 7)


def test_kmeans_singletons():
    rng = np.random.default_rng(2)
    X = rng.standard_normal((6, 3))
    part = kmeans(X, 6, restarts=3, seed=0)
    assert sorted(part.labels) == list(range(6))


def test_kmeans_recovers_separated_blobs():
    rng = np.random.default_rng(3)
    centers = np.array([[0.0, 0.0], [10.0, 0.0], [0.0, 10.0]])
    labels = np.repeat([0, 1, 2], 30)
    X = centers[labels] + 0.01 * rng.standard_normal((90, 2))
    part = kmeans(X, 3, restarts=5, seed=1)
    assert len(set(zip(part.labels, labels))) == 3


def test_kmeans_deterministic():
    rng = np.random.default_rng(4)
    X = rng.standard_normal((40, 3))
    a = kmeans(X, 4, restarts=6, seed=9)
    b = kmeans(X, 4, restarts=6, seed=9)
    assert np.array_equal(a.labels, b.labels)


def test_kmeans_empty_cluster_reseeded():
    # the third center starts far from every point, so its cluster is empty
    # after the first assignment; farthest-point reseeding must revive it
    X = np.array([[0.0, 0.0], [0.0, 0.1], [10.0, 10.0], [10.0, 10.1]])
    centers = np.array([[0.0, 0.0], [0.0, 0.05], [100.0, 100.0]])
    labels, wcss = _lloyd(X, centers)
    assert set(labels) == {0, 1, 2}
    assert np.isfinite(centers).all() and np.isfinite(wcss)


@pytest.mark.parametrize(
    "k, restarts, message",
    [(0, 1, "k >= 1"), (-1, 1, "k >= 1"), (6, 1, "n >= k"), (2, 0, "restarts must be >= 1")],
)
def test_kmeans_rejects_bad_arguments(k, restarts, message):
    with pytest.raises(ValueError, match=message):
        kmeans(np.random.default_rng(5).standard_normal((5, 2)), k, restarts=restarts)


@pytest.mark.parametrize("k", [2, 3, 5])
def test_kmeans_keeps_every_cluster_on_duplicated_points(k):
    # every k-means++ center lands on the one distinct point, so k - 1 clusters
    # start empty, and each must keep the point it is reseeded with
    part = kmeans(np.ones((5, 2)), k, restarts=2, seed=0)
    assert sorted(set(part.labels)) == list(range(k))


def test_cluster_graph_recovers_clique_union():
    sizes = [4, 6, 5]
    S = block_graph(sizes)
    truth = np.repeat([0, 1, 2], sizes)
    part = cluster_graph(S, 3, restarts=5, seed=0)
    assert len(set(zip(part.labels, truth))) == 3


def test_baseline_kmeans_helpers():
    ds = hierarchical_dataset(n=60, n_views=2, dims=(8, 10), seed=6)
    per_view = [kmeans(X.T, 3, restarts=4, seed=[0, v]) for v, X in enumerate(ds.views)]
    assert len(per_view) == 2
    assert all(p.n == 60 and p.k == 3 for p in per_view)
    concat = kmeans(np.vstack(ds.views).T, 3, restarts=4, seed=0)
    assert concat.n == 60


def _seeded_graph(n=1000):
    return project_graph(gram_similarity(np.random.default_rng(0).random((3, n))))


def _assert_matches_dense_oracle(S, k):
    """Lanczos moves the embedding at rounding level only: it spans the dense
    eigensolver's subspace and gives k-means the same labels. Returns it."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        E = spectral_embed(S, k)
    D = dense_spectral_embed(as_graph(S).dense(), k)
    assert subspace_angles(E, D).max() <= 1e-10
    assert np.array_equal(kmeans(E, k, seed=0).labels, kmeans(D, k, seed=0).labels)
    return E


def test_spectral_embed_matches_dense_oracle():
    S = _seeded_graph()
    E = _assert_matches_dense_oracle(S, 3)
    # the fixed start vector makes the Lanczos result deterministic
    assert np.array_equal(spectral_embed(S, 3), E)


@pytest.mark.parametrize("n, k", [(3, 2), (12, 11), (12, 12)])
def test_spectral_embed_structural_edges(n, k):
    # n = 3, k = 2 is the smallest case ARPACK runs, k = n - 1 its largest;
    # k == n has no embedding, and its partition is the n singletons
    S = _seeded_graph(n)
    if k < n:
        _assert_matches_dense_oracle(S, k)
        return
    # Q's row sums are about 1.1, so no entry is cut and S keeps its structure
    G = 0.5 + np.random.default_rng(0).random((3, n))
    G *= np.sqrt(1.1 / (G.T @ G.sum(axis=1)).mean())
    structured = graph_from_tops(G)
    assert not isinstance(structured.C, np.ndarray)
    for graph in (S, structured):
        with pytest.raises(ValueError, match="k < n"):
            spectral_embed(graph, k)
        part = cluster_graph(graph, k)
        assert part.k == n and np.array_equal(part.labels, np.arange(n))


@pytest.mark.parametrize("sizes", [[100, 100, 100], [80, 120, 100, 60]])
def test_spectral_embed_resolves_repeated_top_eigenvalue(sizes):
    # k cliques give N the eigenvalue 1 k times; equal sizes make the graph
    # regular, so the vector of ones is an exact eigenvector of N
    S = block_graph(sizes)
    k = len(sizes)
    truth = np.repeat(np.arange(k), sizes)
    E = spectral_embed(S, k)
    assert subspace_angles(E, np.eye(k)[truth]).max() <= 1e-10
    part = kmeans(E, k, seed=0)
    assert len(set(zip(part.labels, truth))) == k


def test_spectral_embed_holds_one_nxn_array():
    # Lanczos reads N through products with S, so no W or N is formed: about
    # 0.03 arrays of n x n floats (1.05 with N in W's buffer; separate W, N
    # and a Fortran copy for LAPACK held 3.0)
    S = _seeded_graph()
    assert traced_peak(spectral_embed, S, 3) / S.nbytes <= 1.3


def test_cluster_graph_holds_no_second_nxn_array():
    S = _seeded_graph()
    assert traced_peak(cluster_graph, S, 3) / S.nbytes <= 0.1


@pytest.mark.parametrize("graph", ["blocked projection", "unnormalized"])
def test_spectral_operator_matches_dense_n(graph):
    # the operator takes the degrees from S's row and column sums; the oracle
    # forms W and N. Column sums differ from row sums in both graphs, and the
    # second is not row-stochastic
    n = 2 * BLOCK_ROWS + 3
    rng = np.random.default_rng(3)
    if graph == "blocked projection":
        S = graph_from_tops(rng.random((4, n)) ** 4)
    else:
        S = rng.random((n, n)) ** 3
        np.fill_diagonal(S, 0.0)
    _assert_matches_dense_oracle(S, 4)
