"""Shared builders for the test suite: random-but-valid model states,
planted datasets, small independent numerical oracles, a tracemalloc peak
probe and a fresh-interpreter runner. scipy is a test dependency only: its
routines here are the oracles for the package's numpy ones."""

import functools
import os
import subprocess
import sys
import tracemalloc
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest
from scipy import sparse
from scipy.linalg import eigh, lapack
from scipy.sparse.csgraph import min_weight_full_bipartite_matching
from scipy.sparse.linalg import LinearOperator, eigsh

import mvclust
from mvclust import (
    FactorStack,
    FitConfig,
    LayerSpec,
    ModelState,
    MultiViewDataset,
    validate_dataset,
)
from mvclust.consensus import (
    BLOCK_ROWS,
    as_graph,
    _project_graph_block,
    _project_rows_in_place,
    stacked_tops,
    update_consensus_graph,
    update_view_weights,
)
from mvclust.errors import MissingFileError, ParseError, RankDeficientError, RankDeficientWarning
from mvclust.finetune import sweep_view, update_top
from mvclust.fitting import objective_terms
from mvclust.pretrain import initialize_state
from mvclust.seminmf import (
    RCOND,
    SemiNmfResult,
    mp_pinv,
    multiplicative_step,
    multiplicative_terms,
)


def random_state(
    dims=(8, 6),
    layer_sizes=(4, 2),
    n=12,
    beta=0.5,
    seed=0,
    alpha=None,
) -> ModelState:
    """A fully valid ModelState with random factors (H >= 0, Z mixed sign)."""
    rng = np.random.default_rng(seed)
    views = []
    stacks = []
    for d in dims:
        X = rng.standard_normal((d, n))
        views.append(X)
        mappings = []
        rows = d
        for l in layer_sizes:
            mappings.append(rng.standard_normal((rows, l)))
            top = rng.random((l, n))  # drawn at every layer, so each seed's RNG stream is fixed
            rows = l
        stacks.append(FactorStack(mappings=mappings, top=top))
    V = len(dims)
    if alpha is None:
        a = rng.random(V)
        alpha = a / a.sum()
    else:
        alpha = np.asarray(alpha, dtype=float)
    S = project_graph(rng.random((n, n)))
    state = ModelState(views=views, stacks=stacks, S=S, alpha=alpha, beta=beta)
    return state.validate()


def blockwise_graph_term(state) -> float:
    """||Q - S||_F^2 summed over blocks of 128 rows, each read directly
    (test oracle for the graph term from the graph's structure).

    With S = G_S^T G_S - theta 1^T - diag(q_S - theta) + C, a block of
    Q - S is one product of the stacked [G; G_S; theta^T] and
    [G; -G_S; 1^T], with the diagonal Q_ii, less C's rows.
    """
    S = state.S
    G = stacked_tops(state.alpha, state.stacks)
    q = np.einsum("ij,ij->j", G, G)
    n = S.shape[0]
    graph = 0.0
    left, right = np.vstack([G, S.G, S.theta]), np.vstack([G, -S.G, np.ones(n)])
    for i in range(0, n, BLOCK_ROWS):
        j = min(i + BLOCK_ROWS, n)
        R = left[:, i:j].T @ right
        # S's low-rank part has a zero diagonal
        R[np.arange(j - i), np.arange(i, j)] = q[i:j]
        R -= S.C[i:j] if isinstance(S.C, np.ndarray) else scipy_csr(S)[i:j].toarray()
        graph += float(np.vdot(R, R))
    return graph


def project_graph(Q):
    """Nearest feasible graph to Q: row-wise projection with the diagonal
    coordinate excluded and pinned to zero (dense oracle for the graph step,
    by the kernel that projects a graph held as an array).

    Every row of the result sums to 1 exactly (to float precision), is
    nonnegative, and has a zero diagonal entry. Q is projected in place and
    returned (other dtypes are converted first), so pass a copy to keep Q.
    """
    Q = np.asarray(Q, dtype=np.float64)
    if Q.shape[0] < 2:
        raise ValueError("graph projection needs at least 2 samples")
    if not np.isfinite(Q).all():
        raise ValueError("graph projection needs a finite Q")
    _project_graph_block(Q, np.arange(Q.shape[0]))
    return Q


def project_rows_to_simplex(V):
    """Euclidean projection of every row of V onto {x >= 0, sum(x) = 1}, by
    the graph step's kernel on a copy of V (V itself is left unchanged)."""
    V = np.array(V, dtype=np.float64)
    _project_rows_in_place(V)
    return V


def graph_from_tops(G):
    """`update_consensus_graph` of raw stacked tops G: one view of weight 1,
    whose stacked top sqrt(1) G is G bit for bit."""
    return update_consensus_graph(np.ones(1), [FactorStack(mappings=[], top=G)])


def objective(state):
    """sum_v ||X_v - Z_1..Z_m H_m||_F^2 + beta ||S - sum_v alpha_v H_v^T H_v||_F^2,
    by `objective_terms` from the state's chains."""
    recon, graph = objective_terms(state)
    return recon + state.beta * graph


def residual_objective_terms(state):
    """(reconstruction, graph) terms with each view's residual Phi H - X
    formed as a d x n array (test oracle for the reconstruction term's
    expansion in `objective_terms`)."""
    recon = 0.0
    for X, stack in zip(state.views, state.stacks):
        R = functools.reduce(np.matmul, stack.mappings) @ stack.top
        R -= X
        recon += float(np.linalg.norm(R) ** 2)
    return recon, state.S.residual_sq(state.alpha, state.stacks)


def direct_fit(ds, cfg):
    """`fit`'s loop run on the views as given, every view in feature space,
    for cfg.max_outer_iters iterations, with the objective taken from the
    sweeps' products as `fit` takes it (test oracle for fitting tall views
    in their row space). Returns (state, objective history)."""
    state = initialize_state(ds, cfg)
    history = [objective(state)]
    for _ in range(cfg.max_outer_iters):
        products = [sweep_view(state, v) for v in range(state.num_views)]
        state.S = update_consensus_graph(state.alpha, state.stacks)
        state.alpha = update_view_weights(state)
        recon, graph = objective_terms(state, products)
        history.append(recon + state.beta * graph)
    return state, np.asarray(history)


class MatmulCounter(np.ndarray):
    """A view of an array that counts the np.matmul calls reading it in
    `matmuls`."""

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        if ufunc is np.matmul:
            self.matmuls += 1
        inputs = tuple(np.asarray(x) if isinstance(x, MatmulCounter) else x for x in inputs)
        return getattr(ufunc, method)(*inputs, **kwargs)


def counted_views(views):
    """Each view as a `MatmulCounter` with its count at 0."""
    counted = []
    for X in views:
        X = X.view(MatmulCounter)
        X.matmuls = 0
        counted.append(X)
    return counted


def planted_two_blocks(d=6, n=12, noise=0.0, seed=0):
    """Block-structured matrix whose columns split into two clear groups."""
    rng = np.random.default_rng(seed)
    X = np.zeros((d, n))
    half_d, half_n = d // 2, n // 2
    X[:half_d, :half_n] = 1.0 + 0.2 * rng.random((half_d, half_n))
    X[half_d:, half_n:] = 1.0 + 0.2 * rng.random((d - half_d, n - half_n))
    if noise:
        X += noise * rng.standard_normal((d, n))
    labels = np.array([0] * half_n + [1] * (n - half_n))
    return X, labels


def hierarchical_dataset(
    n=180,
    n_views=2,
    dims=(16, 20),
    super_sep=24.0,
    sub_sep=5.0,
    sigma=1.0,
    seed=0,
) -> MultiViewDataset:
    """3 super-clusters, each split into 2 sub-clusters; labels are the supers."""
    rng_master = np.random.default_rng(seed)
    n_super, n_sub = 3, 2
    groups = n_super * n_sub
    labels_fine = np.arange(n) % groups
    rng_master.shuffle(labels_fine)
    labels = labels_fine // n_sub
    views = []
    for d in dims:
        rng = np.random.default_rng(rng_master.integers(2**63))
        supers = rng.standard_normal((n_super, d))
        supers *= super_sep / np.linalg.norm(supers, axis=1, keepdims=True)
        centers = np.repeat(supers, n_sub, axis=0)
        centers += sub_sep * rng.standard_normal(centers.shape) / np.sqrt(d)
        X = centers[labels_fine].T + sigma * rng.standard_normal((d, n))
        views.append(X)
    return validate_dataset(MultiViewDataset(views=views, labels=labels))


def jacobi_eigh(A, sweeps=100, tol=1e-14):
    """Cyclic Jacobi eigensolver for small symmetric matrices (test oracle)."""
    A = np.array(A, dtype=float)
    n = A.shape[0]
    V = np.eye(n)
    for _ in range(sweeps):
        off = np.sqrt((A**2).sum() - (np.diag(A) ** 2).sum())
        if off < tol:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                if abs(A[p, q]) < 1e-300:
                    continue
                theta = 0.5 * np.arctan2(2 * A[p, q], A[q, q] - A[p, p])
                c, s = np.cos(theta), np.sin(theta)
                J = np.eye(n)
                J[p, p] = J[q, q] = c
                J[p, q] = s
                J[q, p] = -s
                A = J.T @ A @ J
                V = V @ J
    w = np.diag(A).copy()
    order = np.argsort(w)
    return w[order], V[:, order]


def brute_force_row_projection(q, zero_index):
    """Exhaustive active-set solve of min ||s - q||^2, s >= 0, sum s = 1,
    s[zero_index] = 0 (test oracle for the graph row projection)."""
    import itertools

    n = len(q)
    free = [i for i in range(n) if i != zero_index]
    best, best_d = None, np.inf
    for r in range(1, len(free) + 1):
        for support in itertools.combinations(free, r):
            shift = (1.0 - sum(q[list(support)])) / r
            cand = {i: q[i] + shift for i in support}
            if any(val < -1e-12 for val in cand.values()):
                continue
            s = np.zeros(n)
            for i, val in cand.items():
                s[i] = max(val, 0.0)
            # the pinned coordinate contributes a constant, so compare over
            # the free coordinates only
            d = sum((s[i] - q[i]) ** 2 for i in free)
            if d < best_d - 1e-15:
                best, best_d = s, d
    return best


def sort_projection(V):
    """Row-wise simplex projection by a full sort (Duchi et al., ICML 2008),
    after the same shift to a row maximum of 0 (test oracle for Michelot)."""
    V = np.asarray(V, dtype=np.float64)
    V = V - V.max(axis=1, keepdims=True)
    p = V.shape[1]
    u = np.sort(V, axis=1)[:, ::-1]
    css = np.cumsum(u, axis=1)
    j = np.arange(1, p + 1)
    # the index set where u_j > (css_j - 1)/j is a prefix; its length is rho
    rho = np.count_nonzero(u * j > css - 1.0, axis=1)
    theta = (css[np.arange(V.shape[0]), rho - 1] - 1.0) / rho
    return np.maximum(V - theta[:, None], 0.0)


def svd_pinv(A, expected_rank=None):
    """Pseudo-inverse from a full thin SVD of A, with `mp_pinv`'s rank cut,
    warning and errors (test oracle for the QR route)."""
    A = np.asarray(A, dtype=np.float64)
    if not np.isfinite(A).all():
        raise RankDeficientError("non-finite matrix")
    U, s, Vt = np.linalg.svd(A, full_matrices=False)
    if s.size == 0 or s[0] <= 0:
        raise RankDeficientError("zero matrix has no pseudo-inverse direction")
    keep = s > RCOND * s[0]
    if keep.sum() < min(expected_rank if expected_rank is not None else s.size, s.size):
        warnings.warn("rank-deficient factor; singular values truncated", RankDeficientWarning)
    s_inv = np.where(keep, 1.0 / np.where(keep, s, 1.0), 0.0)
    return (Vt.T * s_inv) @ U.T


def scipy_csr(graph):
    """A graph's entry-form C as scipy's csr_array over the same three arrays
    (the oracle for C's products, diagonal and row sums)."""
    indptr, indices, data = graph.C
    return sparse.csr_array((data, indices, indptr), shape=graph.shape)


def dtpqrt_row_space_factor(X):
    """R of X = QR by LAPACK's dtpqrt, folding X into R n rows at a time
    ([R; B] = Q' R', from R = 0), with an inner block of 16 columns (test
    oracle for `row_space_factor`)."""
    d, n = X.shape
    R = np.zeros((n, n), order="F")
    for i in range(0, d, n):
        block = np.array(X[i : i + n], order="F")
        R, _, _, _ = lapack.dtpqrt(0, min(16, n), R, block, overwrite_a=True, overwrite_b=True)
    return R


def eigsh_spectral_embed(S, k):
    """The spectral embedding with N's top k eigenvectors from ARPACK's
    implicitly restarted Lanczos (`eigsh`, from the vector
    `default_rng(0).standard_normal(n)`), N read through the graph's
    product (oracle for the block Krylov solver)."""
    S = as_graph(S)
    n = S.shape[0]
    d_isqrt = 1.0 / np.sqrt(0.5 * S.symmetric_matmat(np.ones(n)))

    def matvec(x):
        z = S.symmetric_matmat(d_isqrt * x.ravel())
        z *= 0.5 * d_isqrt
        return z

    N = LinearOperator((n, n), matvec=matvec, dtype=np.float64)
    _, U = eigsh(N, k, which="LA", v0=np.random.default_rng(0).standard_normal(n))
    E = U[:, ::-1]
    norms = np.linalg.norm(E, axis=1)
    nz = norms > 0
    E[nz] /= norms[nz, None]
    return E


def csgraph_assignment(cost):
    """Permutation p minimizing sum_i cost[i, p[i]] by scipy's sparse matcher
    (LAPJVsp) on the cost shifted to a minimum of 1, so that every edge is
    stored (oracle for `hungarian`)."""
    cost = np.asarray(cost, dtype=np.float64)
    if cost.size == 0:
        return np.zeros(0, dtype=np.int64)
    rows, cols = min_weight_full_bipartite_matching(sparse.csr_array(cost - cost.min() + 1.0))
    return cols[np.argsort(rows)].astype(np.int64)


def dense_spectral_embed(S, k):
    """The spectral embedding with W and N formed as separate n x n arrays,
    by LAPACK's dense eigh (oracle for `spectral_embed` on a graph without
    isolated samples)."""
    n = S.shape[0]
    W = (S + S.T) * 0.5
    d_isqrt = 1.0 / np.sqrt(W.sum(axis=1))
    _, U = eigh(d_isqrt[:, None] * W * d_isqrt[None, :], subset_by_index=[n - k, n - 1])
    E = U[:, ::-1]
    norms = np.linalg.norm(E, axis=1)
    nz = norms > 0
    E[nz] /= norms[nz, None]
    return E


def direct_read_matrix(path):
    """A delimited text matrix parsed token by token with Python's `float`,
    each line split by its own delimiter (test oracle for `read_matrix`)."""
    path = Path(path)
    if not path.exists():
        raise MissingFileError(str(path))
    rows = []
    width = None
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            tokens = line.split(",") if "," in line else line.split()
            if width is None:
                width = len(tokens)
            elif len(tokens) != width:
                raise ParseError(
                    path, lineno, reason=f"expected {width} columns, found {len(tokens)}"
                )
            for col, token in enumerate(tokens, start=1):
                try:
                    float(token)
                except ValueError:
                    raise ParseError(path, lineno, col, reason=f"not a number: {token!r}")
            rows.append([float(t) for t in tokens])
    if not rows:
        raise ParseError(path, reason="empty matrix file")
    return np.asarray(rows, dtype=np.float64)


def traced_peak(f, *args):
    """Peak bytes that tracemalloc sees allocated during one call f(*args),
    its result included (numpy reports its array buffers to tracemalloc)."""
    tracemalloc.start()
    try:
        f(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def run_in_fresh_interpreter(args):
    """One `python *args` run in a new process that imports this checkout's
    package: no earlier import has patched, loaded or allocated anything."""
    src = str(Path(mvclust.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, timeout=120
    )


@dataclass
class ChainCache:
    """Products around layer i of one stack.

    phi : Z_1 ... Z_{i-1} (None for the first layer, meaning identity)
    Phi : Z_1 ... Z_i
    hhat : Z_{i+1} ... Z_m H_m (equals H_m at the top layer)
    """

    phi: np.ndarray | None
    Phi: np.ndarray | None
    hhat: np.ndarray | None

    @classmethod
    def compute(cls, stack, i: int) -> "ChainCache":
        phi = None
        for Z in stack.mappings[:i]:
            phi = Z if phi is None else phi @ Z
        Phi = stack.mappings[i] if phi is None else phi @ stack.mappings[i]
        hhat = stack.top
        for Z in reversed(stack.mappings[i + 1:]):
            hhat = Z @ hhat
        return cls(phi=phi, Phi=Phi, hhat=hhat)


def update_basis(X, H):
    """Least-squares basis: Z = X H^T (H H^T)^{-1}, minimizing ||X - Z H||_F
    (the basis update of the direct semi-NMF sweep)."""
    return X @ mp_pinv(H, warn_context="update_basis")


def direct_fit_seminmf(X, l, iters, seed):
    """`fit_seminmf` with Z, Z^T X and Z^T Z formed directly in every sweep,
    whatever the layer's shape (test oracle for the kernel form of wide layers)."""
    n = X.shape[1]
    scale = np.linalg.norm(X) / (l * n)
    H = (1.0 - np.random.default_rng(seed).random((l, n))) * scale
    for _ in range(iters):
        Z = update_basis(X, H)
        H = multiplicative_step(H, *multiplicative_terms(Z.T @ X, Z.T @ Z, H))
    return SemiNmfResult(Z=Z, H=H, iters=iters)


def update_representation(X, Z, H):
    """Ding, Li & Jordan's semi-NMF multiplicative step of H for ||X - Z H||_F^2,
    with both products formed from Z."""
    return multiplicative_step(H, *multiplicative_terms(Z.T @ X, Z.T @ Z, H))


def update_mapping(X, psi, hhat, psi_rank, hhat_rank):
    """Exact minimizer Z of ||X - psi Z hhat||_F; psi None means identity.
    Returns (Z, hhat^+).

    Z = psi^+ X hhat^+, with both pseudo-inverses taken by `mp_pinv` of the
    n x l and d x l factors themselves, right factor first (test oracle for
    the sweep's row-space coordinates). A RankDeficientWarning is recorded
    when a factor's rank drops below its expected rank.
    """
    right = mp_pinv(hhat, warn_context="update_mapping", expected_rank=hhat_rank)
    if psi is None:
        return X @ right, right
    left = mp_pinv(psi, warn_context="update_mapping", expected_rank=psi_rank)
    return (left @ X) @ right, right


def mapping_factors(state, v, i):
    """`update_mapping`'s arguments (X, psi, hhat, psi_rank, hhat_rank) for
    layer i of view v, with the chain products rebuilt by `ChainCache` from
    the current factors and the expected ranks the sweep passes."""
    stack = state.stacks[v]
    cache = ChainCache.compute(stack, i)
    X = state.views[v]
    widths = [Z.shape[1] for Z in stack.mappings]
    hhat_rank = min(min(widths[i:]), cache.hhat.shape[1])
    phi_rank = min(*X.shape, min(widths))
    return X, cache.phi, cache.hhat, phi_rank, hhat_rank


def top_products(state, v):
    """(Phi^T X, Phi^T Phi) for view v's current chain Phi, `update_top`'s inputs."""
    Phi = ChainCache.compute(state.stacks[v], state.stacks[v].depth - 1).Phi
    return Phi.T @ state.views[v], Phi.T @ Phi


def recompute_sweep_view(state, v):
    """The sweep in feature coordinates: every chain product rebuilt by
    `ChainCache` for each update, each Z_i by `update_mapping`, and Phi's
    products formed again for each top step (test oracle for the row-space
    `sweep_view`). For a view with d >= n it records the first layer's
    hhat^+ in `right_factor`."""
    stack = state.stacks[v]
    m = stack.depth
    for i in range(m):
        stack.mappings[i], right = update_mapping(*mapping_factors(state, v, i))
        if i == 0 and state.views[v].shape[0] >= state.views[v].shape[1]:
            stack.right_factor = right
    Phi = ChainCache.compute(stack, m - 1).Phi
    stack.top = update_representation(state.views[v], Phi, stack.top)
    stack.top = update_top(state, v, *top_products(state, v))


def top_kkt_residual(state, v):
    """Complementary-slackness residual of the top-layer subproblem at view v
    (test oracle for `update_top`).

    max |[g]- * H^2| for g the half-gradient of ||X - Phi H||_F^2 +
    beta ||S - alpha_v H^T H - G||_F^2, G the other views' dense Gram mix;
    zero at a KKT point of the nonnegativity-constrained problem.
    """
    stack = state.stacks[v]
    Phi = ChainCache.compute(stack, stack.depth - 1).Phi
    X = state.views[v]
    H = stack.top
    a_v = float(state.alpha[v])
    beta = state.beta
    G = sum(
        (a * st.top.T @ st.top for o, (a, st) in enumerate(zip(state.alpha, state.stacks)) if o != v),
        np.zeros((H.shape[1], H.shape[1])),
    )
    g = (
        -(Phi.T @ X)
        + (Phi.T @ Phi) @ H
        - a_v * beta * (H @ state.S.dense() + H @ state.S.dense().T)
        + 2.0 * a_v * beta * H @ G
        + 2.0 * (a_v**2) * beta * ((H @ H.T) @ H)
    )
    return float(np.abs(np.minimum(g, 0.0) * H * H).max())


def simple_config(layers, beta=0.5, **kw) -> FitConfig:
    defaults = dict(max_outer_iters=30, pretrain_iters=50, rng_seed=0)
    defaults.update(kw)
    return FitConfig(beta=beta, layers=LayerSpec(layers), **defaults)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
