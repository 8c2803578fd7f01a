"""Consensus graph construction and refinement.

The consensus graph S approximates the alpha-weighted mix Q of per-view
Gram similarities H_m^T H_m, the Gram of the stacked tops [sqrt(alpha_v) H_v].
Its update is an exact row-wise Euclidean projection of Q onto
{s >= 0, s.1 = 1, s_i = 0}. Q is formed and projected BLOCK_ROWS rows at a
time, straight into S's buffer, so S is the only n x n array the step holds.
The view weights alpha solve a V-dimensional simplex-constrained quadratic
program exactly, by trying every support. That costs 2^V small solves, so
the view count is capped.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

Array = np.ndarray

# Most views the exact weight solver takes: 2^10 - 1 supports per solve.
MAX_VIEWS = 10

# Rows of Q formed at a time: one block is 128 x n floats beside S, small
# next to it and large enough for a full-speed matrix product.
BLOCK_ROWS = 128


def gram_similarity(H: Array) -> Array:
    """Sample-by-sample inner-product similarity H^T H (symmetric PSD)."""
    # on one contiguous buffer numpy uses syrk, which mirrors a triangle exactly
    H = np.ascontiguousarray(H)
    return H.T @ H


def stacked_tops(alpha: Array, stacks) -> Array:
    """The stacked tops G = [sqrt(alpha_v) H_v] (Vk x n, alpha >= 0): G^T G = sum_v alpha_v H_v^T H_v."""
    return np.vstack([np.sqrt(a) * st.top for a, st in zip(alpha, stacks)])


def gram_row_blocks(G: Array, out: Array | None = None):
    """Yield (i, Q[i:j]) over Q = G^T G, BLOCK_ROWS rows at a time; each block
    is written into out[i:j] when out (n x n) is given."""
    n = G.shape[1]
    for i in range(0, n, BLOCK_ROWS):
        rows = slice(i, min(i + BLOCK_ROWS, n))
        yield i, np.matmul(G[:, rows].T, G, out=None if out is None else out[rows])


# no caller in the package; bench/worker.py wraps fitting.compute_Q by this name
def compute_Q(state) -> Array:
    """Q = sum_v alpha_v H_v^T H_v, the Gram of the stacked tops."""
    return gram_similarity(stacked_tops(state.alpha, state.stacks))


def project_rows_to_simplex(V: Array) -> Array:
    """Euclidean projection of every row of V onto {x >= 0, sum(x) = 1}.

    Michelot's exact thresholding, vectorized over rows: entries at or below
    theta, the support's mean excess over 1, leave the support until no row
    changes, within p passes. -inf entries never enter it and project to 0.
    V itself is left unchanged.
    """
    return _project_rows_in_place(np.array(V, dtype=np.float64))


def _project_rows_in_place(V: Array) -> Array:
    """project_rows_to_simplex on a float64 array it may overwrite; returns V."""
    # shift-invariant; a row maximum of 0 keeps huge sums from absorbing the 1
    V -= V.max(axis=1, keepdims=True)
    support = np.isfinite(V)
    count = np.count_nonzero(support, axis=1)
    while True:
        # the row maximum 0 exceeds theta <= -1/count, so no support empties
        theta = (V.sum(axis=1, where=support) - 1.0) / count
        support &= V > theta[:, None]
        shrunk = np.count_nonzero(support, axis=1)
        if np.array_equal(shrunk, count):
            break
        count = shrunk
    V -= theta[:, None]
    np.maximum(V, 0.0, out=V)
    return V


# no caller in the package; bench/worker.py patches it by this name to count calls
def project_to_simplex(v: Array) -> Array:
    """Euclidean projection of one vector onto the probability simplex."""
    return project_rows_to_simplex(v[None, :])[0]


def _project_graph_block(B: Array, first_row: int) -> Array:
    """Project rows first_row.. of a graph, held in B, in place: row r's
    diagonal coordinate first_row + r is excluded and pinned to zero."""
    if not np.isfinite(B).all():
        raise ValueError("graph projection needs a finite Q")
    r = np.arange(B.shape[0])
    # a -inf entry never enters the support, and projects to 0.0
    B[r, first_row + r] = -np.inf
    return _project_rows_in_place(B)


def update_consensus_graph(Q: Array) -> Array:
    """Nearest feasible graph to Q: row-wise projection with the diagonal
    coordinate excluded and pinned to zero.

    Every row of the result sums to 1 exactly (to float precision), is
    nonnegative, and has a zero diagonal entry. Q is projected in place and
    returned (other dtypes are converted first), so pass a copy to keep Q.
    This is `consensus_graph`'s projection with all of Q as one block.
    """
    Q = np.asarray(Q, dtype=np.float64)
    if Q.shape[0] < 2:
        raise ValueError("graph projection needs at least 2 samples")
    return _project_graph_block(Q, 0)


def consensus_graph(G: Array, out: Array | None = None) -> Array:
    """update_consensus_graph(G^T G) for the stacked tops G (Vk x n), without
    forming G^T G whole.

    Q = G^T G is formed BLOCK_ROWS rows at a time in out's rows and each
    block is projected where it lies; the projection is row-separable, so
    this is exact. out (n x n float64) is overwritten and never read, so the
    current S may be passed; a fresh array is used when it is None. A non-finite G raises before out is written; a Q entry that
    overflows raises with out's earlier blocks already replaced.
    """
    n = G.shape[1]
    if n < 2:
        raise ValueError("graph projection needs at least 2 samples")
    if not np.isfinite(G).all():
        raise ValueError("graph projection needs finite tops")
    if out is None:
        out = np.empty((n, n))
    for i, block in gram_row_blocks(G, out):
        _project_graph_block(block, i)
    return out


@dataclass
class WeightQp:
    """Quadratic program data for the view weights.

    A[p, q] = Tr(H_p^T H_p H_q^T H_q) = ||H_p H_q^T||_F^2 and f[v] = Tr(S^T H_v^T H_v)
    = <H_v S, H_v>, both formed from the k x n tops without an n x n Gram. A is
    PSD, and the weights minimize 0.5 a^T A a - f^T a over the simplex.
    """

    A: Array
    f: Array

    @classmethod
    def from_state(cls, state) -> "WeightQp":
        tops = [st.top for st in state.stacks]
        V = len(tops)
        A = np.empty((V, V))
        for p in range(V):
            for q in range(p, V):
                A[p, q] = A[q, p] = float(np.square(tops[p] @ tops[q].T).sum())
        f = np.array([float(np.vdot(H @ state.S, H)) for H in tops])
        return cls(A=A, f=f)

    def objective(self, alpha: Array) -> float:
        return float(0.5 * alpha @ self.A @ alpha - self.f @ alpha)


def solve_simplex_qp(A: Array, f: Array) -> Array:
    """Exact minimizer of 0.5 a^T A a - f^T a over the probability simplex.

    A must be symmetric PSD, so the problem is convex and some minimizer is
    the unique KKT point of its own support s: A_ss a_s - f_s = mu 1 and
    1^T a_s = 1. Every support is tried, largest first, by solving that
    bordered system with lstsq (which takes singular A_ss, e.g. identical
    views); the nonnegative solution with the lowest objective is kept and
    replaced only on a strict improvement, so ties keep the widest support.
    """
    A = np.asarray(A, dtype=np.float64)
    f = np.asarray(f, dtype=np.float64)
    V = f.shape[0]
    # the minimizer is scale-free; unit scale keeps lstsq's rank cut relative to A and f
    scale = max(np.abs(A).max(), np.abs(f).max()) or 1.0
    qp = WeightQp(A=A / scale, f=f / scale)
    best, best_obj = None, np.inf
    for r in range(V, 0, -1):
        for s in map(list, itertools.combinations(range(V), r)):
            K = np.ones((r + 1, r + 1))
            K[:r, :r] = qp.A[np.ix_(s, s)]
            K[r, r] = 0.0
            a_s = np.linalg.lstsq(K, np.append(qp.f[s], 1.0), rcond=None)[0][:r]
            if a_s.min() < 0:
                continue
            alpha = np.zeros(V)
            alpha[s] = a_s
            obj = qp.objective(alpha)
            if obj < best_obj:
                best, best_obj = alpha, obj
    return best


def update_view_weights(state) -> Array:
    """Optimal simplex weights for the current S and the views' tops H_m."""
    qp = WeightQp.from_state(state)
    return solve_simplex_qp(qp.A, qp.f)
