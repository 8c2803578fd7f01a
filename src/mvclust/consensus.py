"""Consensus graph construction and refinement.

The consensus graph S approximates the alpha-weighted mix Q of per-view
Gram similarities H_m^T H_m, the Gram of the stacked tops G = [sqrt(alpha_v) H_v].
Its update is an exact row-wise Euclidean projection of Q onto
{s >= 0, s.1 = 1, s_i = 0}: row i keeps max(Q_ij - theta_i, 0) off its
diagonal, for its simplex threshold theta_i. So S is stored as a
`ConsensusGraph`, S = G^T G - theta 1^T - diag(q - theta) + C with q the
diagonal of Q and C a sparse correction at the entries the projection cut
to zero, held as those entries in compressed sparse row arrays, and no
n x n array is formed: Q is scanned once, BLOCK_ROWS rows at a time, for
the cut entries and the graph's smallest entry, and every consumer reads
the structure. A graph
that the structure would not hold cheaply or exactly is held as its n x n
array (see `update_consensus_graph`). The view weights alpha solve a
V-dimensional simplex-constrained quadratic program exactly, by trying
every support. That costs 2^V small solves, so the view count is capped.
"""

from __future__ import annotations

import itertools

import numpy as np

from .errors import DimensionMismatchError, MvclustError

Array = np.ndarray

# Most views the exact weight solver takes: 2^10 - 1 supports per solve.
MAX_VIEWS = 10

# Rows of Q formed at a time: one block is 32 x n floats, small next to
# n x n and, at n = 3000 (768 KB), small enough to stay in a core's L2
# cache while it is reduced.
BLOCK_ROWS = 32

# A threshold from Q's row sums is off by about eps * Vk * sum_j Q_ij (the
# tops are nonnegative, so Q is), while the graph's rows sum to 1: a graph
# with a row of Q summing to more than this is held as its n x n array,
# projected relative to each row's maximum. The views' gauge keeps Q's mean
# row sum near 1 in a fit.
ROW_SUM_LIMIT = 64.0

# Most entries, as a share of the rows scanned, that the correction C holds:
# 12 bytes each (an int32 column and a float64 value), so at most 0.09 of an
# n x n float array. A graph that needs more is held as its n x n array.
CUT_SHARE = 1.0 / 16.0

# Most a valid graph's row sum may deviate from 1.
ROW_SUM_TOL = 1e-9


def gram_similarity(H: Array) -> Array:
    """Sample-by-sample inner-product similarity H^T H (symmetric PSD)."""
    # on one contiguous buffer numpy uses syrk, which mirrors a triangle exactly
    H = np.ascontiguousarray(H)
    return H.T @ H


def stacked_tops(alpha: Array, stacks) -> Array:
    """The stacked tops G = [sqrt(alpha_v) H_v] (Vk x n, alpha >= 0): G^T G = sum_v alpha_v H_v^T H_v."""
    return np.vstack([np.sqrt(a) * st.top for a, st in zip(alpha, stacks)])


def gram_row_blocks(G: Array, out: Array | None = None):
    """Yield (i, (G^T G)[i:j]) BLOCK_ROWS rows at a time.

    Each block is written into out[i:j] when out (n x n) is given, and
    otherwise into one buffer, which the next block overwrites: use each
    block before asking for the next.
    """
    n = G.shape[1]
    buf = np.empty((min(BLOCK_ROWS, n), n)) if out is None else None
    for i in range(0, n, BLOCK_ROWS):
        j = min(i + BLOCK_ROWS, n)
        dest = buf[: j - i] if out is None else out[i:j]
        yield i, np.matmul(G[:, i:j].T, G, out=dest)


def _block_min(i: int, B: Array, rowmin: Array, theta: Array, entries) -> float:
    """The smallest entry of rows i..i+m-1 of S = Q - theta 1^T - diag(q -
    theta) + C, and 0, for S_ii = C_ii. B is Q's block with its diagonal at
    +inf, rowmin B's row minima, theta all of S's thresholds, and entries
    (row - i, col, value) C's entries in the block. Off C's entries S_ij is
    fl(Q_ij - theta_i), which is below 0 exactly when Q_ij < theta_i: a row
    without entries reads rowmin_i - theta_i, and a row with entries is
    reduced again with them masked, while S is formed at the entries
    themselves. Masks B's entries; a NaN anywhere comes out as NaN."""
    rows, cols, vals = entries
    low = rowmin - theta[i : i + B.shape[0]]
    if not rows.size:
        return low.min(initial=0.0)
    at = B[rows, cols] - theta[i + rows]
    at[cols == i + rows] = 0.0
    at += vals
    B[rows, cols] = np.inf
    held = np.unique(rows)
    low[held] = B[held].min(axis=1) - theta[i + held]
    return np.minimum(low.min(initial=0.0), at.min())


class ConsensusGraph:
    """The consensus graph S = G^T G - theta 1^T - diag(q - theta) + C, held
    without an n x n array.

    G (r x n) holds the stacked tops S was projected from and q_i = ||g_i||^2;
    theta_i is row i's simplex threshold; C holds theta_i - Q_ij at each
    entry the projection cut to zero. The constructor takes C in one of two
    forms: an n x n array, or the entries (rows, cols, vals), one per
    position, which it holds in compressed sparse row form as the tuple
    (indptr, indices, data): row i's entries are data[indptr[i]:indptr[i +
    1]] at the int32 columns indices[...] in ascending order, 12 bytes an
    entry. The low-rank part's diagonal is zero by definition, so S_ii =
    C_ii. Any matrix is the case with G empty, theta 0 and C = S, and
    `from_dense` holds an array S as that C itself, so this is the one form
    of S. Its one product, (S + S^T) X, costs O(n r m + nnz C) for m
    right-hand sides, and `row_blocks` yields S BLOCK_ROWS rows at a time.
    G, theta, `alpha` and C's entries become the graph's own and read-only:
    a new graph replaces an old one. `alpha` is None, or the weights G
    stacks the tops with, recorded by `update_consensus_graph`, so that the
    graph can tell whether it was projected from a state's tops
    (`projected_from`). This module alone reads these parts: every other
    reads S through (S + S^T) X, its checks and its graph term.
    """

    def __init__(self, G: Array, theta: Array, C, alpha: Array | None = None):
        self.G = np.asarray(G, dtype=np.float64)
        self.theta = np.asarray(theta, dtype=np.float64)
        n = self.G.shape[1]
        if isinstance(C, np.ndarray):
            self.C = np.asarray(C, dtype=np.float64)
            self.shape = self.C.shape
        else:
            rows, cols, vals = C
            rows, cols = (np.asarray(a, dtype=np.intp).ravel() for a in (rows, cols))
            vals = np.asarray(vals, dtype=np.float64).ravel()
            if not rows.shape == cols.shape == vals.shape:
                raise ValueError(f"{rows.size} rows, {cols.size} columns and {vals.size} values")
            if rows.size and not (0 <= min(rows.min(), cols.min()) <= max(rows.max(), cols.max()) < n):
                raise ValueError(f"an entry of C lies outside {n} x {n}")
            order = np.lexsort((cols, rows))
            rows, cols, vals = rows[order], cols[order], vals[order]
            if ((np.diff(rows) == 0) & (np.diff(cols) == 0)).any():
                raise ValueError("C has two entries at one position")
            indptr = np.zeros(n + 1, dtype=np.intp)
            np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
            self.C = (indptr, cols.astype(np.int32), vals)
            for a in self.C:
                a.flags.writeable = False
            self.shape = (n, n)
        if self.theta.shape != (self.shape[0],) or self.shape[1] != n:
            raise ValueError(f"G {self.G.shape}, theta {self.theta.shape} and C {self.shape} do not match")
        if self.shape[0] != self.shape[1]:
            raise DimensionMismatchError(f"a graph is square, got shape {self.shape}")
        self.q = np.einsum("ij,ij->j", self.G, self.G)
        self.alpha = None if alpha is None else np.array(alpha, dtype=np.float64)
        for a in (self.G, self.theta, self.q, self.alpha):
            if a is not None:
                a.flags.writeable = False
        self._lowest = None  # S's smallest entry, once `min` has scanned

    @classmethod
    def from_dense(cls, S) -> "ConsensusGraph":
        """The matrix S as the graph: G empty, theta 0 and C = S, not copied."""
        S = np.asarray(S, dtype=np.float64)
        if S.ndim != 2:
            raise ValueError(f"a graph is a 2-D matrix, got ndim={S.ndim}")
        return cls(np.empty((0, S.shape[1])), np.zeros(S.shape[0]), S)

    def symmetric_matmat(self, X: Array) -> Array:
        """(S + S^T) X = 2 G^T (G X) - theta (1^T X) - 1 (theta^T X) - 2 (q -
        theta) o X + C X + C^T X, for X with n rows (or n entries)."""
        X = np.asarray(X, dtype=np.float64)
        out = 2.0 * (self.G.T @ (self.G @ X))
        out += self._matmat(X)
        out += self._matmat(X, transpose=True)
        out -= np.multiply.outer(self.theta, X.sum(axis=0)) + self.theta @ X
        out -= 2.0 * ((self.q - self.theta) * X.T).T
        return out

    def _entries(self, i: int, m: int) -> tuple[Array, Array, Array]:
        """(row - i, col, value) of a sparse C's entries in rows i..i+m-1."""
        indptr, indices, data = self.C
        ptr = indptr[i : i + m + 1]
        rows = np.repeat(np.arange(m), np.diff(ptr))
        return rows, indices[ptr[0] : ptr[-1]], data[ptr[0] : ptr[-1]]

    def _matmat(self, X: Array, transpose: bool = False) -> Array:
        """C X, or C^T X, for X with n rows (or n entries). From the
        entries, each output row sums its terms from zero in entry order."""
        if isinstance(self.C, np.ndarray):
            return (self.C.T if transpose else self.C) @ X
        rows, cols, vals = self._entries(0, self.shape[0])
        if transpose:
            rows, cols = cols, rows
        out = np.zeros(X.shape)
        np.add.at(out, rows, (vals * X[cols].T).T)
        return out

    def _diagonal(self) -> Array:
        """C's diagonal, which is S's."""
        if isinstance(self.C, np.ndarray):
            return self.C.diagonal()
        rows, cols, vals = self._entries(0, self.shape[0])
        on = rows == cols
        out = np.zeros(self.shape[0])
        out[rows[on]] = vals[on]
        return out

    def row_blocks(self):
        """Yield (i, S[i:j]) BLOCK_ROWS rows at a time, in one reused buffer
        (see `gram_row_blocks`). A cut entry is Q_ij - theta_i plus its
        correction theta_i - Q_ij, from the same product: exactly 0."""
        for i, B in gram_row_blocks(self.G):
            m = B.shape[0]
            B -= self.theta[i : i + m, None]
            B[np.arange(m), i + np.arange(m)] = 0.0
            if isinstance(self.C, np.ndarray):
                B += self.C[i : i + m]
            else:
                rows, cols, vals = self._entries(i, m)
                B[rows, cols] += vals
            yield i, B

    def min(self) -> float:
        """The smallest entry of S, NaN if any entry is NaN. Scanned once per
        graph over `row_blocks` and kept (its parts are read-only); the graph
        step keeps the value its own scan of Q took for the graph it returns
        (`_block_min`)."""
        if self._lowest is None:
            self._lowest = float(np.min([B.min() for _, B in self.row_blocks()]))
        return self._lowest

    def validate(self, n: int) -> "ConsensusGraph":
        """Check that S is an n x n feasible graph (nonnegative, zero
        diagonal, rows summing to 1); raise on violation. Each check is
        written so that a NaN fails it."""
        if self.shape != (n, n):
            raise DimensionMismatchError(f"S has shape {self.shape}, expected ({n}, {n})")
        # an array's NaN entry fails the checks below; a structure's would
        # reach only some entries, so its parts are checked once here
        if not isinstance(self.C, np.ndarray):
            if not all(np.isfinite(a).all() for a in (self.G, self.theta, self.C[2])):
                raise MvclustError("S has a non-finite top, threshold or correction entry")
            # finite tops can still overflow their Gram; a row sum would
            # then read inf - inf
            if not np.isfinite(self.q).all():
                raise MvclustError("S has a non-finite Q: the tops' Gram overflows")
        lowest = self.min()
        if not lowest >= 0:
            raise MvclustError(f"S has a negative or NaN entry ({lowest:.3e})")
        if self._diagonal().any():
            raise MvclustError("S has a nonzero diagonal entry")
        # S 1 = G^T (G 1) - (n - 1) theta - q + C 1
        sums = self.G.T @ self.G.sum(axis=1) - (n - 1) * self.theta - self.q
        sums += self._matmat(np.ones(n))
        row_err = np.abs(sums - 1.0).max()
        if not row_err <= ROW_SUM_TOL:
            raise MvclustError(f"S row sums deviate from 1 by {row_err:.3e}")
        return self

    def projected_from(self, stacks) -> bool:
        """Whether G is exactly `stacked_tops(alpha, stacks)` for the recorded
        weights, with C sparse: then S is the projection of those tops' Gram.
        O(n Vk)."""
        return (
            self.alpha is not None
            and not isinstance(self.C, np.ndarray)
            and self.alpha.shape == (len(stacks),)
            and np.array_equal(self.G, stacked_tops(self.alpha, stacks))
        )

    def residual_sq(self, alpha: Array, stacks) -> float:
        """||Q - S||_F^2 for Q = sum_v alpha_v H_v^T H_v and the stacks' tops H_v.

        On a graph `projected_from` the stacks, from the structure in
        O(n Vk k + nnz C): with Q_S = G^T G and delta = alpha - self.alpha,
        Q - S = R + dQ for R = Q_S - S = theta 1^T + diag(q - theta) - C and
        dQ = sum_v delta_v H_v^T H_v. R is theta_i at an off-diagonal entry
        outside C, theta_i - C_ij at one in C and q_i - C_ii on the diagonal,
        so ||R||^2 is a sum of squares of its own entries, and ||Q - S||^2 =
        ||R||^2 + 2 <R, dQ> + delta^T A delta, with A the weight QP's matrix:
        no two large norms are subtracted. Any other graph has no such
        structure, and the expansion ||Q||^2 - 2 <Q, S> + ||S||^2 would
        cancel, so Q - S is read directly, BLOCK_ROWS rows at a time.
        """
        if not self.projected_from(stacks):
            graph = 0.0
            Q_blocks = gram_row_blocks(stacked_tops(alpha, stacks))
            for (_, R), (_, B) in zip(Q_blocks, self.row_blocks()):
                R -= B
                graph += float(np.vdot(R, R))
            return graph
        n = self.shape[0]
        theta, q = self.theta, self.q
        rows, cols, vals = self._entries(0, n)
        off = rows != cols
        cuts = np.bincount(rows[off], minlength=n)
        diag = q - self._diagonal()
        r2 = (
            np.dot((n - 1 - cuts) * theta, theta)
            + np.square(theta[rows[off]] - vals[off]).sum()
            + np.dot(diag, diag)
        )
        # <R, K_r^T K_r> for each row K_r of the stacked unweighted tops:
        # theta^T M 1 + sum_i (q_i - theta_i) M_ii - <C, M> for M = K_r^T K_r
        tops = [st.top for st in stacks]
        K = np.vstack(tops)
        cross = (
            (K @ theta) * K.sum(axis=1)
            + np.square(K) @ (q - theta)
            - np.einsum("ri,ir->r", K, self._matmat(K.T))
        )
        delta = np.asarray(alpha, dtype=np.float64) - self.alpha
        w = np.repeat(delta, [H.shape[0] for H in tops])
        return float(r2 + 2.0 * (w @ cross) + delta @ view_gram_products(tops) @ delta)

    def dense(self) -> Array:
        """S as an n x n array."""
        out = np.empty(self.shape)
        for i, B in self.row_blocks():
            out[i : i + B.shape[0]] = B
        return out


def as_graph(S) -> ConsensusGraph:
    """S when it is a ConsensusGraph, else the matrix S as one."""
    return S if isinstance(S, ConsensusGraph) else ConsensusGraph.from_dense(S)


# no caller in the package; bench/worker.py wraps fitting.compute_Q by this name
def compute_Q(state) -> Array:
    """Q = sum_v alpha_v H_v^T H_v, the Gram of the stacked tops."""
    return gram_similarity(stacked_tops(state.alpha, state.stacks))


def _project_rows_in_place(V: Array) -> tuple[Array, Array]:
    """Euclidean projection of every row of the float64 array V onto
    {x >= 0, sum(x) = 1}, in V's own buffer.

    Michelot's exact thresholding, vectorized over rows: entries at or below
    theta, the support's mean excess over 1, leave the support until no row
    changes, within p passes. -inf entries never enter it and project to 0.
    Returns (theta, shift): row i kept max(V_ij - shift_i - theta_i, 0).
    """
    # shift-invariant; a row maximum of 0 keeps huge sums from absorbing the 1
    shift = V.max(axis=1)
    V -= shift[:, None]
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
    return theta, shift


# no caller in the package; bench/worker.py patches it by this name to count calls
def project_to_simplex(v: Array) -> Array:
    """Euclidean projection of one vector onto the probability simplex."""
    V = np.array(v[None, :], dtype=np.float64)
    _project_rows_in_place(V)
    return V[0]


def _project_graph_block(B: Array, diag: Array) -> tuple[Array, Array]:
    """Project rows of a graph, held in B, in place: row r's diagonal
    coordinate diag[r] is excluded and pinned to zero. Returns the
    kernel's (theta, shift)."""
    # a -inf entry never enters the support, and projects to 0.0
    B[np.arange(B.shape[0]), diag] = -np.inf
    return _project_rows_in_place(B)


def _dense_graph(G: Array) -> ConsensusGraph:
    """The graph step's projection of G^T G, made block by block in one
    n x n array and held as that (G empty, C = S)."""
    n = G.shape[1]
    S = np.empty((n, n))
    for i, B in gram_row_blocks(G, out=S):
        _project_graph_block(B, i + np.arange(B.shape[0]))
    return ConsensusGraph.from_dense(S)


def update_consensus_graph(alpha: Array, stacks) -> ConsensusGraph:
    """Nearest feasible graph to Q = G^T G for the stacked tops G =
    `stacked_tops(alpha, stacks)` (Vk x n): each row projected onto the
    simplex with its diagonal coordinate excluded and pinned to zero, as a
    `ConsensusGraph` that records alpha.

    A row whose every off-diagonal Q_ij exceeds theta_i = (sum_{j!=i} Q_ij -
    1)/(n - 1) keeps them all (Michelot's first pass), and the row sums come
    from G^T (G 1) - q in O(n Vk). So Q is formed BLOCK_ROWS rows at a time
    only to read each row's off-diagonal minimum; the rows that fail go
    through the projection kernel, which gives their theta_i, and C takes
    their cut entries. Each block, its thresholds and cuts then final, also
    gives the graph's check its smallest entry (`_block_min`), which the
    graph keeps, so its `validate` forms no block of Q. S is held as its n x n array instead, every row
    projected by the kernel block by block (`_dense_graph`), when a row
    sum of Q exceeds ROW_SUM_LIMIT, or once C would hold more than
    CUT_SHARE of the entries of the rows scanned so far, judged also before
    each block is projected: a graph cut heavily throughout turns to the
    array after its first block's row minima. A negative or non-finite top,
    or a Q entry or row sum that overflows, raises.
    """
    G = stacked_tops(alpha, stacks)
    n = G.shape[1]
    if n < 2:
        raise ValueError("graph projection needs at least 2 samples")
    # a NaN fails both comparisons
    if not ((G >= 0) & (G < np.inf)).all():
        raise ValueError("graph projection needs nonnegative finite tops")
    q = np.einsum("ij,ij->j", G, G)
    # Q_ij <= sqrt(q_i q_j), so a finite q means a finite Q
    if not np.isfinite(q).all():
        raise ValueError("graph projection needs a finite Q")
    sums = G.T @ G.sum(axis=1)
    theta = (sums - q - 1.0) / (n - 1)
    if not np.isfinite(theta).all():
        raise ValueError("graph projection needs finite row sums of Q")
    if sums.max() > ROW_SUM_LIMIT:
        return _dense_graph(G)
    cuts, count, lowest = [], 0, 0.0
    no_entries = (np.empty(0, dtype=np.intp),) * 2 + (np.empty(0),)
    for i, B in gram_row_blocks(G):
        m = B.shape[0]
        diag = i + np.arange(m)
        B[np.arange(m), diag] = np.inf
        rowmin = B.min(axis=1)
        fail = np.flatnonzero(rowmin <= theta[diag])
        entries = no_entries
        if fail.size:
            rows, P = diag[fail], B[fail]
            # Michelot's thresholds only rise, so these rows cut at least
            # their entries at or below theta_i: checked before the block is
            # projected
            limit = CUT_SHARE * n * (i + m)
            if count + np.count_nonzero(P <= theta[rows, None]) > limit:
                break
            t, shift = _project_graph_block(P, rows)
            theta[rows] = shift + t
            # a kept entry is fl(Q_ij - theta_i) >= 0; a cut one is that
            # plus its correction -fl(Q_ij - theta_i): exactly 0
            D = B[fail] - theta[rows, None]
            r, c = np.nonzero(D < 0)
            entries = (fail[r], c, -D[r, c])
            cuts.append((rows[r], c, entries[2]))
            count += r.size
            if count > limit:
                break
        # the block's theta and C are final: the graph's check reads it now
        lowest = np.minimum(lowest, _block_min(i, B, rowmin, theta, entries))
    else:
        rows, cols, vals = (np.concatenate(a) for a in zip(*cuts)) if cuts else ([], [], [])
        graph = ConsensusGraph(G, theta, (rows, cols, vals), alpha=alpha)
        graph._lowest = float(lowest)
        return graph
    del cuts  # before the n x n array is allocated
    return _dense_graph(G)


def view_gram_products(tops) -> Array:
    """A[p, q] = Tr(H_p^T H_p H_q^T H_q) = ||H_p H_q^T||_F^2 (V x V, PSD), from
    the k x n tops without an n x n array."""
    V = len(tops)
    A = np.empty((V, V))
    for p in range(V):
        for q in range(p, V):
            A[p, q] = A[q, p] = float(np.square(tops[p] @ tops[q].T).sum())
    return A


def weight_qp(state) -> tuple[Array, Array]:
    """The view weights' quadratic program (A, f): the weights minimize
    0.5 a^T A a - f^T a over the simplex. A[p, q] = Tr(H_p^T H_p H_q^T H_q) =
    ||H_p H_q^T||_F^2 is PSD, and f[v] = <H_v S, H_v> = <(S + S^T) H_v^T,
    H_v^T> / 2. Both come from the k x n tops without an n x n array, f from
    the graph's structure in O(n Vk k + nnz C)."""
    tops = [st.top for st in state.stacks]
    A = view_gram_products(tops)
    f = np.array([0.5 * float(np.vdot(state.S.symmetric_matmat(H.T), H.T)) for H in tops])
    return A, f


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
    A, f = A / scale, f / scale
    best, best_obj = None, np.inf
    for r in range(V, 0, -1):
        for s in map(list, itertools.combinations(range(V), r)):
            K = np.ones((r + 1, r + 1))
            K[:r, :r] = A[np.ix_(s, s)]
            K[r, r] = 0.0
            a_s = np.linalg.lstsq(K, np.append(f[s], 1.0), rcond=None)[0][:r]
            if a_s.min() < 0:
                continue
            alpha = np.zeros(V)
            alpha[s] = a_s
            obj = float(0.5 * alpha @ A @ alpha - f @ alpha)
            if obj < best_obj:
                best, best_obj = alpha, obj
    return best


def update_view_weights(state) -> Array:
    """Optimal simplex weights for the current S and the views' tops H_m."""
    return solve_simplex_qp(*weight_qp(state))
