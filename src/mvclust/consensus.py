"""Consensus graph construction and refinement.

The consensus graph S approximates the alpha-weighted mix Q of per-view
Gram similarities H_m^T H_m. Its update is an exact row-wise Euclidean
projection onto {s >= 0, s.1 = 1, s_i = 0}; the view weights alpha solve a
small simplex-constrained quadratic program.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .errors import SolverStallError

Array = np.ndarray

log = logging.getLogger(__name__)

QP_KKT_TOL = 1e-6
QP_MAX_ITERS = 100_000


def gram_similarity(H: Array) -> Array:
    """Sample-by-sample inner-product similarity H^T H (symmetric PSD)."""
    # on one contiguous buffer numpy uses syrk, which mirrors a triangle exactly
    H = np.ascontiguousarray(H)
    return H.T @ H


def compute_Q(state) -> Array:
    """Weighted mix of per-view Gram similarities: Q = sum_v alpha_v H_v^T H_v."""
    Q = np.zeros((state.n, state.n))
    for a, st in zip(state.alpha, state.stacks):
        Q += a * gram_similarity(st.top)
    return Q


def project_rows_to_simplex(V: Array) -> Array:
    """Euclidean projection of every row of V onto {x >= 0, sum(x) = 1}.

    Sort-based exact algorithm; vectorized over rows.
    """
    V = np.asarray(V, dtype=np.float64)
    # shift-invariant; a row maximum of 0 keeps huge sums from absorbing the 1
    V = V - V.max(axis=1, keepdims=True)
    p = V.shape[1]
    u = np.sort(V, axis=1)[:, ::-1]
    css = np.cumsum(u, axis=1)
    j = np.arange(1, p + 1)
    # the index set where u_j > (css_j - 1)/j is a prefix; its length is rho
    rho = np.count_nonzero(u * j > css - 1.0, axis=1)
    theta = (css[np.arange(V.shape[0]), rho - 1] - 1.0) / rho
    return np.maximum(V - theta[:, None], 0.0)


def project_to_simplex(v: Array) -> Array:
    """Euclidean projection of one vector onto the probability simplex."""
    return project_rows_to_simplex(v[None, :])[0]


def update_consensus_graph(Q: Array) -> Array:
    """Nearest feasible graph to Q: row-wise projection with the diagonal
    coordinate excluded and pinned to zero.

    Every row of the result sums to 1 exactly (to float precision), is
    nonnegative, and has a zero diagonal entry.
    """
    Q = np.array(Q, dtype=np.float64)
    if Q.shape[0] < 2:
        raise ValueError("graph projection needs at least 2 samples")
    if not np.isfinite(Q).all():
        raise ValueError("graph projection needs a finite Q")
    # a -inf entry sorts last, never enters the support, and projects to 0.0
    np.fill_diagonal(Q, -np.inf)
    return project_rows_to_simplex(Q)


@dataclass
class WeightQp:
    """Quadratic program data for the view weights.

    A[p, q] = Tr(H_p^T H_p H_q^T H_q), f[v] = Tr(S^T H_v^T H_v); A is PSD,
    and the weights minimize 0.5 a^T A a - f^T a over the simplex.
    """

    A: Array
    f: Array

    @classmethod
    def from_state(cls, state) -> "WeightQp":
        grams = [gram_similarity(st.top) for st in state.stacks]
        V = len(grams)
        A = np.empty((V, V))
        for p in range(V):
            for q in range(p, V):
                A[p, q] = A[q, p] = float(np.vdot(grams[p], grams[q]))
        f = np.array([float(np.vdot(state.S, G)) for G in grams])
        return cls(A=A, f=f)

    def objective(self, alpha: Array) -> float:
        return float(0.5 * alpha @ self.A @ alpha - self.f @ alpha)


def solve_simplex_qp(
    A: Array,
    f: Array,
    tol: float = QP_KKT_TOL,
    max_iters: int = QP_MAX_ITERS,
) -> Array:
    """Minimize 0.5 a^T A a - f^T a over the probability simplex.

    Projected gradient with a Barzilai-Borwein step from the uniform start.
    Terminates at KKT stationarity: on the support the gradient equals a
    common multiplier within `tol`, off the support it is no smaller.
    Raises SolverStallError if the tolerance is not met within the budget.
    A must be symmetric, as the gradient A a - f and the step bound assume.
    """
    A = np.asarray(A, dtype=np.float64)
    f = np.asarray(f, dtype=np.float64)
    V = f.shape[0]
    alpha = np.full(V, 1.0 / V)
    grad = A @ alpha - f
    lam_max = float(np.linalg.eigvalsh(A)[-1]) if V > 1 else 0.0
    base_step = 1.0 / lam_max if lam_max > 0 else 1.0
    step = base_step
    for _ in range(max_iters):
        mu = grad.min()
        support = alpha > 1e-12
        kkt = float((grad[support] - mu).max()) if support.any() else 0.0
        if kkt <= tol:
            return alpha
        new_alpha = project_to_simplex(alpha - step * grad)
        new_grad = A @ new_alpha - f
        d_a = new_alpha - alpha
        d_g = new_grad - grad
        curv = float(d_a @ d_g)
        step = float(d_a @ d_a) / curv if curv > 1e-18 else base_step
        if not np.isfinite(step) or step <= 0:
            step = base_step
        alpha, grad = new_alpha, new_grad
    raise SolverStallError(
        f"view-weight QP did not reach KKT tolerance {tol} in {max_iters} iterations"
    )


def update_view_weights(state) -> Array:
    """Optimal simplex weights for the current S and top representations.

    The QP is convex, so the solution never fits S worse than the incumbent
    alpha; the incumbent is kept on the (float-level) off chance it scores
    better.
    """
    qp = WeightQp.from_state(state)
    alpha = solve_simplex_qp(qp.A, qp.f)
    if qp.objective(alpha) > qp.objective(state.alpha):
        log.debug("view-weight QP returned a worse point than incumbent; keeping incumbent")
        return state.alpha.copy()
    return alpha
