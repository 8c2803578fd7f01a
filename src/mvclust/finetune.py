"""Per-view factor updates for the joint objective.

The objective reads every mapping Z_i but only the top representation H_m,
so a sweep updates just those: an exact least-squares update of each Z_i,
then two multiplicative steps of H_m. The first is `seminmf`'s graph-free
rule; the second adds the graph terms to its numerator and denominator,
pulling the weighted Gram mix of the views' tops toward the consensus graph.

A sweep runs in the row space of the top H_m (k x n): with H_m^T = Q_H R_H
and X Q_H = Q_Y R_Y, every pseudo-inverse is of a factor no larger than
l_i x k, and X is read in two products only (`sweep_view`). The sweep
returns the products of its chain with X and with itself, from which the fit
takes the reconstruction term without reading X again.
"""

from __future__ import annotations

import numpy as np

from .consensus import stacked_tops
from .seminmf import mp_pinv, multiplicative_step, multiplicative_terms
from .types import ModelState

Array = np.ndarray


def update_top(state: ModelState, v: int, PhitX: Array, PhitPhi: Array) -> Array:
    """Graph-coupled multiplicative update of the top representation H_m.

    Targets ||X - Phi H||_F^2 + beta ||S - G^T G||_F^2 with G the stacked
    tops [sqrt(alpha_o) H_o] of every view's current H_m, whose block v is
    H itself; it reads S only through H (S + S^T). The caller passes
    PhitX = Phi^T X and PhitPhi = Phi^T Phi for the view's chain Phi =
    Z_1..Z_m.
    """
    H = state.stacks[v].top
    a_v = float(state.alpha[v])
    G = stacked_tops(state.alpha, state.stacks)
    num, den, part = (np.empty(H.shape) for _ in range(3))
    multiplicative_terms(PhitX, PhitPhi, H, num, den, part)
    # H, S, alpha and the tops are nonnegative, so every graph product below
    # is too: each goes whole into num or den. (H (S + S^T))^T comes from
    # S's structure, where rounding may leave it a little below 0: clamp it
    HS = state.S.symmetric_matmat(H.T)
    np.maximum(HS, 0.0, out=HS)
    num += a_v * state.beta * HS.T
    den += a_v * state.beta * (2.0 * ((H @ G.T) @ G))
    return multiplicative_step(H, num, den, out=part)


def sweep_view(state: ModelState, v: int) -> tuple[Array, Array]:
    """One fine-tuning pass over view v: Z_1..Z_m in order, then the
    graph-free and the graph-coupled top steps. Mutates the view's stack, so
    views swept in turn see each other's freshest tops. For a view with d >= n
    it records the right factor P of Z_1 = X P in `right_factor`. Returns
    (Phi^T X, Phi^T Phi) for the swept chain Phi = Z_1..Z_m, which the top
    steps read and the objective's reconstruction term can too.

    With H_m^T = Q_H R_H (Q_H n x r, r = min(n, k)), the right factor
    Z_{i+1}..Z_m H_m of Z_i is W_i Q_H^T, W_i = Z_{i+1}..Z_m R_H^T (l_i x r),
    so its pseudo-inverse is Q_H W_i^+, and Z_1 = Y W_1^+ with Y = X Q_H.
    With Y = Q_Y R_Y, the left factor Z_1..Z_{i-1} is Q_Y C_i, where
    C_2 = R_Y W_1^+ and C_{i+1} = C_i Z_i, so Z_i = C_i^+ R_Y W_i^+, as
    Q_Y^T X Q_H = R_Y. With C = C_{m+1}, the chain Phi = Q_Y C gives
    Phi^T Phi = C^T C and Phi^T X = C^T (Q_Y^T X). These identities keep
    each factor's singular values, so `mp_pinv` of W_i or C_i makes the
    rank decision the n x l_i or d x l_i factor would.
    """
    stack = state.stacks[v]
    X = state.views[v]
    d, n = X.shape
    mappings = stack.mappings
    widths = [Z.shape[1] for Z in mappings]
    Q_H, R_H = np.linalg.qr(stack.top.T)
    # W_i from the mappings above Z_i, which the loop below has not yet
    # updated when it solves Z_i
    Ws = [R_H.T]
    for Z in reversed(mappings[1:]):
        Ws.insert(0, Z @ Ws[0])
    Y = X @ Q_H
    Q_Y, R_Y = np.linalg.qr(Y)
    # fine-tuned mappings inherit the top layer's rank bound, so the chain's
    # structural rank is the minimum width overall, and at most n
    psi_rank = min(d, n, min(widths))
    for i, W in enumerate(Ws):
        right = mp_pinv(W, warn_context="update_mapping", expected_rank=min(widths[i:] + [n]))
        if i == 0:
            mappings[0] = Y @ right
            if d >= n:
                # Z_1 = X P, with P kept where it is no larger than Z_1: a
                # view fitted in its row space lifts Z_1 by it
                stack.right_factor = Q_H @ right
            C = R_Y @ right
        else:
            left = mp_pinv(C, warn_context="update_mapping", expected_rank=psi_rank)
            mappings[i] = (left @ R_Y) @ right
            C = C @ mappings[i]
    PhitX = C.T @ (Q_Y.T @ X)
    PhitPhi = C.T @ C
    num, den, part = (np.empty(stack.top.shape) for _ in range(3))
    multiplicative_terms(PhitX, PhitPhi, stack.top, num, den, part)
    stack.top = multiplicative_step(stack.top, num, den, out=part)
    stack.top = update_top(state, v, PhitX, PhitPhi)
    return PhitX, PhitPhi
