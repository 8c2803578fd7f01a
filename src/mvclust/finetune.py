"""Per-view factor updates for the joint objective.

The objective reads every mapping Z_i but only the top representation H_m,
so a sweep updates just those: an exact least-squares update of each Z_i,
then two multiplicative steps of H_m. The first is `seminmf`'s graph-free
rule; the second adds the graph terms to its numerator and denominator,
pulling the weighted Gram mix of the views' tops toward the consensus graph.

A sweep is one pass that forms each chain product once: every right factor
Z_{i+1}..Z_m H_m before any update, the left factor Z_1..Z_{i-1} as the
updates go, and Phi^T X and Phi^T Phi once for both top steps.
"""

from __future__ import annotations

import numpy as np

from .consensus import stacked_tops
from .seminmf import mp_pinv, multiplicative_step, multiplicative_terms
from .types import ModelState

Array = np.ndarray


def update_mapping(
    X: Array, psi: Array | None, hhat: Array, psi_rank: int, hhat_rank: int
) -> Array:
    """Exact minimizer of ||X - psi Z hhat||_F over Z; psi None means identity.

    Z = psi^+ X hhat^+ with Moore-Penrose pseudo-inverses (these reduce
    to (psi^T psi)^{-1} psi^T and hhat^T (hhat hhat^T)^{-1} at full rank;
    hhat is low-rank by construction below the top layer, which the SVD
    handles exactly). A RankDeficientWarning is recorded when a factor's
    rank drops below its expected rank.
    """
    right = mp_pinv(hhat, warn_context="update_mapping", expected_rank=hhat_rank)
    if psi is None:
        return X @ right
    left = mp_pinv(psi, warn_context="update_mapping", expected_rank=psi_rank)
    return (left @ X) @ right


def update_top(state: ModelState, v: int, PhitX: Array, PhitPhi: Array) -> Array:
    """Graph-coupled multiplicative update of the top representation H_m.

    Targets ||X - Phi H||_F^2 + beta ||S - G^T G||_F^2 with G the stacked
    tops [sqrt(alpha_o) H_o] of every view's current H_m, whose block v is
    H itself. The caller passes PhitX = Phi^T X and PhitPhi = Phi^T Phi for
    the view's chain Phi = Z_1..Z_m.
    """
    H = state.stacks[v].top
    a_v = float(state.alpha[v])
    G = stacked_tops(state.alpha, state.stacks)
    num, den = multiplicative_terms(PhitX, PhitPhi, H)
    # H, S, alpha and the tops are nonnegative, so every graph product below
    # is too: each goes whole into num or den. (H S + H S^T)^T comes from S's
    # structure, where rounding may leave it a little below 0: clamp it
    HS = state.S.matmat(H.T)
    HS += state.S.rmatmat(H.T)
    np.maximum(HS, 0.0, out=HS)
    num = num + a_v * state.beta * HS.T
    den = den + a_v * state.beta * (2.0 * ((H @ G.T) @ G))
    return multiplicative_step(H, num, den)


def sweep_view(state: ModelState, v: int) -> None:
    """One fine-tuning pass over view v: Z_1..Z_m in order, then the
    graph-free and the graph-coupled top steps. Mutates the view's stack, so
    views swept in turn see each other's freshest tops. For a view with d >= n
    it records the right factor P of Z_1 = X P in `right_factor`."""
    stack = state.stacks[v]
    X = state.views[v]
    mappings = stack.mappings
    widths = [Z.shape[1] for Z in mappings]
    # right factors Z_{i+1}..Z_m H_m; each reads only mappings above Z_i,
    # which the loop below has not yet updated when it solves Z_i
    hhats = [stack.top]
    for Z in reversed(mappings[1:]):
        hhats.append(Z @ hhats[-1])
    hhats.reverse()
    # fine-tuned mappings inherit the top layer's rank bound, so the chain's
    # structural rank is the minimum width overall
    psi_rank = min(X.shape[0], min(widths))
    Phi = None
    for i, hhat in enumerate(hhats):
        hhat_rank = min(min(widths[i:]), hhat.shape[1])
        if Phi is None:
            # Z_1 = X P as `update_mapping` forms it, with P kept where it is
            # no larger than Z_1: a view fitted in its row space lifts Z_1 by it
            P = mp_pinv(hhat, warn_context="update_mapping", expected_rank=hhat_rank)
            mappings[0] = X @ P
            if X.shape[0] >= X.shape[1]:
                stack.right_factor = P
            del P  # not held through the top steps
        else:
            mappings[i] = update_mapping(X, Phi, hhat, psi_rank, hhat_rank)
        Phi = mappings[i] if Phi is None else Phi @ mappings[i]
    PhitX = Phi.T @ X
    PhitPhi = Phi.T @ Phi
    stack.top = multiplicative_step(stack.top, *multiplicative_terms(PhitX, PhitPhi, stack.top))
    stack.top = update_top(state, v, PhitX, PhitPhi)
