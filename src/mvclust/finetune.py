"""Per-view factor updates for the joint objective.

The objective reads every mapping Z_i but only the top representation H_m,
so a sweep updates just those: an exact least-squares update of each Z_i,
then two multiplicative steps of H_m. The first is `seminmf`'s graph-free
rule; the second adds the graph terms to its numerator and denominator,
pulling the view's Gram similarity toward the consensus graph.

Chain products are recomputed from the current factors for every update.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .seminmf import mp_pinv, multiplicative_step, multiplicative_terms, update_representation
from .types import ModelState

Array = np.ndarray


@dataclass
class ChainCache:
    """Products around layer i of one stack.

    phi : Z_1 ... Z_{i-1} (None for the first layer, meaning identity)
    Phi : Z_1 ... Z_i
    hhat : Z_{i+1} ... Z_m H_m (equals H_m at the top layer)
    """

    phi: Array | None
    Phi: Array | None
    hhat: Array | None

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


def update_mapping(state: ModelState, v: int, i: int) -> Array:
    """Exact minimizer of ||X - phi Z_i hhat_i||_F over Z_i.

    Z_i = phi^+ X hhat^+ with Moore-Penrose pseudo-inverses (these reduce
    to (phi^T phi)^{-1} phi^T and hhat^T (hhat hhat^T)^{-1} at full rank;
    hhat is low-rank by construction below the top layer, which the SVD
    handles exactly, with a RankDeficientWarning recorded).
    """
    stack = state.stacks[v]
    cache = ChainCache.compute(stack, i)
    X = state.views[v]
    widths = [Z.shape[1] for Z in stack.mappings]
    hhat_rank = min(min(widths[i:]), cache.hhat.shape[1])
    right = mp_pinv(cache.hhat, warn_context="update_mapping", expected_rank=hhat_rank)
    if cache.phi is None:
        return X @ right
    # fine-tuned mappings inherit the top layer's rank bound, so the chain's
    # structural rank is the minimum width overall
    phi_rank = min(X.shape[0], min(widths))
    left = mp_pinv(cache.phi, warn_context="update_mapping", expected_rank=phi_rank)
    return (left @ X) @ right


def _cross_view_gram_product(state: ModelState, v: int, H: Array) -> Array:
    """H @ G where G = sum_{o != v} alpha_o H_o^T H_o, without forming G."""
    HG = np.zeros_like(H)
    for o, (a, st) in enumerate(zip(state.alpha, state.stacks)):
        if o == v:
            continue
        HG += a * ((H @ st.top.T) @ st.top)
    return HG


def update_top(state: ModelState, v: int) -> Array:
    """Graph-coupled multiplicative update of the top representation H_m.

    Targets ||X - Phi H||_F^2 + beta ||S - alpha_v H^T H - G||_F^2 with
    G the other views' weighted Gram mix, built from the other views'
    current H_m values.
    """
    stack = state.stacks[v]
    Phi = ChainCache.compute(stack, stack.depth - 1).Phi
    H = stack.top
    a_v = float(state.alpha[v])
    num, den = multiplicative_terms(Phi.T @ state.views[v], Phi.T @ Phi, H)
    # H, S, alpha and the other views' tops are nonnegative, so every graph
    # product below is too: each goes whole into num or den
    num = num + a_v * state.beta * (H @ state.S + H @ state.S.T)
    den = den + a_v * state.beta * (
        2.0 * _cross_view_gram_product(state, v, H) + (2.0 * a_v) * ((H @ H.T) @ H)
    )
    return multiplicative_step(H, num, den)


def sweep_view(state: ModelState, v: int) -> None:
    """One fine-tuning pass over view v: Z_1..Z_m in order, then the
    graph-free and the graph-coupled top steps. Mutates the view's stack, so
    views swept in turn see each other's freshest tops."""
    stack = state.stacks[v]
    m = stack.depth
    for i in range(m):
        stack.mappings[i] = update_mapping(state, v, i)
    Phi = ChainCache.compute(stack, m - 1).Phi
    stack.top = update_representation(state.views[v], Phi, stack.top)
    stack.top = update_top(state, v)
