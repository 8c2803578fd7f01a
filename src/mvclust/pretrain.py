"""Layer-by-layer pretraining of factor stacks and initial graph/weights.

Each view is decomposed greedily: X ~ Z_1 H_1, then H_{i-1} ~ Z_i H_i down
the stack. The initial graph is the uniformly weighted Gram mix of the top
representations, projected onto the feasible set so every state invariant
holds from iteration 0 (the raw mix generally violates the row-sum
constraint).
"""

from __future__ import annotations

import numpy as np

from .consensus import gram_similarity, update_consensus_graph
from .errors import RankDeficientError
from .seminmf import fit_seminmf
from .types import FactorStack, FitConfig, ModelState, MultiViewDataset

Array = np.ndarray


def pretrain_view(X: Array, cfg: FitConfig, seed_seq: np.random.SeedSequence) -> FactorStack:
    """Greedy layer-wise semi-NMF initialization of one view's stack, widths cfg.layers."""
    layer_seeds = seed_seq.spawn(cfg.layers.depth)
    mappings: list[Array] = []
    reps: list[Array] = []
    current = np.asarray(X, dtype=np.float64)
    for i, width in enumerate(cfg.layers.sizes):
        try:
            res = fit_seminmf(current, width, iters=cfg.pretrain_iters, seed=layer_seeds[i])
        except RankDeficientError as e:
            raise RankDeficientError(f"pretraining layer {i}: {e}") from e
        mappings.append(res.Z)
        reps.append(res.H)
        current = res.H
    return FactorStack(mappings=mappings, representations=reps)


def initialize_state(ds: MultiViewDataset, cfg: FitConfig) -> ModelState:
    """Pretrain all views, set uniform weights, and build the projected graph."""
    root = np.random.SeedSequence(cfg.rng_seed)
    view_seqs = root.spawn(ds.num_views)
    stacks = []
    for v, X in enumerate(ds.views):
        try:
            stacks.append(pretrain_view(X, cfg, view_seqs[v]))
        except RankDeficientError as e:
            raise RankDeficientError(f"view {v}: {e}") from e
    alpha = np.full(ds.num_views, 1.0 / ds.num_views)
    Q = gram_similarity(np.vstack([np.sqrt(a) * st.top for a, st in zip(alpha, stacks)]))
    S = update_consensus_graph(Q)
    return ModelState(views=list(ds.views), stacks=stacks, S=S, alpha=alpha, beta=cfg.beta)
