"""Layer-by-layer pretraining of factor stacks and initial graph/weights.

Each view is decomposed greedily: X ~ Z_1 H_1, then H_{i-1} ~ Z_i H_i down
the stack. The intermediate H_i exist only here, each as the next layer's
input; the stack keeps the mappings and the top H_m. Each layer runs exactly
cfg.pretrain_iters sweeps from a start that shrinks its input, so the tops
come out tiny (about 1e-6 at depth 3); since Z_m absorbs any rescaling of H_m,
each view's top is scaled by its own c_v (and Z_m by 1/c_v) so that its Gram
has mean row sum 1, like the graph's, and so has Q under any weights: a view's
units do not move them. Without that the graph term is ~||S||^2 whatever the
weights, and neither alpha nor beta has any effect. The initial graph is Q
projected onto the feasible set, held as a `ConsensusGraph`, so every state
invariant holds from iteration 0.
"""

from __future__ import annotations

import numpy as np

from .consensus import update_consensus_graph
# no caller here; bench/worker.py wraps pretrain.gram_similarity by this name
from .consensus import gram_similarity  # noqa: F401
from .errors import RankDeficientError
from .seminmf import fit_seminmf
from .types import FactorStack, FitConfig, ModelState, MultiViewDataset

Array = np.ndarray


def pretrain_view(X: Array, cfg: FitConfig, seed_seq: np.random.SeedSequence) -> FactorStack:
    """Greedy layer-wise semi-NMF initialization of one view's stack, widths cfg.layers."""
    layer_seeds = seed_seq.spawn(cfg.layers.depth)
    mappings: list[Array] = []
    H = np.asarray(X, dtype=np.float64)
    for i, width in enumerate(cfg.layers.sizes):
        try:
            res = fit_seminmf(H, width, iters=cfg.pretrain_iters, seed=layer_seeds[i])
        except RankDeficientError as e:
            raise RankDeficientError(f"pretraining layer {i}: {e}") from e
        mappings.append(res.Z)
        if i == 0:
            right_factor = res.P  # Z_1 = X P
        H = res.H  # seeds the next layer; only the top is kept
    return FactorStack(mappings=mappings, top=H, right_factor=right_factor)


def initialize_state(ds: MultiViewDataset, cfg: FitConfig) -> ModelState:
    """Pretrain all views, set uniform weights, rescale the tops, and build the
    projected graph."""
    root = np.random.SeedSequence(cfg.rng_seed)
    view_seqs = root.spawn(ds.num_views)
    stacks = []
    for v, X in enumerate(ds.views):
        try:
            stacks.append(pretrain_view(X, cfg, view_seqs[v]))
        except RankDeficientError as e:
            raise RankDeficientError(f"view {v}: {e}") from e
    for st in stacks:
        # sum(H_v^T H_v) = ||H_v 1||^2, so c_v^2 = n / that gives the Gram mean row sum 1
        c = np.sqrt(ds.n / np.square(st.top.sum(axis=1)).sum())
        st.top = c * st.top
        st.mappings[-1] = st.mappings[-1] / c
        if st.depth == 1 and st.right_factor is not None:  # Z_m is Z_1 = X P
            st.right_factor = st.right_factor / c
    alpha = np.full(ds.num_views, 1.0 / ds.num_views)
    S = update_consensus_graph(alpha, stacks)
    return ModelState(views=list(ds.views), stacks=stacks, S=S, alpha=alpha, beta=cfg.beta)
