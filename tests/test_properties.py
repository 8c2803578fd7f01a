"""Property tests of the multiplicative representation updates."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from mvclust import ChainCache, update_representation, update_top

from conftest import random_state

SEEDS = st.integers(0, 2**32 - 1)


@settings(max_examples=150, deadline=None)
@given(
    d=st.integers(1, 8),
    l=st.integers(1, 5),
    n=st.integers(1, 10),
    zero_rows=st.integers(0, 5),
    seed=SEEDS,
)
def test_update_representation_nonnegative_and_monotone(d, l, n, zero_rows, seed):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((d, n))
    Z = rng.standard_normal((d, l))
    H = rng.random((l, n))
    H[rng.permutation(l)[: min(zero_rows, l - 1)]] = 0.0
    H2 = update_representation(X, Z, H)
    assert H2.min() >= 0
    assert not H2[H == 0].any()
    before = np.linalg.norm(X - Z @ H)
    assert np.linalg.norm(X - Z @ H2) <= before * (1.0 + 1e-10)


def _update_top_four_splits(state, v):
    """The top update with every graph product sign-split, as it was written
    before the splits of provably nonnegative products were dropped."""

    def split(A):
        return np.maximum(A, 0.0), np.maximum(-A, 0.0)

    stack = state.stacks[v]
    Phi = ChainCache.compute(stack, stack.depth - 1).Phi
    X = state.views[v]
    H = stack.top
    S = state.S
    a_v = float(state.alpha[v])
    beta = state.beta
    HG = np.zeros_like(H)
    for o, (a, other) in enumerate(zip(state.alpha, state.stacks)):
        if o != v:
            HG += a * ((H @ other.top.T) @ other.top)
    xp, xm = split(Phi.T @ X)
    gram_p, gram_m = split(Phi.T @ Phi)
    sp, sm = split(H @ S)
    stp, stm = split(H @ S.T)
    gp, gm = split(2.0 * HG)
    qp, qm = split((2.0 * a_v) * ((H @ H.T) @ H))
    num = xp + gram_m @ H + a_v * beta * (sp + stp + gm + qm)
    den = xm + gram_p @ H + a_v * beta * (sm + stm + gp + qp)
    return H * np.sqrt(num / np.maximum(den, 1e-12))


@settings(max_examples=100, deadline=None)
@given(
    dims=st.lists(st.integers(2, 8), min_size=1, max_size=4),
    layer_sizes=st.lists(st.integers(1, 4), min_size=1, max_size=3),
    n=st.integers(2, 10),
    beta=st.floats(1e-3, 1e3),
    zero_weight=st.booleans(),
    seed=SEEDS,
)
def test_update_top_equals_four_split_formula(dims, layer_sizes, n, beta, zero_weight, seed):
    alpha = None
    if zero_weight and len(dims) > 1:
        alpha = np.full(len(dims), 1.0 / (len(dims) - 1))
        alpha[seed % len(dims)] = 0.0
    state = random_state(dims=dims, layer_sizes=layer_sizes, n=n, beta=beta, seed=seed, alpha=alpha)
    state.stacks[0].top[0] = 0.0
    for v in range(state.num_views):
        assert np.array_equal(update_top(state, v), _update_top_four_splits(state, v))
