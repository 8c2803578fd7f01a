"""Property tests of the multiplicative representation updates, both branches
of single-layer semi-NMF, the graph projection, the Gram-free consensus
quantities, the view-weight QP, the spectral embedding and the
pseudo-inverse."""

import copy
import functools
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy import sparse
from scipy.linalg import subspace_angles

from mvclust import FactorStack, FitConfig, LayerSpec, ModelState, MultiViewDataset, fit, seminmf
from mvclust.consensus import (
    BLOCK_ROWS,
    ConsensusGraph,
    compute_Q,
    gram_row_blocks,
    gram_similarity,
    solve_simplex_qp,
    stacked_tops,
    update_consensus_graph,
    weight_qp,
)
from mvclust.errors import RankDeficientError, RankDeficientWarning
from mvclust.finetune import sweep_view, update_top
from mvclust.fitting import ROW_SPACE_RATIO, objective_terms, row_space_factor
from mvclust.metrics import hungarian
from mvclust.seminmf import fit_seminmf, mp_pinv
from mvclust.spectral import cluster_graph, spectral_embed

import conftest
from conftest import (
    ChainCache,
    allocating_multiplicative_step,
    blockwise_graph_term,
    brute_force_row_projection,
    csgraph_assignment,
    direct_fit,
    direct_fit_seminmf,
    dtpqrt_row_space_factor,
    graph_from_tops,
    project_graph,
    project_rows_to_simplex,
    qr_svd_pinv,
    random_state,
    recompute_sweep_view,
    residual_objective_terms,
    scipy_csr,
    sort_projection,
    top_products,
    update_representation,
)

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


def _fit_outcome(fit, X, l, iters, seed):
    """(result, messages of the RankDeficientWarnings raised) of one fit."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        res = fit(X, l, iters, seed)
    assert all(w.category is RankDeficientWarning for w in caught)
    return res, [str(w.message) for w in caught]


@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(1, 12),
    shape=st.sampled_from(["d < n", "d == n", "d >> n"]),
    width=st.floats(0.0, 1.0),
    rank=st.integers(1, 12),
    zero_rows=st.integers(0, 5),
    iters=st.integers(1, 20),
    seed=SEEDS,
)
@example(n=12, shape="d >> n", width=1.0, rank=12, zero_rows=0, iters=20, seed=0)
@example(n=6, shape="d >> n", width=1.0, rank=2, zero_rows=3, iters=20, seed=0)
def test_fit_seminmf_equals_direct_sweeps(n, shape, width, rank, zero_rows, iters, seed):
    rng = np.random.default_rng(seed)
    d = {"d < n": max(1, n - 1 - rng.integers(n)), "d == n": n, "d >> n": 8 * n + 3}[shape]
    l = 1 + int(width * (n - 1))
    r = min(rank, d, n)
    X = rng.standard_normal((d, r)) @ rng.standard_normal((r, n))
    X[rng.permutation(d)[: min(zero_rows, d - 1)]] = 0.0
    res, caught = _fit_outcome(fit_seminmf, X, l, iters, seed)
    oracle, caught_oracle = _fit_outcome(direct_fit_seminmf, X, l, iters, seed)
    assert caught == caught_oracle
    # the Gram solve on certified layers, and the kernel form K = X^T X of
    # wide ones, move each product at rounding level only
    assert np.abs(res.Z - oracle.Z).max() <= 1e-9 * np.abs(oracle.Z).max()
    assert np.abs(res.H - oracle.H).max() <= 1e-9 * np.abs(oracle.H).max()


class _PlantedStart:
    """Stands in for `np.random.default_rng(seed)` so that a fit's seeded
    start (1 - U) * scale is H0 * scale."""

    def __init__(self, H0):
        self.H0 = H0

    def random(self, shape):
        assert shape == self.H0.shape
        return 1.0 - self.H0


@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(1, 40),
    shape=st.sampled_from(["d < n", "d == n", "d > n"]),
    width=st.floats(0.0, 1.0),
    rank=st.integers(1, 40),
    uncertified=st.booleans(),
    tilt=st.sampled_from([None, 0.0, 1e-11]),
    iters=st.integers(1, 20),
    seed=SEEDS,
)
@example(n=30, shape="d > n", width=1.0, rank=2, uncertified=False, tilt=0.0, iters=5, seed=0)
def test_fit_seminmf_work_arrays_give_the_allocating_rules_bits(
    n, shape, width, rank, uncertified, tilt, iters, seed
):
    # the sweeps' work arrays change where the rule writes, not what it
    # computes: Z, H, P and the warnings are the allocating oracle's, byte
    # for byte, on the direct, kernel and pseudo-inverse routes. A start
    # with two (nearly) collinear rows fails the Gram certificate, and an
    # exactly collinear one makes mp_pinv warn
    rng = np.random.default_rng(seed)
    d = {"d < n": max(1, n - 1 - rng.integers(n)), "d == n": n, "d > n": n + 1 + rng.integers(2 * n)}[shape]
    l = 1 + int(width * (n - 1))
    r = min(rank, d, n)
    X = rng.standard_normal((d, r)) @ rng.standard_normal((r, n))
    with pytest.MonkeyPatch.context() as mp:
        if uncertified:
            mp.setattr(seminmf, "_certified_gram", lambda H: None)
        if tilt is not None and l >= 2:
            H0 = 0.1 + 0.9 * rng.random((l, n))
            H0[1] = 0.5 * H0[0] + tilt * rng.standard_normal(n)
            mp.setattr(np.random, "default_rng", lambda _seed: _PlantedStart(H0))
        res, caught = _fit_outcome(fit_seminmf, X, l, iters, seed)
        oracle, caught_oracle = _fit_outcome(conftest.allocating_fit_seminmf, X, l, iters, seed)
    assert caught == caught_oracle
    for got, want in [(res.Z, oracle.Z), (res.H, oracle.H), (res.P, oracle.P)]:
        if want is None:
            assert got is None
        else:
            assert got.shape == want.shape and got.tobytes() == want.tobytes()


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(3, 10),
    wide=st.booleans(),
    width=st.floats(0.0, 1.0),
    tilt=st.sampled_from([0.0, 1e-14, 1e-11, 1e-8, 1e-6]),
    iters=st.integers(1, 8),
    seed=SEEDS,
)
def test_fit_seminmf_ill_conditioned_start_takes_pinv(n, wide, width, tilt, iters, seed):
    # two nearly collinear rows in the start: the Gram certificate fails and
    # the sweep falls back to mp_pinv, which warns exactly where the oracle
    # does. That sweep forms Z and its products directly, even in a wide
    # layer that has K = X^T X, so it is the direct sweep bit for bit.
    rng = np.random.default_rng(seed)
    l = 2 + int(width * (n - 2))
    d = 8 * n + 3 if wide else n - 1
    X = rng.standard_normal((d, n))
    H0 = 0.1 + 0.9 * rng.random((l, n))
    H0[1] = 0.5 * H0[0] + tilt * rng.standard_normal(n)
    assume(np.linalg.cond(H0) > 1e4)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return mp_pinv(*args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(np.random, "default_rng", lambda _seed: _PlantedStart(H0))
        mp.setattr(seminmf, "mp_pinv", counted)
        res, caught = _fit_outcome(fit_seminmf, X, l, iters, seed)
        oracle, caught_oracle = _fit_outcome(direct_fit_seminmf, X, l, iters, seed)
    assert calls
    assert caught == caught_oracle
    assert np.array_equal(res.Z, oracle.Z) and np.array_equal(res.H, oracle.H)


def _update_top_four_splits(state, v):
    """The top update with every graph product sign-split, as it was written
    before the splits of provably nonnegative products were dropped; the
    step is the allocating copy of the rule and the Gram-mix product the
    shared G form (checked against the per-view sum below), so only the
    splits are compared."""

    def split(A):
        return np.maximum(A, 0.0), np.maximum(-A, 0.0)

    stack = state.stacks[v]
    Phi = ChainCache.compute(stack, stack.depth - 1).Phi
    X = state.views[v]
    H = stack.top
    S = state.S.dense()
    a_v = float(state.alpha[v])
    beta = state.beta
    G = stacked_tops(state.alpha, state.stacks)
    xp, xm = split(Phi.T @ X)
    gram_p, gram_m = split(Phi.T @ Phi)
    sp, sm = split(H @ S)
    stp, stm = split(H @ S.T)
    gp, gm = split(2.0 * ((H @ G.T) @ G))
    num = xp + gram_m @ H + a_v * beta * (sp + stp + gm)
    den = xm + gram_p @ H + a_v * beta * (sm + stm + gp)
    return allocating_multiplicative_step(H, num, den)


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
        got = update_top(state, v, *top_products(state, v))
        assert np.array_equal(got, _update_top_four_splits(state, v))


@settings(max_examples=100, deadline=None)
@given(
    dims=st.lists(st.integers(2, 8), min_size=1, max_size=4),
    layer_sizes=st.lists(st.integers(1, 4), min_size=1, max_size=3),
    n=st.integers(2, 10),
    zero_weights=st.integers(0, 3),
    seed=SEEDS,
)
def test_gram_mix_product_equals_per_view_sum(dims, layer_sizes, n, zero_weights, seed):
    # (H G^T) G with G the stacked sqrt(alpha_o) H_o is sum_o alpha_o (H H_o^T) H_o
    state = random_state(dims=dims, layer_sizes=layer_sizes, n=n, seed=seed)
    state.alpha[: min(zero_weights, len(dims) - 1)] = 0.0
    state.alpha /= state.alpha.sum()
    G = stacked_tops(state.alpha, state.stacks)
    for stack in state.stacks:
        H = stack.top
        per_view = sum(a * ((H @ o.top.T) @ o.top) for a, o in zip(state.alpha, state.stacks))
        got = (H @ G.T) @ G
        assert np.abs(got - per_view).max() <= 1e-12 * np.abs(per_view).max()


def _rank_warnings(sweep, state):
    """Sweep every view of `state` in turn; the RankDeficientWarning messages, in order."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", RankDeficientWarning)
        for v in range(state.num_views):
            sweep(state, v)
    return [str(w.message) for w in caught if issubclass(w.category, RankDeficientWarning)]


# the sweep and its oracle differ by rounding, amplified by the chain's
# conditioning. A single factor of an ill-conditioned chain is ill-determined:
# its share of a near-null direction is set by rounding, and 1 in about 20
# runs of this test found a factor 7e-8 of its largest entry away. The chains
# the model reads are determined, to within the factors' conditioning: over
# 41000 random states drawn as below, the worst chain, top or right factor
# was 1.5e-9 of its largest entry, but rare draws with a factor of cond
# above 1e7 go beyond 1e-8 (2 of 100000 more draws of depth 3-4, 3.0e-8 at
# worst). So the bound grows with the conditioning (`_sweep_bound`); on
# 40000 of those draws the worst difference was 0.018 of it
SWEEP_REL_BOUND = 1e-8


def _pinv_error_scale(A):
    """size(A) cond(A), with cond over the singular values `mp_pinv` keeps:
    the first-order relative error of a computed pseudo-inverse of A, in
    units of eps.

    Householder QR, and the SVD of its R, are backward stable: the computed
    A^+ is the exact pseudo-inverse of A + dA with ||dA|| up to about
    size(A) eps ||A|| (Higham, Accuracy and Stability of Numerical
    Algorithms, Thm 19.4), and while the rank holds that moves A^+ by about
    cond(A) ||dA|| / ||A|| relative (Wedin, BIT 1973)."""
    s = np.linalg.svd(A, compute_uv=False)
    s = s[s > seminmf.RCOND * s[0]]
    return A.size * s[0] / s[-1]


def _sweep_bound(scales):
    """The largest relative difference of the two routes' chains, for the
    `_pinv_error_scale` of every factor the oracle pseudo-inverts (the
    sweep's factors have the same singular values). A chain is a product of
    such solves, so to first order each route's chains are eps sum(scales)
    from exact, and the two routes twice that from each other. Where that
    is below SWEEP_REL_BOUND, a well-conditioned draw, SWEEP_REL_BOUND holds."""
    return max(SWEEP_REL_BOUND, 2.0 * np.finfo(float).eps * sum(scales))


def _shared_by_both_routes(X, stack):
    """What the row-space sweep and its oracle agree on: each prefix chain
    Z_1..Z_i, each suffix chain Z_i..Z_m H_m, the top and, for d >= n, the
    right factor."""
    parts = [stack.top]
    for i in range(stack.depth):
        chain = ChainCache.compute(stack, i)
        parts += [chain.Phi, stack.mappings[i] @ chain.hhat]
    if X.shape[0] >= X.shape[1]:
        parts.append(stack.right_factor)
    return parts


@settings(max_examples=100, deadline=None)
@given(
    dims=st.lists(st.integers(1, 8), min_size=1, max_size=3),
    layer_sizes=st.lists(st.integers(1, 4), min_size=1, max_size=4),
    n=st.integers(2, 10),
    beta=st.floats(1e-3, 1e3),
    zero_weight=st.booleans(),
    zero_row=st.booleans(),
    seed=SEEDS,
)
# n = 2 below widths 3 and 4: the chain's rank is at most n, so neither warns
@example(dims=[5, 3, 5], layer_sizes=[3, 4], n=2, beta=0.5, zero_weight=False, zero_row=False, seed=52)
# d = 2 below k = 3
@example(dims=[2, 6], layer_sizes=[4, 3], n=9, beta=0.5, zero_weight=False, zero_row=False, seed=3)
# depth 1, and a view with d >= n, whose right factor is compared too
@example(dims=[8, 3], layer_sizes=[3], n=6, beta=2.0, zero_weight=False, zero_row=False, seed=4)
# depth 4 with a zero-weight view
@example(dims=[7, 5, 6], layer_sizes=[4, 4, 3, 2], n=10, beta=0.5, zero_weight=True, zero_row=False, seed=5)
# view 0's top has an all-zero row: both routes warn
@example(dims=[6, 4], layer_sizes=[4, 3], n=8, beta=0.5, zero_weight=False, zero_row=True, seed=6)
# view 1's Z_3 has cond 7.8e13 and is 6.9e-8 of its largest entry away from
# the oracle's; its chains agree within 6e-11
@example(dims=[2, 4], layer_sizes=[3, 4, 4, 4], n=4, beta=1.0, zero_weight=False, zero_row=False, seed=67108863)
# Z_1 is 5.3e-7 of its largest entry away; the chains agree within 1.5e-10
@example(dims=[6], layer_sizes=[4, 4, 4, 4], n=9, beta=1.0, zero_weight=False, zero_row=False, seed=221)
# view 2's Z_1 has cond 1.4e9, and its chains are 3.4e-8 of their largest
# entry apart, against a bound of 1.2e-5 from its factors' conditioning
@example(dims=[3, 5, 4], layer_sizes=[3, 3, 3, 3], n=5, beta=1.0, zero_weight=False, zero_row=False, seed=1320211426)
# chains 3.0e-8 apart, against a bound of 1.5e-6
@example(dims=[2, 2], layer_sizes=[4, 4, 4, 4], n=10, beta=923.0299085093848, zero_weight=True, zero_row=True, seed=2098174026)
def test_sweep_view_matches_recompute_oracle(dims, layer_sizes, n, beta, zero_weight, zero_row, seed):
    # the row-space sweep and the feature-space oracle are the same algebra
    # in other coordinates: the same rank decisions, and the same chains up
    # to rounding
    alpha = None
    if zero_weight and len(dims) > 1:
        alpha = np.full(len(dims), 1.0 / (len(dims) - 1))
        alpha[seed % len(dims)] = 0.0
    state = random_state(dims=dims, layer_sizes=layer_sizes, n=n, beta=beta, seed=seed, alpha=alpha)
    if zero_row and layer_sizes[-1] > 1:
        state.stacks[0].top[0] = 0.0
    oracle = copy.deepcopy(state)
    scales = []

    def recorded_pinv(A, *args, **kwargs):
        P = mp_pinv(A, *args, **kwargs)
        scales.append(_pinv_error_scale(A))
        return P

    with mock.patch.object(conftest, "mp_pinv", recorded_pinv):
        oracle_warnings = _rank_warnings(recompute_sweep_view, oracle)
    assert _rank_warnings(sweep_view, state) == oracle_warnings
    bound = _sweep_bound(scales)
    for X, got, want in zip(state.views, state.stacks, oracle.stacks):
        assert [Z.shape for Z in got.mappings] == [Z.shape for Z in want.mappings]
        if X.shape[0] < X.shape[1]:
            assert got.right_factor is None and want.right_factor is None
        for A, B in zip(_shared_by_both_routes(X, got), _shared_by_both_routes(X, want), strict=True):
            assert np.abs(A - B).max() <= bound * np.abs(B).max()


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(2, 6),
    distinct=st.integers(1, 36),
    exponents=st.tuples(st.integers(-150, 150), st.integers(-150, 150)),
    constant_rows=st.integers(0, 6),
    seed=SEEDS,
)
def test_graph_projection_feasible_and_exact(n, distinct, exponents, constant_rows, seed):
    rng = np.random.default_rng(seed)
    # few distinct values give ties; each value has its own magnitude
    lo, hi = sorted(exponents)
    values = rng.standard_normal(distinct) * 10.0 ** rng.integers(lo, hi + 1, size=distinct)
    Q = values[rng.integers(distinct, size=(n, n))]
    Q[:constant_rows] = Q[:constant_rows, :1]
    S = project_graph(Q.copy())
    assert np.isfinite(S).all()
    assert S.min() >= 0
    assert np.all(np.diag(S) == 0)
    assert np.abs(S.sum(axis=1) - 1.0).max() <= 1e-12
    if np.abs(Q).max() <= 1e3:
        for i in range(n):
            assert np.abs(S[i] - brute_force_row_projection(Q[i], i)).max() <= 1e-8


@settings(max_examples=25, deadline=None)
@given(
    n=st.sampled_from([2, BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1, 2 * BLOCK_ROWS + 3]),
    rows=st.integers(1, 9),
    scale=st.sampled_from([1e-3, 1.0, 1e3]),
    zero_cols=st.integers(0, 3),
    seed=SEEDS,
)
def test_blocked_graph_step_matches_dense_projection(n, rows, scale, zero_cols, seed):
    rng = np.random.default_rng(seed)
    G = scale * rng.random((rows, n))
    G[:, rng.permutation(n)[:zero_cols]] = 0.0
    graph = graph_from_tops(G)
    S = graph.dense()
    assert S.min() >= 0
    assert np.all(np.diag(S) == 0)
    assert np.abs(S.sum(axis=1) - 1.0).max() <= 1e-12
    if isinstance(graph.C, np.ndarray):
        # held as an array, S is the kernel's projection of Q's blocks; the
        # projection is row-separable, so they project bit for bit as Q
        Q = np.vstack([block.copy() for _, block in gram_row_blocks(G)])
        assert np.array_equal(S, project_graph(Q))
    # blockwise products in place of one symmetric Gram move Q at rounding
    # level, and the projection is nonexpansive
    dense = gram_similarity(G)
    oracle = project_graph(dense.copy())
    assert np.abs(S - oracle).max() <= 1e-12 * max(1.0, dense.max())


@settings(max_examples=40, deadline=None)
@given(
    n=st.sampled_from([2, BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1, 2 * BLOCK_ROWS + 3]),
    rows=st.integers(1, 6),
    cut=st.integers(0, 1),
    row_sum=st.sampled_from([0.9, 1.1, 1.3]),
    diagonal=st.booleans(),
    seed=SEEDS,
)
def test_graph_step_keeps_the_smallest_entry_a_scan_finds(n, rows, cut, row_sum, diagonal, seed):
    rng = np.random.default_rng(seed)
    G = 0.5 + rng.random((rows, n))
    # Q's row sums are about row_sum: above 1 each row cuts the sample whose
    # top is zero, and below 1 only the rows whose sum is above 1 do
    G *= np.sqrt(row_sum / (G.T @ G.sum(axis=1)).mean())
    G[:, rng.permutation(n)[: min(cut, n - 1)]] = 0.0
    graph = graph_from_tops(G)
    assert not isinstance(graph.C, np.ndarray)
    indptr, indices, data = graph.C
    if n > 2 and row_sum > 1:
        assert (data.size > 0) == (cut > 0)
    entries = [np.repeat(np.arange(n), np.diff(indptr)), indices, data]
    if diagonal:
        # S_ii = C_ii = 0 held as entries: the same graph, whose rows now
        # hold entries on the diagonal
        held = rng.permutation(n)[: rng.integers(1, n + 1)]
        entries = [np.append(a, b) for a, b in zip(entries, (held, held, np.zeros(held.size)))]
    scanned = ConsensusGraph(graph.G, graph.theta, tuple(entries))
    assert graph.validate(n).min() == scanned.validate(n).min() == graph.dense().min()
    assert scanned.dense().min() == graph.min()


@settings(max_examples=100, deadline=None)
@given(
    p=st.integers(2, 50),
    rows=st.integers(1, 4),
    large=st.integers(1, 5),
    distinct=st.integers(1, 3),
    offset_exp=st.integers(-3, 3),
    pinned=st.booleans(),
    seed=SEEDS,
)
def test_projection_equals_sort_oracle(p, rows, large, distinct, offset_exp, pinned, seed):
    rng = np.random.default_rng(seed)
    # a few large entries, tied through few distinct values, over a log-spread
    # of small ones: the support is small, and Michelot's early thresholds
    # keep too much of the spread, so it takes several passes
    V = -(10.0 ** rng.uniform(-3, 3, size=(rows, p)))
    values = rng.random(distinct)
    for row in V:
        cols = rng.choice(p, size=min(large, p), replace=False)
        row[cols] = values[rng.integers(distinct, size=cols.size)]
    V += rng.standard_normal((rows, 1)) * 10.0**offset_exp
    if pinned:
        V[np.arange(rows), rng.integers(p, size=rows)] = -np.inf
    V_in = V.copy()
    S = project_rows_to_simplex(V)
    assert np.array_equal(V, V_in)
    assert np.abs(S - sort_projection(V)).max() <= 1e-12
    assert np.abs(S.sum(axis=1) - 1.0).max() <= 1e-12


@settings(max_examples=15, deadline=None)
@given(
    n=st.sampled_from([2, BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1, 2 * BLOCK_ROWS + 3]),
    rows=st.integers(1, 6),
    cut=st.integers(1, 3),
    row_sum=st.sampled_from([1.1, 1.3]),
    seed=SEEDS,
)
def test_structured_graph_matches_its_dense_form(n, rows, cut, row_sum, seed):
    rng = np.random.default_rng(seed)
    G = 0.5 + rng.random((rows, n))
    # Q's row sums are about row_sum > 1, so every theta_i > 0 and each row
    # cuts the samples whose top is zero, whose Q_ij is 0
    G *= np.sqrt(row_sum / (G.T @ G.sum(axis=1)).mean())
    G[:, rng.permutation(n)[: min(cut, n - 1)]] = 0.0
    graph = graph_from_tops(G)
    if n > 2:
        assert graph.C[2].size > 0
    Q = gram_similarity(G)
    S = project_graph(Q.copy())
    assert np.abs(graph.dense() - S).max() <= 1e-12 * max(1.0, Q.max())
    H = rng.random((3, n))
    W = S + S.T
    pairs = []
    # the structure and the same graph held as its array
    for form in (graph, ConsensusGraph.from_dense(graph.dense())):
        pairs += [
            (form.symmetric_matmat(H.T), W @ H.T),
            (form.symmetric_matmat(H[0]), W @ H[0]),
            (form.symmetric_matmat(np.ones(n)), W.sum(axis=1)),
        ]
    stack = FactorStack(mappings=[np.eye(3)], top=H)
    state = ModelState(views=[H.copy()], stacks=[stack], S=graph, alpha=np.ones(1), beta=1.0)
    pairs.append((weight_qp(state)[1], np.array([np.vdot(H @ S, H)])))
    for got, want in pairs:
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


@settings(max_examples=60, deadline=None)
@given(
    n=st.sampled_from([2, BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1]),
    views=st.integers(1, 3),
    k=st.integers(1, 3),
    cut=st.integers(0, 3),
    moved=st.booleans(),
    diagonal=st.booleans(),
    form=st.sampled_from(["structured", "array", "array C", "tops moved"]),
    seed=SEEDS,
)
def test_graph_term_from_structure_matches_blockwise_oracle(n, views, k, cut, moved, diagonal, form, seed):
    rng = np.random.default_rng(seed)
    alpha_S = rng.dirichlet(np.ones(views))
    tops = [0.5 + rng.random((k, n)) for _ in range(views)]
    # Q's row sums are about 1.1, so every theta_i > 0 is below every entry
    # of Q but those of the samples whose tops are zero, which are 0 and cut
    c = np.sqrt(1.1 / sum(a * (H.T @ H.sum(axis=1)) for a, H in zip(alpha_S, tops)).mean())
    zero = rng.permutation(n)[: min(cut, n - 1)]
    stacks = []
    for H in tops:
        H = c * H
        H[:, zero] = 0.0
        stacks.append(FactorStack(mappings=[np.eye(k)], top=H))
    graph = update_consensus_graph(alpha_S, stacks)
    assert not isinstance(graph.C, np.ndarray)
    assert (graph.C[2].size > 0) == (cut > 0 and n > 2)
    if diagonal:
        # S_ii = C_ii: an invalid graph, whose graph term is still defined
        indptr, indices, data = graph.C
        rows = np.repeat(np.arange(n), np.diff(indptr))
        C = (np.append(rows, n - 1), np.append(indices, n - 1), np.append(data, 0.5))
        graph = ConsensusGraph(graph.G, graph.theta, C, alpha=alpha_S)
    if form == "array":
        # the same S held as its n x n array, with no structure to read
        graph = ConsensusGraph.from_dense(graph.dense())
    elif form == "array C":
        # the tops with C as an array: no form the graph step builds, but
        # one the constructor takes
        graph = ConsensusGraph(graph.G, graph.theta, scipy_csr(graph).toarray(), alpha=alpha_S)
    elif form == "tops moved":
        # a sweep after the graph step: S is no longer these tops' projection
        stacks[0].top = 1.01 * stacks[0].top
    # a moved alpha is the weight step after the graph step: delta != 0 for V > 1
    alpha = rng.dirichlet(np.ones(views)) if moved else alpha_S
    state = ModelState(
        views=[st.top.copy() for st in stacks], stacks=stacks, S=graph, alpha=alpha, beta=1.0
    )
    assert graph.projected_from(state.stacks) == (form == "structured")
    _, graph_term = objective_terms(state)
    oracle = blockwise_graph_term(state)
    assert abs(graph_term - oracle) <= 1e-12 * oracle


@settings(max_examples=100, deadline=None)
@given(
    dims=st.lists(st.integers(1, 12), min_size=1, max_size=3),
    layer_sizes=st.lists(st.integers(1, 4), min_size=1, max_size=3),
    n=st.integers(2, 12),
    fit=st.sampled_from(["random", "exact", "near-exact"]),
    scale_exp=st.integers(-60, 60),
    seed=SEEDS,
)
# every view fitted exactly: the reconstruction term is rounding alone
@example(dims=[8], layer_sizes=[4, 2], n=15, fit="exact", scale_exp=0, seed=0)
def test_objective_terms_match_the_residual_oracle(dims, layer_sizes, n, fit, scale_exp, seed):
    # ||X||^2 - 2 <Phi^T X, H> + <Phi^T Phi, H H^T> against ||Phi H - X||^2
    # formed whole, before a sweep from the chains and after it from the
    # sweep's products. The expansion keeps about eps (||X|| + ||Phi|| ||H||)^2
    # of absolute error, which is all of it where a view is fitted exactly:
    # over 5000 random cases drawn as here the worst was 7.8e-15 of that scale
    state = random_state(dims=dims, layer_sizes=layer_sizes, n=n, seed=seed)
    rng = np.random.default_rng(seed)
    for v, stack in enumerate(state.stacks):
        X = 2.0**scale_exp * state.views[v]
        if fit != "random":
            X = functools.reduce(np.matmul, stack.mappings) @ stack.top
            if fit == "near-exact":
                X += 1e-6 * np.abs(X).max() * rng.standard_normal(X.shape)
        state.views[v] = X

    def check(products=None):
        recon, graph = objective_terms(state, products)
        want_recon, want_graph = residual_objective_terms(state)
        scale = sum(
            (np.linalg.norm(X) + np.linalg.norm(functools.reduce(np.matmul, st_.mappings)) * np.linalg.norm(st_.top))
            ** 2
            for X, st_ in zip(state.views, state.stacks)
        )
        assert abs(recon - want_recon) <= 1e-12 * scale
        assert graph == want_graph

    check()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RankDeficientWarning)
        try:
            products = [sweep_view(state, v) for v in range(state.num_views)]
        except RankDeficientError:  # a top that loses every direction
            return
    check(products)


def _dense_Q(state):
    """Q as the sum of per-view n x n Grams, as it was formed before the one-Gram form."""
    Q = np.zeros((state.n, state.n))
    for a, stack in zip(state.alpha, state.stacks):
        Q += a * (stack.top.T @ stack.top)
    return Q


def _dense_weight_qp(state):
    """The weight QP's A and f as inner products of per-view n x n Grams."""
    grams = [stack.top.T @ stack.top for stack in state.stacks]
    A = np.array([[np.vdot(Gp, Gq) for Gq in grams] for Gp in grams])
    f = np.array([np.vdot(state.S.dense(), G) for G in grams])
    return A, f


@settings(max_examples=100, deadline=None)
@given(
    dims=st.lists(st.integers(2, 6), min_size=1, max_size=4),
    layer_sizes=st.lists(st.integers(1, 4), min_size=1, max_size=3),
    n=st.integers(2, 30),
    zero_weight=st.booleans(),
    seed=SEEDS,
)
def test_consensus_quantities_equal_per_view_grams(dims, layer_sizes, n, zero_weight, seed):
    alpha = None
    if zero_weight and len(dims) > 1:
        alpha = np.full(len(dims), 1.0 / (len(dims) - 1))
        alpha[seed % len(dims)] = 0.0
    state = random_state(dims=dims, layer_sizes=layer_sizes, n=n, seed=seed, alpha=alpha)
    scales = 10.0 ** np.random.default_rng(seed).uniform(-6, 3, size=len(dims))
    for stack, c in zip(state.stacks, scales):
        stack.top = c * stack.top
    # every term of every entry is positive, so each entry is accurate on its own
    Q = compute_Q(state)
    assert np.array_equal(Q, Q.T)
    assert np.all(np.abs(Q - _dense_Q(state)) <= 1e-12 * _dense_Q(state))
    got_A, got_f = weight_qp(state)
    A, f = _dense_weight_qp(state)
    assert np.array_equal(got_A, got_A.T)
    assert np.all(np.abs(got_A - A) <= 1e-12 * A)
    assert np.all(np.abs(got_f - f) <= 1e-12 * f)


@settings(max_examples=200, deadline=None)
@given(
    data=st.data(),
    V=st.integers(1, 5),
    a_exp=st.integers(-6, 6),
    f_exp=st.integers(-6, 6),
    zero_f=st.booleans(),
    seed=SEEDS,
)
def test_simplex_qp_is_kkt_optimal(data, V, a_exp, f_exp, zero_f, seed):
    rng = np.random.default_rng(seed)
    B = rng.standard_normal((V, data.draw(st.integers(0, V), label="rank"))) * 10.0**a_exp
    A = B @ B.T
    f = np.zeros(V) if zero_f else rng.standard_normal(V) * 10.0**f_exp
    alpha = solve_simplex_qp(A, f)
    assert alpha.min() >= 0.0
    assert abs(alpha.sum() - 1.0) <= 1e-12
    # the QP is convex, so KKT certifies the optimum: the gradient equals a
    # common multiplier on the support and is no smaller off it
    tol = 1e-10 * (max(np.abs(A).max(), np.abs(f).max()) or 1.0)
    grad = A @ alpha - f
    assert grad[alpha > 0].max() - grad.min() <= tol
    objective = 0.5 * alpha @ A @ alpha - f @ alpha
    assert objective <= (0.5 * np.diag(A) - f).min() + tol


def _laplacian_embed(S, k):
    """The embedding from the k smallest eigenvectors of a formed L = I - N."""
    W = (S + S.T) * 0.5
    d_isqrt = 1.0 / np.sqrt(W.sum(axis=1))
    L = np.eye(S.shape[0]) - d_isqrt[:, None] * W * d_isqrt[None, :]
    w, U = np.linalg.eigh((L + L.T) * 0.5)
    E = U[:, :k]
    return E / np.linalg.norm(E, axis=1, keepdims=True), w


@settings(max_examples=100, deadline=None)
@given(n=st.integers(5, 40), k=st.integers(2, 4), seed=SEEDS)
@example(n=4, k=3, seed=0)
def test_spectral_embed_spans_laplacian_eigenvectors(n, k, seed):
    # k < n, the eigen-solver's range; k = n is cluster_graph's singleton partition
    S = project_graph(np.random.default_rng(seed).random((n, n)))
    E_oracle, w = _laplacian_embed(S, k)
    assume(w[k] - w[k - 1] >= 1e-6)
    E = spectral_embed(S, k)
    assert E.shape == (n, k)
    # row normalization commutes with a rotation inside the eigenspace
    assert subspace_angles(E, E_oracle).max() <= 1e-8


def _pinv_outcome(pinv, A, expected_rank):
    """(result or None on RankDeficientError, categories of the warnings raised)."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            P = pinv(A, expected_rank=expected_rank)
        except RankDeficientError:
            P = None
    return P, [w.category for w in caught]


@settings(max_examples=150, deadline=None)
@given(
    m=st.integers(1, 30),
    p=st.integers(1, 30),
    rank=st.integers(0, 30),
    claim_rank=st.booleans(),
    tail=st.booleans(),
    scale_exp=st.integers(-100, 100),
    seed=SEEDS,
)
@example(m=7, p=7, rank=7, claim_rank=False, tail=False, scale_exp=0, seed=0)
@example(m=7, p=7, rank=4, claim_rank=False, tail=True, scale_exp=-100, seed=0)
@example(m=3, p=30, rank=0, claim_rank=False, tail=False, scale_exp=0, seed=0)
def test_pinv_equals_full_svd_oracle(m, p, rank, claim_rank, tail, scale_exp, seed):
    rng = np.random.default_rng(seed)
    q = min(m, p)
    r = min(rank, q)
    # orthonormal factors around r singular values in [1, 10) fix rank and
    # conditioning; the optional tail lies far below the RCOND cut
    U = np.linalg.qr(rng.standard_normal((m, q)))[0]
    W = np.linalg.qr(rng.standard_normal((p, q)))[0]
    s = np.zeros(q)
    s[:r] = 10.0 ** rng.uniform(0, 1, size=r)
    if tail and r:
        s[r:] = 10.0 ** rng.uniform(-30, -14, size=q - r)
    A = (U * (s * 10.0**scale_exp)) @ W.T
    expected_rank = r if claim_rank else None
    P, caught = _pinv_outcome(mp_pinv, A, expected_rank)
    P_oracle, caught_oracle = _pinv_outcome(qr_svd_pinv, A, expected_rank)
    assert caught == caught_oracle
    assert set(caught) <= {RankDeficientWarning}
    if P_oracle is None:
        assert P is None
    else:
        assert P.shape == (p, m)
        assert np.abs(P - P_oracle).max() <= 1e-12 * np.abs(P_oracle).max()


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(6, 20),
    k=st.integers(2, 3),
    depth=st.integers(1, 3),
    height=st.sampled_from(["2n-1", "2n", "5n"]),
    duplicates=st.booleans(),
    seed=SEEDS,
)
@example(n=12, k=3, depth=3, height="5n", duplicates=True, seed=0)
@example(n=12, k=2, depth=2, height="2n-1", duplicates=True, seed=0)
def test_row_space_fit_matches_the_feature_space_loop(n, k, depth, height, duplicates, seed):
    # view 0 is d x n with d in {2n - 1, 2n, 5n}; duplicated sample columns
    # make X rank-deficient and its R singular
    rng = np.random.default_rng(seed)
    d = {"2n-1": 2 * n - 1, "2n": 2 * n, "5n": 5 * n}[height]
    labels = np.arange(n) % k
    views = []
    for rows in (d, int(rng.integers(k, 2 * n))):
        centers = 5.0 * rng.standard_normal((rows, k))
        views.append(np.abs(centers[:, labels] + rng.standard_normal((rows, n))))
    if duplicates:
        m = n // 4
        for X in views:
            X[:, -m:] = X[:, :m]
    l1 = int(rng.integers(k, min(n, views[1].shape[0]) + 1))
    layers = {1: [k], 2: [l1, k], 3: [l1, (l1 + k + 1) // 2, k]}[depth]
    ds = MultiViewDataset(views=views)
    cfg = FitConfig(
        beta=0.5, layers=LayerSpec(layers), max_outer_iters=5, pretrain_iters=20,
        tol_rel_objective=0.0, rng_seed=seed,
    )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RankDeficientWarning)
        res = fit(ds, cfg)
        state, history = direct_fit(ds, cfg)
    if height == "2n-1":  # below ROW_SPACE_RATIO: no view is compressed
        assert np.array_equal(res.objective_history, history)
        assert np.array_equal(res.state.alpha, state.alpha)
        assert all(np.array_equal(a.mappings[0], b.mappings[0]) for a, b in zip(res.state.stacks, state.stacks))
    assert (np.abs(res.objective_history - history) <= 1e-10 * np.abs(history)).all()
    assert np.abs(res.state.alpha - state.alpha).max() <= 1e-10
    for a, b in zip(res.state.stacks, state.stacks):
        assert a.mappings[0].shape == b.mappings[0].shape
        assert np.abs(a.mappings[0] - b.mappings[0]).max() <= 1e-9 * np.abs(b.mappings[0]).max()
    assert np.array_equal(cluster_graph(res.state.S, k, seed=0).labels, cluster_graph(state.S, k, seed=0).labels)


@settings(max_examples=100, deadline=None)
@given(
    n=st.integers(1, 12),
    extra=st.integers(0, 30),
    zero=st.booleans(),
    duplicate=st.booleans(),
    seed=SEEDS,
)
@example(n=7, extra=9, zero=True, duplicate=True, seed=0)  # d = 23, not a multiple of n
def test_row_space_factor_matches_dtpqrt(n, extra, zero, duplicate, seed):
    # a tall view's R, from numpy's QR, against LAPACK's dtpqrt folding X in
    # n rows at a time: X^T X = R^T R, and R is unique up to its rows' signs
    # over the rows before X's first dependent column (past it, the rows are
    # fixed only up to a rotation)
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((ROW_SPACE_RATIO * n + extra, n))
    dependent = []
    if zero:
        j = int(rng.integers(n))
        X[:, j] = 0.0
        dependent.append(j)
    if duplicate and n > 1:
        a, b = sorted(rng.choice(n, 2, replace=False))
        X[:, b] = X[:, a]
        dependent.append(b)
    R, oracle = row_space_factor(X), dtpqrt_row_space_factor(X)
    assert R.shape == (n, n) and np.array_equal(R, np.triu(R))
    K = X.T @ X
    assert np.abs(R.T @ R - K).max() <= 1e-13 * np.abs(K).max()
    lead = min(dependent, default=n)
    signs = np.where(np.signbit(np.diag(R)[:lead]) == np.signbit(np.diag(oracle)[:lead]), 1.0, -1.0)
    gap = np.abs(signs[:, None] * R[:lead] - oracle[:lead]).max(initial=0.0)
    assert gap <= 1e-13 * np.abs(oracle).max()


@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(1, 40),
    extra=st.integers(0, 60),
    layout=st.sampled_from(["C", "F", "strided rows", "strided columns"]),
    zero=st.booleans(),
    duplicate=st.booleans(),
    seed=SEEDS,
)
@example(n=5, extra=3, layout="F", zero=False, duplicate=False, seed=0)  # X^T is C-contiguous
def test_row_space_factor_is_numpys_qr_and_leaves_x_unchanged(n, extra, layout, zero, duplicate, seed):
    # the in-place dgeqrf on a copy of X gives `np.linalg.qr`'s R bit for
    # bit, and never writes the caller's X, whatever its layout: a
    # Fortran-ordered X's transpose is C-contiguous, so without the copy
    # dgeqrf would overwrite it
    rng = np.random.default_rng(seed)
    d = ROW_SPACE_RATIO * n + extra
    X = rng.standard_normal((d, n))
    if zero:
        X[:, rng.integers(n)] = 0.0
    if duplicate and n > 1:
        a, b = rng.choice(n, 2, replace=False)
        X[:, b] = X[:, a]
    if layout == "F":
        X = np.asfortranarray(X)
    elif layout == "strided rows":
        X = np.repeat(X, 2, axis=0)[::2]
    elif layout == "strided columns":
        X = np.repeat(X, 3, axis=1)[:, ::3]
    before = X.copy()
    R, oracle = row_space_factor(X), np.linalg.qr(X, mode="r")
    assert R.dtype == oracle.dtype and R.shape == oracle.shape
    assert R.tobytes() == oracle.tobytes()  # signed zeros included
    assert X.tobytes() == before.tobytes()


@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(1, 30),
    nnz=st.integers(0, 60),
    width=st.sampled_from([None, 1, 4]),
    seed=SEEDS,
)
def test_graph_of_entries_matches_scipy(n, nnz, width, seed):
    # G empty and theta 0: S is C, given as distinct entries in any order
    rng = np.random.default_rng(seed)
    nnz = min(nnz, n * n)
    rows, cols = np.divmod(rng.choice(n * n, size=nnz, replace=False), n)
    vals = rng.standard_normal(nnz)
    graph = ConsensusGraph(np.empty((0, n)), np.zeros(n), (rows, cols, vals))
    oracle = sparse.csr_array((vals, (rows, cols)), shape=(n, n))
    indptr, indices, data = graph.C
    assert graph.shape == oracle.shape and data.size == oracle.nnz
    assert indices.dtype == np.int32 and data.dtype == np.float64
    assert not any(a.flags.writeable for a in graph.C)
    assert np.array_equal(indptr, oracle.indptr)
    assert np.array_equal(indices, oracle.indices)
    assert np.array_equal(data, oracle.data)
    X = rng.standard_normal(n if width is None else (n, width))
    tol = 1e-13 * (np.abs(vals).sum() * np.abs(X).max() + 1e-300)
    for ours, theirs in (
        (graph.symmetric_matmat(X), oracle @ X + oracle.T @ X),
        (graph._diagonal(), oracle.diagonal()),
        (graph._matmat(np.ones(n)), oracle.sum(axis=1)),
    ):
        assert ours.shape == theirs.shape
        assert np.abs(ours - theirs).max(initial=0.0) <= tol


@pytest.mark.parametrize(
    "rows, cols, message",
    [
        ([0, 2, 0], [1, 0, 1], "two entries at one position"),
        ([0, 3], [1, 0], "outside 3 x 3"),
        ([0, -1], [1, 0], "outside 3 x 3"),
        ([0, 1], [3, 0], "outside 3 x 3"),
        ([0, 1], [1], "2 rows, 1 columns and 2 values"),
    ],
)
def test_graph_rejects_a_repeated_or_outside_entry(rows, cols, message):
    with pytest.raises(ValueError, match=message):
        ConsensusGraph(np.empty((0, 3)), np.zeros(3), (rows, cols, np.ones(len(rows))))


@settings(max_examples=200, deadline=None)
@given(
    rows=st.integers(0, 8),
    cols=st.integers(1, 8),
    levels=st.integers(0, 3),
    padded=st.booleans(),
    seed=SEEDS,
)
@example(rows=4, cols=4, levels=0, padded=False, seed=0)  # every cost tied
@example(rows=2, cols=6, levels=3, padded=True, seed=0)
def test_hungarian_matches_the_csgraph_matcher(rows, cols, levels, padded, seed):
    # padded: a negated contingency table zero-padded to square, as accuracy
    # builds it; otherwise a square cost on a few levels (many ties) or, at
    # levels 0 and any size, continuous costs
    rng = np.random.default_rng(seed)
    if padded:
        size = max(rows, cols)
        cost = np.zeros((size, size))
        cost[:rows, :cols] = -rng.integers(0, levels + 1, size=(rows, cols))
    elif levels:
        cost = 0.5 * rng.integers(-levels, levels + 1, size=(rows, rows))
    else:
        cost = rng.standard_normal((rows, rows)) if seed % 2 else np.ones((rows, rows))
    perm, oracle = hungarian(cost), csgraph_assignment(cost)
    size = cost.shape[0]
    assert perm.dtype == np.int64 and np.array_equal(np.sort(perm), np.arange(size))
    best = cost[np.arange(size), oracle].sum()
    assert abs(cost[np.arange(size), perm].sum() - best) <= 1e-12 * max(1.0, np.abs(cost).sum())
