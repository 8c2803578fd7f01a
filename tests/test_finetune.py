import copy

import numpy as np
import pytest

from mvclust import FactorStack, ModelState, finetune
from mvclust.consensus import ConsensusGraph, compute_Q, update_view_weights
from mvclust.errors import RankDeficientError
from mvclust.finetune import sweep_view, update_top
from mvclust.seminmf import mp_pinv

from conftest import (
    ChainCache,
    counted_views,
    mapping_factors,
    objective,
    project_graph,
    random_state,
    top_kkt_residual,
    top_products,
    update_basis,
    update_mapping,
    update_representation,
)


def test_update_mapping_depth_one_is_basis_update():
    state = random_state(dims=(7,), layer_sizes=(3,), seed=1)
    Z = update_mapping(*mapping_factors(state, 0, 0))[0]
    ref = update_basis(state.views[0], state.stacks[0].top)
    assert np.array_equal(Z, ref)


def test_update_mapping_consistent_system():
    rng = np.random.default_rng(2)
    d, l1, l2, n = 9, 5, 3, 20
    Z1 = rng.standard_normal((d, l1))
    Z2 = rng.standard_normal((l1, l2))
    H2 = rng.random((l2, n)) + 0.1
    X = Z1 @ Z2 @ H2
    state = ModelState(
        views=[X],
        stacks=[FactorStack(mappings=[Z1, Z2], top=H2)],
        S=project_graph(np.zeros((n, n))),
        alpha=np.array([1.0]),
        beta=0.5,
    )
    for i in range(2):
        new_Z = update_mapping(*mapping_factors(state, 0, i))[0]
        state.stacks[0].mappings[i] = new_Z
        cache = ChainCache.compute(state.stacks[0], i)
        phi = np.eye(d) if cache.phi is None else cache.phi
        assert np.linalg.norm(X - phi @ new_Z @ cache.hhat) <= 1e-9


def test_update_mapping_first_order_condition():
    for seed in range(5):
        state = random_state(dims=(10, 8), layer_sizes=(5, 3), n=16, seed=30 + seed)
        for v in range(2):
            for i in range(2):
                state.stacks[v].mappings[i] = update_mapping(*mapping_factors(state, v, i))[0]
                cache = ChainCache.compute(state.stacks[v], i)
                X = state.views[v]
                phi = cache.phi if cache.phi is not None else np.eye(X.shape[0])
                R = X - phi @ state.stacks[v].mappings[i] @ cache.hhat
                resid = np.linalg.norm(phi.T @ R @ cache.hhat.T)
                assert resid <= 1e-7 * np.linalg.norm(X)


def test_update_mapping_optimal_under_perturbation():
    state = random_state(dims=(9,), layer_sizes=(4, 2), seed=3)
    i = 1
    state.stacks[0].mappings[i] = update_mapping(*mapping_factors(state, 0, i))[0]
    cache = ChainCache.compute(state.stacks[0], i)
    X = state.views[0]
    base = np.linalg.norm(X - cache.phi @ state.stacks[0].mappings[i] @ cache.hhat)
    rng = np.random.default_rng(4)
    for _ in range(100):
        delta = rng.standard_normal(state.stacks[0].mappings[i].shape)
        delta *= 1e-3 / np.linalg.norm(delta)
        perturbed = np.linalg.norm(
            X - cache.phi @ (state.stacks[0].mappings[i] + delta) @ cache.hhat
        )
        assert perturbed >= base - 1e-12


def test_update_top_beta_zero_reduces_to_plain_rule():
    state = random_state(dims=(8, 6), layer_sizes=(4, 2), seed=7, beta=0.0)
    top = update_top(state, 0, *top_products(state, 0))
    Phi = ChainCache.compute(state.stacks[0], 1).Phi
    plain = update_representation(state.views[0], Phi, state.stacks[0].top)
    assert np.allclose(top, plain, atol=1e-14)


def test_update_top_single_view_drops_cross_term():
    state = random_state(dims=(8,), layer_sizes=(4, 3), seed=8, alpha=[1.0], beta=0.7)
    H = state.stacks[0].top
    got = update_top(state, 0, *top_products(state, 0))

    # manual rule with G = 0
    cache = ChainCache.compute(state.stacks[0], 1)
    Phi = cache.Phi
    X = state.views[0]
    xp = np.maximum(Phi.T @ X, 0)
    xm = np.maximum(-(Phi.T @ X), 0)
    gp = np.maximum(Phi.T @ Phi, 0)
    gm = np.maximum(-(Phi.T @ Phi), 0)
    HS, HSt = H @ state.S.dense(), H @ state.S.dense().T
    quart = 2.0 * ((H @ H.T) @ H)
    num = xp + gm @ H + 0.7 * (HS + HSt)
    den = xm + gp @ H + 0.7 * quart
    ref = H * np.sqrt(num / np.maximum(den, 1e-12))
    assert np.allclose(got, ref, atol=1e-12)


def test_update_top_nonnegativity_and_zero_preservation():
    state = random_state(dims=(8, 6), layer_sizes=(3, 2), seed=9, beta=2.0)
    state.stacks[0].top[0] = 0.0
    H2 = update_top(state, 0, *top_products(state, 0))
    assert H2.min() >= 0
    assert not H2[0].any()


def test_update_top_kkt_residual_shrinks():
    state = random_state(dims=(5, 4), layer_sizes=(2,), n=6, seed=10, beta=1.0)
    start = top_kkt_residual(state, 0)
    for _ in range(200):
        state.stacks[0].top = update_top(state, 0, *top_products(state, 0))
    end = top_kkt_residual(state, 0)
    assert end < start
    assert end <= 1e-6 * max(start, 1.0)


def test_one_sweep_never_increases_objective():
    for seed in range(10):
        state = random_state(dims=(9, 7, 8), layer_sizes=(4, 3), n=14, seed=70 + seed, beta=0.5)
        before = objective(state)
        for v in range(state.num_views):
            sweep_view(state, v)
        state.S = ConsensusGraph.from_dense(project_graph(compute_Q(state)))
        state.alpha = update_view_weights(state)
        after = objective(state)
        assert after <= before * (1 + 1e-8)


def test_sweep_sees_other_views_fresh_tops():
    # views are swept in turn: view 1's sweep couples to view 0's post-sweep top
    base = random_state(dims=(7, 6), layer_sizes=(3,), n=10, seed=12, beta=1.5)
    seq = copy.deepcopy(base)
    sweep_view(seq, 0)
    fresh = copy.deepcopy(base)
    fresh.stacks[0] = copy.deepcopy(seq.stacks[0])
    sweep_view(seq, 1)
    sweep_view(fresh, 1)
    assert np.array_equal(seq.stacks[1].top, fresh.stacks[1].top)
    stale = copy.deepcopy(base)
    sweep_view(stale, 1)
    assert not np.array_equal(seq.stacks[1].top, stale.stacks[1].top)


# n and every d exceed every width, so a factor as large as n x l or d x l
# is larger than any the row-space sweep needs; view 0 has d >= n
COST_DIMS, COST_N = (40, 12), 30
COST_LAYERS = {1: (3,), 2: (6, 3), 3: (6, 5, 3)}


@pytest.mark.parametrize("depth", [1, 2, 3])
def test_sweep_takes_pseudo_inverses_no_larger_than_the_widths(monkeypatch, depth):
    layers = COST_LAYERS[depth]
    state = random_state(dims=COST_DIMS, layer_sizes=layers, n=COST_N, seed=20 + depth)
    shapes = []

    def recording_pinv(A, *args, **kwargs):
        shapes.append(A.shape)
        return mp_pinv(A, *args, **kwargs)

    monkeypatch.setattr(finetune, "mp_pinv", recording_pinv)
    for v in range(state.num_views):
        sweep_view(state, v)
    # right factor and left factor per layer, but no left factor at layer 0
    assert len(shapes) == state.num_views * (2 * depth - 1)
    assert max(max(shape) for shape in shapes) <= max(layers)


@pytest.mark.parametrize("depth", [1, 2, 3])
def test_sweep_reads_each_view_in_two_products(depth):
    state = random_state(dims=COST_DIMS, layer_sizes=COST_LAYERS[depth], n=COST_N, seed=30 + depth)
    state.views = counted_views(state.views)
    for v in range(state.num_views):
        sweep_view(state, v)
        assert state.views[v].matmuls == 2


@pytest.mark.parametrize("depth", [1, 2, 3])
def test_sweep_returns_the_products_of_its_final_chain(depth):
    state = random_state(dims=COST_DIMS, layer_sizes=COST_LAYERS[depth], n=COST_N, seed=40 + depth)
    for v in range(state.num_views):
        PhitX, PhitPhi = sweep_view(state, v)
        want_X, want_Phi = top_products(state, v)
        assert np.abs(PhitX - want_X).max() <= 1e-10 * np.abs(want_X).max()
        assert np.abs(PhitPhi - want_Phi).max() <= 1e-10 * np.abs(want_Phi).max()


@pytest.mark.parametrize("top", [0.0, np.nan, np.inf])
def test_sweep_rejects_a_zero_or_non_finite_top(top):
    state = random_state(dims=(8, 6), layer_sizes=(4, 3), seed=13)
    state.stacks[1].top[:] = top
    with pytest.raises(RankDeficientError):
        sweep_view(state, 1)
