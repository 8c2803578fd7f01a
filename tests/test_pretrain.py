import numpy as np

from mvclust import LayerSpec, MultiViewDataset, validate_dataset
from mvclust.consensus import gram_similarity
from mvclust.pretrain import initialize_state, pretrain_view
from mvclust.seminmf import fit_seminmf

from conftest import hierarchical_dataset, objective, simple_config


def test_depth_one_equals_single_seminmf():
    rng = np.random.default_rng(0)
    X = rng.standard_normal((8, 20))
    cfg = simple_config([3], pretrain_iters=60, rng_seed=4)
    stack = pretrain_view(X, cfg, np.random.SeedSequence(cfg.rng_seed))
    seed = np.random.SeedSequence(cfg.rng_seed).spawn(1)[0]
    ref = fit_seminmf(X, 3, iters=cfg.pretrain_iters, seed=seed)
    assert np.array_equal(stack.mappings[0], ref.Z)
    assert np.array_equal(stack.top, ref.H)


def test_depth_three_stack_is_valid():
    rng = np.random.default_rng(1)
    X = rng.standard_normal((20, 60))
    cfg = simple_config([12, 6, 3], pretrain_iters=40)
    stack = pretrain_view(X, cfg, np.random.SeedSequence(cfg.rng_seed))
    stack.validate(d=20, n=60)
    assert [Z.shape for Z in stack.mappings] == [(20, 12), (12, 6), (6, 3)]
    assert stack.top.shape == (3, 60) and stack.top.min() >= 0


def test_pretrain_deterministic():
    rng = np.random.default_rng(2)
    X = rng.standard_normal((10, 30))
    cfg = simple_config([6, 3], pretrain_iters=30, rng_seed=9)
    a = pretrain_view(X, cfg, np.random.SeedSequence(cfg.rng_seed))
    b = pretrain_view(X, cfg, np.random.SeedSequence(cfg.rng_seed))
    for Za, Zb in zip(a.mappings, b.mappings):
        assert np.array_equal(Za, Zb)


def test_hierarchical_top_gram_separates_superclusters():
    ds = hierarchical_dataset(n=120, n_views=1, dims=(18,), seed=3)
    cfg = simple_config([6, 3], pretrain_iters=80, rng_seed=0)
    stack = pretrain_view(ds.views[0], cfg, np.random.SeedSequence(cfg.rng_seed))
    G = gram_similarity(stack.top)
    same = ds.labels[:, None] == ds.labels[None, :]
    off = ~np.eye(ds.n, dtype=bool)
    within = G[same & off].mean()
    between = G[~same].mean()
    assert within > between


def test_initialize_state_uniform_alpha_and_feasible_graph():
    ds = hierarchical_dataset(n=60, n_views=3, dims=(12, 15, 10), seed=4)
    cfg = simple_config([4, 3], pretrain_iters=25, rng_seed=1)
    state = initialize_state(ds, cfg)
    assert np.allclose(state.alpha, 1.0 / 3.0)
    state.validate()
    assert np.abs(state.S.dense().sum(axis=1) - 1.0).max() <= 1e-12
    assert np.all(np.diag(state.S.dense()) == 0)


def test_initialize_state_single_view():
    rng = np.random.default_rng(5)
    ds = validate_dataset(MultiViewDataset(views=[rng.standard_normal((9, 25))]))
    cfg = simple_config([3], pretrain_iters=25, rng_seed=2)
    state = initialize_state(ds, cfg)
    assert np.array_equal(state.alpha, [1.0])
    state.validate()


def test_initial_objective_finite():
    ds = hierarchical_dataset(n=50, n_views=2, dims=(10, 12), seed=6)
    cfg = simple_config([4, 3], pretrain_iters=20, rng_seed=3)
    state = initialize_state(ds, cfg)
    val = objective(state)
    assert np.isfinite(val) and val >= 0


def test_pretrain_error_carries_layer_and_view():
    import pytest

    from mvclust.errors import RankDeficientError

    zeros = np.zeros((5, 10))
    cfg = simple_config([3], pretrain_iters=10)
    with pytest.raises(RankDeficientError, match="layer 0"):
        pretrain_view(zeros, cfg, np.random.SeedSequence(cfg.rng_seed))
    ds = MultiViewDataset(views=[np.random.default_rng(0).random((5, 10)), zeros])
    with pytest.raises(RankDeficientError, match="view 1"):
        initialize_state(validate_dataset(ds), cfg)
