import numpy as np
import pytest

from mvclust import (
    FactorStack,
    ModelState,
    MultiViewDataset,
    accuracy,
    cluster_graph,
    compute_Q,
    fit,
    fit_with_restarts,
    generate_synthetic,
    normalize_views,
    objective,
    objective_terms,
    update_consensus_graph,
)

from conftest import random_state, simple_config


def _exactly_factorable_state(beta, seed=0, n=15):
    rng = np.random.default_rng(seed)
    d, l1, l2 = 8, 4, 2
    Z1 = rng.standard_normal((d, l1))
    Z2 = rng.standard_normal((l1, l2))
    H2 = rng.random((l2, n)) + 0.1
    H1 = rng.random((l1, n))
    X = Z1 @ Z2 @ H2
    stack = FactorStack(mappings=[Z1, Z2], representations=[H1, H2])
    Q = H2.T @ H2
    S = update_consensus_graph(Q)
    return ModelState(views=[X], stacks=[stack], S=S, alpha=np.array([1.0]), beta=beta)


def test_objective_zero_reconstruction_term():
    state = _exactly_factorable_state(beta=3.7)
    Q = compute_Q(state)
    expected = 3.7 * np.linalg.norm(state.S - Q) ** 2
    assert objective(state) == pytest.approx(expected, rel=1e-10, abs=1e-12)


def test_objective_beta_scaling_isolates_reconstruction():
    # vanishing beta leaves only the reconstruction error
    state = random_state(seed=1, beta=1e-300)
    recon, _ = objective_terms(state)
    assert objective(state) == pytest.approx(recon, rel=1e-12)


def test_objective_matches_independent_evaluation():
    state = random_state(dims=(7, 9), layer_sizes=(4, 3), n=11, seed=2, beta=0.8)
    # from-scratch evaluation with differently ordered operations
    total = 0.0
    for X, stack in zip(state.views, state.stacks):
        prod = np.eye(X.shape[0])
        for Z in stack.mappings:
            prod = prod @ Z
        R = X - prod @ stack.representations[-1]
        total += float((R * R).sum())
    Q = np.zeros((state.n, state.n))
    for a, st in zip(state.alpha, state.stacks):
        H = st.representations[-1]
        Q += a * np.einsum("li,lj->ij", H, H)
    D = state.S - Q
    total += state.beta * float((D * D).sum())
    assert objective(state) == pytest.approx(total, rel=1e-10)


def _small_dataset(seed=0):
    ds = generate_synthetic(
        n=48, k=3, n_views=2, dims=(10, 12), separation=8.0, noise_sigma=0.6, seed=seed
    )
    return normalize_views(ds)


def test_fit_zero_iterations_returns_initial_state():
    ds = _small_dataset()
    cfg = simple_config([4, 3], max_outer_iters=0, pretrain_iters=20)
    res = fit(ds, cfg)
    assert res.iters_run == 0
    assert len(res.objective_history) == 1
    assert not res.converged
    res.state.validate()


def test_fit_deterministic():
    ds = _small_dataset(seed=1)
    cfg = simple_config([4, 3], max_outer_iters=8, pretrain_iters=25, rng_seed=7)
    a = fit(ds, cfg)
    b = fit(ds, cfg)
    assert np.array_equal(a.objective_history, b.objective_history)
    assert np.array_equal(a.state.S, b.state.S)
    assert np.array_equal(a.state.alpha, b.state.alpha)


def test_fit_monotone_history_and_invariants():
    ds = _small_dataset(seed=2)
    cfg = simple_config([6, 3], max_outer_iters=40, pretrain_iters=40, rng_seed=3)
    seen = []
    res = fit(ds, cfg, on_iteration=lambda state, it, obj: seen.append(it))
    h = res.objective_history
    assert len(h) == res.iters_run + 1
    assert np.isfinite(h).all() and (h >= 0).all()
    assert (h[1:] <= h[:-1] * (1 + 1e-8)).all()
    assert seen == list(range(1, res.iters_run + 1))


def test_fit_history_length_contract():
    ds = _small_dataset(seed=3)
    cfg = simple_config([3], max_outer_iters=5, pretrain_iters=15)
    res = fit(ds, cfg)
    assert len(res.objective_history) == res.iters_run + 1


def test_fit_convergence_flag():
    ds = _small_dataset(seed=4)
    cfg = simple_config(
        [3], max_outer_iters=150, pretrain_iters=40, tol_rel_objective=3e-3
    )
    res = fit(ds, cfg)
    assert res.converged
    assert res.iters_run < 150
    # the objective kept within tolerance over the whole stopping window
    h = res.objective_history
    rel = np.abs(np.diff(h[-6:])) / h[-6:-1]
    assert (rel < 3e-3).all()


def test_restarts_one_equals_fit():
    ds = _small_dataset(seed=5)
    cfg = simple_config([4, 3], max_outer_iters=6, pretrain_iters=20, restarts=1, rng_seed=11)
    single = fit(ds, cfg)
    multi = fit_with_restarts(ds, cfg)
    assert np.array_equal(single.objective_history, multi.objective_history)
    assert len(multi.restart_summaries) == 1
    assert multi.restart_summaries[0].seed == 11
    assert single.seed == multi.seed == 11


def test_restarts_pick_minimum_objective():
    ds = _small_dataset(seed=6)
    cfg = simple_config([4, 3], max_outer_iters=6, pretrain_iters=20, restarts=5, rng_seed=0)
    res = fit_with_restarts(ds, cfg)
    finals = [s.final_objective for s in res.restart_summaries]
    assert len(finals) == 5
    assert res.final_objective == min(finals)
    assert [s.seed for s in res.restart_summaries] == list(range(5))
    assert res.seed == int(np.argmin(finals))


def test_restarts_tie_returns_a_tied_run(monkeypatch):
    # every run converging identically: any run may be returned, and its
    # objective equals the tied value (ours keeps the first, deterministically)
    import mvclust.fitting as fitting

    calls = []

    def fake_fit(ds, cfg, on_iteration=None):
        calls.append(cfg.rng_seed)
        state = random_state(seed=0)
        return fitting.FitResult(
            state=state,
            objective_history=np.array([5.0, 2.5]),
            iters_run=1,
            converged=True,
            wall_time=0.0,
            seed=cfg.rng_seed,
        )

    monkeypatch.setattr(fitting, "fit", fake_fit)
    ds = _small_dataset(seed=7)
    cfg = simple_config([4, 3], restarts=3, rng_seed=20)
    res = fitting.fit_with_restarts(ds, cfg)
    finals = [s.final_objective for s in res.restart_summaries]
    assert finals == [2.5, 2.5, 2.5]
    assert res.final_objective == 2.5
    assert calls == [20, 21, 22]
    assert res.seed == 20
    assert [s.seed for s in res.restart_summaries] == [20, 21, 22]


def test_fit_emits_progress_records(caplog):
    import logging

    ds = _small_dataset(seed=8)
    cfg = simple_config([3], max_outer_iters=3, pretrain_iters=15)
    with caplog.at_level(logging.INFO, logger="mvclust.fitting"):
        fit(ds, cfg)
    records = [r.message for r in caplog.records if r.message.startswith("iter=")]
    assert len(records) == 3
    for msg in records:
        for field in ("objective=", "recon=", "graph=", "alpha="):
            assert field in msg


def test_fit_rejects_layer_label_mismatch():
    from mvclust.errors import LayerSpecError

    ds = _small_dataset(seed=9)  # 3 labelled classes
    cfg = simple_config([4, 2], max_outer_iters=2, pretrain_iters=10)
    with pytest.raises(LayerSpecError):
        fit(ds, cfg)


def test_fit_on_unnormalized_data_at_scale_1e10():
    # Q entries reach about 1e20, where adding 1 to a partial sum is lost
    ds = generate_synthetic(
        n=60, k=3, n_views=2, dims=(8, 9), separation=10.0, noise_sigma=0.5, seed=0
    )
    ds = MultiViewDataset(views=[1e10 * X for X in ds.views], labels=ds.labels)
    res = fit(ds, simple_config([3]))
    S = res.state.S
    assert np.abs(S.sum(axis=1) - 1.0).max() <= 1e-9
    assert accuracy(ds.labels, cluster_graph(S, 3).labels) == 1.0
