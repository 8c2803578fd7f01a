from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from mvclust import (
    FactorStack,
    FitConfig,
    LayerSpec,
    ModelState,
    MultiViewDataset,
    accuracy,
    cluster_graph,
    fit,
    generate_synthetic,
    normalize_views,
)
from mvclust.consensus import BLOCK_ROWS, compute_Q
from mvclust.errors import (
    LayerSpecError,
    MvclustError,
    NonFiniteFactorError,
    RankDeficientError,
    TooManyViewsError,
)
from mvclust.fitting import objective_terms
from mvclust.pretrain import initialize_state, pretrain_view

from conftest import (
    blockwise_graph_term,
    counted_views,
    objective,
    project_graph,
    random_state,
    run_in_fresh_interpreter,
    simple_config,
    traced_peak,
)


def _exactly_factorable_state(beta, seed=0, n=15):
    rng = np.random.default_rng(seed)
    d, l1, l2 = 8, 4, 2
    Z1 = rng.standard_normal((d, l1))
    Z2 = rng.standard_normal((l1, l2))
    H2 = rng.random((l2, n)) + 0.1
    X = Z1 @ Z2 @ H2
    stack = FactorStack(mappings=[Z1, Z2], top=H2)
    Q = H2.T @ H2
    S = project_graph(Q)
    return ModelState(views=[X], stacks=[stack], S=S, alpha=np.array([1.0]), beta=beta)


def test_objective_zero_reconstruction_term():
    state = _exactly_factorable_state(beta=3.7)
    Q = compute_Q(state)
    expected = 3.7 * np.linalg.norm(state.S.dense() - Q) ** 2
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
        R = X - prod @ stack.top
        total += float((R * R).sum())
    Q = np.zeros((state.n, state.n))
    for a, st in zip(state.alpha, state.stacks):
        H = st.top
        Q += a * np.einsum("li,lj->ij", H, H)
    D = state.S.dense() - Q
    total += state.beta * float((D * D).sum())
    assert objective(state) == pytest.approx(total, rel=1e-10)


def test_graph_term_accurate_on_clique_graph():
    # S is three 1000-cliques and Q almost equals it, so graph/||S||^2 = 1/1000;
    # the expansion ||S||^2 - 2 f.alpha + alpha.A.alpha is 1.1e-9 relative off here
    size, k = 1000, 3
    blocks = np.repeat(np.arange(k), size)
    H = (np.arange(k)[:, None] == blocks[None, :]) / np.sqrt(size)
    S = (blocks[:, None] == blocks[None, :]) / (size - 1.0)
    np.fill_diagonal(S, 0.0)
    stack = FactorStack(mappings=[np.eye(k)], top=H)
    state = ModelState(views=[H.copy()], stacks=[stack], S=S, alpha=np.array([1.0]), beta=1.0)
    _, graph = objective_terms(state)
    assert graph == pytest.approx(k / (size - 1.0), rel=1e-10, abs=0)


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


def _tall_dataset(n=40, seed=0):
    # view 0 is 3n tall, so the fit takes it in its row space; view 1 is not
    ds = generate_synthetic(
        n=n, k=3, n_views=2, dims=(3 * n, 12), separation=8.0, noise_sigma=0.6, seed=seed
    )
    return normalize_views(ds)


@pytest.mark.parametrize("layers", [[6, 3], [3]], ids=["depth 2", "depth 1"])
@pytest.mark.parametrize("iters", [0, 3])
def test_a_row_space_fit_returns_the_callers_views_and_a_feature_space_basis(layers, iters):
    # at 0 iterations Z_1 is lifted by pretraining's right factor, which at
    # depth 1 is rescaled with Z_1 = Z_m
    ds = _tall_dataset()
    seen = []
    cfg = simple_config(layers, max_outer_iters=iters, pretrain_iters=20, tol_rel_objective=0.0)
    res = fit(ds, cfg, on_iteration=lambda state, it, obj: seen.append(state.views[0].shape))
    assert seen == [(ds.n, ds.n)] * iters
    assert all(X is Y for X, Y in zip(res.state.views, ds.views))
    for X, stack in zip(ds.views, res.state.stacks):
        assert stack.mappings[0].shape == (X.shape[0], layers[0])
    # the tall view's basis is X P; the thin view keeps no right factor
    tall, thin = res.state.stacks
    assert np.array_equal(tall.mappings[0], ds.views[0] @ tall.right_factor)
    assert thin.right_factor is None
    assert objective(res.state) == pytest.approx(res.final_objective, rel=1e-12, abs=0)
    res.state.validate()


def test_fit_deterministic():
    ds = _small_dataset(seed=1)
    cfg = simple_config([4, 3], max_outer_iters=8, pretrain_iters=25, rng_seed=7)
    a = fit(ds, cfg)
    b = fit(ds, cfg)
    assert np.array_equal(a.objective_history, b.objective_history)
    assert np.array_equal(a.state.S.dense(), b.state.S.dense())
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
    # restarts 1 is one run from rng_seed, summarized
    import mvclust.fitting as fitting

    ds = _small_dataset(seed=5)
    cfg = simple_config([4, 3], max_outer_iters=6, pretrain_iters=20, restarts=1, rng_seed=11)
    res = fit(ds, cfg)
    run = fitting._run(fitting.row_space(ds), cfg, None)
    assert np.array_equal(res.objective_history, run.objective_history)
    assert np.array_equal(res.state.alpha, run.state.alpha)
    [summary] = res.restart_summaries
    assert (summary.seed, summary.final_objective, summary.iters_run, summary.converged, summary.error) == (
        11, res.final_objective, res.iters_run, res.converged, None
    )
    assert summary.wall_time == res.wall_time
    assert res.seed == 11


def test_restarts_pick_minimum_objective():
    ds = _small_dataset(seed=6)
    cfg = simple_config([4, 3], max_outer_iters=6, pretrain_iters=20, restarts=5, rng_seed=0)
    res = fit(ds, cfg)
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

    def fake_run(rs, cfg, on_iteration):
        calls.append(cfg.rng_seed)
        state = random_state(seed=0)
        return fitting.FitResult(
            state=state,
            objective_history=np.array([5.0, 2.5]),
            converged=True,
            wall_time=0.0,
            seed=cfg.rng_seed,
        )

    monkeypatch.setattr(fitting, "_run", fake_run)
    ds = _small_dataset(seed=7)
    cfg = simple_config([4, 3], restarts=3, rng_seed=20)
    res = fitting.fit(ds, cfg)
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
    assert np.abs(S.dense().sum(axis=1) - 1.0).max() <= 1e-9
    assert accuracy(ds.labels, cluster_graph(S, 3).labels) == 1.0


def _probe_data():
    return generate_synthetic(
        n=60, k=3, n_views=2, dims=(8, 9), separation=10.0, noise_sigma=0.5, seed=0
    )


def _probe_result(views, labels, beta, layers=(6, 3)):
    """The probe's fit: 10 iterations, tol 0, rng_seed 0, layers 6,3 unless given."""
    cfg = FitConfig(
        beta=beta, layers=LayerSpec(list(layers)), max_outer_iters=10, tol_rel_objective=0.0,
        rng_seed=0,
    )
    return fit(MultiViewDataset(views=views, labels=labels), cfg)


def _probe_fit(views, labels, beta, layers=(6, 3)):
    """(ACC, objective increases) of the probe's fit."""
    res = _probe_result(views, labels, beta, layers)
    assert res.iters_run == 10
    h = res.objective_history
    increases = int((h[1:] > h[:-1] * (1 + 1e-8)).sum())
    return accuracy(labels, cluster_graph(res.state.S, 3).labels), increases


@pytest.mark.parametrize(
    "case",
    [
        "one view",
        "triplicated samples",
        "scale 1e8",
        "scale 1e-8",
        "n == l_1",
        "k == n",
        "beta 2^-7",
        "beta 2^7",
    ],
)
def test_fit_on_edge_inputs(case):
    ds = _probe_data()
    views, labels, beta, layers = ds.views, ds.labels, 0.5, (6, 3)
    if case == "one view":
        views = views[:1]
    elif case == "triplicated samples":
        views, labels = [np.tile(X, 3) for X in views], np.tile(labels, 3)
    elif case == "scale 1e8":
        views = [1e8 * X for X in views]
    elif case == "scale 1e-8":
        # every top-layer denominator is near 1e-14 here; an absolute floor
        # of 1e-12 raised the objective at 6 of the 10 iterations
        views = [1e-8 * X for X in views]
    elif case == "n == l_1":
        # the first two samples of each class: n = 6, the first layer's width
        keep = np.sort(np.concatenate([np.flatnonzero(labels == c)[:2] for c in range(3)]))
        views, labels = [X[:, keep] for X in views], labels[keep]
    elif case == "k == n":
        # the first sample of each class: n = k = 3, the top layer's width;
        # a wider first layer has no sample-count room left
        keep = np.sort([np.flatnonzero(labels == c)[0] for c in range(3)])
        views, labels = [X[:, keep] for X in views], labels[keep]
        with pytest.raises(LayerSpecError, match=r"^layer width 6 exceeds sample count 3$"):
            _probe_fit(views, labels, beta)
        layers = (3,)
    else:
        # the ends of the CLI's default beta grid
        beta = 2.0 ** (-7 if case == "beta 2^-7" else 7)
    assert _probe_fit(views, labels, beta, layers) == (1.0, 0)


def test_fit_rejects_an_all_zero_view():
    # a zero view is constant: rejected before pretraining, whose first
    # pseudo-inverse of the zero start would have no direction
    ds = _probe_data()
    ds = MultiViewDataset(views=[ds.views[0], np.zeros_like(ds.views[1])], labels=ds.labels)
    cfg = FitConfig(beta=0.5, layers=LayerSpec([6, 3]), max_outer_iters=10, rng_seed=0)
    with pytest.raises(RankDeficientError, match=r"^view 1 is constant: all 60 samples are the same vector"):
        fit(ds, cfg)


def test_fit_names_the_iteration_of_a_non_finite_factor(monkeypatch):
    import mvclust.fitting

    sweep_view = mvclust.fitting.sweep_view
    calls = []

    def poisoned_sweep(state, v):
        products = sweep_view(state, v)
        calls.append(v)
        if len(calls) == state.num_views + 2:  # iteration 2, view 1
            state.stacks[v].mappings[0][0, 0] = np.nan
        return products

    monkeypatch.setattr(mvclust.fitting, "sweep_view", poisoned_sweep)
    with pytest.raises(NonFiniteFactorError, match=r"^iteration 2: view 1: layer 0: ") as caught:
        fit(_small_dataset(), simple_config([4, 3], max_outer_iters=5, pretrain_iters=10))
    err = caught.value
    assert (err.iteration, err.view, err.layer) == (2, 1, 0)
    assert isinstance(err.__cause__, NonFiniteFactorError) and err.__cause__.iteration is None


def test_a_failed_graph_step_leaves_no_graph(monkeypatch):
    import mvclust.fitting

    update_consensus_graph = mvclust.fitting.update_consensus_graph
    steps, seen = [], []

    def overflowing_step(alpha, stacks):
        steps.append(alpha)
        if len(steps) == 2:
            raise ValueError("graph projection needs a finite Q")
        return update_consensus_graph(alpha, stacks)

    monkeypatch.setattr(mvclust.fitting, "update_consensus_graph", overflowing_step)
    cfg = simple_config([4, 3], max_outer_iters=5, pretrain_iters=10)
    with pytest.raises(ValueError, match="finite Q"):
        fit(_small_dataset(), cfg, on_iteration=lambda state, it, obj: seen.append(state))
    # the state that on_iteration kept has no graph after the failed step
    assert len(seen) == 1 and seen[0].S is None


def test_objective_terms_holds_no_view_residual():
    # Phi (d x k) and Phi^T X (k x n) are the largest arrays the reconstruction
    # term forms: it adds 0.009 of the largest view to the graph term's peak
    # here, where one d x n residual at a time added 0.86
    state = random_state(dims=(2000, 1500), n=200)
    largest = max(X.nbytes for X in state.views)
    graph_peak = traced_peak(state.S.residual_sq, state.alpha, state.stacks)
    assert (traced_peak(objective_terms, state) - graph_peak) / largest <= 0.05


def test_objective_terms_holds_one_graph_residual():
    # S - Q in a fresh array beside Q took 2.00 n x n arrays; Q - S in Q's buffer takes 1
    state = random_state(dims=(10, 12), n=1000)
    assert traced_peak(objective_terms, state) / state.S.dense().nbytes <= 1.2


def test_fit_holds_few_nxn_arrays():
    # S is held as the tops, its thresholds and a sparse correction, and Q and
    # S are read a block of 32 rows at a time: about 0.05 arrays of n x n
    # floats at the peak (1.07 with S held whole, 2.26 with Q formed whole)
    n = 2000
    ds = generate_synthetic(n=n, k=3, n_views=2, dims=[6, 5], separation=10.0, noise_sigma=0.5, seed=0)
    cfg = simple_config([3], max_outer_iters=2, pretrain_iters=5)
    assert traced_peak(fit, ds, cfg) / (8 * n * n) <= 0.25


def test_fit_holds_one_nxn_array():
    # no n x n array is held: one block of 32 rows at a time and the kernel's
    # rows for the rows the projection cuts, about 0.07 arrays of n x n floats
    # at the peak (1.07 with S held whole and overwritten in place)
    n = 2000
    ds = generate_synthetic(n=n, k=3, n_views=3, dims=[12, 10, 9], separation=10.0, noise_sigma=0.5, seed=1)
    cfg = simple_config([6, 3], max_outer_iters=3, pretrain_iters=5)
    assert traced_peak(fit, ds, cfg) / (8 * n * n) <= 0.25


def test_an_outer_iteration_allocates_no_nxn_array():
    # with C empty, pretraining and one outer iteration peak at about 0.53 n^2
    # bytes: no array of n^2 entries, not even of bools, was ever alive
    n = 3000
    ds = generate_synthetic(n=n, k=3, n_views=3, dims=[12, 10, 9], separation=10.0, noise_sigma=0.5, seed=0)
    cfg = simple_config([6, 3], max_outer_iters=1, pretrain_iters=5)
    nnz = []
    peak = traced_peak(fit, ds, cfg, lambda state, it, obj: nnz.append(state.S.C[2].size))
    assert nnz == [0]
    assert peak < n * n


def test_restarts_hold_no_nxn_array():
    # the best restart's graph is kept beside the running one's, and neither
    # is an n x n array: about 0.07 arrays of n x n floats (2.07 with S whole)
    n = 2000
    ds = generate_synthetic(n=n, k=3, n_views=3, dims=[12, 10, 9], separation=10.0, noise_sigma=0.5, seed=1)
    cfg = simple_config([6, 3], max_outer_iters=3, pretrain_iters=5, restarts=2)
    assert traced_peak(fit, ds, cfg) / (8 * n * n) <= 0.25


# one short block, two full blocks and a short one, and two sizes that end
# in a short block after several full ones
@pytest.mark.parametrize("n", [BLOCK_ROWS - 1, 2 * BLOCK_ROWS + 3, 127, 259])
def test_blocked_graph_term_matches_dense_residual(n):
    state = random_state(dims=(5, 7), n=n, seed=n)
    _, graph = objective_terms(state)
    dense = float(np.linalg.norm(state.S.dense() - compute_Q(state)) ** 2)
    assert graph == pytest.approx(dense, rel=1e-12, abs=0)


def test_fit_rejects_too_many_views_before_pretraining(monkeypatch):
    import mvclust.fitting

    def no_pretraining(ds, cfg):
        raise AssertionError("pretraining started")

    monkeypatch.setattr(mvclust.fitting, "initialize_state", no_pretraining)
    rng = np.random.default_rng(0)
    ds = MultiViewDataset(views=[rng.random((4, 20)) for _ in range(11)])
    with pytest.raises(TooManyViewsError):
        fit(ds, simple_config([3]))


def _acceptance_data():
    """The acceptance criteria's planted data at seed 1, normalized."""
    ds = generate_synthetic(
        n=300, k=3, n_views=3, dims=(24, 30, 27), separation=10.0, noise_sigma=0.5, seed=1
    )
    return normalize_views(ds)


def _depth3_config(beta):
    return FitConfig(
        beta=beta, layers=LayerSpec([21, 9, 3]), max_outer_iters=150, pretrain_iters=100,
        tol_rel_objective=0.0, rng_seed=1,
    )


def test_initial_graph_mix_has_unit_mean_row_sum():
    # pretraining alone leaves the depth-3 tops near 1e-6 and Q row sums near 1e-9
    ds = _acceptance_data()
    cfg = _depth3_config(0.5)
    state = initialize_state(ds, cfg)
    assert abs(compute_Q(state).sum(axis=1).mean() - 1.0) <= 1e-12
    # Z_m absorbs the rescale, so every reconstruction is pretraining's
    seqs = np.random.SeedSequence(cfg.rng_seed).spawn(ds.num_views)
    for X, seq, stack in zip(ds.views, seqs, state.stacks):
        plain = pretrain_view(X, cfg, seq)
        before = plain.mappings[-1] @ plain.top
        after = stack.mappings[-1] @ stack.top
        assert np.abs(after - before).max() <= 1e-12 * np.abs(before).max()


def test_beta_changes_the_depth3_fit():
    ds = _acceptance_data()
    lo, hi = (fit(ds, _depth3_config(2.0**e)).state for e in (-7, 7))
    assert np.abs(lo.alpha - hi.alpha).max() >= 0.05
    assert np.linalg.norm(lo.S.dense() - hi.S.dense()) >= 0.01 * np.linalg.norm(hi.S.dense())


def test_noise_view_gets_the_smallest_weight():
    ds = _acceptance_data()
    noise = np.random.default_rng(0).standard_normal(ds.views[2].shape)
    noise /= np.linalg.norm(noise, axis=0)
    ds = MultiViewDataset(views=[*ds.views[:2], noise], labels=ds.labels)
    alpha = fit(ds, _depth3_config(2.0**7)).state.alpha
    assert alpha.argmin() == 2


def test_view_weights_do_not_depend_on_a_views_units():
    # each top is scaled to its own unit-mean-row-sum Gram, so multiplying a
    # view by a constant leaves the weights and the labels where they were
    ds = generate_synthetic(
        n=300, k=3, n_views=3, dims=(24, 30, 27), separation=10.0, noise_sigma=0.5, seed=1
    )
    cfg = _depth3_config(2.0**-3)
    fits = []
    for s in (1.0, 2.0, 5.0):
        views = [s * X if v == 1 else X for v, X in enumerate(ds.views)]
        state = fit(MultiViewDataset(views=views, labels=ds.labels), cfg).state
        fits.append((state.alpha, cluster_graph(state.S, 3, seed=1).labels))
    (alpha, labels), *scaled = fits
    for alpha_s, labels_s in scaled:
        assert np.abs(alpha_s - alpha).max() <= 1e-3
        assert np.array_equal(labels_s, labels)


@pytest.mark.parametrize("s", [1e3, 1e-3])
def test_beta_is_in_the_squared_units_of_the_data(s):
    # the reconstruction term scales with s^2 and the graph term not at all, so
    # unnormalized views times s fit exactly like the views at beta s^2
    ds = _probe_data()
    base = _probe_result(ds.views, ds.labels, 0.5)
    scaled = _probe_result([s * X for X in ds.views], ds.labels, 0.5 * s * s)
    rel = np.abs(scaled.objective_history / (s * s * base.objective_history) - 1.0)
    assert rel.max() <= 1e-10
    assert np.abs(scaled.state.alpha - base.state.alpha).max() <= 1e-10
    assert np.array_equal(
        cluster_graph(scaled.state.S, 3).labels, cluster_graph(base.state.S, 3).labels
    )


def test_fit_rejects_a_constant_view():
    # a constant view's Gram is constant, so it would fit the diffuse graph
    # the objective prefers and take most of the weight (0.855 on this probe,
    # at ACC 0.383): it is rejected before any work, as a zero view is
    ds = _probe_data()
    views = [np.ones_like(ds.views[0]), ds.views[1]]
    ds = normalize_views(MultiViewDataset(views=views, labels=ds.labels))
    with pytest.raises(RankDeficientError, match=r"^view 0 is constant: "):
        _probe_result(ds.views, ds.labels, 0.5)


@pytest.mark.parametrize("view", ["constant", "zero"])
@pytest.mark.parametrize("entry", ["fit", "fit_with_restarts"])
def test_a_constant_tall_view_fails_alike_before_any_qr(monkeypatch, view, entry):
    import mvclust.fitting as fitting

    ds = _tall_dataset()
    X = np.full_like(ds.views[0], 0.25 if view == "constant" else 0.0)
    ds = MultiViewDataset(views=[ds.views[1], X], labels=ds.labels)
    calls = []
    monkeypatch.setattr(fitting, "row_space_factor", calls.append)
    monkeypatch.setattr(fitting, "initialize_state", calls.append)
    cfg = simple_config([6, 3], max_outer_iters=2, pretrain_iters=5, restarts=2)
    with pytest.raises(RankDeficientError) as raised:
        getattr(fitting, entry)(ds, cfg)
    assert str(raised.value) == (
        f"view 1 is constant: all {ds.n} samples are the same vector, "
        "which carries no cluster structure; drop the view"
    )
    assert calls == []


def test_the_benchmarks_fit_name_calls_fit(monkeypatch):
    # bench/worker.py calls fitting.fit_with_restarts and times fitting.fit:
    # the old name must look fit up in the module, so that a wrapper put
    # there sees the call
    import mvclust.fitting as fitting

    calls = []
    monkeypatch.setattr(fitting, "fit", lambda *args: calls.append(args) or "result")
    ds, cfg, on_iteration = _small_dataset(), simple_config([4, 3]), print
    assert fitting.fit_with_restarts(ds, cfg, on_iteration) == "result"
    assert fitting.fit_with_restarts(ds, cfg) == "result"
    assert calls == [(ds, cfg, on_iteration), (ds, cfg, None)]


def test_fit_rejects_restarts_before_any_work(monkeypatch):
    # a FitConfig is checked when made, not frozen: restarts set to 0 after
    # would be a fit of no runs, which fit refuses before any QR or
    # pretraining rather than end with no run to return
    import mvclust.fitting as fitting

    calls = []
    monkeypatch.setattr(fitting, "row_space_factor", calls.append)
    monkeypatch.setattr(fitting, "initialize_state", calls.append)
    cfg = simple_config([6, 3], max_outer_iters=3, pretrain_iters=5, restarts=3)
    cfg.restarts = 0
    with pytest.raises(MvclustError, match="restarts must be >= 1"):
        fitting.fit(_tall_dataset(), cfg)
    assert calls == []


def test_a_view_with_some_equal_samples_still_fits():
    # equal columns short of all of them are data, not a constant view: the
    # probe's view 0 with two thirds of its samples set to one vector
    ds = _probe_data()
    X = ds.views[0].copy()
    X[:, : 2 * ds.n // 3] = X[:, :1]
    ds = normalize_views(MultiViewDataset(views=[X, ds.views[1]], labels=ds.labels))
    res = _probe_result(ds.views, ds.labels, 0.5)
    res.state.validate()
    assert res.iters_run == 10


def test_fit_warns_on_each_objective_increase(monkeypatch, caplog):
    import logging

    import mvclust.fitting as fitting

    values = iter([1.0, 2.0, 3.0])  # the start and two rising iterations
    monkeypatch.setattr(fitting, "objective_terms", lambda state, *args, **kwargs: (next(values), 0.0))
    cfg = simple_config([3], max_outer_iters=2, pretrain_iters=5, tol_rel_objective=0.0)
    with caplog.at_level(logging.WARNING, logger="mvclust.fitting"):
        res = fitting.fit(_small_dataset(seed=3), cfg)
    assert list(res.objective_history) == [1.0, 2.0, 3.0]
    warned = [r for r in caplog.records if r.levelno == logging.WARNING]
    assert len(warned) == 2
    assert all(r.getMessage().startswith("objective increased at iteration") for r in warned)


def test_fit_graph_terms_match_the_blockwise_oracle():
    # at this seed iteration 1's graph is held as an array and iteration 2's
    # cuts 26 entries in structured form; every structured graph of the fit
    # takes the closed form, and every history entry matches the oracle
    ds = normalize_views(
        generate_synthetic(n=60, k=3, n_views=2, dims=(10, 12), separation=10.0, noise_sigma=0.5, seed=1)
    )
    cfg = simple_config([6, 3], max_outer_iters=6, pretrain_iters=20, tol_rel_objective=0.0)
    forms = []

    def check(state, it, obj):
        structured = not isinstance(state.S.C, np.ndarray)
        assert state.S.projected_from(state.stacks) == structured
        # the fit takes the reconstruction from the sweeps' products, the
        # check from the state's chains: the same term up to rounding
        recon, graph = objective_terms(state)
        assert abs(obj - (recon + state.beta * graph)) <= 1e-12 * obj
        oracle = blockwise_graph_term(state)
        assert abs(graph - oracle) <= 1e-12 * oracle
        forms.append(state.S.C[2].size if structured else "array")

    res = fit(ds, cfg, on_iteration=check)
    assert "array" in forms and any(f != "array" and f > 0 for f in forms)
    state = initialize_state(ds, cfg)
    recon, _ = objective_terms(state)
    graph = blockwise_graph_term(state)
    assert abs(res.objective_history[0] - (recon + state.beta * graph)) <= 1e-12 * res.objective_history[0]


def test_a_graph_from_other_tops_reads_the_graph_term_directly():
    state = initialize_state(_small_dataset(), simple_config([4, 3], pretrain_iters=20))
    assert state.S.projected_from(state.stacks)
    state.stacks[0].top = 1.5 * state.stacks[0].top
    assert not state.S.projected_from(state.stacks)
    _, graph = objective_terms(state)
    oracle = blockwise_graph_term(state)
    assert abs(graph - oracle) <= 1e-12 * oracle


def test_fit_calls_objective_terms_once_per_iteration_and_once_at_the_start(monkeypatch):
    # the benchmark finds iteration boundaries from the objective_terms calls,
    # and times the graph step through fitting.update_consensus_graph
    import mvclust.fitting as fitting

    calls = {"objective_terms": 0, "update_consensus_graph": 0}

    def counted(name):
        fn = getattr(fitting, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for name in calls:
        monkeypatch.setattr(fitting, name, counted(name))
    cfg = simple_config([3], max_outer_iters=3, pretrain_iters=5, tol_rel_objective=0.0)
    res = fitting.fit(_small_dataset(), cfg)
    assert res.iters_run == 3
    assert calls == {"objective_terms": 1 + 3, "update_consensus_graph": 3}


@pytest.mark.parametrize("iters", [0, 3])
def test_fit_reads_each_view_in_two_products_per_iteration(monkeypatch, iters):
    # pretraining aside, a fit reads a view in its sweep's two products each
    # iteration and in one more for the initial objective; view 0 is read
    # as its R
    import mvclust.fitting as fitting

    initialize_state = fitting.initialize_state
    counted = []

    def counting_start(ds, cfg):
        state = initialize_state(ds, cfg)
        state.views = counted_views(state.views)
        counted.extend(state.views)
        return state

    monkeypatch.setattr(fitting, "initialize_state", counting_start)
    cfg = simple_config([6, 3], max_outer_iters=iters, pretrain_iters=10, tol_rel_objective=0.0)
    res = fitting.fit(_tall_dataset(), cfg)
    assert res.iters_run == iters
    assert [X.matmuls for X in counted] == [2 * iters + 1] * 2


def test_restarts_take_each_tall_views_qr_once(monkeypatch):
    import mvclust.fitting as fitting

    n = 40
    ds = normalize_views(
        generate_synthetic(n=n, k=3, n_views=2, dims=(3 * n, 3 * n), separation=8.0, noise_sigma=0.6, seed=2)
    )
    cfg = simple_config([6, 3], max_outer_iters=4, pretrain_iters=10, restarts=3, tol_rel_objective=0.0)
    row_space_factor = fitting.row_space_factor
    calls = []

    def counted(X):
        calls.append(X.shape)
        return row_space_factor(X)

    monkeypatch.setattr(fitting, "row_space_factor", counted)
    res = fitting.fit(ds, cfg)
    # fit runs cfg.restarts seeds on one row space: each tall view's QR once
    assert [s.seed for s in res.restart_summaries] == [0, 1, 2]
    assert calls == [(3 * n, n)] * 2
    # every restart is the fit that takes its own QRs, bit for bit
    for summary in res.restart_summaries:
        alone = fitting.fit(ds, replace(cfg, rng_seed=summary.seed, restarts=1))
        assert (summary.final_objective, summary.iters_run) == (alone.final_objective, alone.iters_run)
        if summary.seed == res.seed:
            assert np.array_equal(res.objective_history, alone.objective_history)
            assert np.array_equal(res.state.alpha, alone.state.alpha)
            for a, b in zip(res.state.stacks, alone.state.stacks):
                assert all(np.array_equal(A, B) for A, B in zip(a.mappings + [a.top], b.mappings + [b.top]))


def test_a_fit_of_the_row_space_takes_no_qr_and_is_the_fit_of_the_views(monkeypatch):
    # fit fits row_space(ds) per restart and lifts only the kept run: a fit
    # of the row space takes no QR, holds R, and lifts to the fit of ds
    import mvclust.fitting as fitting

    ds = _tall_dataset()
    cfg = simple_config([6, 3], max_outer_iters=4, pretrain_iters=10, tol_rel_objective=0.0)
    whole = fitting.fit(ds, cfg)
    rs = fitting.row_space(ds)
    calls = []
    factor = fitting.row_space_factor
    monkeypatch.setattr(fitting, "row_space_factor", lambda X: calls.append(X.shape) or factor(X))
    res = fitting.fit(rs, cfg)
    assert calls == []
    R, thin = rs.views
    assert R.shape == (ds.n, ds.n) and thin is ds.views[1]
    assert res.state.views[0] is R and res.state.views[1] is thin
    tall = res.state.stacks[0]
    # the sweep forms Z_1 as (R Q_H) W^+ and P as Q_H W^+: equal up to rounding
    assert np.abs(tall.mappings[0] - R @ tall.right_factor).max() <= 1e-12 * np.abs(tall.mappings[0]).max()
    assert np.array_equal(res.objective_history, whole.objective_history)
    assert np.array_equal(res.state.alpha, whole.state.alpha)
    assert np.array_equal(ds.views[0] @ tall.right_factor, whole.state.stacks[0].mappings[0])


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads VmHWM from /proc")
def test_a_tall_views_qr_holds_one_copy_of_it():
    # the peak RSS a fresh process gains across row_space_factor: one copy of
    # X, R and dgeqrf's workspace (1.31 X.nbytes on a 4000 x 500 view), where
    # `np.linalg.qr(X, mode="r")` holds two copies (2.17). tracemalloc cannot
    # measure it, as it does not see numpy's gufunc buffers; nor can the
    # child's ru_maxrss, which on Linux starts at the peak RSS of the process
    # that spawned it (under pytest it read 1.04 for the two copies). The
    # child's VmHWM is its own
    code = (
        "import numpy as np\n"
        "from mvclust.fitting import row_space_factor\n"
        "def peak():\n"
        "    with open('/proc/self/status') as f:\n"
        "        return next(int(line.split()[1]) for line in f if line.startswith('VmHWM:')) * 1024\n"
        "X = np.random.default_rng(0).standard_normal((4000, 500))\n"
        "before = peak()\n"
        "R = row_space_factor(X)\n"
        "print((peak() - before) / X.nbytes)\n"
    )
    proc = run_in_fresh_interpreter(["-c", code])
    assert proc.returncode == 0, proc.stderr
    assert float(proc.stdout) <= 1.5


@pytest.mark.parametrize("dims, layers", [((60, 70), (25, 3)), ((10, 70), (8, 25, 3))])
def test_a_layer_wider_than_n_fails_alike_before_any_qr(monkeypatch, dims, layers):
    # with a tall view the restarts fit R, whose dimension is n; fit, under
    # either name, checks the layers against ds's n before taking any QR
    import mvclust.fitting as fitting

    rng = np.random.default_rng(0)
    ds = MultiViewDataset(views=[rng.random((d, 20)) for d in dims])
    cfg = simple_config(list(layers), max_outer_iters=2, pretrain_iters=5)
    calls = []
    monkeypatch.setattr(fitting, "row_space_factor", calls.append)
    messages = []
    for entry in (fitting.fit, fitting.fit_with_restarts):
        with pytest.raises(LayerSpecError) as raised:
            entry(ds, cfg)
        messages.append(str(raised.value))
    assert messages == ["layer width 25 exceeds sample count 20"] * 2
    assert calls == []


def _fail_at(iteration, restarts_to_fail):
    """An on_iteration that raises at `iteration` in the first
    `restarts_to_fail` restarts, as the benchmark's --fail-at-iteration does."""
    failures = []

    def on_iteration(state, it, obj):
        if it == iteration and len(failures) < restarts_to_fail:
            failures.append(it)
            raise RuntimeError(f"injected failure {len(failures)}")

    return on_iteration


def test_one_failed_restart_leaves_the_others(caplog):
    import logging

    ds = _small_dataset(seed=6)
    cfg = simple_config([4, 3], max_outer_iters=4, pretrain_iters=20, restarts=3, rng_seed=10)
    with caplog.at_level(logging.WARNING, logger="mvclust.fitting"):
        res = fit(ds, cfg, on_iteration=_fail_at(2, restarts_to_fail=1))
    assert [r.getMessage() for r in caplog.records] == ["restart with seed 10 failed"]
    failed, *done = res.restart_summaries
    assert (failed.seed, failed.final_objective, failed.iters_run, failed.converged) == (10, None, None, False)
    assert failed.error == "RuntimeError: injected failure 1"
    assert [s.seed for s in done] == [11, 12] and all(s.error is None for s in done)
    assert res.final_objective == min(s.final_objective for s in done)
    assert res.seed in (11, 12)
    assert np.array_equal(res.objective_history, fit(ds, replace(cfg, rng_seed=res.seed, restarts=1)).objective_history)


def test_every_failed_restart_raises_the_last_error():
    cfg = simple_config([4, 3], max_outer_iters=3, pretrain_iters=20, restarts=2)
    with pytest.raises(RuntimeError, match="^injected failure 2$"):
        fit(_small_dataset(seed=6), cfg, on_iteration=_fail_at(1, restarts_to_fail=2))
