"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
lines. Criterion 10 (external benchmark reproduction) is opt-in and
non-gating: it runs only when MVCLUST_BBCSPORT_DIR points at a dataset
directory in the documented format, and reports ACC without asserting a
tolerance.
"""

import itertools
import os
import time
from contextlib import contextmanager

import numpy as np
import pytest

import mvclust as mv
from mvclust.consensus import gram_similarity, update_view_weights, weight_qp
from mvclust.metrics import hungarian
from mvclust.spectral import spectral_embed

from conftest import (
    ChainCache,
    brute_force_row_projection,
    hierarchical_dataset,
    jacobi_eigh,
    mapping_factors,
    project_graph,
    random_state,
    simple_config,
    update_mapping,
)


@contextmanager
def criterion(num, name):
    try:
        yield
    except Exception:
        print(f"ACCEPTANCE {num} ({name}): FAIL")
        raise
    print(f"ACCEPTANCE {num} ({name}): PASS")


def _synthetic_run_dataset(seed=7):
    ds = mv.generate_synthetic(
        n=300, k=3, n_views=3, dims=(24, 30, 27), separation=10.0,
        noise_sigma=0.5, seed=seed,
    )
    return mv.normalize_views(ds)


def test_criterion_1_constraint_suite():
    with criterion(1, "constraint suite"):
        t0 = time.perf_counter()
        ds = _synthetic_run_dataset()
        cfg = mv.FitConfig(
            beta=0.5, layers=mv.LayerSpec([21, 9, 3]), max_outer_iters=150,
            pretrain_iters=100, rng_seed=1,
        )
        checked = []

        def check(state, it, obj):
            assert np.abs(state.S.dense().sum(axis=1) - 1.0).max() <= 1e-9
            assert state.S.dense().min() >= 0.0
            assert np.abs(np.diag(state.S.dense())).max() == 0.0
            assert state.alpha.min() >= 0.0
            assert abs(state.alpha.sum() - 1.0) <= 1e-12
            for stack in state.stacks:
                assert stack.top.min() >= 0.0
            checked.append(it)

        mv.fit(ds, cfg, on_iteration=check)
        elapsed = time.perf_counter() - t0
        assert checked, "no iterations ran"
        assert elapsed <= 60.0, f"constraint suite took {elapsed:.1f}s"


def test_criterion_2_monotone_descent():
    with criterion(2, "monotone descent"):
        ds = _synthetic_run_dataset()
        for seed in range(5):
            cfg = mv.FitConfig(
                beta=0.5, layers=mv.LayerSpec([21, 9, 3]), max_outer_iters=150,
                pretrain_iters=100, tol_rel_objective=0.0, rng_seed=seed,
            )
            res = mv.fit(ds, cfg)
            h = res.objective_history
            assert res.iters_run == 150
            assert np.isfinite(h).all()
            bad = h[1:] > h[:-1] * (1 + 1e-8)
            assert not bad.any(), f"seed {seed}: objective rose at {np.where(bad)[0] + 1}"


def test_criterion_3_graph_projection_oracle():
    with criterion(3, "graph projection vs active-set oracle"):
        rng = np.random.default_rng(0)
        n = 5
        for trial in range(1000):
            scale = rng.choice([0.05, 0.5, 1.0, 5.0])
            Q = rng.standard_normal((n, n)) * scale
            S = project_graph(Q.copy())
            i = trial % n
            oracle = brute_force_row_projection(Q[i], i)
            assert np.linalg.norm(S[i] - oracle) <= 1e-8


def test_criterion_4_weight_qp_oracle():
    with criterion(4, "view-weight QP vs simplex grid"):
        steps = np.arange(101)
        grid = np.array(
            [(i, j, 100 - i - j) for i in steps for j in steps[: 101 - i]],
            dtype=float,
        ) / 100.0
        for trial in range(50):
            state = random_state(
                dims=(6, 7, 5), layer_sizes=(3,), n=10, seed=1000 + trial
            )
            for st in state.stacks:
                st.top = st.top / np.sqrt(np.linalg.norm(st.top.T @ st.top))
            alpha = update_view_weights(state)

            grams = np.stack(
                [gram_similarity(st.top).ravel() for st in state.stacks]
            )
            s_flat = state.S.dense().ravel()

            def graph_fit(a):
                return float(((s_flat - a @ grams) ** 2).sum())

            grid_best = min(graph_fit(a) for a in grid)
            got = graph_fit(alpha)
            assert got <= grid_best + 1e-12
            assert abs(got - grid_best) <= 1e-4

            A, f = weight_qp(state)
            grad = A @ alpha - f
            mu = grad.min()
            assert (grad[alpha > 1e-12] - mu).max() <= 1e-6


def test_criterion_5_mapping_update_oracle():
    with criterion(5, "mapping update normal equations"):
        rng = np.random.default_rng(3)
        count = 0
        while count < 100:
            depth = rng.integers(1, 4)
            sizes = sorted(rng.integers(2, 7, size=depth), reverse=True)
            state = random_state(
                dims=(int(rng.integers(8, 14)),),
                layer_sizes=tuple(int(s) for s in sizes),
                n=int(rng.integers(12, 20)),
                seed=int(rng.integers(2**31)),
            )
            i = int(rng.integers(depth))
            Z = update_mapping(*mapping_factors(state, 0, i))[0]
            state.stacks[0].mappings[i] = Z
            cache = ChainCache.compute(state.stacks[0], i)
            X = state.views[0]
            phi = cache.phi if cache.phi is not None else np.eye(X.shape[0])
            R = X - phi @ Z @ cache.hhat
            resid = np.linalg.norm(phi.T @ R @ cache.hhat.T)
            assert resid <= 1e-7 * np.linalg.norm(X)
            count += 1


def test_criterion_6_planted_recovery():
    with criterion(6, "planted recovery"):
        t0 = time.perf_counter()
        ds = _synthetic_run_dataset()
        best = None
        for beta in (0.125, 0.5, 2.0):
            cfg = mv.FitConfig(
                beta=beta, layers=mv.LayerSpec([21, 9, 3]), max_outer_iters=150,
                pretrain_iters=100, restarts=5, rng_seed=1,
            )
            res = mv.fit_with_restarts(ds, cfg)
            part = mv.cluster_graph(res.state.S, 3, restarts=10, seed=1)
            acc = mv.accuracy(part, ds.labels)
            score = (acc, mv.nmi(part, ds.labels))
            if best is None or score > best:
                best = score
        elapsed = time.perf_counter() - t0
        acc, nmi_val = best
        assert acc >= 0.95, f"best ACC {acc:.3f}"
        assert nmi_val >= 0.85, f"NMI {nmi_val:.3f}"
        assert elapsed <= 300.0, f"recovery run took {elapsed:.0f}s"


def test_criterion_7_depth_ablation_trend():
    with criterion(7, "depth ablation trend"):
        accs = {1: [], 3: []}
        for seed in range(10):
            ds = hierarchical_dataset(
                n=120, n_views=2, dims=(24, 20), super_sep=14.0, sub_sep=9.0,
                sigma=2.8, seed=seed,
            )
            ds = mv.normalize_views(ds)
            for depth, layers in ((1, [3]), (3, [12, 6, 3])):
                cfg = simple_config(
                    layers, beta=0.5, max_outer_iters=40, pretrain_iters=40,
                    rng_seed=seed,
                )
                res = mv.fit(ds, cfg)
                part = mv.cluster_graph(res.state.S, 3, restarts=6, seed=seed)
                accs[depth].append(mv.accuracy(part, ds.labels))
        assert np.median(accs[3]) >= np.median(accs[1]), (
            f"median depth-3 ACC {np.median(accs[3]):.3f} < "
            f"median depth-1 ACC {np.median(accs[1]):.3f}"
        )


def test_criterion_8_metric_correctness():
    with criterion(8, "metric correctness"):
        truth = np.array([0, 0, 0, 0, 1, 1, 1, 1])
        pred = np.array([0, 0, 0, 1, 0, 1, 1, 1])
        assert mv.accuracy(pred, truth) == 0.75
        pred2 = np.array([0, 0, 0, 1, 1, 1, 1, 0])
        assert mv.purity(pred2, truth) == 0.75  # contingency [[3,1],[1,3]]
        assert mv.accuracy(truth, truth) == 1.0
        assert mv.nmi(truth, truth) == pytest.approx(1.0, abs=1e-12)
        assert mv.nmi(np.zeros(8, dtype=int), truth) == 0.0
        assert mv.purity(np.arange(8), truth) == 1.0

        rng = np.random.default_rng(4)
        for _ in range(1000):
            k = int(rng.integers(2, 7))
            cost = rng.standard_normal((k, k))
            perm = hungarian(cost)
            achieved = cost[np.arange(k), perm].sum()
            best = min(
                sum(cost[i, p[i]] for i in range(k))
                for p in itertools.permutations(range(k))
            )
            assert achieved == pytest.approx(best, abs=1e-12)


def test_criterion_9_spectral_correctness():
    with criterion(9, "spectral correctness"):
        # exact recovery of a union of cliques
        sizes = [5, 4, 6]
        n = sum(sizes)
        S = np.zeros((n, n))
        start = 0
        for size in sizes:
            block = np.full((size, size), 1.0 / (size - 1))
            np.fill_diagonal(block, 0.0)
            S[start : start + size, start : start + size] = block
            start += size
        truth = np.repeat(np.arange(3), sizes)
        part = mv.cluster_graph(S, 3, restarts=5, seed=0)
        assert len(set(zip(part.labels, truth))) == 3

        # eigensolve against the Jacobi oracle at n = 8
        from scipy.linalg import subspace_angles

        rng = np.random.default_rng(1)
        S8 = project_graph(rng.random((8, 8)))
        W = (S8 + S8.T) / 2
        deg = W.sum(axis=1)
        L = np.eye(8) - W / np.sqrt(np.outer(deg, deg))
        L = (L + L.T) / 2
        w_oracle, V_oracle = jacobi_eigh(L)
        assert np.abs(np.sort(w_oracle) - np.linalg.eigvalsh(L)).max() <= 1e-8
        E = spectral_embed(S8, 3)
        B = V_oracle[:, :3]
        B = B / np.linalg.norm(B, axis=1, keepdims=True)
        assert subspace_angles(E, B).max() <= 1e-8


@pytest.mark.skipif(
    "MVCLUST_BBCSPORT_DIR" not in os.environ,
    reason="optional reproduction: set MVCLUST_BBCSPORT_DIR to a dataset directory",
)
def test_criterion_10_external_benchmark_report():
    """Non-gating: report ACC on user-supplied data next to the published
    91.73 reference; preprocessing and score-variant differences mean no
    tolerance is enforced."""
    with criterion(10, "external benchmark report (non-gating)"):
        ds = mv.load_dataset(os.environ["MVCLUST_BBCSPORT_DIR"])
        assert ds.labels is not None, "labelled data required"
        ds = mv.normalize_views(ds)
        k = ds.k
        restarts = int(os.environ.get("MVCLUST_BBCSPORT_RESTARTS", "50"))
        best_acc = 0.0
        for beta_exp in (-7, -5, -3, -1, 1, 3, 5, 7):
            cfg = mv.FitConfig(
                beta=2.0**beta_exp,
                layers=mv.LayerSpec([7 * k, 3 * k, k]),
                max_outer_iters=150,
                pretrain_iters=100,
                restarts=restarts,
                rng_seed=0,
            )
            for r in range(cfg.restarts):
                run_cfg = mv.FitConfig(
                    beta=cfg.beta, layers=cfg.layers,
                    max_outer_iters=cfg.max_outer_iters,
                    pretrain_iters=cfg.pretrain_iters, restarts=1,
                    rng_seed=cfg.rng_seed + r,
                )
                res = mv.fit(ds, run_cfg)
                part = mv.cluster_graph(res.state.S, k, restarts=10, seed=r)
                best_acc = max(best_acc, mv.accuracy(part, ds.labels))
        print(f"reproduction ACC: {100 * best_acc:.2f} (published reference: 91.73)")
