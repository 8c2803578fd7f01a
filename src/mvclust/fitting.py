"""Outer alternating optimization: objective, fit loop, and restarts.

One outer iteration sweeps every view (each mapping, then the two top
steps), projects the consensus graph onto its feasible set, and re-solves
the view weights. The objective is tracked per iteration; it should be
non-increasing up to small float noise, and any larger increase is logged.
Its graph term is the consensus graph's own (`ConsensusGraph.residual_sq`).

A view at least `ROW_SPACE_RATIO` times as tall as its sample count is
fitted through R, the n x n triangular factor of X = QR, taken once per fit:
||X - Q Phi' H|| = ||R - Phi' H|| for every chain Phi' = Z_1..Z_m with Z_1
in R's coordinates, so pretraining, the sweeps, the objective and the checks
run on R unchanged. Every step that sets Z_1 writes it as R P for an n x l_1
right factor P, and the fit returns Z_1 = X P.
"""

from __future__ import annotations

import functools
import logging
import time
from dataclasses import dataclass, replace

import numpy as np
from scipy.linalg import lapack

from .consensus import MAX_VIEWS, update_consensus_graph, update_view_weights
# no caller here; bench/worker.py wraps fitting.compute_Q by this name
from .consensus import compute_Q  # noqa: F401
from .errors import NonFiniteFactorError, TooManyViewsError
from .finetune import sweep_view
from .pretrain import initialize_state
from .types import FitConfig, ModelState, MultiViewDataset, validate_dataset

Array = np.ndarray

log = logging.getLogger(__name__)

# Relative per-step slack before an objective increase is reported.
MONOTONE_REL_SLACK = 1e-8

# Consecutive small-change iterations required to declare convergence.
CONVERGENCE_WINDOW = 5

# A view with d >= ROW_SPACE_RATIO * n features is fitted through its n x n
# row-space factor R, which then at most halves the view's memory and the
# flops of every product with it. Nearer to square, the one-off QR costs more
# than it saves: at d = 1.35 n (a 1984 x 1474 view, 5 outer iterations) the
# fit's time to labels went 1.99 -> 2.25 s while its iterations went
# 0.077 -> 0.068 s.
ROW_SPACE_RATIO = 2


def row_space_factor(X: Array) -> Array:
    """R of X = QR for a d x n view with d >= n: n x n upper triangular, with
    X's singular values, and X^T X = R^T R.

    LAPACK's dtpqrt folds X into R n rows at a time ([R; B] = Q' R', from
    R = 0), so the QR holds one n x n block of X beside R: 4.7 MB at 3200 x
    544, where dgeqrf on a Fortran-order copy of X took 16 MB and
    `np.linalg.qr` 30 MB. Its inner block of 16 columns ran 62-69 ms there,
    against 77-80 ms for dgeqrf with its optimal workspace.
    """
    d, n = X.shape
    R = np.zeros((n, n), order="F")
    for i in range(0, d, n):
        block = np.array(X[i : i + n], order="F")
        R, _, _, _ = lapack.dtpqrt(0, min(16, n), R, block, overwrite_a=True, overwrite_b=True)
    return R


def objective_terms(state: ModelState) -> tuple[float, float]:
    """(total reconstruction error, graph-fit error), both squared Frobenius.

    The reconstruction is summed from its residual arrays, one d x n
    residual alive at a time. The graph term ||Q - S||^2 is the graph's
    `residual_sq`, from its structure when it was projected from the
    state's tops, as every graph of a fit is.
    """
    recon = 0.0
    for v, X in enumerate(state.views):
        stack = state.stacks[v]
        # Phi H - X is -(X - Phi H) bit for bit, without a second d x n temporary
        R = functools.reduce(np.matmul, stack.mappings) @ stack.top
        R -= X
        recon += float(np.linalg.norm(R) ** 2)
        del R  # before the next view's product is formed
    return recon, state.S.residual_sq(state.alpha, state.stacks)


def objective(state: ModelState) -> float:
    """sum_v ||X_v - Z_1..Z_m H_m||_F^2 + beta ||S - sum_v alpha_v H_v^T H_v||_F^2."""
    recon, graph = objective_terms(state)
    return recon + state.beta * graph


@dataclass
class RestartSummary:
    """One restart of `fit_with_restarts`. A failed restart has no objective
    or iteration count, and `error` names its exception."""

    seed: int
    final_objective: float | None
    iters_run: int | None
    converged: bool
    wall_time: float
    error: str | None = None


@dataclass
class FitResult:
    """Outcome of one fit: final state, objective trace, and bookkeeping.

    `seed` is the RNG seed of the run that produced `state`."""

    state: ModelState
    objective_history: Array
    converged: bool
    wall_time: float
    seed: int
    restart_summaries: list[RestartSummary] | None = None

    @property
    def iters_run(self) -> int:
        return len(self.objective_history) - 1

    @property
    def final_objective(self) -> float:
        return float(self.objective_history[-1])


def fit(ds: MultiViewDataset, cfg: FitConfig, on_iteration=None) -> FitResult:
    """Run the full alternating optimization from a pretrained start.

    Convergence is declared when the relative objective change stays below
    cfg.tol_rel_objective for CONVERGENCE_WINDOW consecutive iterations.
    `on_iteration(state, iteration, objective_value)` is called after every
    outer iteration when given. The state it sees is the row-space one: a
    view with d >= ROW_SPACE_RATIO * n is its n x n factor R there, and Z_1
    is in R's coordinates. The returned state holds the caller's view arrays
    and Z_1 = X P in feature space. The S the callback sees is an immutable
    `ConsensusGraph` that records the weights it was projected with, which
    the next graph step replaces rather than changes; `state.S.dense()`
    gives its n x n array. A factor that turns non-finite
    in a view's sweep raises NonFiniteFactorError naming the iteration. The
    old graph is dropped before the graph step, so that a graph held as an
    n x n array is never held twice: if the step raises (Q overflows), the
    state is left with S None. Deterministic for a fixed (dataset, config).
    """
    validate_dataset(ds)
    if ds.num_views > MAX_VIEWS:
        raise TooManyViewsError(
            f"{ds.num_views} views; the exact view-weight solver takes at most {MAX_VIEWS}"
        )
    # the last layer width is the cluster count; with labels present it must
    # match their class count
    cfg.layers.validate(k=ds.k, min_view_dim=min(ds.view_dims))
    t0 = time.perf_counter()
    tall = [v for v, X in enumerate(ds.views) if X.shape[0] >= ROW_SPACE_RATIO * ds.n]
    row_views = [row_space_factor(X) if v in tall else X for v, X in enumerate(ds.views)]
    state = initialize_state(replace(ds, views=row_views), cfg)
    state.validate()
    history = [objective(state)]
    converged = False
    small_steps = 0
    for it in range(1, cfg.max_outer_iters + 1):
        for v in range(state.num_views):
            sweep_view(state, v)
            try:
                state.stacks[v].validate(view=v)
            except NonFiniteFactorError as e:
                raise NonFiniteFactorError(e.view, e.layer, iteration=it) from e
        # the step reads no old graph: drop it first, so that a graph held
        # as an n x n array is not held twice
        state.S = None
        state.S = update_consensus_graph(state.alpha, state.stacks)
        state.alpha = update_view_weights(state)

        recon, graph = objective_terms(state)
        obj = recon + state.beta * graph
        prev = history[-1]
        history.append(obj)
        if obj > prev * (1.0 + MONOTONE_REL_SLACK) + 1e-300:
            log.warning(
                "objective increased at iteration %d: %.12e -> %.12e", it, prev, obj
            )
        log.info(
            "iter=%d objective=%.6e recon=%.6e graph=%.6e alpha=%s",
            it, obj, recon, graph, np.array2string(state.alpha, precision=4),
        )
        state.validate()
        if on_iteration is not None:
            on_iteration(state, it, obj)
        rel_change = abs(prev - obj) / max(abs(prev), 1e-300)
        small_steps = small_steps + 1 if rel_change < cfg.tol_rel_objective else 0
        if small_steps >= CONVERGENCE_WINDOW:
            converged = True
            break
    # Z_1 = R P in the row space is Q R P = X P in feature space
    for v in tall:
        state.stacks[v].mappings[0] = ds.views[v] @ state.stacks[v].right_factor
    state.views = list(ds.views)
    return FitResult(
        state=state,
        objective_history=np.asarray(history),
        converged=converged,
        wall_time=time.perf_counter() - t0,
        seed=cfg.rng_seed,
    )


def fit_with_restarts(ds: MultiViewDataset, cfg: FitConfig, on_iteration=None) -> FitResult:
    """Run cfg.restarts fits with seeds seed, seed+1, ...; keep the lowest
    final objective. Summaries of every run are attached to the result.

    A restart that raises is logged and recorded in its summary, and the
    others still run; only when every restart fails is the last error
    raised again."""
    best: FitResult | None = None
    summaries: list[RestartSummary] = []
    for r in range(cfg.restarts):
        run_cfg = replace(cfg, rng_seed=cfg.rng_seed + r, restarts=1)
        t0 = time.perf_counter()
        try:
            res = fit(ds, run_cfg, on_iteration=on_iteration)
        except Exception as e:  # one failed restart leaves the others to run
            log.warning("restart with seed %d failed", run_cfg.rng_seed, exc_info=True)
            error = e
            summaries.append(
                RestartSummary(
                    run_cfg.rng_seed, None, None, False, time.perf_counter() - t0,
                    error=f"{type(e).__name__}: {e}",
                )
            )
            continue
        summaries.append(
            RestartSummary(res.seed, res.final_objective, res.iters_run, res.converged, res.wall_time)
        )
        if best is None or res.final_objective < best.final_objective:
            best = res
    if best is None:
        raise error
    best.restart_summaries = summaries
    return best
