"""Outer alternating optimization: objective, fit loop, and restarts.

One outer iteration sweeps every view (each mapping, then the two top
steps), projects the consensus graph onto its feasible set, and re-solves
the view weights. The objective is tracked per iteration; it should be
non-increasing up to small float noise, and any larger increase is logged.
"""

from __future__ import annotations

import functools
import logging
import time
from dataclasses import dataclass, replace

import numpy as np

from .consensus import MAX_VIEWS, consensus_graph, gram_row_blocks, stacked_tops, update_view_weights
# no caller here; bench/worker.py wraps fitting.compute_Q and fitting.update_consensus_graph
from .consensus import compute_Q, update_consensus_graph  # noqa: F401
from .errors import TooManyViewsError
from .finetune import sweep_view
from .pretrain import initialize_state
from .types import FitConfig, ModelState, MultiViewDataset, validate_dataset

Array = np.ndarray

log = logging.getLogger(__name__)

# Relative per-step slack before an objective increase is reported.
MONOTONE_REL_SLACK = 1e-8

# Consecutive small-change iterations required to declare convergence.
CONVERGENCE_WINDOW = 5


def objective_terms(state: ModelState) -> tuple[float, float]:
    """(total reconstruction error, graph-fit error), both squared Frobenius.

    Both terms are computed directly from their residual arrays, not from an
    expansion, since this is the objective that is reported and judged. One
    d x n residual is alive at a time, and the graph residual is summed over
    blocks of Q's rows, each formed in the block's own buffer.
    """
    recon = 0.0
    for v, X in enumerate(state.views):
        stack = state.stacks[v]
        # Phi H - X is -(X - Phi H) bit for bit, without a second d x n temporary
        R = functools.reduce(np.matmul, stack.mappings) @ stack.top
        R -= X
        recon += float(np.linalg.norm(R) ** 2)
        del R  # before the next view's product is formed
    graph = 0.0
    for i, R in gram_row_blocks(stacked_tops(state.alpha, state.stacks)):
        R -= state.S[i : i + R.shape[0]]
        graph += float(np.vdot(R, R))
        del R  # before the next block is formed
    return recon, graph


def objective(state: ModelState) -> float:
    """sum_v ||X_v - Z_1..Z_m H_m||_F^2 + beta ||S - sum_v alpha_v H_v^T H_v||_F^2."""
    recon, graph = objective_terms(state)
    return recon + state.beta * graph


@dataclass
class RestartSummary:
    seed: int
    final_objective: float
    iters_run: int
    converged: bool
    wall_time: float


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
    outer iteration when given. The graph step overwrites `state.S` in place,
    so the S it sees is replaced by the next iteration: copy it to keep it.
    Deterministic for a fixed (dataset, config).
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
    state = initialize_state(ds, cfg)
    state.validate()
    history = [objective(state)]
    converged = False
    small_steps = 0
    for it in range(1, cfg.max_outer_iters + 1):
        for v in range(state.num_views):
            sweep_view(state, v)
        consensus_graph(stacked_tops(state.alpha, state.stacks), out=state.S)
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
    return FitResult(
        state=state,
        objective_history=np.asarray(history),
        converged=converged,
        wall_time=time.perf_counter() - t0,
        seed=cfg.rng_seed,
    )


def fit_with_restarts(ds: MultiViewDataset, cfg: FitConfig, on_iteration=None) -> FitResult:
    """Run cfg.restarts fits with seeds seed, seed+1, ...; keep the lowest
    final objective. Summaries of every run are attached to the result."""
    best: FitResult | None = None
    summaries: list[RestartSummary] = []
    for r in range(cfg.restarts):
        run_cfg = replace(cfg, rng_seed=cfg.rng_seed + r, restarts=1)
        res = fit(ds, run_cfg, on_iteration=on_iteration)
        summaries.append(
            RestartSummary(res.seed, res.final_objective, res.iters_run, res.converged, res.wall_time)
        )
        if best is None or res.final_objective < best.final_objective:
            best = res
    best.restart_summaries = summaries
    return best
