"""Outer alternating optimization: objective, fit loop, and restarts.

One outer iteration sweeps every view (each mapping, then the two top
steps), projects the consensus graph onto its feasible set, and re-solves
the view weights. The objective is tracked per iteration; it should be
non-increasing up to small float noise, and any larger increase is logged.
Its graph term is the consensus graph's own (`ConsensusGraph.residual_sq`).
Its reconstruction term is expanded as ||X||^2 - 2 <Phi^T X, H> +
<Phi^T Phi, H H^T> from the products each view's sweep already formed for its
top steps, with ||X||^2 taken once per fit: a fit reads each view in exactly
two products per iteration, and holds no d x n residual.

A view at least `ROW_SPACE_RATIO` times as tall as its sample count is
fitted through R, the n x n triangular factor of X = QR (`row_space`), taken
once for all the restarts of a fit:
||X - Q Phi' H|| = ||R - Phi' H|| for every chain Phi' = Z_1..Z_m with Z_1
in R's coordinates, so pretraining, the sweeps, the objective and the checks
run on R unchanged. Every step that sets Z_1 writes it as R P for an n x l_1
right factor P, and the fit returns Z_1 = X P (`_lift`).
"""

from __future__ import annotations

import functools
import logging
import time
from dataclasses import dataclass, replace

import numpy as np
from numpy.linalg import lapack_lite

from .consensus import MAX_VIEWS, update_consensus_graph, update_view_weights
# no caller here; bench/worker.py wraps fitting.compute_Q by this name
from .consensus import compute_Q  # noqa: F401
from .errors import NonFiniteFactorError, RankDeficientError, TooManyViewsError
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

    LAPACK's dgeqrf, run in place on one copy of X: X^T in C order is X in
    column-major order, which dgeqrf overwrites with R above its diagonal.
    The copy is taken even where X^T is already C-contiguous, so the
    caller's X is never written. `np.linalg.qr(X, mode="r")` runs the same
    dgeqrf, but on two copies: its own cast and its gufunc's column-major
    buffer. On a 2-core Xeon with 2 BLAS threads, one 3183 x 544 view took
    90 ms against 110 ms for `np.linalg.qr` (medians of 7), and a
    4000 x 500 view raised a fresh process's peak RSS by 1.31 times its
    size, against 2.17; the wide-views benchmark's peak RSS fell from 106.5
    to 93.6 MB. numpy's own `test_public_api` lists `numpy.linalg.lapack_lite`
    among its private but present modules, so a test pins R bit for bit to
    `np.linalg.qr`'s.
    """
    d, n = X.shape
    A = np.array(X.T, dtype=np.float64, order="C")
    tau = np.empty(min(d, n))
    work = np.empty(1)
    lapack_lite.dgeqrf(d, n, A, d, tau, work, -1, 0)  # workspace query
    work = np.empty(int(work[0]))
    info = lapack_lite.dgeqrf(d, n, A, d, tau, work, work.size, 0)["info"]
    if info != 0:
        raise RuntimeError(f"dgeqrf failed with info={info}")
    return np.triu(A[:, : min(d, n)].T)


def _is_tall(X: Array, n: int) -> bool:
    """Whether a view with n samples is fitted through its R."""
    return X.shape[0] >= ROW_SPACE_RATIO * n


def row_space(ds: MultiViewDataset) -> MultiViewDataset:
    """The dataset as a fit reads it: each view with d >= ROW_SPACE_RATIO * n
    as its `row_space_factor` R, every other view as the same array. It is
    its own row space, so a fit of it takes no QR and is ds's fit before
    `_lift`."""
    return replace(ds, views=[row_space_factor(X) if _is_tall(X, ds.n) else X for X in ds.views])


def _lift(ds: MultiViewDataset, state: ModelState) -> ModelState:
    """Give a state fitted to `row_space(ds)` the dataset's views: a view
    held there as its R gets Z_1 = R P back as Q R P = X P."""
    for X, stack in zip(ds.views, state.stacks):
        if _is_tall(X, ds.n):
            stack.mappings[0] = X @ stack.right_factor
    state.views = list(ds.views)
    return state


def validate_views(ds: MultiViewDataset) -> None:
    """Check the views a fit takes: TooManyViewsError past MAX_VIEWS, and
    RankDeficientError naming the first view whose sample columns are all
    equal, the zero view included: its Gram is constant, so it fits the
    diffuse graph the objective prefers and takes most of the weight.
    Exact in O(dn) from each row's extremes, with no d x n temporary."""
    if ds.num_views > MAX_VIEWS:
        raise TooManyViewsError(
            f"{ds.num_views} views; the exact view-weight solver takes at most {MAX_VIEWS}"
        )
    for v, X in enumerate(ds.views):
        if np.array_equal(X.max(axis=1), X.min(axis=1)):
            raise RankDeficientError(
                f"view {v} is constant: all {ds.n} samples are the same vector, "
                "which carries no cluster structure; drop the view"
            )


def _validate_fit(ds: MultiViewDataset, cfg: FitConfig) -> None:
    """The config's, the dataset's and the layers' checks that precede any
    work of a fit."""
    # a FitConfig changed after it was made is checked again: restarts 0
    # would leave no run to return
    cfg.validate()
    validate_dataset(ds)
    validate_views(ds)
    # the last layer width is the cluster count; with labels present it must
    # match their class count. No layer may be wider than n: checked here,
    # before any QR
    cfg.layers.validate(k=ds.k, min_view_dim=min(ds.view_dims), n=ds.n)


def squared_norm(X: Array) -> float:
    """||X||_F^2, read once without a copy of X."""
    x = X.ravel(order="K")
    return float(np.vdot(x, x))


def objective_terms(
    state: ModelState,
    products: list[tuple[Array, Array]] | None = None,
    views_sq: list[float] | None = None,
) -> tuple[float, float]:
    """(total reconstruction error, graph-fit error), both squared Frobenius.

    Each view's reconstruction term is ||X - Phi H||^2 = ||X||^2 -
    2 <Phi^T X, H> + <Phi^T Phi, H H^T> for its chain Phi = Z_1..Z_m and top
    H. `products` holds each view's (Phi^T X, Phi^T Phi) for its current
    chain, as `sweep_view` returns them; without them Phi is formed and
    Phi^T X taken in one product with X. `views_sq` holds each ||X||^2
    (`squared_norm`), which a fit takes once; without it each is read here.
    No d x n array is formed. The graph term ||Q - S||^2 is the graph's
    `residual_sq`, from its structure when it was projected from the
    state's tops, as every graph of a fit is.
    """
    if views_sq is None:
        views_sq = [squared_norm(X) for X in state.views]
    recon = 0.0
    for v, X in enumerate(state.views):
        H = state.stacks[v].top
        if products is None:
            Phi = functools.reduce(np.matmul, state.stacks[v].mappings)
            PhitX, PhitPhi = Phi.T @ X, Phi.T @ Phi
        else:
            PhitX, PhitPhi = products[v]
        recon += views_sq[v] - 2.0 * float(np.vdot(PhitX, H)) + float(np.vdot(PhitPhi, H @ H.T))
    return recon, state.S.residual_sq(state.alpha, state.stacks)


@dataclass
class RestartSummary:
    """One run of `fit`. A failed run has no objective or iteration count,
    and `error` names its exception."""

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
    """Run the alternating optimization from a pretrained start once per
    restart, with seeds cfg.rng_seed, cfg.rng_seed + 1, ..., and keep the run
    with the lowest final objective (the first of a tie), with every run's
    summary attached. A run that raises is logged and recorded in its
    summary; only when every run fails is the last error raised again.

    Convergence is declared when the relative objective change stays below
    cfg.tol_rel_objective for CONVERGENCE_WINDOW consecutive iterations.
    `on_iteration(state, iteration, objective_value)` is called after every
    outer iteration of every run when given. The state it sees is that of
    `row_space(ds)`: a view with d >= ROW_SPACE_RATIO * n is its n x n
    factor R there, taken once for all the runs, and Z_1 is in R's
    coordinates. The returned state holds the caller's view arrays and
    Z_1 = X P in feature space; only the kept run is lifted. The S the
    callback sees is an immutable `ConsensusGraph` that records the weights
    it was projected with, which the next graph step replaces rather than
    changes; `state.S.dense()` gives its n x n array. A factor that turns
    non-finite in a view's sweep raises NonFiniteFactorError naming the
    iteration. The old graph is dropped before the graph step, so that a
    graph held as an n x n array is never held twice: if the step raises
    (Q overflows), the state is left with S None. Deterministic for a fixed
    (dataset, config).
    """
    _validate_fit(ds, cfg)
    rs = row_space(ds)
    best: FitResult | None = None
    summaries: list[RestartSummary] = []
    for r in range(cfg.restarts):
        seed = cfg.rng_seed + r
        t0 = time.perf_counter()
        try:
            res = _run(rs, replace(cfg, rng_seed=seed), on_iteration)
        except Exception as e:  # one failed run leaves the others to run
            log.warning("restart with seed %d failed", seed, exc_info=True)
            error = e
            wall = time.perf_counter() - t0
            summaries.append(RestartSummary(seed, None, None, False, wall, error=f"{type(e).__name__}: {e}"))
            continue
        summaries.append(
            RestartSummary(res.seed, res.final_objective, res.iters_run, res.converged, res.wall_time)
        )
        if best is None or res.final_objective < best.final_objective:
            best = res
    if best is None:
        raise error
    best.restart_summaries = summaries
    _lift(ds, best.state)
    return best


def _run(rs: MultiViewDataset, cfg: FitConfig, on_iteration) -> FitResult:
    """One run of `fit` from cfg.rng_seed on the row-space dataset rs; its
    state is left in rs's coordinates."""
    t0 = time.perf_counter()
    state = initialize_state(rs, cfg)
    state.validate()
    # a row-space view's ||R||^2 is its ||X||^2
    views_sq = [squared_norm(X) for X in state.views]
    recon, graph = objective_terms(state, views_sq=views_sq)
    history = [recon + state.beta * graph]
    converged = False
    small_steps = 0
    for it in range(1, cfg.max_outer_iters + 1):
        # the sweep's (Phi^T X, Phi^T Phi) per view: nothing below changes a
        # swept view's factors, so they are the objective's too
        products = []
        for v in range(state.num_views):
            products.append(sweep_view(state, v))
            try:
                state.stacks[v].validate(view=v)
            except NonFiniteFactorError as e:
                raise NonFiniteFactorError(e.view, e.layer, iteration=it) from e
        # the step reads no old graph: drop it first, so that a graph held
        # as an n x n array is not held twice
        state.S = None
        state.S = update_consensus_graph(state.alpha, state.stacks)
        state.alpha = update_view_weights(state)

        recon, graph = objective_terms(state, products, views_sq)
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


# bench/worker.py calls and times the fit by this name. A def, not an alias of
# the function object, so that its call goes through `fit` as the module
# holds it, and a wrapper put there sees the fit.
def fit_with_restarts(ds: MultiViewDataset, cfg: FitConfig, on_iteration=None) -> FitResult:
    return fit(ds, cfg, on_iteration)
