"""Command-line entry point.

Subcommands: `cluster` (fit + spectral clustering + report), `sweep`
(beta x layer grid) and `synth` (write a synthetic dataset directory).
Every fit runs in this process. With --restarts r, runs use seeds seed, ...,
seed + r - 1 and the one with the lowest final objective is clustered.
Progress goes to stderr; machine-readable artifacts only to the path given
with --out. Every command is deterministic for a fixed --seed.
"""

from __future__ import annotations

import argparse
import logging
import math
import sys
import time
from dataclasses import asdict
from pathlib import Path

from .dataio import (
    ClusteringReport,
    generate_synthetic,
    load_dataset,
    normalize_views,
    read_manifest,
    save_dataset,
    save_report,
)
from .errors import MvclustError
from .fitting import FitResult, fit, row_space, validate_views
from .metrics import accuracy, nmi, purity
from .spectral import cluster_graph
from .types import FitConfig, LayerSpec, MultiViewDataset

log = logging.getLogger(__name__)

# 2^-7, 2^-5, ..., 2^7: the sweep's beta grid when --beta-grid is not given
DEFAULT_BETA_GRID = tuple(2.0**e for e in range(-7, 8, 2))


def parse_beta(text: str) -> float:
    """A positive, finite beta: a plain decimal or power-of-two notation like 2^-3."""
    text = text.strip()
    try:
        value = 2.0 ** int(text[2:]) if text.startswith("2^") else float(text)
    except (ValueError, OverflowError):
        raise argparse.ArgumentTypeError(f"bad beta {text!r}")
    if not 0 < value < math.inf:
        raise argparse.ArgumentTypeError(f"beta must be positive and finite, got {value}")
    return value


def parse_tol(text: str) -> float:
    """A non-negative, finite tolerance."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad tolerance {text!r}")
    if not 0 <= value < math.inf:
        raise argparse.ArgumentTypeError(f"tolerance must be >= 0 and finite, got {value}")
    return value


def int_at_least(low: int):
    """An argparse type for integers >= low, so smaller counts exit 2 at parse time."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"bad integer {text!r}")
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value

    return parse


def parse_int_list(text: str) -> list[int]:
    try:
        values = [int(t) for t in text.split(",") if t.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad integer list {text!r}")
    if not values:
        raise argparse.ArgumentTypeError("empty integer list")
    return values


def parse_beta_grid(text: str) -> list[float]:
    grid = [parse_beta(t) for t in text.split(",") if t.strip()]
    if not grid:
        raise argparse.ArgumentTypeError("empty beta grid")
    return grid


def _resolve_k(layers: list[int], known_k: int | None) -> int:
    k = layers[-1]
    if known_k is not None and known_k != k:
        raise MvclustError(
            f"last layer width {k} must equal the dataset's cluster count {known_k}"
        )
    if k < 2:
        raise MvclustError(f"cluster count must be >= 2, got {k}")
    return k


def _load_normalized(args) -> tuple[MultiViewDataset, int | None]:
    """The dataset and its known cluster count, after checking that --out
    can name a new file, so that no fit runs for a result it could not write."""
    out = Path(args.out)
    if not out.parent.is_dir():
        raise MvclustError(f"--out directory {out.parent} does not exist")
    if out.is_dir():
        raise MvclustError(f"--out {out} is a directory")
    ds = load_dataset(args.data)
    known = {ds.k, read_manifest(args.data).k, getattr(args, "k", None)} - {None}
    if len(known) > 1:
        raise MvclustError(f"labels, manifest k and --k give different cluster counts {sorted(known)}")
    if args.normalize == "sample":
        ds = normalize_views(ds)
    return ds, min(known, default=None)


def _metrics_dict(pred, truth) -> dict | None:
    if truth is None:
        return None
    return {
        "acc": accuracy(pred, truth),
        "nmi": nmi(pred, truth),
        "pur": purity(pred, truth),
    }


def _metric_cells(pred, truth) -> list[str]:
    """TSV cells for acc, nmi, pur to 4 decimals; blank without labels."""
    m = _metrics_dict(pred, truth)
    return ["", "", ""] if m is None else [f"{x:.4f}" for x in m.values()]


def _make_config(args, layers: list[int], beta: float) -> FitConfig:
    return FitConfig(
        beta=beta,
        layers=LayerSpec(layers),
        max_outer_iters=args.max_iter,
        pretrain_iters=args.pretrain_iters,
        tol_rel_objective=args.tol,
        restarts=args.restarts,
        rng_seed=args.seed,
    )


def _fit_and_cluster(ds, cfg: FitConfig, k: int, kmeans_restarts: int):
    """Keep the restart with the lowest final objective and cluster its
    graph with that run's seed."""
    result = fit(ds, cfg)
    return result, cluster_graph(result.state.S, k, restarts=kmeans_restarts, seed=result.seed)


def _build_report(name, ds, cfg, result: FitResult, part, t_start) -> ClusteringReport:
    return ClusteringReport(
        dataset=name,
        k=part.k,
        labels=[int(x) for x in part.labels],
        alpha=[float(a) for a in result.state.alpha],
        objective_history=[float(x) for x in result.objective_history],
        config={**asdict(cfg), "layers": list(cfg.layers.sizes)},
        timing={"fit_seconds": result.wall_time, "total_seconds": time.perf_counter() - t_start},
        metrics=_metrics_dict(part, ds.labels),
        restarts=[asdict(s) for s in result.restart_summaries],
    )


def cmd_cluster(args) -> int:
    t_start = time.perf_counter()
    ds, known_k = _load_normalized(args)
    k = _resolve_k(args.layers, known_k)
    cfg = _make_config(args, args.layers, args.beta)
    result, part = _fit_and_cluster(ds, cfg, k, args.kmeans_restarts)
    report = _build_report(Path(args.data).name, ds, cfg, result, part, t_start)
    save_report(report, args.out)
    if report.metrics:
        log.info(
            "acc=%.4f nmi=%.4f pur=%.4f", report.metrics["acc"],
            report.metrics["nmi"], report.metrics["pur"],
        )
    log.info("report written to %s", args.out)
    return 0


def _layer_grid(k: int) -> list[list[int]]:
    """The 3 x 3 three-layer grid; the last layer is pinned to the cluster count."""
    return [[a * k, b * k, k] for a in (7, 11, 15) for b in (2, 3, 4)]


def _sweep_cell(ds, args, layers: list[int], beta: float, k: int) -> list[str]:
    """Fit and cluster one (beta, layers) cell; returns its TSV cells."""
    cfg = _make_config(args, layers, beta)
    result, part = _fit_and_cluster(ds, cfg, k, args.kmeans_restarts)
    return [
        repr(beta),
        ",".join(str(s) for s in layers),
        repr(result.final_objective),
        str(result.iters_run),
        str(result.converged),
        *_metric_cells(part, ds.labels),
    ]


def cmd_sweep(args) -> int:
    ds, known_k = _load_normalized(args)
    layer_grid = args.layer_grid
    if not layer_grid:
        if known_k is None:
            raise MvclustError("need labels, a manifest k, --k, or --layer-grid to size the sweep")
        layer_grid = _layer_grid(known_k)
    k = _resolve_k(layer_grid[0], known_k)
    for spec in layer_grid:
        LayerSpec(spec).validate(k=k, min_view_dim=min(ds.view_dims), n=ds.n)
    validate_views(ds)
    # every cell fits the same views: take each tall view's QR once
    rs = row_space(ds)
    rows = [
        _sweep_cell(rs, args, layers, beta, k)
        for beta in args.beta_grid
        for layers in layer_grid
    ]
    header = ["cell", "beta", "layers", "final_objective", "iters", "converged", "acc", "nmi", "pur"]
    lines = ["\t".join(header)] + ["\t".join([str(idx), *row]) for idx, row in enumerate(rows)]
    Path(args.out).write_text("\n".join(lines) + "\n")
    log.info("sweep table (%d cells) written to %s", len(rows), args.out)
    return 0


def cmd_synth(args) -> int:
    ds = generate_synthetic(
        n=args.n,
        k=args.k,
        n_views=len(args.dims),
        dims=args.dims,
        separation=args.separation,
        noise_sigma=args.sigma,
        seed=args.seed,
    )
    save_dataset(ds, args.out, name=Path(args.out).name)
    log.info("synthetic dataset (%d samples, %d views) written to %s", ds.n, ds.num_views, args.out)
    return 0


def _add_fit_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--data", required=True, help="dataset directory")
    p.add_argument("--max-iter", type=int_at_least(0), default=150, help="outer iterations (default 150)")
    p.add_argument("--pretrain-iters", type=int_at_least(1), default=100, help="semi-NMF sweeps per layer")
    p.add_argument("--tol", type=parse_tol, default=1e-6, help="relative objective tolerance")
    p.add_argument("--restarts", type=int_at_least(1), default=1, help="fits; lowest objective kept")
    p.add_argument("--seed", type=int_at_least(0), default=0, help="base RNG seed")
    p.add_argument("--kmeans-restarts", type=int_at_least(1), default=10, help="k-means restarts")
    p.add_argument(
        "--normalize", choices=("sample", "none"), default="sample",
        help="feature normalization (default: unit-norm sample columns)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mvclust",
        description=(
            "Multi-view clustering: per-view multi-layer semi-NMF fused through a "
            "learned consensus similarity graph, partitioned by normalized spectral "
            "clustering (symmetric Laplacian, row-normalized eigenvectors, k-means++)."
        ),
    )
    parser.add_argument("-v", "--verbose", action="store_true", help="debug logging")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("cluster", help="fit one configuration and write a report")
    _add_fit_args(p)
    p.add_argument("--layers", type=parse_int_list, required=True, help="widths l1,...,k")
    p.add_argument("--beta", type=parse_beta, required=True, help="trade-off (accepts 2^e)")
    p.add_argument("--out", required=True, help="report JSON path")
    p.set_defaults(func=cmd_cluster)

    p = sub.add_parser("sweep", help="grid sweep over beta and layer sizes")
    _add_fit_args(p)
    p.add_argument("--beta-grid", type=parse_beta_grid, default=DEFAULT_BETA_GRID,
                   help="comma list (accepts 2^e); default 2^-7..2^7 odd exponents")
    p.add_argument("--layer-grid", type=parse_int_list, action="append", default=None,
                   help="explicit layer spec, repeatable; replaces the default grid")
    p.add_argument("--k", type=int_at_least(2), default=None,
                   help="cluster count for unlabelled data; the manifest's k by default")
    p.add_argument("--out", required=True, help="results TSV path")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("synth", help="write a synthetic multi-view dataset")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--dims", type=parse_int_list, required=True, help="per-view dimensions")
    p.add_argument("--separation", type=float, default=10.0)
    p.add_argument("--sigma", type=float, default=0.5)
    p.add_argument("--seed", type=int_at_least(0), default=0)
    p.add_argument("--out", required=True, help="dataset directory to create")
    p.set_defaults(func=cmd_synth)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        stream=sys.stderr,
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        return args.func(args)
    except MvclustError as e:
        log.error("%s", e)
        return 1
    except OSError as e:
        log.error("i/o failure: %s", e)
        return 1


if __name__ == "__main__":
    sys.exit(main())
