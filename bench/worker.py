"""One measured process of the mvclust benchmark.

`run.py` starts a fresh interpreter running this file for every sample, so
each sample pays import and load cost and owns its peak RSS. Modes:

  generate  write a planted-cluster dataset directory (never timed)
  setup     import, load_dataset, normalize_views; report set-up time
  fit       set-up, then the calls `mvclust cluster` makes: fit_with_restarts,
            cluster_graph, accuracy/nmi/purity; report times, RSS and a
            result fingerprint

With `--trace 1` the fit mode swaps module attributes of the package for
timing wrappers before anything runs, keeps every span in memory, and
returns them with the result. The package itself is not modified.

The last line of standard output is one JSON object; the exit code is 0
unless the run raised.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import logging
import resource
import sys
import time
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ACC_FLOOR = 0.95  # acceptance criterion 6: planted clusters recovered


def import_package():
    """Import mvclust from this checkout's src/, never from site-packages."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import mvclust

    if Path(mvclust.__file__).resolve().parent != src / "mvclust":
        raise ImportError(f"mvclust imported from {mvclust.__file__}, expected {src / 'mvclust'}")
    return mvclust


class Tracer:
    """In-memory spans (name, start, end, parent) and counted call events."""

    def __init__(self):
        self.spans: list[dict] = []
        self.events: list[tuple[str, float]] = []
        self.totals: dict[str, float] = {}
        self._stack: list[int] = []

    def wrap_span(self, name, fn, on_result=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = {
                "name": name,
                "parent": self._stack[-1] if self._stack else -1,
                "start": time.perf_counter(),
                "end": None,
            }
            self._stack.append(len(self.spans))
            self.spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec["end"] = time.perf_counter()
                self._stack.pop()
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def wrap_count(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.events.append((name, time.perf_counter()))
            return fn(*args, **kwargs)

        return wrapper

    def add(self, name: str, amount: float) -> None:
        self.totals[name] = self.totals.get(name, 0.0) + amount

    def span(self, name, fn, *args, **kwargs):
        return self.wrap_span(name, fn)(*args, **kwargs)


def install_tracer(pkg) -> Tracer:
    """Replace the package's public entry points with timing wrappers.

    Each attribute is patched in the namespace its caller looks it up in
    (e.g. `fitting.compute_Q`, bound there by `from .consensus import`).
    """
    from mvclust import consensus, dataio, finetune, fitting, pretrain, spectral, types

    tr = Tracer()
    spans = [
        (dataio, "load_dataset", "dataio.load_dataset"),
        (dataio, "normalize_views", "dataio.normalize_views"),
        (fitting, "fit_with_restarts", "fitting.fit_with_restarts"),
        (fitting, "fit", "fitting.fit"),
        (fitting, "initialize_state", "pretrain.initialize_state"),
        (fitting, "sweep_view", "finetune.sweep_view"),
        (fitting, "compute_Q", "consensus.compute_Q"),
        (fitting, "update_consensus_graph", "consensus.update_consensus_graph"),
        (fitting, "update_view_weights", "consensus.update_view_weights"),
        (fitting, "objective_terms", "fitting.objective_terms"),
        (types.ModelState, "validate", "fitting.validate"),
        (spectral, "cluster_graph", "spectral.cluster_graph"),
        (spectral, "spectral_embed", "spectral.spectral_embed"),
        (spectral, "kmeans", "spectral.kmeans"),
    ]
    for owner, attr, name in spans:
        setattr(owner, attr, tr.wrap_span(name, getattr(owner, attr)))
    pretrain.fit_seminmf = tr.wrap_span(
        "pretrain.fit_seminmf",
        pretrain.fit_seminmf,
        on_result=lambda res: tr.add("pretrain.seminmf_sweeps", res.iters),
    )
    counted = [
        (consensus, "gram_similarity", "consensus.gram_similarity"),
        (pretrain, "gram_similarity", "consensus.gram_similarity"),
        (consensus, "solve_simplex_qp", "consensus.solve_simplex_qp"),
        (consensus, "project_to_simplex", "consensus.project_to_simplex"),
        (finetune, "mp_pinv", "finetune.mp_pinv"),
    ]
    for owner, attr, name in counted:
        setattr(owner, attr, tr.wrap_count(name, getattr(owner, attr)))
    return tr


class ObjectiveIncreaseCounter(logging.Handler):
    """Counts the fit loop's "objective increased" warnings."""

    def __init__(self):
        super().__init__(level=logging.WARNING)
        self.count = 0

    def emit(self, record):
        if record.getMessage().startswith("objective increased"):
            self.count += 1


def fingerprint(labels, final_objective: float, alpha, iters: int) -> dict:
    import numpy as np

    labels_sha = hashlib.sha256(np.asarray(labels, dtype=np.int64).tobytes()).hexdigest()
    h = hashlib.sha256()
    h.update(labels_sha.encode())
    h.update(repr(float(final_objective)).encode())
    h.update(np.asarray(alpha, dtype=np.float64).tobytes())
    h.update(str(int(iters)).encode())
    return {
        "sha256": h.hexdigest(),
        "labels_sha256": labels_sha,
        "final_objective": float(final_objective),
        "alpha": [float(a) for a in alpha],
        "iters": int(iters),
    }


def blas_runtime() -> dict:
    """OpenBLAS version string and thread count of the library numpy loaded."""
    import ctypes

    import numpy as np

    out = {"config": None, "threads": None}
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib_path in sorted(libdir.glob("*openblas*")):
        lib = ctypes.CDLL(str(lib_path))
        for prefix in ("scipy_openblas_", "openblas_"):
            for suffix in ("64_", ""):
                get_config = getattr(lib, f"{prefix}get_config{suffix}", None)
                get_threads = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
                if get_config is not None and get_threads is not None:
                    get_config.argtypes, get_config.restype = [], ctypes.c_char_p
                    get_threads.argtypes, get_threads.restype = [], ctypes.c_int
                    return {"config": get_config().decode(), "threads": get_threads()}
    return out


def environment() -> dict:
    import platform

    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_name": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_runtime": blas_runtime(),
    }


def cmd_generate(args) -> dict:
    pkg = import_package()
    spec = json.loads(args.spec)
    ds = pkg.generate_synthetic(
        n=spec["n"],
        k=spec["k"],
        n_views=len(spec["dims"]),
        dims=spec["dims"],
        separation=spec["separation"],
        noise_sigma=spec["sigma"],
        seed=args.seed,
    )
    pkg.save_dataset(ds, args.data, name=spec["name"])
    nbytes = sum(p.stat().st_size for p in Path(args.data).iterdir())
    return {"ok": True, "input_bytes": nbytes}


def cmd_setup(args) -> dict:
    import_package()
    from mvclust import dataio

    dataio.normalize_views(dataio.load_dataset(args.data))
    return {"ok": True, "setup_s": time.monotonic() - args.t0}


def cmd_fit(args) -> dict:
    """Set up, fit, cluster and score one dataset, as `mvclust cluster` does."""
    pkg = import_package()
    from mvclust import dataio, fitting, metrics, spectral
    from mvclust.errors import RankDeficientWarning

    tracer = install_tracer(pkg) if args.trace else None
    increases = ObjectiveIncreaseCounter()
    logging.getLogger("mvclust").addHandler(increases)
    spec = json.loads(args.spec)

    ds = dataio.normalize_views(dataio.load_dataset(args.data))
    setup_s = time.monotonic() - args.t0

    cfg = pkg.FitConfig(
        beta=spec["beta"],
        layers=pkg.LayerSpec(spec["layers"]),
        max_outer_iters=spec["max_iter"],
        pretrain_iters=spec["pretrain_iters"],
        tol_rel_objective=0.0,
        restarts=1,
        rng_seed=args.seed,
    )
    marks: list[tuple[float, float]] = []
    q_row_sums: list[float] = []

    def on_iteration(state, it, obj):
        entered = time.perf_counter()
        if it == args.fail_at_iteration:
            raise RuntimeError(f"injected failure at iteration {it}")
        if tracer is not None:
            # Q 1 = sum_v alpha_v H_v^T (H_v 1): O(kn), Q itself is never formed
            q1 = sum(a * (st.top.T @ st.top.sum(axis=1)) for a, st in zip(state.alpha, state.stacks))
            q_row_sums.append(float(q1.mean()))
        marks.append((entered, time.perf_counter()))

    with warnings.catch_warnings(record=True) as caught:
        if tracer is not None:
            warnings.simplefilter("always", RankDeficientWarning)
        t_fit = time.perf_counter()
        result = fitting.fit_with_restarts(ds, cfg, on_iteration=on_iteration)
        part = spectral.cluster_graph(result.state.S, spec["k"], restarts=spec["kmeans_restarts"], seed=args.seed)
        time_to_labels_s = time.perf_counter() - t_fit

    def score():
        return {
            "acc": metrics.accuracy(part, ds.labels),
            "nmi": metrics.nmi(part, ds.labels),
            "pur": metrics.purity(part, ds.labels),
        }

    scores = tracer.span("metrics.score", score) if tracer is not None else score()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    reasons = []
    if increases.count:
        reasons.append(f"{increases.count} objective increase(s) logged")
    if scores["acc"] < ACC_FLOOR:
        reasons.append(f"acc {scores['acc']:.4f} < {ACC_FLOOR}")
    out = {
        "ok": not reasons,
        "reason": "; ".join(reasons),
        "setup_s": setup_s,
        "time_to_labels_s": time_to_labels_s,
        "iteration_marks": marks,
        "peak_rss_mb": peak_rss_mb,
        **scores,
        "objective_increases": increases.count,
        "fingerprint": fingerprint(part.labels, result.final_objective, result.state.alpha, result.iters_run),
        "objective_history": [float(x) for x in result.objective_history],
        "environment": environment(),
    }
    if tracer is not None:
        out["trace"] = {
            "spans": tracer.spans,
            "events": tracer.events,
            "totals": tracer.totals,
            "q_row_sum_mean": q_row_sums,
            "finetune_rank_deficient_warnings": sum(
                1
                for w in caught
                if issubclass(w.category, RankDeficientWarning) and w.filename.endswith("finetune.py")
            ),
        }
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("mode", choices=("generate", "setup", "fit"))
    p.add_argument("--data", required=True, help="dataset directory")
    p.add_argument("--spec", default="{}", help="workload shape and caps as JSON")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--t0", type=float, default=None, help="time.monotonic() at process launch")
    p.add_argument("--trace", type=int, default=0, choices=(0, 1))
    p.add_argument("--fail-at-iteration", type=int, default=0, help="raise at this iteration (self-tests)")
    args = p.parse_args(argv)
    if args.t0 is None:
        args.t0 = time.monotonic()
    handler = {"generate": cmd_generate, "setup": cmd_setup, "fit": cmd_fit}[args.mode]
    try:
        out = handler(args)
    except Exception as e:  # the harness counts this run as failed
        import traceback

        traceback.print_exc()
        print(json.dumps({"ok": False, "reason": f"{type(e).__name__}: {e}"}))
        return 1
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
