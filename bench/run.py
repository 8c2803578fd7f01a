"""Benchmark harness for mvclust.

    python3 bench/run.py --workload large-n --seed 1 --seconds 20 --trace 0

Generates a planted-cluster dataset from --seed in a child process, then
runs a closed loop of fresh worker processes (bench/worker.py) on it: one
worker at a time, the next started only after the previous one exits,
until --seconds have passed (at least MIN_FITS fits). Each worker makes
the calls `mvclust cluster` makes. With --trace 0 it prints the end-to-end
metrics; with --trace 1 it runs one untraced and one traced fit and prints
the per-layer metrics taken from the traced fit's spans. The last line of
standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The harness itself imports only the standard library, so the workers it
starts inherit no large resident set. Everything it writes goes under
`.bench_work/` at the checkout root.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import asdict, dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKER = BENCH_DIR / "worker.py"
WORK_DIR = ROOT / ".bench_work"

MIN_FITS = 2  # two fits per run, so a nondeterministic result shows within a run
MIN_SETUPS = 3  # set-up is sampled at least this often; its median is reported
RUN_BUDGET_S = 170.0  # every worker of one run ends within this many seconds
MAX_BLAS_THREADS = 2


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    n: int
    dims: tuple[int, ...]
    k: int
    layers: tuple[int, ...]
    max_iter: int
    beta: float = 2.0**-3
    pretrain_iters: int = 100
    kmeans_restarts: int = 10
    separation: float = 10.0
    sigma: float = 0.5


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "large-n",
            "n=3000, V=3, d~27: the n-by-n layers (consensus, objective, spectral) dominate",
            n=3000, dims=(24, 30, 27), k=3, layers=(21, 9, 3), max_iter=3,
        ),
        Workload(
            "wide-views",
            "BBCSport shape, n=544, V=2, d~3200: loading, pretraining and view sweeps dominate",
            n=544, dims=(3183, 3203), k=5, layers=(35, 15, 5), max_iter=20,
        ),
        Workload(
            "many-views",
            "Caltech101-7 shape, n=1474, V=6 mixed widths: per-view costs and the V-sized weight QP",
            n=1474, dims=(48, 40, 254, 1984, 512, 928), k=7, layers=(28, 14, 7), max_iter=5,
        ),
    )
}

# (name, unit): printed with --trace 0, medians over the run's samples
END_TO_END = [
    ("setup_s", "s"),
    ("time_to_labels_s", "s"),
    ("iter_s", "s"),
    ("peak_rss_mb", "MB"),
    ("acc", "fraction"),
]

# (name, unit): printed with --trace 1, from one traced fit; "_s" metrics
# are self times, and those of the fit loop are medians per outer iteration
PER_LAYER = [
    ("dataio.load_dataset_s", "s"),
    ("dataio.normalize_views_s", "s"),
    ("dataio.input_bytes", "bytes"),
    ("pretrain.initialize_state_s", "s"),
    ("pretrain.fit_seminmf_s", "s"),
    ("pretrain.seminmf_sweeps", "count"),
    ("pretrain.sweeps_per_cap", "fraction"),
    ("finetune.sweep_view_s", "s"),
    ("finetune.pinv_calls", "count"),
    ("finetune.rank_deficient_warnings", "count"),
    ("consensus.compute_Q_s", "s"),
    ("consensus.update_consensus_graph_s", "s"),
    ("consensus.update_view_weights_s", "s"),
    ("consensus.gram_calls_per_iter", "count"),
    ("consensus.qp_iters_per_solve", "count"),
    ("consensus.q_row_sum_mean", "value"),
    ("fitting.objective_terms_s", "s"),
    ("fitting.validate_s", "s"),
    ("fitting.loop_self_s", "s"),
    ("fitting.objective_increases", "count"),
    ("spectral.spectral_embed_s", "s"),
    ("spectral.kmeans_s", "s"),
    ("metrics.score_s", "s"),
    ("trace.overhead_s", "s"),
]

# spans whose self time is summed per outer iteration
ITERATION_SPANS = {
    "finetune.sweep_view": "finetune.sweep_view_s",
    "consensus.compute_Q": "consensus.compute_Q_s",
    "consensus.update_consensus_graph": "consensus.update_consensus_graph_s",
    "consensus.update_view_weights": "consensus.update_view_weights_s",
    "fitting.objective_terms": "fitting.objective_terms_s",
    "fitting.validate": "fitting.validate_s",
}
# counted calls reported per outer iteration
ITERATION_COUNTS = {
    "consensus.gram_similarity": "consensus.gram_calls_per_iter",
    "finetune.mp_pinv": "finetune.pinv_calls",
}


def blas_threads() -> int:
    return max(1, min(MAX_BLAS_THREADS, len(os.sched_getaffinity(0))))


def worker_env() -> dict:
    env = dict(os.environ)
    threads = str(blas_threads())
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    env["PYTHONHASHSEED"] = "0"
    return env


def code_digest() -> str:
    """sha256 over the package sources, so records are keyed by code version."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def call_worker(mode: str, data: Path, wl: Workload, seed: int, deadline: float, trace: int = 0, fail_at: int = 0) -> dict:
    """Run one worker process to completion and return its JSON result.

    A crash, a timeout or unparsable output yields {"ok": False, ...}; the
    worker's own duration is added as "wall_s".
    """
    spec = json.dumps(asdict(wl))
    t0 = time.monotonic()
    cmd = [
        sys.executable, str(WORKER), mode, "--data", str(data), "--spec", spec,
        "--seed", str(seed), "--t0", repr(t0), "--trace", str(trace),
        "--fail-at-iteration", str(fail_at),
    ]
    try:
        proc = subprocess.run(
            cmd, capture_output=True, text=True, env=worker_env(), cwd=ROOT,
            timeout=max(1.0, deadline - t0),
        )
    except subprocess.TimeoutExpired:
        return {"ok": False, "reason": "timeout", "wall_s": time.monotonic() - t0}
    wall = time.monotonic() - t0
    lines = proc.stdout.strip().splitlines()
    try:
        out = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        out = {"ok": False, "reason": f"no result (exit {proc.returncode})"}
    if proc.returncode != 0:
        out["ok"] = False
        sys.stderr.write(proc.stderr[-4000:])
    out["wall_s"] = wall
    return out


def check_record(wl: Workload, seed: int, fit: dict, env: dict) -> str | None:
    """Compare a fit's fingerprint with the record of earlier runs of the
    same code, workload settings and seed; store it when new. Returns a
    mismatch message."""
    path = WORK_DIR / "records" / f"{wl.name}-seed{seed}.json"
    records = json.loads(path.read_text()) if path.exists() else {}
    spec_sha = hashlib.sha256(json.dumps(asdict(wl), sort_keys=True).encode()).hexdigest()
    key = f"{env['code_sha256']}/{spec_sha}/blas{env['blas_threads_set']}"
    fp = fit["fingerprint"]
    old = records.get(key)
    if old is not None:
        if old["fingerprint"]["sha256"] != fp["sha256"]:
            return f"fingerprint {fp['sha256'][:16]} differs from the recorded {old['fingerprint']['sha256'][:16]}"
        return None
    records[key] = {
        "fingerprint": fp,
        "objective_history": fit["objective_history"],
        "environment": env,
    }
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(records, indent=1) + "\n")
    return None


def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    child = [0.0] * len(spans)
    for s in spans:
        if s["parent"] >= 0:
            child[s["parent"]] += s["end"] - s["start"]
    return [s["end"] - s["start"] - c for s, c in zip(spans, child)]


def iteration_windows(spans: list[dict], marks: list) -> list[tuple[float, float]]:
    """(start, end) of each outer iteration.

    Iteration 1 starts when the fit's initial objective is computed; each
    later one when the previous on_iteration callback returns. Each ends
    when on_iteration is entered, so the callback is excluded.
    """
    fit_idx = max(i for i, s in enumerate(spans) if s["name"] == "fitting.fit")
    start = next(
        s["end"] for s in spans if s["name"] == "fitting.objective_terms" and s["parent"] == fit_idx
    )
    windows = []
    for entered, left in marks:
        windows.append((start, entered))
        start = left
    return windows


def layer_metrics(traced: dict, plain: dict, wl: Workload, input_bytes: int) -> dict[str, float]:
    """Per-layer metrics of one traced fit (see PER_LAYER)."""
    tr = traced["trace"]
    spans, events = tr["spans"], tr["events"]
    selfs = self_times(spans)
    fit_idx = max(i for i, s in enumerate(spans) if s["name"] == "fitting.fit")

    def total(name: str) -> float:
        return sum(st for s, st in zip(spans, selfs) if s["name"] == name)

    per_iter: dict[str, list[float]] = {m: [] for m in [*ITERATION_SPANS.values(), *ITERATION_COUNTS.values()]}
    per_iter["fitting.loop_self_s"] = []
    for lo, hi in iteration_windows(spans, traced["iteration_marks"]):
        inside = [(s, st) for s, st in zip(spans, selfs) if s["start"] >= lo and s["end"] <= hi]
        for name, metric in ITERATION_SPANS.items():
            per_iter[metric].append(sum(st for s, st in inside if s["name"] == name))
        for name, metric in ITERATION_COUNTS.items():
            per_iter[metric].append(sum(1 for e, t in events if e == name and lo <= t <= hi))
        direct = sum(s["end"] - s["start"] for s, _ in inside if s["parent"] == fit_idx)
        per_iter["fitting.loop_self_s"].append(hi - lo - direct)

    def count(name: str) -> int:
        return sum(1 for e, _ in events if e == name)

    sweeps = tr["totals"].get("pretrain.seminmf_sweeps", 0.0)
    solves = count("consensus.solve_simplex_qp")
    out = {
        "dataio.load_dataset_s": total("dataio.load_dataset"),
        "dataio.normalize_views_s": total("dataio.normalize_views"),
        "dataio.input_bytes": input_bytes,
        "pretrain.initialize_state_s": total("pretrain.initialize_state"),
        "pretrain.fit_seminmf_s": total("pretrain.fit_seminmf"),
        "pretrain.seminmf_sweeps": sweeps,
        "pretrain.sweeps_per_cap": sweeps / (len(wl.layers) * len(wl.dims) * wl.pretrain_iters),
        "finetune.rank_deficient_warnings": tr["finetune_rank_deficient_warnings"],
        "consensus.qp_iters_per_solve": count("consensus.project_to_simplex") / solves if solves else 0.0,
        "consensus.q_row_sum_mean": tr["q_row_sum_mean"][-1],
        "fitting.objective_increases": traced["objective_increases"],
        "spectral.spectral_embed_s": total("spectral.spectral_embed"),
        "spectral.kmeans_s": total("spectral.kmeans"),
        "metrics.score_s": total("metrics.score"),
        "trace.overhead_s": traced["time_to_labels_s"] - plain["time_to_labels_s"],
    }
    out.update({m: statistics.median(v) for m, v in per_iter.items()})
    return {name: out[name] for name, _ in PER_LAYER}


def iteration_seconds(fit: dict) -> list[float]:
    """Durations between consecutive on_iteration calls of one fit."""
    marks = fit["iteration_marks"]
    return [b[0] - a[1] for a, b in zip(marks, marks[1:])]


def measure(wl: Workload, seed: int, seconds: float, trace: bool, fail_first_at: int = 0) -> dict:
    """One benchmark run. Returns the result object plus diagnostics.

    `fail_first_at` makes the first fit raise at that outer iteration, to
    check that a failing fit is counted rather than fatal.
    """
    started = time.monotonic()
    deadline = started + RUN_BUDGET_S
    WORK_DIR.mkdir(exist_ok=True)
    data = WORK_DIR / f"data-{wl.name}-seed{seed}-{os.getpid()}"
    try:
        gen = call_worker("generate", data, wl, seed, deadline)
        if not gen["ok"]:
            raise RuntimeError(f"dataset generation failed: {gen.get('reason')}")
        loop_start = time.monotonic()
        fits, setups, failures = [], [], []
        attempts = {"fit": 0, "setup": 0}

        def attempt(mode: str, **kw) -> dict:
            attempts[mode] += 1
            out = call_worker(mode, data, wl, seed, deadline, **kw)
            if not out["ok"]:
                failures.append(f"{mode}: {out.get('reason')}")
                return out
            if "setup_s" in out:
                setups.append(out["setup_s"])
            if mode == "fit":
                fits.append(out)
            return out

        if trace:
            attempt("fit")
            attempt("fit", trace=1)
        else:
            last = 0.0
            while True:
                now = time.monotonic()
                if now + last > deadline:
                    break
                if attempts["fit"] >= MIN_FITS and now + last > loop_start + seconds:
                    break
                last = attempt("fit", fail_at=fail_first_at if attempts["fit"] == 0 else 0)["wall_s"]
            while len(setups) < MIN_SETUPS and time.monotonic() + 2 * max(setups, default=last) < deadline:
                if not attempt("setup")["ok"]:
                    break
    finally:
        shutil.rmtree(data, ignore_errors=True)

    if not fits:
        raise RuntimeError("no fit succeeded: " + "; ".join(failures))
    distinct = sorted({f["fingerprint"]["sha256"] for f in fits})
    problems = list(failures)
    if len(distinct) > 1:
        problems.append(f"fits of one run disagree: fingerprints {[m[:16] for m in distinct]}")
    env = {
        **fits[0]["environment"],
        "blas_threads_set": blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "code_sha256": code_digest(),
    }
    recorded = check_record(wl, seed, fits[0], env)
    if recorded:
        problems.append(recorded)

    if trace:
        if len(fits) != 2:
            raise RuntimeError("traced run needs an untraced and a traced fit: " + "; ".join(failures))
        plain, traced = fits
        values = layer_metrics(traced, plain, wl, gen["input_bytes"])
        units = dict(PER_LAYER)
        per_iteration = {*ITERATION_SPANS.values(), *ITERATION_COUNTS.values(), "fitting.loop_self_s"}
        samples = {name: len(traced["iteration_marks"]) if name in per_iteration else 1 for name in values}
        trace_path = WORK_DIR / "traces" / f"{wl.name}-seed{seed}.json"
        trace_path.parent.mkdir(exist_ok=True)
        trace_path.write_text(json.dumps(traced["trace"]) + "\n")
    else:
        iters = [d for f in fits for d in iteration_seconds(f)]
        series = {
            "setup_s": setups,
            "time_to_labels_s": [f["time_to_labels_s"] for f in fits],
            "iter_s": iters,
            "peak_rss_mb": [f["peak_rss_mb"] for f in fits],
            "acc": [f["acc"] for f in fits],
        }
        values = {name: statistics.median(v) for name, v in series.items()}
        samples = {name: f"{len(v)}, min {min(v)!r}, max {max(v)!r}" for name, v in series.items()}
        units = dict(END_TO_END)
    return {
        "result": {
            "correct": not problems,
            "attempted": sum(attempts.values()),
            "failed": len(failures),
            "metrics": {name: {"value": values[name], "unit": units[name]} for name in values},
        },
        "samples": samples,
        "problems": problems,
        "fingerprint": fits[0]["fingerprint"],
        "fingerprints": [f["fingerprint"]["sha256"] for f in fits],
        "environment": env,
        "wall_s": time.monotonic() - started,
    }


def report(run: dict, wl: Workload, seed: int) -> None:
    """Print a run: environment, fingerprint, every metric with its unit and
    sample count, and last the result object as one JSON line."""
    res = run["result"]
    print("environment " + json.dumps(run["environment"], sort_keys=True))
    fp = run["fingerprint"]
    print(
        f"fingerprint workload={wl.name} seed={seed} sha256={fp['sha256']} "
        f"final_objective={fp['final_objective']!r} iters={fp['iters']} alpha={fp['alpha']}"
    )
    for problem in run["problems"]:
        print(f"problem: {problem}")
    print(f"failed_frac {res['failed'] / res['attempted']!r} ({res['failed']} of {res['attempted']} runs)")
    for name, m in res["metrics"].items():
        print(f"{name} {m['value']!r} {m['unit']} (samples={run['samples'][name]})")
    print(f"run wall {run['wall_s']:.1f} s")
    print(json.dumps(res))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="mvclust benchmark")
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (ROOT / "src" / "mvclust" / "__init__.py").is_file():
        print(f"no mvclust sources under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    try:
        run = measure(wl, args.seed, args.seconds, bool(args.trace))
    except RuntimeError as e:
        print(f"benchmark failed: {e}", file=sys.stderr)
        return 1
    report(run, wl, args.seed)
    return 0


if __name__ == "__main__":
    sys.exit(main())
