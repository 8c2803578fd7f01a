"""The traced benchmark patches package attributes by name and reads fields
of what they return; a renamed one must fail here, not only in the
minute-long `bench/selftest.py`."""

import importlib.util
import json
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import mvclust as mv

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_bench_tracer_installs():
    # a fresh interpreter, since the tracer swaps module attributes for good
    code = "import worker; worker.install_tracer(worker.import_package())"
    proc = subprocess.run(
        [sys.executable, "-c", code], cwd=BENCH, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr


def test_bench_traced_fit_runs(tmp_path):
    # the tracer's callbacks read result fields only while a fit runs
    ds = mv.generate_synthetic(
        n=30, k=3, n_views=2, dims=(6, 5), separation=10.0, noise_sigma=0.5, seed=0
    )
    mv.save_dataset(ds, tmp_path / "data")
    spec = {
        "beta": 0.5, "layers": [4, 3], "max_iter": 2, "pretrain_iters": 5,
        "k": 3, "kmeans_restarts": 1,
    }
    proc = subprocess.run(
        [sys.executable, "worker.py", "fit", "--data", str(tmp_path / "data"),
         "--spec", json.dumps(spec), "--seed", "1", "--trace", "1"],
        cwd=BENCH, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "trace" in json.loads(proc.stdout.splitlines()[-1])


def test_bench_traced_measure_reads_every_span(tmp_path, monkeypatch):
    # the harness reads the fit's spans by name: the initial objective_terms
    # under fit opens the first iteration window, so a moved span fails here
    spec = importlib.util.spec_from_file_location("bench_run", BENCH / "run.py")
    run = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, run)  # dataclasses look their module up
    spec.loader.exec_module(run)
    monkeypatch.setattr(run, "WORK_DIR", tmp_path)
    wl = replace(
        run.WORKLOADS["large-n"], name="large-n-tiny", n=60, dims=(12, 14, 13),
        layers=(9, 6, 3), max_iter=2, pretrain_iters=5, kmeans_restarts=1,
    )
    out = run.measure(wl, seed=1, seconds=0.1, trace=True)
    assert out["problems"] == []
    metrics = {name: m["value"] for name, m in out["result"]["metrics"].items()}
    assert list(metrics) == [name for name, _ in run.PER_LAYER]
    # fit never calls compute_Q, so its span alone reads 0; the graph step's
    # span is among the timed ones
    unused = "consensus.compute_Q_s"
    timed = [name for name, unit in run.PER_LAYER if unit == "s" and name not in {unused, "trace.overhead_s"}]
    assert "consensus.update_consensus_graph_s" in timed
    assert all(metrics[name] > 0 for name in timed), {name: metrics[name] for name in timed}
    assert metrics[unused] == 0
