"""The traced benchmark patches package attributes by name and reads fields
of what they return; a renamed one must fail here, not only in the
minute-long `bench/selftest.py`."""

import json
import subprocess
import sys
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
