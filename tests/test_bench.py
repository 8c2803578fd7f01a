"""The traced benchmark patches package attributes by name; a renamed one
must fail here, not only in the minute-long `bench/selftest.py`."""

import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_bench_tracer_installs():
    # a fresh interpreter, since the tracer swaps module attributes for good
    code = "import worker; worker.install_tracer(worker.import_package())"
    proc = subprocess.run(
        [sys.executable, "-c", code], cwd=BENCH, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
