"""The package's public names and entry points: a name removed from the code
but left in `__all__`, or a console script that no longer resolves, must fail
here."""

import ast
import importlib
from pathlib import Path

import pytest

import mvclust

from conftest import run_in_fresh_interpreter


def test_every_public_name_resolves():
    assert len(set(mvclust.__all__)) == len(mvclust.__all__)
    assert [name for name in mvclust.__all__ if not hasattr(mvclust, name)] == []


def test_star_import_in_a_fresh_interpreter():
    # a fresh interpreter, so no earlier import has patched or added a name
    code = (
        "from mvclust import *\n"
        "import mvclust\n"
        "missing = [n for n in mvclust.__all__ if n not in globals()]\n"
        "assert not missing, missing\n"
    )
    proc = run_in_fresh_interpreter(["-c", code])
    assert proc.returncode == 0, proc.stderr


def test_console_script_target_is_callable():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    pyproject = Path(mvclust.__file__).resolve().parents[2] / "pyproject.toml"
    target = tomllib.loads(pyproject.read_text())["project"]["scripts"]["mvclust"]
    module, _, attr = target.partition(":")
    assert callable(getattr(importlib.import_module(module), attr))


def test_cli_module_runs_as_a_script():
    proc = run_in_fresh_interpreter(["-m", "mvclust.cli", "--help"])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage: mvclust")


def test_a_fit_and_its_scores_import_no_scipy():
    # the package needs numpy alone: scipy would load a second OpenBLAS,
    # about 34 MB of resident set and a second pool of BLAS threads. The fit
    # takes a 3n-tall view through its row space
    code = (
        "import sys\n"
        "import numpy as np\n"
        "import mvclust\n"
        "rng = np.random.default_rng(0)\n"
        "views = [rng.random((60, 20)), rng.random((12, 20))]\n"
        "ds = mvclust.MultiViewDataset(views=views, labels=np.arange(20) % 2)\n"
        "cfg = mvclust.FitConfig(beta=1.0, layers=mvclust.LayerSpec([4, 2]), max_outer_iters=2,"
        " pretrain_iters=5)\n"
        "part = mvclust.cluster_graph(mvclust.fit(ds, cfg).state.S, 2)\n"
        "assert 0.5 <= mvclust.accuracy(part, ds.labels) <= 1.0\n"
        "assert mvclust.accuracy([0, 0, 1, 2], [1, 1, 0, 2]) == 1.0\n"
        "loaded = [m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')]\n"
        "assert not loaded, loaded\n"
    )
    proc = run_in_fresh_interpreter(["-c", code])
    assert proc.returncode == 0, proc.stderr


def test_a_row_space_fit_imports_nothing_new():
    # a 3n-tall view is fitted through numpy's LAPACK dgeqrf
    # (`numpy.linalg.lapack_lite`, imported with `mvclust.fitting`), and
    # `import mvclust` imports `numpy.random` itself: set-up time and its RSS
    # stay the imports'
    code = (
        "import sys\n"
        "import numpy as np\n"
        "import mvclust\n"
        "loaded = set(sys.modules)\n"
        "rng = np.random.default_rng(0)\n"
        "ds = mvclust.MultiViewDataset(views=[rng.random((60, 20)), rng.random((60, 20))])\n"
        "cfg = mvclust.FitConfig(beta=1.0, layers=mvclust.LayerSpec([4, 2]), max_outer_iters=2,"
        " pretrain_iters=5)\n"
        "assert mvclust.fit(ds, cfg).state.stacks[0].mappings[0].shape == (60, 4)\n"
        "new = sorted(set(sys.modules) - loaded)\n"
        "assert not new, new\n"
    )
    proc = run_in_fresh_interpreter(["-c", code])
    assert proc.returncode == 0, proc.stderr


def test_only_consensus_reads_the_graphs_parts():
    # the consensus module owns how S is held: no other module reads its
    # parts (G, theta, C, q) or forms it whole or by rows, so a change of
    # form stays in one file
    names = {"G", "theta", "C", "q", "dense", "row_blocks", "projected_from"}
    package = Path(mvclust.__file__).resolve().parent
    found = [
        f"{path.name}:{node.lineno}: .{node.attr}"
        for path in sorted(package.glob("*.py"))
        if path.name != "consensus.py"
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Attribute) and node.attr in names
    ]
    assert found == []
