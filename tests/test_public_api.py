"""The package's public names: a name removed from the code but left in
`__all__` must fail here."""

import os
import subprocess
import sys
from pathlib import Path

import mvclust


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
    src = str(Path(mvclust.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
