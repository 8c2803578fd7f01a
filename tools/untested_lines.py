"""Print the lines of the mvclust package that the tier-1 suite never runs.

    python3 tools/untested_lines.py

`coverage` is not a dependency, so this is a line tracer of its own. It
installs `sys.settrace` and `threading.settrace` before `mvclust` is
imported, tracing only frames whose code lives under `src/mvclust`, then
runs the tier-1 suite in this process through `pytest.main`, as
`python -m pytest -q --continue-on-collection-errors` from the repository
root. Afterwards it prints, as `path:line: source`, every line that the
package's code objects map an instruction to (`co_lines`) and that no
traced frame reached. A `def` line counts as run when the statement ran,
whether or not the function was ever called; its body's lines tell that.

Code run only in a child interpreter is not traced: a test that starts one
(`conftest.run_in_fresh_interpreter`, `python -m mvclust.cli`) reaches
nothing here, so a line that only such a test runs is listed. The exit
status is pytest's. Under the tracer the suite took 59 s against 37 s
without it, on a 2-core Xeon.
"""

from __future__ import annotations

import os
import sys
import threading
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "mvclust"


def executable_lines(code: types.CodeType) -> set[int]:
    """The lines that code and the code objects nested in it map an
    instruction to, less each one's first RESUME, which is not reported as
    a line event: a module's is on line 0, and a function's on its `def`
    line, which ran when its module did."""
    lines = {line for _, _, line in code.co_lines() if line}
    if code.co_name != "<module>":
        lines.discard(code.co_firstlineno)
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            lines |= executable_lines(const)
    return lines


def main() -> int:
    prefix = str(PACKAGE) + os.sep
    ran: dict[str, set[int]] = {}
    wanted: dict[types.CodeType, set[int] | None] = {}

    def trace_lines(frame, event, arg):
        if event == "line":
            wanted[frame.f_code].add(frame.f_lineno)
        return trace_lines

    def trace_calls(frame, event, arg):
        code = frame.f_code
        if code not in wanted:
            path = os.path.realpath(code.co_filename)
            wanted[code] = ran.setdefault(path, set()) if path.startswith(prefix) else None
        return trace_lines if wanted[code] is not None else None

    sys.path.insert(0, str(ROOT / "src"))
    os.chdir(ROOT)
    threading.settrace(trace_calls)
    sys.settrace(trace_calls)
    import pytest

    try:
        status = pytest.main(["-q", "--continue-on-collection-errors"])
    finally:
        sys.settrace(None)
        threading.settrace(None)

    for path in sorted(PACKAGE.rglob("*.py")):
        source = path.read_text()
        code = compile(source, str(path), "exec", dont_inherit=True)
        lines = source.splitlines()
        for line in sorted(executable_lines(code) - ran.get(str(path), set())):
            print(f"{path.relative_to(ROOT)}:{line}: {lines[line - 1].strip()}")
    return int(status)


if __name__ == "__main__":
    sys.exit(main())
