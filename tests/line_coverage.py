"""Opt-in line coverage of src/sdmm by the tier-1 tests, with no package beyond pytest.

Runs tier-1 in this process under a sys.settrace tracer that records the
lines executed in src/sdmm, then prints, for each module, the statements no
test executed and a total. Docstrings, def and class lines, imports and the
try/global/nonlocal lines that compile to no code are not counted. Code run
only in a subprocess (the command-line tests) is not seen. Hypothesis
deadlines and health checks are lifted, since tracing slows every test
several times over. pytest does not collect this file. Run it as
python tests/line_coverage.py; pytest arguments after it (such as one test
file) replace the tests directory. Each --full=NAME[,NAME...] argument names
modules of src/sdmm (as protocol.py) that must have no unrun statement: the
run exits 1 when one has, or when a name is no module there, and 0 otherwise.
On all of tier-1 it takes about three times as long as plain tier-1.
"""

from __future__ import annotations

import ast
import os
import sys
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "sdmm"
UNCOUNTED = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Import, ast.ImportFrom,
             ast.Try, ast.Global, ast.Nonlocal)


def statements(path: Path) -> set[int]:
    """First lines of the statements of a module that compile to code run line by line."""
    lines = set()
    for node in ast.walk(ast.parse(path.read_text())):
        docstring = (isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
                     and isinstance(node.value.value, str))
        if isinstance(node, ast.stmt) and not isinstance(node, UNCOUNTED) and not docstring:
            lines.add(node.lineno)
    return lines


class _Untimed:
    """pytest plugin: a Hypothesis profile without deadlines or health checks."""

    @staticmethod
    def pytest_configure(config):
        from hypothesis import HealthCheck, settings

        settings.register_profile("line-coverage", deadline=None,
                                  suppress_health_check=list(HealthCheck))
        settings.load_profile("line-coverage")


def main(args: list[str]) -> int:
    full = {name for arg in args if arg.startswith("--full=") for name in arg[7:].split(",")}
    args = [arg for arg in args if not arg.startswith("--full=")]
    prefix = str(PACKAGE) + "/"
    seen: dict[str, set[int]] = {}

    def local(frame, event, arg):
        if event == "line":
            seen[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        name = frame.f_code.co_filename
        if not name.startswith(prefix):
            return None
        seen.setdefault(name, set()).add(frame.f_lineno)
        return local

    src = str(ROOT / "src")
    sys.path.insert(0, src)
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        code = pytest.main(["-q", "-p", "no:cacheprovider", *(args or [str(ROOT / "tests")])],
                           plugins=[_Untimed()])
    finally:
        sys.settrace(None)
        threading.settrace(None)

    run_total = count_total = 0
    short = full - {path.name for path in PACKAGE.glob("*.py")}  # names of no module
    for path in sorted(PACKAGE.glob("*.py")):
        want = statements(path)
        unrun = want - seen.get(str(path), set())
        run_total += len(want) - len(unrun)
        count_total += len(want)
        print(f"{path.name}: {len(unrun)} of {len(want)} statements unrun"
              + (f": {' '.join(map(str, sorted(unrun)))}" if unrun else ""))
        if unrun and path.name in full:
            short.add(path.name)
    print(f"total: {run_total} of {count_total} statements run "
          f"({100 * run_total / max(count_total, 1):.1f}%); pytest exit code {code}")
    if short:
        print(f"not fully run: {' '.join(sorted(short))}")
    return 1 if short else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
