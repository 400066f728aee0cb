"""List the statements of `src/domlab` that the tier-1 suite never runs.

Run it from anywhere:

    python tests/untested_lines.py [pytest arguments]

It runs pytest in this process (by default on all of `tests/`, as tier-1
does) under a `sys.settrace` line tracer that records only frames of
`src/domlab` files, then prints each executable statement that never ran
as `path:line: source`, and their number.  A statement is executable when
its module compiles to code on its first line, so docstrings of functions
and `nonlocal` or `global` declarations are not listed; nor is the body
of an `if __name__ == "__main__":` guard, which runs only as a script.

Lines that run only in child processes read as unrun: the helper
processes of `--jobs`, and the `python -m domlab.cli` runs some tests
start.  Tracing makes the suite about four times slower, so a budget
test may time out where it passes untraced.  The tracer is stdlib only.
This script is a report, not a test: pytest does not collect it, and its
exit status is pytest's.
"""

from __future__ import annotations

import ast
import os
import sys
import threading
from pathlib import Path
from types import CodeType

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "domlab"


def code_lines(code: CodeType) -> set[int]:
    """Every line that holds code in `code` or in the code nested in it."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if isinstance(const, CodeType):
            lines |= code_lines(const)
    return lines


def executable_statements(path: Path) -> set[int]:
    """First lines of the statements of `path` that hold code, less the
    declarations and the body of the `__main__` guard."""
    source = path.read_text()
    tree = ast.parse(source)
    lines = code_lines(compile(source, str(path), "exec"))
    guarded = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.If) and ast.unparse(node.test) == "__name__ == '__main__'":
            guarded |= {n.lineno for stmt in node.body for n in ast.walk(stmt) if isinstance(n, ast.stmt)}
    return {
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.stmt)
        and not isinstance(node, (ast.Nonlocal, ast.Global))
        and node.lineno in lines
        and node.lineno not in guarded
    }


def run_traced(args: list[str]) -> tuple[int, dict[str, set[int]]]:
    """pytest's exit status on `args`, and the lines run in each package file."""
    import pytest

    prefix = str(PACKAGE) + os.sep
    ran: dict[str, set[int]] = {}
    wanted: dict[str, bool] = {}

    def on_line(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return on_line

    def on_call(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in wanted:
            wanted[name] = os.path.realpath(name).startswith(prefix)
            if wanted[name]:
                ran[name] = set()
        return on_line if wanted[name] else None

    threading.settrace(on_call)
    sys.settrace(on_call)
    try:
        status = pytest.main(args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    by_path: dict[str, set[int]] = {}
    for name, lines in ran.items():
        by_path.setdefault(os.path.realpath(name), set()).update(lines)
    return int(status), by_path


def main(argv: list[str]) -> int:
    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    status, ran = run_traced(argv or ["-q", "--continue-on-collection-errors", str(ROOT / "tests")])
    unrun = 0
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text().splitlines()
        for line in sorted(executable_statements(path) - ran.get(str(path.resolve()), set())):
            print(f"{path.relative_to(ROOT)}:{line}: {source[line - 1].strip()}")
            unrun += 1
    print(f"{unrun} statements never ran")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
