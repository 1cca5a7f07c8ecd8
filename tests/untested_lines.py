"""List the lines of src/ecomine/ that no tier-1 test runs: a line
coverage report on the standard library alone.

    python tests/untested_lines.py [pytest arguments]

Runs tier-1 (pytest, in this process) under sys.settrace and
threading.settrace, recording each line run in a function of
src/ecomine/, then prints every line inside a function body that never
ran, as "file:line  source", and their count. Module and class bodies
are skipped: they run at import, before tracing starts. Code run in a
subprocess (the tests that launch an interpreter) is not traced, so a
line only such a test reaches is listed. Tracing makes the run about
twice as slow. Exits with pytest's status when tier-1 fails.
"""

from __future__ import annotations

import inspect
import sys
import threading
import types
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
PACKAGE = REPO / "src" / "ecomine"
#: Comprehensions are functions of their own, but one in a module or class body runs at import.
_AT_IMPORT = {"<listcomp>", "<dictcomp>", "<setcomp>", "<genexpr>"}


def function_lines(code: types.CodeType, in_function: bool = False) -> set[int]:
    """The lines of the function bodies in code and the code nested in it,
    less each function's own def line."""
    lines = set()
    if in_function:
        lines = {line for _, _, line in code.co_lines() if line is not None} - {code.co_firstlineno}
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            is_function = bool(const.co_flags & inspect.CO_OPTIMIZED)  # not a module or class body
            if is_function and not in_function and const.co_name in _AT_IMPORT:
                continue
            lines |= function_lines(const, in_function=is_function)
    return lines


def main(args: list[str]) -> int:
    ran: set[tuple[str, int]] = set()
    traced: dict[str, bool] = {}  # co_filename -> whether it is a file of the package

    def local(frame, event, arg):
        if event == "line":
            ran.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def tracer(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in traced:
            traced[name] = Path(name).resolve().is_relative_to(PACKAGE)
        return local if traced[name] else None

    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", "--rootdir", str(REPO), str(REPO / "tests"), *args])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    if status != 0:
        return int(status)

    ran_in: dict[Path, set[int]] = {}
    for name, line in ran:
        ran_in.setdefault(Path(name).resolve(), set()).add(line)
    count = 0
    for path in sorted(PACKAGE.rglob("*.py")):
        source = path.read_text(encoding="utf-8")
        text = source.splitlines()
        for line in sorted(function_lines(compile(source, str(path), "exec")) - ran_in.get(path, set())):
            print(f"{path.relative_to(REPO)}:{line}  {text[line - 1].strip()}")
            count += 1
    print(f"{count} line(s) in function bodies that no test ran")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
