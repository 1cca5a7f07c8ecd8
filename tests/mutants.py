"""Mutation runner: change one branch of a module at a time and report
each change that the named tests do not notice.

    python tests/mutants.py src/ecomine/schema.py --tests tests/test_schema.py
    python tests/mutants.py src/ecomine/pipeline.py --function run_specialize \
        --tests tests/test_pipeline.py tests/test_dispatch.py --confirm

Operators, each applied alone through the standard library's ast:
- an if-body, or an if's else-body, replaced by ``pass``;
- an except-body replaced by ``raise``;
- the condition of an ``if``, ``while`` or conditional expression negated.

Every mutant runs in one copy of the tree, made once per run (never the
tree itself): the module is rewritten there, the named tests run with
``-x`` under a per-run timeout (a mutant can make the rate limiter wait
forever), and the module is put back. A mutant that the tests pass is
printed as ``file:line function mutant``. Per-module test files miss
kills that only the end-to-end goldens make, so --confirm runs each
survivor against the full tier-1 suite as well, and marks one that it
kills "(killed by tier-1)". The mutated module is written with
ast.unparse, so the unmutated module is first written and tested the
same way; a run whose baseline fails stops there. pytest does not
collect this file (it is no test_*.py), and tier-1 does not run it.
"""

from __future__ import annotations

import argparse
import ast
import copy
import os
import shutil
import signal
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SKIP = shutil.ignore_patterns(".git", ".perfbench", ".hypothesis", ".pytest_cache", ".benchmarks", "__pycache__")


@dataclass(frozen=True)
class Site:
    """One mutant: the node at path (the field names and indexes leading
    to it from the module), and what is done to it."""

    path: tuple
    line: int
    function: str
    operator: str  # "if-body -> pass" | "else-body -> pass" | "except-body -> raise" | "negate condition"


def sites(tree: ast.Module) -> list[Site]:
    """Every mutant of the module, in source order."""
    found: list[Site] = []

    def visit(node: ast.AST, path: tuple, function: str) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            function = f"{function}.{node.name}" if function else node.name
        if isinstance(node, ast.If):
            found.append(Site(path, node.lineno, function, "if-body -> pass"))
            if node.orelse:
                found.append(Site(path, node.orelse[0].lineno, function, "else-body -> pass"))
        if isinstance(node, (ast.If, ast.While, ast.IfExp)):
            found.append(Site(path, node.lineno, function, "negate condition"))
        if isinstance(node, ast.ExceptHandler):
            found.append(Site(path, node.lineno, function, "except-body -> raise"))
        for name, value in ast.iter_fields(node):
            if isinstance(value, list):
                for index, item in enumerate(value):
                    if isinstance(item, ast.AST):
                        visit(item, (*path, name, index), function)
            elif isinstance(value, ast.AST):
                visit(value, (*path, name), function)

    visit(tree, (), "")
    return found


def mutate(tree: ast.Module, site: Site) -> str:
    """The module's source with site's one change applied."""
    tree = copy.deepcopy(tree)
    node = tree
    for step in site.path:
        node = node[step] if isinstance(step, int) else getattr(node, step)
    if site.operator == "if-body -> pass":
        node.body = [ast.Pass()]
    elif site.operator == "else-body -> pass":
        node.orelse = [ast.Pass()]
    elif site.operator == "except-body -> raise":
        node.body = [ast.Raise()]
    else:
        node.test = ast.UnaryOp(ast.Not(), node.test)
    return ast.unparse(ast.fix_missing_locations(tree)) + "\n"


def run_tests(tree: Path, tests: list[str], timeout: float) -> str:
    """Run tests with -x in tree: "passed", "failed", "timeout", or "error N"
    for an exit that is neither a pass nor a test failure."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests]
    process = subprocess.Popen(
        command, cwd=tree, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, start_new_session=True
    )
    try:
        code = process.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)  # the tests' own child processes too
        process.wait()
        return "timeout"
    return {0: "passed", 1: "failed"}.get(code, f"error {code}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("module", help="module to mutate, relative to the repository root")
    parser.add_argument("--function", nargs="*", default=[], help="mutate only inside these functions")
    parser.add_argument("--tests", nargs="+", default=["tests"], help="tests run against each mutant")
    parser.add_argument("--timeout", type=float, default=120.0, help="seconds per test run")
    parser.add_argument("--confirm", action="store_true", help="run each survivor against full tier-1 too")
    args = parser.parse_args(argv)

    module = Path(args.module)
    original = (ROOT / module).read_text(encoding="utf-8")
    tree = ast.parse(original)
    chosen = [
        site for site in sites(tree)
        if not args.function or any(site.function.split(".")[-1] == name for name in args.function)
    ]
    with tempfile.TemporaryDirectory(prefix="mutants-") as scratch:
        copy_root = Path(scratch) / "tree"
        shutil.copytree(ROOT, copy_root, ignore=SKIP)
        target = copy_root / module
        target.write_text(ast.unparse(tree) + "\n", encoding="utf-8")
        for suite in (args.tests, ["tests"]) if args.confirm else (args.tests,):
            if (outcome := run_tests(copy_root, suite, args.timeout)) != "passed":
                print(f"baseline {' '.join(suite)}: {outcome}; no mutant run", file=sys.stderr)
                return 2
        survivors = confirmed = 0
        for site in chosen:
            target.write_text(mutate(tree, site), encoding="utf-8")
            try:
                outcome = run_tests(copy_root, args.tests, args.timeout)
                tier1 = run_tests(copy_root, ["tests"], args.timeout) if outcome == "passed" and args.confirm else ""
            finally:
                target.write_text(original, encoding="utf-8")
            mutant = f"{module}:{site.line} {site.function} {site.operator}"
            if outcome.startswith("error") or tier1.startswith("error"):
                print(f"{mutant}: {outcome if outcome.startswith('error') else tier1}", file=sys.stderr)
            elif outcome == "passed":
                survivors += 1
                confirmed += tier1 in ("", "passed")
                print(mutant + ("" if tier1 in ("", "passed") else " (killed by tier-1)"), flush=True)
    tally = f", {confirmed} of them also by tier-1" if args.confirm else ""
    print(f"{len(chosen)} mutants, {survivors} survived the named tests{tally}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
