"""Mutation runner: change one branch of a module at a time and report
each change that the named tests do not notice.

    python tests/mutants.py src/ecomine/schema.py --tests tests/test_schema.py
    python tests/mutants.py src/ecomine/pipeline.py --function run_specialize \
        --tests tests/test_pipeline.py tests/test_dispatch.py --confirm

Operators, each applied alone through the standard library's ast:
- an if-body, or an if's else-body, replaced by ``pass``;
- an except-body replaced by ``raise``;
- the condition of an ``if``, ``while`` or conditional expression negated;
- any other statement of a function body (not an ``if``, a nested
  definition or a docstring) replaced by ``pass``;
- a comparison operator swapped: ``<`` and ``<=``, ``>`` and ``>=``,
  ``==`` and ``!=``, ``in`` and ``not in``, ``is`` and ``is not``;
- an integer constant moved by one, up and down.

--function keeps the sites inside the named functions or classes,
nested definitions included. Two sites whose mutants read the same are
run once.

Every mutant runs in one copy of the tree, made once per run (never the
tree itself): the module is rewritten there, the named tests run with
``-x`` under a per-run timeout (a mutant can make the rate limiter wait
forever), and the module is put back. A mutant that the tests pass is
printed as ``file:line function mutant``. Per-module test files miss
kills that only the end-to-end goldens make, so --confirm runs each
survivor against the full tier-1 suite as well, and marks one that it
kills "(killed by tier-1)". A mutant whose test run exits with neither
a pass nor a test failure (``error 2``: say, a module that no longer
imports) could not be tested: it is printed to standard error with its
exit, and counted apart in the closing line, "N mutants, U untested,
S survived the named tests". The mutated module is written with
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
    operator: str  # "if-body -> pass", "statement -> pass", "swap < -> <=", "constant 3 -> 4", ...


SWAPS = {
    ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt, ast.Eq: ast.NotEq, ast.NotEq: ast.Eq,
    ast.In: ast.NotIn, ast.NotIn: ast.In, ast.Is: ast.IsNot, ast.IsNot: ast.Is,
}
SYMBOLS = {
    ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">=", ast.Eq: "==", ast.NotEq: "!=",
    ast.In: "in", ast.NotIn: "not in", ast.Is: "is", ast.IsNot: "is not",
}
KEPT_STATEMENTS = (ast.If, ast.Pass, ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Global, ast.Nonlocal)


def _is_docstring(node: ast.AST) -> bool:
    return isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant) and isinstance(node.value.value, str)


def sites(tree: ast.Module) -> list[Site]:
    """Every mutant of the module, in source order."""
    found: list[Site] = []

    def visit(node: ast.AST, path: tuple, function: str, in_def: bool = False) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            function = f"{function}.{node.name}" if function else node.name
            in_def = not isinstance(node, ast.ClassDef)
        elif in_def and isinstance(node, ast.stmt) and not isinstance(node, KEPT_STATEMENTS) and not _is_docstring(node):
            found.append(Site(path, node.lineno, function, "statement -> pass"))
        if isinstance(node, ast.Compare):
            for index, op in enumerate(node.ops):
                operator = f"swap {SYMBOLS[type(op)]} -> {SYMBOLS[SWAPS[type(op)]]}"
                found.append(Site((*path, "ops", index), node.lineno, function, operator))
        if isinstance(node, ast.Constant) and type(node.value) is int:
            for moved in (node.value + 1, node.value - 1):
                found.append(Site(path, node.lineno, function, f"constant {node.value} -> {moved}"))
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
                        visit(item, (*path, name, index), function, in_def)
            elif isinstance(value, ast.AST):
                visit(value, (*path, name), function, in_def)

    visit(tree, (), "")
    return found


def mutate(tree: ast.Module, site: Site) -> str:
    """The module's source with site's one change applied."""
    tree = copy.deepcopy(tree)
    parent = node = tree
    for step in site.path:
        parent, node = node, node[step] if isinstance(step, int) else getattr(node, step)
    if site.operator == "if-body -> pass":
        node.body = [ast.Pass()]
    elif site.operator == "else-body -> pass":
        node.orelse = [ast.Pass()]
    elif site.operator == "except-body -> raise":
        node.body = [ast.Raise()]
    elif site.operator == "negate condition":
        node.test = ast.UnaryOp(ast.Not(), node.test)
    else:  # the node itself is replaced, in its parent's field or list
        if site.operator == "statement -> pass":
            node = ast.Pass()
        elif site.operator.startswith("swap"):
            node = SWAPS[type(node)]()
        else:
            node = ast.Constant(int(site.operator.rsplit(" ", 1)[1]))
        step = site.path[-1]
        if isinstance(step, int):
            parent[step] = node
        else:
            setattr(parent, step, node)
    return ast.unparse(ast.fix_missing_locations(tree)) + "\n"


#: what a survivor's line adds for each outcome of its tier-1 run; an error is shown as it is
TIER1_NOTES = {"": "", "passed": "", "failed": " (killed by tier-1)", "timeout": " (killed by tier-1)"}


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
    chosen, seen = [], {ast.unparse(tree) + "\n"}
    for site in sites(tree):
        if args.function and not set(args.function) & set(site.function.split(".")):
            continue
        if (source := mutate(tree, site)) not in seen:  # an if whose body is one statement gives one mutant
            seen.add(source)
            chosen.append((site, source))
    with tempfile.TemporaryDirectory(prefix="mutants-") as scratch:
        copy_root = Path(scratch) / "tree"
        shutil.copytree(ROOT, copy_root, ignore=SKIP)
        target = copy_root / module
        target.write_text(ast.unparse(tree) + "\n", encoding="utf-8")
        for suite in (args.tests, ["tests"]) if args.confirm else (args.tests,):
            if (outcome := run_tests(copy_root, suite, args.timeout)) != "passed":
                print(f"baseline {' '.join(suite)}: {outcome}; no mutant run", file=sys.stderr)
                return 2
        survivors = confirmed = untested = 0
        for site, source in chosen:
            target.write_text(source, encoding="utf-8")
            try:
                outcome = run_tests(copy_root, args.tests, args.timeout)
                tier1 = run_tests(copy_root, ["tests"], args.timeout) if outcome == "passed" and args.confirm else ""
            finally:
                target.write_text(original, encoding="utf-8")
            mutant = f"{module}:{site.line} {site.function} {site.operator}"
            if outcome.startswith("error"):
                untested += 1
                print(f"{mutant}: {outcome}", file=sys.stderr)
            elif outcome == "passed":
                survivors += 1
                confirmed += tier1 in ("", "passed")
                print(mutant + TIER1_NOTES.get(tier1, f" (tier-1: {tier1})"), flush=True)
    tally = f", {confirmed} of them also by tier-1" if args.confirm else ""
    print(f"{len(chosen)} mutants, {untested} untested, {survivors} survived the named tests{tally}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
