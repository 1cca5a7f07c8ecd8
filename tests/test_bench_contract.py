"""What the benchmark uses of the program, checked from its source: each
name a `perfbench/*.py` script imports from ecomine resolves, and each
call it makes to an imported name, or to an attribute of one, binds to
that callable's signature (positional count and keywords; a `**`
argument is skipped). So a change under src/ that deletes or renames
what the benchmark calls fails here, not first in a benchmark run."""

import ast
import importlib
import inspect
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def scripts():
    """(script name, syntax tree) of each perfbench script."""
    paths = sorted(PERFBENCH.glob("*.py"))
    assert paths, f"no scripts in {PERFBENCH}"
    return [(path.name, ast.parse(path.read_text(encoding="utf-8"), filename=str(path))) for path in paths]


def imported_names(tree):
    """Local name -> (module, name) of each `from ecomine... import`, at any depth."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module and node.module.split(".")[0] == "ecomine":
            for alias in node.names:
                names[alias.asname or alias.name] = (node.module, alias.name)
    return names


def resolve(module, name, attrs=()):
    """The object `from module import name` binds, then each attribute in turn."""
    obj = importlib.import_module(module)
    if not hasattr(obj, name) and hasattr(obj, "__path__"):
        importlib.import_module(f"{module}.{name}")  # a submodule its package has not imported yet
    obj = getattr(obj, name)
    for attr in attrs:
        obj = getattr(obj, attr)
    return obj


def imported_calls(tree, names):
    """(call node, local name, attribute path) of each call to an imported
    name (`f(...)`) or an attribute of one (`module.f(...)`, `Class.method(...)`)."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func, attrs = node.func, []
        while isinstance(func, ast.Attribute):
            attrs.insert(0, func.attr)
            func = func.value
        if isinstance(func, ast.Name) and func.id in names:
            yield node, func.id, attrs


def bind(obj, call):
    """Bind the call's positional count and keywords to obj's signature;
    a `*` argument leaves the count unknown, so only keywords are bound."""
    positional = [] if any(isinstance(arg, ast.Starred) for arg in call.args) else [None] * len(call.args)
    keywords = {keyword.arg: None for keyword in call.keywords if keyword.arg is not None}
    inspect.signature(obj).bind_partial(*positional, **keywords)


def test_every_imported_name_resolves():
    failures = []
    for script, tree in scripts():
        for local, (module, name) in imported_names(tree).items():
            try:
                resolve(module, name)
            except (ImportError, AttributeError) as exc:
                failures.append(f"perfbench/{script}: from {module} import {name}: {exc}")
    assert not failures, "\n".join(failures)


def test_every_call_to_an_imported_name_binds():
    failures, checked = [], set()
    for script, tree in scripts():
        names = imported_names(tree)
        for call, local, attrs in imported_calls(tree, names):
            where = f"perfbench/{script}, line {call.lineno}: {'.'.join([local, *attrs])}(...)"
            try:
                bind(resolve(*names[local], attrs), call)
            except (ImportError, AttributeError, TypeError) as exc:
                failures.append(f"{where}: {type(exc).__name__}: {exc}")
            checked.add((".".join([local, *attrs]), *sorted(k.arg for k in call.keywords if k.arg)))
    assert not failures, "\n".join(failures)
    # the scan reaches the uses a src/ change is most likely to break
    for use in [
        ("candidate_to_dict",),
        ("serialize_result",),
        ("build_extract_prompt",),
        ("StageConfig", "parallelism", "rate_policy", "rng_seed"),
        ("export_corpus", "fmt"),
    ]:
        assert use in checked, f"no call {use[0]}({', '.join(use[1:])}) found in perfbench/"
