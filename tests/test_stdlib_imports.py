"""The runtime is pure stdlib: every module of the package imports only
the standard library and the package itself.  The F_p(t) kernel and its
polynomial helpers are a test reference kept in linalg.py; no other
module of the package names them.  Importing the package loads none of
dataclasses, inspect and json."""

import ast
import subprocess
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "limitseries"


def absolute_imports(path):
    """(line, module name) of every absolute import in the module."""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        for name in names:
            yield node.lineno, name


def foreign_imports(path):
    return [f"{path.name}:{line}: {name}"
            for line, name in absolute_imports(path)
            if name.split(".")[0] not in (*sys.stdlib_module_names,
                                          "limitseries")]


def test_runtime_imports_only_stdlib():
    modules = sorted(PACKAGE.rglob("*.py"))
    assert modules
    assert [hit for path in modules for hit in foreign_imports(path)] == []


# dataclasses imports inspect, and with it ast, dis and tokenize, and
# generates every class's methods with exec: together about three
# quarters of the package's import time.  The value classes derive from
# staircase._Value instead.  bench/ and the tests may use dataclasses.
# json costs about a third of the rest: only cli.py reads JSON text, and
# the package's __init__ does not import cli.
SLOW_MODULES = ("dataclasses", "inspect", "json")


def test_runtime_never_imports_dataclasses():
    modules = sorted(PACKAGE.rglob("*.py"))
    assert modules
    assert [f"{path.name}:{line}: {name}" for path in modules
            for line, name in absolute_imports(path)
            if name.split(".")[0] == "dataclasses"] == []


def test_import_leaves_slow_modules_unloaded():
    probe = ("import sys; sys.path.insert(0, sys.argv[1]); import limitseries; "
             f"print(sorted(set({SLOW_MODULES!r}) & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-I", "-c", probe,
                          str(PACKAGE.parent)],
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout == "[]\n"


def unused_imports(path):
    """file:line: name for every name an import binds that the module never
    reads (a __future__ import binds none)."""
    tree = ast.parse(path.read_text(), str(path))
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    out = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)) or \
                getattr(node, "module", None) == "__future__":
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            if name not in read:
                out.append(f"{path.name}:{node.lineno}: {name}")
    return out


def test_every_imported_name_is_used():
    # __init__.py imports its names to export them
    modules = sorted(p for p in PACKAGE.rglob("*.py")
                     if p.name != "__init__.py")
    assert modules
    assert [hit for path in modules for hit in unused_imports(path)] == []


def unused_parameters(path):
    """file:line: function(name) for every parameter a function never
    reads.  self and cls are exempt, and so are the parameters of dunder
    methods other than __init__: Python fixes their signatures."""
    out = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if node.name != "__init__" and node.name[:2] == node.name[-2:] == "__":
            continue
        args = node.args
        params = args.posonlyargs + args.args + args.kwonlyargs + [
            arg for arg in (args.vararg, args.kwarg) if arg]
        read = {name.id for stmt in node.body for name in ast.walk(stmt)
                if isinstance(name, ast.Name) and
                isinstance(name.ctx, ast.Load)}
        out.extend(f"{path.name}:{node.lineno}: {node.name}({arg.arg})"
                   for arg in params
                   if arg.arg not in ("self", "cls", *read))
    return out


def test_every_parameter_is_read():
    modules = sorted(PACKAGE.rglob("*.py"))
    assert modules
    assert [hit for path in modules for hit in unused_parameters(path)] == []


FPT_REFERENCE = {"kernel_over_fpt", "pnorm", "padd", "psub", "pscale", "pmul",
                 "pval", "pdiv_t"}


def names_used(path):
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Name):
            yield node.lineno, node.id
        elif isinstance(node, ast.Attribute):
            yield node.lineno, node.attr
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                yield node.lineno, alias.name.split(".")[-1]


def test_fpt_reference_stays_off_the_library_path():
    modules = sorted(p for p in PACKAGE.rglob("*.py") if p.name != "linalg.py")
    assert modules
    assert [f"{path.name}:{line}: {name}" for path in modules
            for line, name in names_used(path) if name in FPT_REFERENCE] == []


# pyproject.toml requires Python >= 3.10.  feature_version makes ast.parse
# refuse the grammar added after 3.10; int.to_bytes and int.from_bytes took
# their length and byteorder as optional only from 3.11, so each call must
# pass them: to_bytes(length, byteorder), from_bytes(data, byteorder).
OLDEST = (3, 10)
BYTE_CALL_ARGS = {"to_bytes": {"length", "byteorder"},
                  "from_bytes": {"bytes", "byteorder"}}


def short_byte_calls(path):
    """(calls checked, file:line of each call missing an argument)."""
    checked, short = 0, []
    for node in ast.walk(ast.parse(path.read_text(), str(path),
                                   feature_version=OLDEST)):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else \
            getattr(func, "id", None)
        if name not in BYTE_CALL_ARGS:
            continue
        checked += 1
        passed = len(node.args) + len(
            {kw.arg for kw in node.keywords} & BYTE_CALL_ARGS[name])
        if passed < 2:
            short.append(f"{path.name}:{node.lineno}: {name}")
    return checked, short


def test_sources_parse_and_call_bytes_as_python_3_10():
    modules = sorted(PACKAGE.rglob("*.py"))
    assert modules
    results = [short_byte_calls(path) for path in modules]
    # the packed F_p rows go through to_bytes and from_bytes
    assert sum(checked for checked, _ in results) >= 3
    assert [hit for _, short in results for hit in short] == []
