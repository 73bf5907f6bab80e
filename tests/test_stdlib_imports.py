"""The runtime is pure stdlib: every module of the package imports only
the standard library and the package itself."""

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "limitseries"


def foreign_imports(path):
    out = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        for name in names:
            top = name.split(".")[0]
            if top not in sys.stdlib_module_names and top != "limitseries":
                out.append(f"{path.name}:{node.lineno}: {name}")
    return out


def test_runtime_imports_only_stdlib():
    modules = sorted(PACKAGE.rglob("*.py"))
    assert modules
    assert [hit for path in modules for hit in foreign_imports(path)] == []
