"""Static checks on the package sources.

Imports inside function bodies hide import cycles, and caches keyed by
id() outlive the objects they describe; neither may come back.  The one
deferred import allowed is cli.cmd_verify's, which keeps the acceptance
suite out of every other command's start-up.
"""

import ast
from pathlib import Path

import rootforge

SOURCES = sorted(Path(rootforge.__file__).parent.glob("*.py"))
ALLOWED_LOCAL_IMPORTS = {("cli.py", "cmd_verify")}


def _local_imports(tree):
    for fn in ast.walk(tree):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for node in ast.walk(fn):
                if isinstance(node, (ast.Import, ast.ImportFrom)):
                    yield fn.name, node.lineno


def test_no_function_level_imports():
    found = []
    for path in SOURCES:
        tree = ast.parse(path.read_text())
        for fn_name, line in _local_imports(tree):
            if (path.name, fn_name) not in ALLOWED_LOCAL_IMPORTS:
                found.append(f"{path.name}:{line} in {fn_name}")
    assert not found, found


def test_no_id_calls():
    found = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text())):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "id"
            ):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, found
