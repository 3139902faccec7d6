"""Static checks on the package sources, and what the benchmark relies on.

Imports inside function bodies hide import cycles, caches keyed by id()
outlive the objects they describe, a pickle or environment variable lets
unchecked state reach an answer, and python -O strips the checks written
as assert statements; none may come back.  The one deferred import
allowed is cli.cmd_verify's, which keeps the acceptance suite out of
every other command's start-up.  The benchmark under
`perfbench/` wraps functions by name and shuffles the subset lists it is
given, so those names and that freedom are checked here too.
"""

import ast
import importlib
import importlib.util
import inspect
import os
import random
import subprocess
import sys
from pathlib import Path

import rootforge
from rootforge import build_root_system, enhanced_basis, enumerate_pi_orbits, hasse_diagram
from rootforge.classify import pi_node_subsets
from rootforge.rootsystem import RootSystem

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


def test_node_sets_are_classified_through_their_view():
    # A node set is read through its int-mask view (diagrams._NodeView):
    # classify_components and is_dynkin_shape stay public, and traced, for
    # diagram objects only, and classify reads nothing of mosets.
    found = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", getattr(node.func, "attr", None))
                if name in ("classify_components", "is_dynkin_shape"):
                    found.append(f"{path.name}:{node.lineno} calls {name}")
            elif path.name == "classify.py" and isinstance(node, (ast.Import, ast.ImportFrom)):
                names = [getattr(node, "module", None) or ""] + [alias.name for alias in node.names]
                if any(name.split(".")[-1] == "mosets" for name in names):
                    found.append(f"{path.name}:{node.lineno} imports from mosets")
    assert not found, found


def _over_pairs(node) -> bool:
    """True for a loop or comprehension over combinations(..., 2)."""
    if isinstance(node, ast.For):
        iters = [node.iter]
    else:
        iters = [g.iter for g in getattr(node, "generators", ())]
    return any(
        isinstance(it, ast.Call)
        and getattr(it.func, "id", getattr(it.func, "attr", None)) == "combinations"
        and len(it.args) == 2
        and isinstance(it.args[1], ast.Constant)
        and it.args[1].value == 2
        for it in iters
    )


def _cartan_against_zero(node) -> bool:
    for cmp in ast.walk(node):
        if isinstance(cmp, ast.Compare):
            sides = [cmp.left, *cmp.comparators]
            if any(
                isinstance(x, ast.Call) and getattr(x.func, "attr", None) == "cartan" for x in sides
            ) and any(isinstance(x, ast.Constant) and x.value == 0 for x in sides):
                return True
    return False


def test_pairwise_orthogonality_is_tested_one_way():
    # A root set's pairings are read through rootsystem: orthogonal() for
    # pairwise orthogonality, _adjacency for the bonds.
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        if path.name != "rootsystem.py"
        for node in ast.walk(ast.parse(path.read_text()))
        if _over_pairs(node) and _cartan_against_zero(node)
    ]
    assert not found, found


def test_traced_names_resolve():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [
        f"{mod}.{fn}"
        for mod, fns in tracing.TRACED.items()
        for fn in fns
        if not callable(getattr(importlib.import_module(f"rootforge.{mod}"), fn, None))
    ]
    assert not missing, missing


def test_pi_node_subsets_lists_are_the_callers_own():
    reference = build_root_system("D", 5)
    s = RootSystem("D", 5, list(reference.roots), 5)
    eb = enhanced_basis(s)
    random.Random(0).shuffle(pi_node_subsets(eb))
    orbits = enumerate_pi_orbits(s)
    subsets = pi_node_subsets(eb)
    random.Random(1).shuffle(subsets)
    subsets.clear()
    assert pi_node_subsets(eb) == pi_node_subsets(enhanced_basis(reference))
    assert orbits == enumerate_pi_orbits(s) == enumerate_pi_orbits(reference)
    assert hasse_diagram(s) == hasse_diagram(reference)


def test_no_pickle_and_no_environment():
    # Nothing from a user-set directory or variable may reach an answer.
    found = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module] + [alias.name for alias in node.names]
            elif isinstance(node, ast.Attribute):
                names = [node.attr]
            elif isinstance(node, ast.Name):
                names = [node.id]
            else:
                continue
            if {"pickle", "environ", "getenv"} & set(names):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, found


def _imports_of(modules) -> list[str]:
    """file:line of every import, anywhere in the package, of one of the
    top-level modules named."""
    found = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if set(modules) & {name.split(".")[0] for name in names}:
                found.append(f"{path.name}:{node.lineno}")
    return found


def test_no_dataclasses_and_no_inspect():
    # Both drag their import chains (ast, dis, tokenize) into every start-up.
    found = _imports_of({"dataclasses", "inspect"})
    assert not found, found


def test_the_cli_imports_no_introspection_modules():
    src = Path(rootforge.__file__).resolve().parents[1]
    script = (
        "import sys, rootforge.cli; "
        "print(sorted({'dataclasses', 'inspect', 'ast', 'dis', 'tokenize'} & set(sys.modules)))"
    )
    env = {**os.environ, "PYTHONPATH": str(src)}
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, check=True)
    assert out.stdout.strip() == "[]", out.stdout


def test_no_asserts():
    # python -O strips assert statements; checks must raise typed errors.
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert not found, found


def test_integer_arithmetic_only():
    # Every computation is exact on ints; no rational or decimal type.
    found = _imports_of({"fractions", "decimal"})
    assert not found, found


def _calls_in(tree, names):
    """The names called anywhere inside tree."""
    return {
        getattr(node.func, "id", getattr(node.func, "attr", None))
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
    } & set(names)


def test_descent_labels_on_the_walks_one_view():
    # The walk and the descent read every Pi-system as a mask on the walk's
    # own view: no second labelling path and no second view.
    from rootforge import classify, verification

    assert list(inspect.signature(classify._PiWalk.__init__).parameters) == ["self", "system"]
    tree = ast.parse(Path(classify.__file__).read_text())
    scopes = [
        node
        for node in tree.body
        if isinstance(node, (ast.ClassDef, ast.FunctionDef)) and node.name in ("_PiWalk", "_descent")
    ]
    assert len(scopes) == 2
    for scope in scopes:
        found = _calls_in(scope, ("_orbit_label", "_PiWalk", "_NodeView"))
        assert not found, (scope.name, found)
    # _child_nodes builds a child's node tuple for criterion 8's second
    # descent, its only user.
    assert verification._child_nodes.__module__ == "rootforge.verification"
    users = [path.name for path in SOURCES if "_child_nodes" in path.read_text()]
    assert users == ["verification.py"], users


def test_graph_searches_read_bond_rows():
    # Diagram objects are read once, into int-mask bond rows
    # (diagrams._rows); the searches and the shape checks compare masks, and
    # the embedding search keeps every non-bond and bond multiplicity
    # itself, with no flag to turn that off.
    from rootforge import classify, diagrams

    searches = {
        "diagrams.py": {
            "_embeddings", "are_isomorphic", "automorphism_group", "find_subdiagrams",
            "classify_components", "_parts", "is_dynkin_shape",
        },
        "classify.py": {"_component_match"},
    }
    found, seen = [], set()
    for module in (diagrams, classify):
        path = Path(module.__file__)
        for fn in ast.parse(path.read_text()).body:
            if isinstance(fn, ast.FunctionDef) and fn.name in searches[path.name]:
                seen.add(fn.name)
                found += [
                    f"{path.name}:{node.lineno} reads .{node.attr}"
                    for node in ast.walk(fn)
                    if isinstance(node, ast.Attribute) and node.attr in ("neighbors", "adjacency", "bonds")
                ]
    assert seen == set().union(*searches.values())
    assert not found, found
    assert list(inspect.signature(diagrams._embeddings).parameters) == ["small", "big"]
    assert not hasattr(diagrams, "_as_weighted")
