"""The package's import graph, read from ``src/nlqsim/*.py`` with ``ast``:
it has no cycle, no function imports a package module (the lazy scipy
imports stay), and ``_ode``, the stepping engine, imports none."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "nlqsim"
TREES = {path.stem: ast.parse(path.read_text(), str(path)) for path in sorted(SRC.glob("*.py"))}


def _package_modules(node):
    """The package modules an import statement names, by file stem."""
    if isinstance(node, ast.Import):
        names = [a.name.split(".") for a in node.names if a.name.split(".")[0] == "nlqsim"]
        return {parts[1] if len(parts) > 1 else "__init__" for parts in names}
    if not isinstance(node, ast.ImportFrom):
        return set()
    parts = (node.module or "").split(".")
    if node.level == 0:
        if parts[0] != "nlqsim":
            return set()
        parts = parts[1:]
    if parts and parts[0]:
        return {parts[0]}
    return {a.name if a.name in TREES else "__init__" for a in node.names}


def _imports(tree):
    """(module, line, in_function) of every package import in ``tree``."""
    found = []

    def visit(node, in_function):
        for child in ast.iter_child_nodes(node):
            found.extend((m, child.lineno, in_function) for m in _package_modules(child))
            visit(child, in_function or isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)))

    visit(tree, False)
    return found


IMPORTS = {name: _imports(tree) for name, tree in TREES.items()}
GRAPH = {name: {m for m, _, _ in found} for name, found in IMPORTS.items()}


def test_the_graph_is_read_from_the_source():
    assert {"_ode", "search", "blochdyn", "discrimination"} <= set(TREES)
    assert "_ode" in GRAPH["search"] and "_ode" in GRAPH["blochdyn"]
    assert "search" in GRAPH["cli"] and "search" in GRAPH["__init__"]


def test_the_package_import_graph_is_acyclic():
    state = {}

    def visit(name, path):
        if state.get(name) == "done":
            return
        assert state.get(name) != "open", f"import cycle: {' -> '.join(path + [name])}"
        state[name] = "open"
        for dep in sorted(GRAPH[name]):
            visit(dep, path + [name])
        state[name] = "done"

    for name in sorted(GRAPH):
        visit(name, [])


def test_no_function_imports_a_package_module():
    lazy = [(name, m, line) for name, found in IMPORTS.items() for m, line, inner in found
            if inner]
    assert lazy == [], f"package imports inside functions (module, import, line): {lazy}"


def test_the_stepping_engine_imports_no_package_module():
    assert GRAPH["_ode"] == set()
