"""The package's import layers, read from the source with `ast`."""

import ast
from pathlib import Path

import majority_game

PACKAGE = Path(majority_game.__file__).parent


def _imported_modules(node: ast.AST, modules: set[str]) -> set[str]:
    """The package modules that one import statement names; empty for any
    other node."""
    if isinstance(node, ast.Import):
        names = [a.name for a in node.names]
    elif isinstance(node, ast.ImportFrom):
        base = node.module or ""
        if node.level == 0:
            if base.split(".")[0] != "majority_game":
                return set()
            base = base.removeprefix("majority_game").lstrip(".")
        # `from . import x` names module x, `from .x import y` module x
        names = [base] if base else [a.name for a in node.names]
    else:
        return set()
    return {head for head in (n.removeprefix("majority_game.").split(".")[0] for n in names) if head in modules}


def _modules() -> dict[str, ast.Module]:
    return {p.stem: ast.parse(p.read_text(), str(p)) for p in sorted(PACKAGE.glob("*.py"))}


def test_core_imports_no_module_of_the_package():
    trees = _modules()
    found = [
        ast.unparse(node)
        for node in ast.walk(trees["core"])  # at any depth, lazy imports included
        if _imported_modules(node, set(trees)) or (isinstance(node, ast.ImportFrom) and node.level)
    ]
    assert not found, found


def test_module_level_imports_have_no_cycle():
    trees = _modules()
    graph = {
        name: set().union(*(_imported_modules(node, set(trees)) for node in tree.body)) - {name}
        for name, tree in trees.items()
    }
    assert graph["bounds"] == {"core", "weighted"}  # the walk sees the package's edges
    done: set[str] = set()

    def visit(name: str, path: tuple[str, ...]) -> None:
        assert name not in path, " -> ".join(path + (name,))
        if name in done:
            return
        for dep in sorted(graph[name]):
            visit(dep, path + (name,))
        done.add(name)

    for name in sorted(graph):
        visit(name, ())
