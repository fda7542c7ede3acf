"""The package's import structure: imports sit at module level and form no cycle."""

from __future__ import annotations

import ast
from pathlib import Path

import hyperbetti

PACKAGE = Path(hyperbetti.__file__).parent
MODULES = sorted(PACKAGE.glob("*.py"))


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def test_no_module_imports_inside_a_function():
    found = []
    for path in MODULES:
        for fn in ast.walk(_tree(path)):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found += [
                    f"{path.name}:{node.lineno} in {fn.name}"
                    for node in ast.walk(fn)
                    if isinstance(node, (ast.Import, ast.ImportFrom))
                ]
    assert MODULES
    assert not found, found


def test_the_package_modules_import_each_other_without_a_cycle():
    imports = {}
    for path in MODULES:
        imports[path.stem] = {
            (node.module or alias.name).split(".")[0]
            for node in _tree(path).body
            if isinstance(node, ast.ImportFrom) and node.level == 1
            for alias in node.names
        }
    done: set[str] = set()

    def visit(module: str, path: tuple[str, ...]) -> None:
        assert module not in path, " -> ".join(path + (module,))
        if module not in done:
            for imported in imports[module]:
                visit(imported, path + (module,))
            done.add(module)

    for module in imports:
        visit(module, ())
    assert "betti" not in imports["ideal"] | imports["chordal"]
