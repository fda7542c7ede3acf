"""The package's source structure: imports sit at module level and form no
cycle, no module imports another's private name, every private helper
has a caller, and the facets-to-nonfaces dualization has one owner."""

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


def test_no_module_imports_a_private_name_from_another():
    """A rule shared between modules lives in one place under a public
    name: no ``from .module import _name`` anywhere in the package."""
    found = [
        f"{path.name}:{node.lineno} {alias.name}"
        for path in MODULES
        for node in ast.walk(_tree(path))
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert not found, found


def test_every_private_function_is_referenced_outside_its_own_def():
    """A ``_``-prefixed function or method that nothing outside its own
    body names, as a name or an attribute, is code with no caller."""
    defined: list[tuple[str, str]] = []
    referenced: set[str] = set()

    def visit(node: ast.AST, enclosing: tuple[str, ...], where: str) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if node.name.startswith("_") and not node.name.startswith("__"):
                defined.append((node.name, f"{where}:{node.lineno} {node.name}"))
            enclosing += (node.name,)
        elif isinstance(node, ast.Name) and node.id not in enclosing:
            referenced.add(node.id)
        elif isinstance(node, ast.Attribute) and node.attr not in enclosing:
            referenced.add(node.attr)
        for child in ast.iter_child_nodes(node):
            visit(child, enclosing, where)

    for path in MODULES:
        visit(_tree(path), (), path.name)
    assert defined
    uncalled = [where for name, where in defined if name not in referenced]
    assert not uncalled, uncalled


def test_only_complexes_names_the_dualization():
    """``minimal_transversals`` turns facets into nonfaces and back; every
    other module goes through ``complexes`` (``nonface_complex``,
    ``minimal_nonfaces``), so no other module names it."""
    found = [
        f"{path.name}:{node.lineno}"
        for path in MODULES
        if path.stem != "complexes"
        for node in ast.walk(_tree(path))
        if "minimal_transversals" in (
            getattr(node, "id", None), getattr(node, "attr", None), getattr(node, "name", None)
        )
    ]
    assert not found, found
