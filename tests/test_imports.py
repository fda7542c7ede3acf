"""The package's source structure: imports sit at module level, form no
cycle and are all used, no module imports another's private name, every
private helper has a caller, and the facets-to-nonfaces dualization and
the free generator of a Betti splitting each have one owner."""

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


def test_every_module_level_import_is_used_or_exported():
    """A name a module imports at module level is read somewhere in the
    module or listed in its ``__all__``; ``__future__`` features are not
    names."""
    found = []
    for path in MODULES:
        tree = _tree(path)
        imported = [
            alias.asname or alias.name.split(".")[0]
            for node in tree.body
            if isinstance(node, ast.Import)
            or isinstance(node, ast.ImportFrom) and node.module != "__future__"
            for alias in node.names
        ]
        exported = {
            name
            for node in tree.body
            if isinstance(node, ast.Assign)
            and any(getattr(t, "id", None) == "__all__" for t in node.targets)
            for name in ast.literal_eval(node.value)
        }
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        found += [f"{path.name}: {name}" for name in imported if name not in used | exported]
    assert not found, found


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


def test_one_helper_chooses_the_free_generator():
    """The generator e of a free-vertex splitting, the one holding the
    lowest vertex in exactly one generator, is chosen by
    ``betti._free_generator`` alone: the split tree's nodes (``_split``) and
    the component shapes (``_shape_dims``) call it, and no other function
    of ``betti`` takes the lowest bit of a set of free vertices."""
    tree = _tree(PACKAGE / "betti.py")
    functions = {fn.name: fn for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)}

    def calls(fn: ast.FunctionDef, name: str) -> bool:
        return any(
            isinstance(node, ast.Call) and getattr(node.func, "id", None) == name
            for node in ast.walk(fn)
        )

    def lowest_free_bit(fn: ast.FunctionDef) -> bool:
        free = {"free"} | {
            target.id
            for node in ast.walk(fn)
            if isinstance(node, (ast.Assign, ast.NamedExpr))
            and isinstance(node.value, ast.Call)
            and getattr(node.value.func, "id", None) == "exactly_once"
            for target in getattr(node, "targets", [getattr(node, "target", None)])
            if isinstance(target, ast.Name)
        }
        return any(
            isinstance(node, ast.BinOp)
            and isinstance(node.op, ast.BitAnd)
            and isinstance(node.left, ast.Name)
            and node.left.id in free
            and isinstance(node.right, ast.UnaryOp)
            and isinstance(node.right.op, ast.USub)
            and getattr(node.right.operand, "id", None) == node.left.id
            for node in ast.walk(fn)
        )

    assert calls(functions["_split"], "_free_generator")
    assert calls(functions["_shape_dims"], "_free_generator")
    assert [name for name, fn in functions.items() if lowest_free_bit(fn)] == ["_free_generator"]
