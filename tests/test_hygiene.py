"""Source hygiene: every module-level import in the package is used in its
own module, no function recurses unless its depth is bounded
independently of the input's size, and every error type is raised
somewhere.  Static scans with the stdlib ``ast`` module, so they import
nothing they check."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "oscal"


def _module_imports(body):
    """(bound name, line) for each import at module level, including those
    under a module-level ``if`` or ``try`` (``TYPE_CHECKING`` blocks)."""
    for node in body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom):
            if node.module == "__future__":
                continue
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno
        elif isinstance(node, (ast.If, ast.Try)):
            for block in (node.body, node.orelse, getattr(node, "finalbody", [])):
                yield from _module_imports(block)
            for handler in getattr(node, "handlers", []):
                yield from _module_imports(handler.body)


def _used_names(tree):
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    # names re-exported through __all__
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return used


def unused_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(), filename=str(path))
    used = _used_names(tree)
    return [
        "%s:%d %s" % (path.name, line, name)
        for name, line in _module_imports(tree.body)
        if name not in used
    ]


def test_scan_sees_the_package():
    assert len(list(PACKAGE.glob("*.py"))) > 10


def test_scan_flags_an_unused_import(tmp_path):
    mod = tmp_path / "mod.py"
    mod.write_text(
        "from __future__ import annotations\n"
        "import os, json as js\n"
        "import xml.dom\n"
        "from typing import TYPE_CHECKING\n"
        "if TYPE_CHECKING:\n"
        "    from fractions import Fraction\n"
        "    from decimal import Decimal\n"
        "def f(x: Fraction):\n"
        "    return os.sep, xml.dom\n"
    )
    assert unused_imports(mod) == ["mod.py:2 js", "mod.py:7 Decimal"]


def test_no_unused_module_imports():
    found = [u for path in sorted(PACKAGE.glob("*.py")) for u in unused_imports(path)]
    assert found == []


# recursive functions whose depth does not grow with the input, and why
BOUNDED_RECURSION = {
    "documents.scalar_from_json": "complex parts cannot nest, so the depth is at most 2",
    "sampling._grow_space.build": "the depth is at most max_rank",
}


def _calls_itself(func, method: bool) -> bool:
    """A plain function calling its own bare name, or a method calling
    ``self.<its name>``."""
    for node in ast.walk(func):
        if not isinstance(node, ast.Call):
            continue
        f = node.func
        if method:
            if (isinstance(f, ast.Attribute) and f.attr == func.name
                    and isinstance(f.value, ast.Name) and f.value.id == "self"):
                return True
        elif isinstance(f, ast.Name) and f.id == func.name:
            return True
    return False


def recursive_functions(path: Path) -> list[str]:
    """Dotted names (module.Class.func, module.outer.inner) of the
    functions in a module that call themselves."""
    found = []

    def visit(node, prefix, in_class):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = prefix + "." + child.name
                if _calls_itself(child, in_class):
                    found.append(name)
                visit(child, name, False)
            elif isinstance(child, ast.ClassDef):
                visit(child, prefix + "." + child.name, True)
            else:
                visit(child, prefix, in_class)

    visit(ast.parse(path.read_text(), filename=str(path)), path.stem, False)
    return found


def test_scan_flags_a_recursive_function(tmp_path):
    mod = tmp_path / "mod.py"
    mod.write_text(
        "def depth(tree):\n"
        "    return 1 + max((depth(t) for t in tree), default=0)\n"
        "def walk(tree):\n"
        "    def go(t):\n"
        "        return [go(c) for c in t]\n"
        "    return go(tree)\n"
        "class Node:\n"
        "    def abs(self):\n"
        "        return abs(self.size)\n"
        "    def count(self):\n"
        "        return 1 + sum(self.count() for _ in ())\n"
    )
    assert recursive_functions(mod) == ["mod.depth", "mod.walk.go", "mod.Node.count"]


def test_no_unbounded_recursion():
    found = [
        name
        for path in sorted(PACKAGE.glob("*.py"))
        for name in recursive_functions(path)
    ]
    assert [n for n in found if n not in BOUNDED_RECURSION] == []
    assert sorted(BOUNDED_RECURSION) == sorted(found)  # no stale entries


def raised_names(path: Path) -> set[str]:
    """Names raised in a module: ``raise Name(...)`` and ``raise Name``."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name):
                found.add(exc.id)
    return found


def test_scan_flags_raised_names(tmp_path):
    mod = tmp_path / "mod.py"
    mod.write_text(
        "def f(x):\n"
        "    if x:\n"
        "        raise KeyError(x)\n"
        "    try:\n"
        "        raise StopIteration\n"
        "    except StopIteration as exc:\n"
        "        raise exc\n"
        "    raise\n"
    )
    assert raised_names(mod) == {"KeyError", "StopIteration", "exc"}


def test_every_error_type_has_a_raiser():
    tree = ast.parse((PACKAGE / "errors.py").read_text())
    declared = {n.name for n in tree.body if isinstance(n, ast.ClassDef)}
    raised = set().union(*(raised_names(p) for p in PACKAGE.glob("*.py")))
    assert "PreconditionError" in declared
    assert sorted(declared - {"OscalError"} - raised) == []


ROOT = PACKAGE.parent.parent
DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def public_definitions(path: Path):
    """(dotted name, bare name) of each public function and class defined
    at module level, and of each public method of a module-level class."""
    for node in ast.parse(path.read_text(), filename=str(path)).body:
        if isinstance(node, DEFS) and not node.name.startswith("_"):
            yield "%s.%s" % (path.stem, node.name), node.name
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, DEFS) and not item.name.startswith("_"):
                    yield "%s.%s.%s" % (path.stem, node.name, item.name), item.name


def named(path: Path) -> set[str]:
    """Every identifier a module names: as a name, an attribute, or an
    import (each dotted part of it)."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                found.update(alias.name.split("."))
    return found


def unnamed_definitions(defining: list[Path], using: list[Path]) -> list[str]:
    """Public definitions in ``defining`` that no file in ``using`` names."""
    used = set().union(*(named(p) for p in using))
    return [
        dotted
        for path in defining
        for dotted, name in public_definitions(path)
        if name not in used
    ]


def test_scan_flags_an_unnamed_definition(tmp_path):
    mod = tmp_path / "mod.py"
    mod.write_text(
        "from json import dumps\n"
        "class Box:\n"
        "    def size(self):\n"
        "        return 1\n"
        "    def spare(self):\n"
        "        return dumps(self.size())\n"
        "    def _hidden(self):\n"
        "        return 0\n"
        "def orphan():\n"
        "    return Box()\n"
        "def _private():\n"
        "    return 0\n"
    )
    user = tmp_path / "user.py"
    user.write_text("import mod.orphan\n")
    assert unnamed_definitions([mod], [mod]) == ["mod.Box.spare", "mod.orphan"]
    assert unnamed_definitions([mod], [mod, user]) == ["mod.Box.spare"]


def test_every_public_definition_has_a_user():
    """What the package defines, the package, its scripts or its
    benchmark name; what only the tests use lives in the tests."""
    defining = sorted(PACKAGE.glob("*.py"))
    using = defining + sorted((ROOT / "scripts").glob("*.py"))
    using += sorted((ROOT / "perfbench").glob("*.py"))
    assert unnamed_definitions(defining, using) == []
