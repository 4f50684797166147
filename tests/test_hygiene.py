"""Source hygiene: every module-level import in the package is used in its
own module.  A static scan with the stdlib ``ast`` module, so it imports
nothing it checks."""

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
