"""Dead-code guard over ``src/genus2chow``, with ``ast`` alone.

Two rules: every module-level import of a module (``__init__.py`` excepted,
it re-exports) is read in that module, and every private module-level
function, class or constant (dunders excepted) is read somewhere in the
package outside its own definition.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "genus2chow"


def _modules() -> dict[str, ast.Module]:
    paths = sorted(PACKAGE.glob("*.py"))
    return {path.name: ast.parse(path.read_text(), str(path)) for path in paths}


def _reads(node: ast.AST) -> set[str]:
    """Every name loaded under node, and every attribute read off anything."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load):
            names.add(sub.attr)
    return names


def unread_imports(tree: ast.Module) -> list[str]:
    """Names that the module's top-level imports bind and the module never reads."""
    bound = []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound.append(alias.asname or alias.name.split(".")[0])
    read = _reads(tree)
    return [name for name in bound if name not in read]


def _private_definitions(tree: ast.Module) -> list[tuple[str, ast.AST]]:
    found = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            found.append((node.name, node))
        elif isinstance(node, ast.Assign):
            found.extend((t.id, node) for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            found.append((node.target.id, node))
    return [
        (name, node)
        for name, node in found
        if name.startswith("_") and not (name.startswith("__") and name.endswith("__"))
    ]


def unread_private_names(trees: dict[str, ast.Module]) -> list[str]:
    """``module:name`` of each private top-level definition that nothing in
    the package reads, apart from the definition itself."""
    unread = []
    for module, tree in trees.items():
        for name, node in _private_definitions(tree):
            elsewhere = [t for other, t in trees.items() if other != module]
            siblings = [n for n in tree.body if n is not node]
            if not any(name in _reads(n) for n in elsewhere + siblings):
                unread.append(f"{module}:{name}")
    return unread


def test_every_module_level_import_is_read():
    trees = _modules()
    assert "groebner.py" in trees and "ring.py" in trees
    unread = {
        module: names
        for module, tree in trees.items()
        if module != "__init__.py"
        for names in [unread_imports(tree)]
        if names
    }
    assert not unread


def test_every_private_definition_is_read():
    assert not unread_private_names(_modules())


@pytest.mark.parametrize(
    "source, expected",
    [
        ("from .ring import IntPolynomial, add_terms\nIntPolynomial\n", ["add_terms"]),
        ("import heapq\nimport os.path\nheapq.heappush\n", ["os"]),
        ("from __future__ import annotations\nfrom math import gcd as g\ng(1, 2)\n", []),
    ],
)
def test_guard_flags_an_unread_import(source, expected):
    assert unread_imports(ast.parse(source)) == expected


def test_guard_flags_a_leftover_private_function():
    trees = {
        "groebner.py": ast.parse(
            "def _lead_table(polys):\n    return _lead_table(polys[1:])\n"
            "def _reduce(p):\n    return p\n"
            "_CAP = 3\n"
            "def normal_form(p):\n    return _reduce(p)\n"
        ),
        "graded.py": ast.parse("from . import groebner\ngroebner._CAP\n"),
    }
    assert unread_private_names(trees) == ["groebner.py:_lead_table"]
