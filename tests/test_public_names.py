"""Every public name and every module-level definition of the package has
a use in the package itself.

A name exported from ``fusedfir`` must be read somewhere in ``src/fusedfir``
outside ``__init__.py`` and outside the body of its own ``def`` or
``class``; code that only the tests use belongs with the tests.  Every
module-level ``def`` and ``class``, private ones included, must likewise be
read somewhere in ``src/fusedfir`` outside its own body, so a helper left
behind by a change does not stay as dead code.
"""

from __future__ import annotations

import ast
from pathlib import Path

import fusedfir

TREES = {
    path.name: ast.parse(path.read_text(encoding="utf-8"))
    for path in sorted(Path(fusedfir.__file__).parent.glob("*.py"))
}
MODULES = {name: tree for name, tree in TREES.items() if name != "__init__.py"}


def _is_used(node: ast.AST, name: str) -> bool:
    """True when ``name`` is read below ``node``, its own definition skipped."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.ClassDef)) and child.name == name:
            continue
        if isinstance(child, ast.Name) and child.id == name:
            return True
        if isinstance(child, ast.Attribute) and child.attr == name:
            return True
        if _is_used(child, name):
            return True
    return False


def test_every_public_name_is_used_in_the_package():
    unused = [
        name
        for name in sorted(fusedfir.__all__)
        if not any(_is_used(tree, name) for tree in MODULES.values())
    ]
    assert not unused, f"used only by their own definitions or the tests: {unused}"


def test_every_module_level_definition_is_used_in_the_package():
    unused = [
        f"{module}:{node.name}"
        for module, tree in TREES.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not any(_is_used(other, node.name) for other in TREES.values())
    ]
    assert not unused, f"defined but never read in the package: {unused}"
