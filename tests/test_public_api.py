"""Every public name in the package has a user outside its own definition.

A public module-level function or class of ``finitetop.*`` must be
referenced somewhere else in ``src/`` or in ``perfbench/*.py``, be named in
the README, or be exported through ``finitetop.__all__``.  A public method
of such a class counts as used only where ``.name(`` is called outside its
own definition, and a ``property`` or ``cached_property`` only where
``.name`` is read; a bare identifier of the same name elsewhere does not
count.  A name that only the tests use is test code living in the package:
move it into the tests or delete it.
"""
from __future__ import annotations

import ast
import io
import re
import tokenize
from collections import Counter
from pathlib import Path

import finitetop

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "finitetop"
USERS = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
README = (ROOT / "README.md").read_text()

PROPERTIES = {"property", "cached_property"}


def _is_property(fn: ast.FunctionDef) -> bool:
    return any(isinstance(d, ast.Name) and d.id in PROPERTIES for d in fn.decorator_list)


def _public_definitions(tree: ast.Module):
    """(qualified name, node, owner class or None) of each public def, class and method."""
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
            continue
        yield node.name, node, None
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}", item, node


def _code_names(source: str) -> Counter:
    """How often each identifier occurs in code, leaving out strings and comments."""
    tokens = tokenize.generate_tokens(io.StringIO(source).readline)
    return Counter(tok.string for tok in tokens if tok.type == tokenize.NAME)


def _attribute_uses(tree: ast.AST) -> tuple[Counter, Counter]:
    """How often each ``.name(`` is called and each ``.name`` is read under tree."""
    called, read = Counter(), Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            called[node.func.attr] += 1
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            read[node.attr] += 1
    return called, read


def test_public_names_have_a_user_outside_the_tests():
    sources = {path: path.read_text() for path in USERS}
    trees = {path: ast.parse(source) for path, source in sources.items()}
    names = sum((_code_names(source) for source in sources.values()), Counter())
    called, read = Counter(), Counter()
    for tree in trees.values():
        tree_called, tree_read = _attribute_uses(tree)
        called += tree_called
        read += tree_read
    exported = set(finitetop.__all__)
    unused = []
    for path, tree in trees.items():
        if path.parent != PACKAGE:
            continue
        for qualified, node, owner in _public_definitions(tree):
            if owner is None:
                # the definition itself is one occurrence of the name
                if (names[node.name] > 1 or node.name in exported
                        or re.search(rf"\b{re.escape(node.name)}\b", README)):
                    continue
            else:
                uses = read if _is_property(node) else called
                own_called, own_read = _attribute_uses(node)
                own = own_read if _is_property(node) else own_called
                if uses[node.name] > own[node.name]:
                    continue
            unused.append(f"{path.stem}.{qualified}")
    assert not unused, f"public names used only by tests: {unused}"
