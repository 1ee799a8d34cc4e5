"""Every public name in the package has a user outside its own definition.

A public module-level function or class of ``finitetop.*``, or a public
method of such a class, must be referenced somewhere else in ``src/``, be
named in the README, or be exported through ``finitetop.__all__``.  A name
that only the tests call is test code living in the package: move it into
the tests or delete it.
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
README = (ROOT / "README.md").read_text()


def _public_definitions(tree: ast.Module):
    """(qualified name, name) of each public top-level def or class and public method."""
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
            continue
        yield node.name, node.name
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}", item.name


def _code_names(source: str) -> Counter:
    """How often each identifier occurs in code, leaving out strings and comments."""
    tokens = tokenize.generate_tokens(io.StringIO(source).readline)
    return Counter(tok.string for tok in tokens if tok.type == tokenize.NAME)


def test_public_names_have_a_user_outside_the_tests():
    sources = {path.stem: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    uses = sum((_code_names(source) for source in sources.values()), Counter())
    exported = set(finitetop.__all__)
    unused = []
    for module, source in sources.items():
        for qualified, name in _public_definitions(ast.parse(source)):
            # the definition itself is one occurrence of the name
            if uses[name] > 1 or name in exported or re.search(rf"\b{re.escape(name)}\b", README):
                continue
            unused.append(f"{module}.{qualified}")
    assert not unused, f"public names used only by tests: {unused}"
