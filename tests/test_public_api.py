"""Every public name in the package has a user outside its own definition.

A public module-level function or class of ``finitetop.*`` must be
referenced somewhere else in ``src/`` or in ``perfbench/*.py``, be named in
the README, or be exported through ``finitetop.__all__``.  A public method
of such a class counts as used only where ``.name(`` is called outside its
own definition, and a ``property`` or ``cached_property`` only where
``.name`` is read; a bare identifier of the same name elsewhere does not
count.  A name that only the tests use is test code living in the package:
move it into the tests or delete it.

When two or more package classes define a member of the same name, a use
counts only for its receiver's class where that class is evident: ``self``
inside the class, a parameter annotated with the class, a name assigned
from the class's constructor or from a function annotated to return it, or
such a call itself.  A use whose receiver cannot be resolved counts for
every class that defines the name.
"""
from __future__ import annotations

import ast
import io
import re
import tokenize
from collections import Counter, defaultdict
from pathlib import Path

import finitetop

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "finitetop"
USERS = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
README = (ROOT / "README.md").read_text()

PROPERTIES = {"property", "cached_property"}
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


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


class _Receivers:
    """Resolves the class of a use's receiver from what the package's code states."""

    def __init__(self, trees):
        self.classes = {node.name for tree in trees for node in tree.body
                        if isinstance(node, ast.ClassDef)}
        returns = defaultdict(set)
        for tree in trees:
            for node in ast.walk(tree):
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    returns[node.name].add(self.annotated(node.returns))
        # a function name counts only when every definition of it agrees
        self.returns = {name: got.pop() for name, got in returns.items()
                        if len(got) == 1 and None not in got}

    def annotated(self, annotation: ast.expr | None) -> str | None:
        if isinstance(annotation, ast.Name) and annotation.id in self.classes:
            return annotation.id
        if isinstance(annotation, ast.Constant) and annotation.value in self.classes:
            return annotation.value
        return None

    def called(self, value: ast.expr) -> str | None:
        """The class a call returns: a constructor or a function annotated to return it."""
        if not isinstance(value, ast.Call):
            return None
        func = value.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        if isinstance(func, ast.Name) and name in self.classes:
            return name
        return self.returns.get(name)

    def scope(self, fn: ast.AST, owner: str | None) -> dict[str, str | None]:
        """Name -> class in one function or module body; None where the classes disagree."""
        env: dict[str, str | None] = {}

        def bind(name: str, cls: str | None) -> None:
            env[name] = cls if env.get(name, cls) == cls else None

        if isinstance(fn, FUNCTIONS):
            args = [*fn.args.posonlyargs, *fn.args.args, *fn.args.kwonlyargs]
            if owner is not None and args and args[0].arg == "self":
                bind("self", owner)
                args = args[1:]
            for arg in args:
                bind(arg.arg, self.annotated(arg.annotation))
        for node in _own_nodes(fn):
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        bind(target.id, self.called(node.value))
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                bind(node.target.id, self.annotated(node.annotation))
        return env

    def of(self, receiver: ast.expr, env: dict[str, str | None]) -> str | None:
        if isinstance(receiver, ast.Name):
            return env.get(receiver.id)
        return self.called(receiver)


def _own_nodes(scope: ast.AST):
    """The nodes of a body, leaving out nested functions and classes."""
    for child in ast.iter_child_nodes(scope):
        yield child
        if not isinstance(child, (*FUNCTIONS, ast.ClassDef)):
            yield from _own_nodes(child)


def _attribute_uses(tree: ast.Module, receivers: _Receivers) -> list[tuple[str, str, str | None, tuple]]:
    """(name, "call" or "read", receiver class or None, enclosing definitions) per use.

    Each ``.name(`` is a call, and each ``.name`` read is a read; a callee is
    both.
    """
    uses = []

    def visit(node: ast.AST, env: dict, owner: str | None, enclosing: tuple) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, env, child.name, enclosing + (child,))
                continue
            if isinstance(child, FUNCTIONS):
                visit(child, {**env, **receivers.scope(child, owner)}, None, enclosing + (child,))
                continue
            if isinstance(child, ast.Call) and isinstance(child.func, ast.Attribute):
                attr = child.func
                uses.append((attr.attr, "call", receivers.of(attr.value, env), enclosing))
            elif isinstance(child, ast.Attribute) and isinstance(child.ctx, ast.Load):
                uses.append((child.attr, "read", receivers.of(child.value, env), enclosing))
            visit(child, env, owner, enclosing)

    visit(tree, receivers.scope(tree, None), None, ())
    return uses


def test_public_names_have_a_user_outside_the_tests():
    sources = {path: path.read_text() for path in USERS}
    trees = {path: ast.parse(source) for path, source in sources.items()}
    names = sum((_code_names(source) for source in sources.values()), Counter())
    receivers = _Receivers(trees.values())
    uses = [use for tree in trees.values() for use in _attribute_uses(tree, receivers)]
    owners = defaultdict(set)
    for path, tree in trees.items():
        if path.parent == PACKAGE:
            for _, node, owner in _public_definitions(tree):
                if owner is not None:
                    owners[node.name].add(owner.name)
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
                kind = "read" if _is_property(node) else "call"
                shared = len(owners[node.name]) > 1
                if any(name == node.name and got == kind and node not in enclosing
                       and (not shared or cls in (None, owner.name))
                       for name, got, cls, enclosing in uses):
                    continue
            unused.append(f"{path.stem}.{qualified}")
    assert not unused, f"public names used only by tests: {unused}"
