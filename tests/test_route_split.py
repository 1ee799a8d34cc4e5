"""Each route of the axiom catalog reads only its own side of a SpaceContext.

A definitional checker may read the open family and the tables that set
operations derive from it; a characterized checker may read the
specialization preorder and the tables derived from its rows, and call the
helpers of ``finitetop.order``.  The scan follows each checker of the
catalog through the module-level functions of ``axioms.py`` it names, and
collects every attribute read off a name ending in ``ctx`` and every order
helper named.  ``core.union_table`` encodes no axiom, so both routes may
build tables with it.  No module-level function of ``axioms.py`` may be
reachable from checkers of both routes: they may share a cache, not logic.
"""
from __future__ import annotations

import ast
from pathlib import Path

from finitetop import axioms

TREE = ast.parse(Path(axioms.__file__).read_text())

ALLOWED = {
    axioms.DEFINITIONAL: {"top", "closure1", "kernel1", "closure_t", "kernel_t", "cls_def",
                          "class_ctx", "n", "full"},
    axioms.CHARACTERIZED: {"pre", "up", "down", "up_t", "down_t", "cls", "minimal",
                           "heights_pp", "ht", "n", "full"},
}
# the rows each SpaceContext table is built from
TABLE_ROWS = {"closure_t": {"closure1"}, "kernel_t": {"kernel1"},
              "up_t": {"up"}, "down_t": {"down"}}


def _definitions(tree: ast.Module) -> dict[str, ast.AST]:
    """The code behind each module-level function and alias, by name."""
    defs: dict[str, ast.AST] = {}
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            defs[node.name] = node
        elif (isinstance(node, ast.Assign) and len(node.targets) == 1
              and isinstance(node.targets[0], ast.Name)):
            defs[node.targets[0].id] = node.value
    return defs


def _order_helpers(tree: ast.Module) -> set[str]:
    return {alias.asname or alias.name for node in tree.body
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module == "order"
            for alias in node.names}


def _walk(name: str, defs: dict[str, ast.AST],
          helpers: set[str]) -> tuple[set[str], set[str], set[str]]:
    """(module-level names, context attributes, order helpers) reachable from name."""
    attrs: set[str] = set()
    called: set[str] = set()
    seen: set[str] = set()
    todo = [name]
    while todo:
        current = todo.pop()
        if current in seen:
            continue
        seen.add(current)
        for node in ast.walk(defs[current]):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id.endswith("ctx")):
                attrs.add(node.attr)
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                if node.id in defs:
                    todo.append(node.id)
                elif node.id in helpers:
                    called.add(node.id)
    return seen, attrs, called


def _leaks(name: str, mode: str, tree: ast.Module) -> list[str]:
    """What the checker bound to name reads outside its route's allow-list."""
    _, attrs, called = _walk(name, _definitions(tree), _order_helpers(tree))
    leaks = sorted(f"ctx.{a}" for a in attrs - ALLOWED[mode])
    if mode == axioms.DEFINITIONAL:
        leaks += sorted(called)
    return leaks


def _catalog_checkers():
    """(axiom, module-level name, route) of every checker in the catalog."""
    names = {}
    for name, value in vars(axioms).items():
        if callable(value) and name.startswith(("_d_", "_c_")):
            names.setdefault(id(value), name)
    for spec in axioms.AXIOMS.values():
        for mode, slots in ((axioms.DEFINITIONAL, (spec.def_point, spec.def_space)),
                            (axioms.CHARACTERIZED, (spec.char_point, spec.char_space))):
            for checker in slots:
                if checker is not None:
                    yield spec.id, names[id(checker)], mode


def test_each_checker_reads_only_its_route():
    covered = set()
    leaks = []
    for axiom, name, mode in _catalog_checkers():
        covered.add((axiom, mode))
        leaks += [f"{axiom} {mode} {name}: {leak}" for leak in _leaks(name, mode, TREE)]
    assert len(covered) == 2 * len(axioms.AXIOMS)
    assert not leaks


def _shared(checkers, tree: ast.Module) -> list[str]:
    """The module-level names reachable from checkers of both routes."""
    defs, helpers = _definitions(tree), _order_helpers(tree)
    reached = {axioms.DEFINITIONAL: set(), axioms.CHARACTERIZED: set()}
    for name, mode in checkers:
        reached[mode] |= _walk(name, defs, helpers)[0]
    return sorted(reached[axioms.DEFINITIONAL] & reached[axioms.CHARACTERIZED])


def test_no_function_serves_both_routes():
    # the routes may share a cache, never logic: a helper reachable from
    # both would decide both verdicts at once
    assert _shared([(name, mode) for _, name, mode in _catalog_checkers()], TREE) == []


def test_each_table_reads_only_its_rows():
    context = next(node for node in TREE.body
                   if isinstance(node, ast.ClassDef) and node.name == "SpaceContext")
    tables = {node.name: node for node in context.body
              if isinstance(node, ast.FunctionDef) and node.name in TABLE_ROWS}
    assert set(tables) == set(TABLE_ROWS)
    for name, node in tables.items():
        reads = {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)
                 and isinstance(n.value, ast.Name) and n.value.id == "self"}
        assert reads == TABLE_ROWS[name], name


def test_scan_follows_helpers_and_aliases():
    tree = ast.parse(
        "from .order import heights\n"
        "def _helper(ctx):\n    return ctx.down_t[0]\n"
        "def _d_leaky(qctx):\n    return _helper(qctx)\n"
        "_d_alias = _d_leaky\n"
        "def _d_order(ctx):\n    return heights(ctx.top)\n"
        "def _first_failure(*conditions):\n"
        "    def run(ctx):\n"
        "        for condition in conditions:\n"
        "            wit = condition(ctx)\n"
        "            if wit is not None:\n"
        "                return wit\n"
        "        return None\n"
        "    return run\n"
        "def _cond(ctx):\n    return ctx.top\n"
        "_c_x = _first_failure(_cond)\n"
    )
    assert _leaks("_d_alias", axioms.DEFINITIONAL, tree) == ["ctx.down_t"]
    assert _leaks("_d_order", axioms.DEFINITIONAL, tree) == ["heights"]
    assert _leaks("_d_order", axioms.CHARACTERIZED, tree) == ["ctx.top"]
    # a composed checker reads what its conditions read
    assert _leaks("_c_x", axioms.CHARACTERIZED, tree) == ["ctx.top"]
    # a helper named from both routes is shared logic
    assert _shared([("_d_leaky", axioms.DEFINITIONAL), ("_c_x", axioms.CHARACTERIZED)],
                   tree) == []
    assert _shared([("_d_alias", axioms.DEFINITIONAL), ("_helper", axioms.CHARACTERIZED)],
                   tree) == ["_helper"]
