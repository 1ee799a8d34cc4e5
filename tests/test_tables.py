"""The bitset kernels of ``core`` against the loops they replaced.

Every 2^n subset scan on the classify path reads a table that
``core.union_table`` builds by doubling, every down-row and up-row comes
from ``core.transpose``, and every quotient by blocks is
``FiniteTopology.quotient``.  The references in ``oracles`` fill the tables
one bit at a time, scan each subset point by point, transpose cell by cell
and build quotients over every combination of blocks; the kernels must
give the same tables, rows, opens, witnesses and quotients on every labeled
space on at most 4 points, every class representative on 5 and 6, every
partition of the class representatives on at most 4 points, and random
preorders on 7-12 points with merged classes.

On the order side, ``Preorder.class_space``, the heights read off it and
the characterized space checks composed from order conditions must give
the class poset read one cell at a time, the heights by recursion and the
witness dicts of the checks written out by hand; each route's class space
must be the other's under ``alexandrov``.
"""
from __future__ import annotations

import weakref

from hypothesis import given, settings
from hypothesis import strategies as st

from finitetop.axioms import AXIOMS, SpaceContext, _fd_form_holds
from finitetop.core import FiniteTopology, Preorder, alexandrov, bit_indices, transpose, union_table
from finitetop.decomp import iter_partitions, quotient
from finitetop.enumerate import enumerate_topologies
from finitetop.order import heights

from oracles import (
    C_SPACE_BY_HAND,
    alexandrov_by_scan,
    c_lambda_space_by_scan,
    class_poset_by_reps,
    class_space_by_blocks,
    down_closure,
    fd_form_holds_by_scan,
    heights_by_recursion,
    quotient_by_combos,
    transpose_by_cells,
    union_table_by_bits,
)


def _small_spaces() -> list[FiniteTopology]:
    spaces = [*(top for n in range(5) for top in enumerate_topologies(n)),
              *(top for n in (5, 6) for top in enumerate_topologies(n, up_to_iso=True))]
    assert len(spaces) == 390 + 139 + 718
    return spaces


def _check_tables(top: FiniteTopology) -> None:
    ctx = SpaceContext(top)
    for rows, table in ((ctx.closure1, ctx.closure_t), (ctx.kernel1, ctx.kernel_t),
                        (ctx.up, ctx.up_t), (ctx.down, ctx.down_t)):
        assert union_table(rows) == table == union_table_by_bits(rows), top


def _check_kernels(top: FiniteTopology) -> None:
    ctx = SpaceContext(top)
    for rows in (ctx.kernel1, ctx.down):
        assert transpose(rows) == transpose_by_cells(rows), top
    assert ctx.up == transpose_by_cells(ctx.closure1), top
    assert ctx.down == transpose_by_cells(ctx.up), top
    assert ctx.down_t == [down_closure(ctx.down, a) for a in range(1 << ctx.n)], top
    blocks = tuple(dict.fromkeys(top.point_classes))
    assert top.quotient(blocks) == quotient_by_combos(top, blocks), top


def _check_scans(top: FiniteTopology) -> None:
    ctx = SpaceContext(top)
    bad = fd_form_holds_by_scan(ctx.down, ctx.n)
    assert _fd_form_holds(ctx.down_t) == bad, top
    assert AXIOMS["T1/3"].char_space(ctx) == (
        None if bad is None else {"subset": sorted(bit_indices(bad))}), top
    qpre = class_poset_by_reps(ctx.pre)[0]
    qbad = fd_form_holds_by_scan(qpre.down, qpre.n)
    assert AXIOMS["S1/3"].char_space(ctx) == (
        None if qbad is None else {"class_subset": sorted(bit_indices(qbad))}), top
    assert AXIOMS["lambda"].char_space(ctx) == c_lambda_space_by_scan(ctx), top
    assert heights(ctx.pre) == heights_by_recursion(ctx.pre), top
    for axiom, by_hand in C_SPACE_BY_HAND.items():
        assert AXIOMS[axiom].char_space(ctx) == by_hand(ctx), (top, axiom)


def _check_spaces(top: FiniteTopology) -> None:
    assert top.class_space() == class_space_by_blocks(top), top
    pre = top.specialization()
    assert alexandrov(pre) == alexandrov_by_scan(pre) == top, top
    q, mapping = pre.class_space()
    assert (q, mapping) == class_poset_by_reps(pre), top
    assert alexandrov(pre).class_space() == (alexandrov(q), mapping), top
    if all(c == 1 << x for x, c in enumerate(pre.cls)):
        # a partial order is its own class space, and its cache does not
        # refer to it: reference counting alone frees it
        assert q is pre, top
        ref = weakref.ref(pre)
        del pre, q
        assert ref() is None, top


@st.composite
def _merged_preorders(draw) -> Preorder:
    """A preorder on 7-12 points: random relations with some classes merged."""
    n = draw(st.integers(7, 12))
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    pairs = draw(st.lists(pair, max_size=n + 4))
    merged = draw(st.lists(pair, min_size=1, max_size=3))
    return Preorder.from_pairs(n, pairs + merged + [(y, x) for x, y in merged])


class TestTablesMatchReferences:
    def test_small_spaces(self):
        shortcut = set()
        for top in _small_spaces():
            _check_tables(top)
            _check_kernels(top)
            _check_scans(top)
            _check_spaces(top)
            shortcut.add(top.class_space()[0] is top)
        # both the T0 shortcut and the general path ran
        assert shortcut == {True, False}

    def test_partitions_of_class_representatives(self):
        for n in range(5):
            for top in enumerate_topologies(n, up_to_iso=True):
                for dec in iter_partitions(n):
                    assert quotient(top, dec) == quotient_by_combos(top, dec.blocks), (top, dec)

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(_merged_preorders())
    def test_random_preorders_on_7_to_12_points(self, pre):
        top = alexandrov(pre)
        assert top == alexandrov_by_scan(pre)
        _check_tables(top)
        _check_kernels(top)
        _check_scans(top)
        _check_spaces(top)
