"""The subset tables against the loops they replaced.

Every 2^n subset scan on the classify path reads a table that
``core.union_table`` builds by doubling.  The references in ``oracles``
fill the tables one bit at a time and scan each subset point by point; the
table-driven code must give the same tables, opens, witnesses and class
spaces on every labeled space on at most 4 points, every class
representative on 5 and 6, and random preorders on 7-12 points with merged
classes.
"""
from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from finitetop.axioms import AXIOMS, SpaceContext, _fd_form_holds
from finitetop.core import FiniteTopology, Preorder, alexandrov, bit_indices, union_table
from finitetop.enumerate import enumerate_topologies

from oracles import (
    alexandrov_by_scan,
    c_lambda_space_by_scan,
    class_space_by_blocks,
    fd_form_holds_by_scan,
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


def _check_scans(top: FiniteTopology) -> None:
    ctx = SpaceContext(top)
    bad = fd_form_holds_by_scan(ctx.down, ctx.n)
    assert _fd_form_holds(ctx.down_t) == bad, top
    assert AXIOMS["T1/3"].char_space(ctx) == (
        None if bad is None else {"subset": sorted(bit_indices(bad))}), top
    qpre = ctx.pre.class_poset.as_preorder()
    qbad = fd_form_holds_by_scan(qpre.down, qpre.n)
    assert AXIOMS["S1/3"].char_space(ctx) == (
        None if qbad is None else {"class_subset": sorted(bit_indices(qbad))}), top
    assert AXIOMS["lambda"].char_space(ctx) == c_lambda_space_by_scan(ctx), top


def _check_spaces(top: FiniteTopology) -> None:
    assert top.class_space() == class_space_by_blocks(top), top
    pre = top.specialization()
    assert alexandrov(pre) == alexandrov_by_scan(pre) == top, top


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
            _check_scans(top)
            _check_spaces(top)
            shortcut.add(top.class_space()[0] is top)
        # both the T0 shortcut and the general path ran
        assert shortcut == {True, False}

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(_merged_preorders())
    def test_random_preorders_on_7_to_12_points(self, pre):
        top = alexandrov(pre)
        assert top == alexandrov_by_scan(pre)
        _check_tables(top)
        _check_scans(top)
        _check_spaces(top)
