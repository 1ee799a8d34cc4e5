"""Order duality: X^op reads X's facts in the other orientation.

The dual X^op of a finite space has X's closed sets as its opens, so its
specialization preorder is the reverse of X's.  Each fact that the code
states once for one orientation must therefore read, on X^op, what its
mirror reads on X: kernels become closures, tops become bottoms, upward
forests become downward ones, and wC0 becomes wR0 on both routes.
"""
from __future__ import annotations

from finitetop.axioms import CHARACTERIZED, DEFINITIONAL, check_space
from finitetop.core import FiniteTopology, Preorder, alexandrov
from finitetop.enumerate import enumerate_topologies
from finitetop.order import bottoms_mask, is_downward_forest, is_upward_forest, tops_mask

SPACES = [*(top for n in range(5) for top in enumerate_topologies(n)),
          *(top for n in (5, 6) for top in enumerate_topologies(n, up_to_iso=True))]


def _dual(top: FiniteTopology) -> FiniteTopology:
    return FiniteTopology(top.n, top.closed)


def test_spaces_cover_small_sizes():
    assert len(SPACES) == 390 + 139 + 718


def test_dual_topology_is_alexandrov_of_reversed_order():
    for top in SPACES:
        pre = top.specialization()
        assert alexandrov(Preorder(pre.n, pre.down)).opens == _dual(top).opens, top


def test_reversed_order_swaps_tops_and_forests():
    for top in SPACES:
        pre = top.specialization()
        rev = Preorder(pre.n, pre.down)
        assert tops_mask(pre) == bottoms_mask(rev), top
        assert bottoms_mask(pre) == tops_mask(rev), top
        assert is_upward_forest(pre) == is_downward_forest(rev), top


def test_kernel_is_closure_in_dual():
    for top in SPACES:
        dual = _dual(top)
        for a in range(1 << top.n):
            assert top.kernel_bits(a) == dual.closure_bits(a), (top, a)


def test_wc0_is_wr0_of_dual_on_each_route():
    verdicts = set()
    for top in SPACES:
        dual = _dual(top)
        for mode, key, dual_key in ((DEFINITIONAL, "points", "points"),
                                    (CHARACTERIZED, "top", "bottom")):
            wc0 = check_space(top, "wC0", mode)
            wr0 = check_space(dual, "wR0", mode)
            assert wc0.verdict == wr0.verdict, (top, mode)
            if not wc0.verdict:
                assert wc0.witness[key] == wr0.witness[dual_key], (top, mode)
            verdicts.add(wc0.verdict)
    assert verdicts == {True, False}
