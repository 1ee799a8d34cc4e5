from __future__ import annotations

from finitetop.core import Preorder, alexandrov, bit_indices
from finitetop.order import (
    bottoms_mask,
    bouquet_root,
    comparability_components,
    heights,
    is_down_directed,
    is_down_discrete,
    is_downward_forest,
    is_pre_chain,
    is_upward_forest,
    min_s1_witness,
    minimal_mask,
    tops_mask,
)

CHAIN3 = Preorder.from_pairs(3, [(0, 1), (1, 2)])
VEE = Preorder.from_pairs(3, [(0, 1), (0, 2)])          # one bottom, two tops
WEDGE = Preorder.from_pairs(3, [(0, 2), (1, 2)])        # two bottoms, one top
MIN_S1 = Preorder.from_pairs(4, [(0, 2), (0, 3), (1, 2), (1, 3)])
PAIR_CLASS = Preorder.from_pairs(3, [(0, 1), (1, 0), (0, 2)])  # {0,1} < {2}


def is_convex(pre: Preorder, bits: int) -> bool:
    """bits equals the intersection of its upset and downset.

    On a finite carrier these are exactly the lambda-closed subsets of the
    Alexandrov topology.
    """
    up_a = 0
    down_a = 0
    for x in bit_indices(bits):
        up_a |= pre.up[x]
        down_a |= pre.down[x]
    return up_a & down_a == bits


class TestBasics:
    def test_strict_vs_class_strict(self):
        up, down, cls = PAIR_CLASS.up, PAIR_CLASS.down, PAIR_CLASS.cls
        assert up[0] & ~(1 << 0) == 0b110
        assert up[0] & ~cls[0] == 0b100
        assert down[2] & ~(1 << 2) == 0b011
        assert down[2] & ~cls[2] == 0b011

    def test_minimal_maximal(self):
        up, down, cls = PAIR_CLASS.up, PAIR_CLASS.down, PAIR_CLASS.cls
        assert down[0] == cls[0] and down[1] == cls[1]
        assert down[2] != cls[2]
        assert up[2] == cls[2]
        assert minimal_mask(PAIR_CLASS) == 0b011

    def test_tops_bottoms(self):
        assert tops_mask(CHAIN3) == 0b100
        assert bottoms_mask(CHAIN3) == 0b001
        assert tops_mask(VEE) == 0
        assert bottoms_mask(VEE) == 0b001
        assert tops_mask(WEDGE) == 0b100
        assert bottoms_mask(WEDGE) == 0


class TestHeights:
    def test_chain(self):
        per_point, ht = heights(CHAIN3)
        assert per_point == (0, 1, 2)
        assert ht == 2

    def test_classes_not_points(self):
        per_point, ht = heights(PAIR_CLASS)
        assert per_point == (0, 0, 1)
        assert ht == 1

    def test_antichain(self):
        pre = Preorder.from_pairs(3, [])
        assert heights(pre) == ((0, 0, 0), 0)

    def test_empty(self):
        assert heights(Preorder(0, ())) == ((), 0)


class TestShapes:
    def test_pre_chain(self):
        assert is_pre_chain(CHAIN3, 0b111)
        assert not is_pre_chain(VEE, 0b111)
        assert is_pre_chain(VEE, 0b011)
        assert is_pre_chain(PAIR_CLASS, 0b111)

    def test_forests(self):
        # branching upward from the bottom of the vee means downsets stay
        # chains (upward forest); the wedge branches downward instead
        assert is_downward_forest(CHAIN3) and is_upward_forest(CHAIN3)
        assert not is_downward_forest(VEE) and is_upward_forest(VEE)
        assert is_downward_forest(WEDGE) and not is_upward_forest(WEDGE)
        assert not is_downward_forest(MIN_S1) and not is_upward_forest(MIN_S1)

    def test_down_directed(self):
        assert is_down_directed(VEE, 0b111)
        assert not is_down_directed(WEDGE, 0b011)

    def test_down_discrete(self):
        assert is_down_discrete(CHAIN3)
        assert is_down_discrete(Preorder.from_pairs(2, []))
        # 0 < 1 ~ 2 < 3 collapses whole classes, still discrete steps
        pre = Preorder.from_pairs(4, [(0, 1), (1, 2), (2, 1), (1, 3)])
        assert is_down_discrete(pre)


class TestConvexity:
    def test_examples(self):
        assert is_convex(CHAIN3, 0b010)
        assert is_convex(CHAIN3, 0b011)
        assert not is_convex(CHAIN3, 0b101)

    def test_matches_lambda_closed(self):
        for pre in (CHAIN3, VEE, WEDGE, MIN_S1, PAIR_CLASS):
            top = alexandrov(pre)
            for a in range(1 << pre.n):
                lambda_closed = top.kernel_bits(a) & top.closure_bits(a) == a
                assert is_convex(pre, a) == lambda_closed


class TestMinS1:
    def test_witness_found(self):
        assert min_s1_witness(MIN_S1) == (0, 1, 2, 3)

    def test_free_cases(self):
        for pre in (CHAIN3, VEE, WEDGE, PAIR_CLASS):
            assert min_s1_witness(pre) is None

    def test_ignores_extra_relations(self):
        # a diamond with bottom is not the pattern: the bottom relates to all
        pre = Preorder.from_pairs(5, [(4, 0), (4, 1), (0, 2), (0, 3), (1, 2), (1, 3)])
        assert min_s1_witness(pre) == (0, 1, 2, 3)

    def test_class_level_pattern(self):
        # doubling one leg into a two-point class keeps the pattern
        pre = Preorder.from_pairs(5, [(0, 4), (4, 0), (0, 2), (0, 3), (1, 2), (1, 3)])
        w = min_s1_witness(pre)
        assert w == (0, 1, 2, 3)


class TestBouquet:
    def test_min_s1_has_no_root(self):
        assert bouquet_root(MIN_S1) is None

    def test_wedge_root(self):
        # deleting either bottom of the wedge leaves a chain
        assert bouquet_root(WEDGE) == 0

    def test_downward_forest_any_minimal(self):
        assert bouquet_root(CHAIN3) == 0
        assert bouquet_root(VEE) == 0

    def test_empty(self):
        assert bouquet_root(Preorder(0, ())) is None


class TestComponents:
    def test_connected(self):
        assert comparability_components(CHAIN3) == (0b111,)

    def test_split(self):
        pre = Preorder.from_pairs(4, [(0, 1), (2, 3)])
        assert comparability_components(pre) == (0b0011, 0b1100)

    def test_singletons(self):
        pre = Preorder.from_pairs(2, [])
        assert comparability_components(pre) == (0b01, 0b10)
