from __future__ import annotations

import pytest

from finitetop.core import (
    FiniteTopology,
    MissingEmptyOrFullError,
    NotClosedUnderIntersectionError,
    NotClosedUnderUnionError,
    Preorder,
    alexandrov,
    bit_indices,
    class_poset,
    disjoint_union,
    validate_topology,
)

SIERPINSKI = FiniteTopology(2, (0, 0b10, 0b11))
INDISCRETE2 = FiniteTopology(2, (0, 0b11))
DISCRETE2 = FiniteTopology(2, (0, 0b01, 0b10, 0b11))


def all_topologies_brute(n: int) -> list[FiniteTopology]:
    """Filter every family of subsets containing 0 and full for closure."""
    full = (1 << n) - 1
    middles = [s for s in range(1, full)]
    out = []
    for pick in range(1 << len(middles)):
        fam = {0, full}
        for i, s in enumerate(middles):
            if pick >> i & 1:
                fam.add(s)
        ok = all(a | b in fam and a & b in fam for a in fam for b in fam)
        if ok:
            out.append(FiniteTopology(n, tuple(sorted(fam))))
    return out


class TestValidate:
    def test_missing_full(self):
        with pytest.raises(MissingEmptyOrFullError):
            validate_topology(2, [0, 0b01])

    def test_missing_empty(self):
        with pytest.raises(MissingEmptyOrFullError):
            validate_topology(2, [0b01, 0b11])

    def test_union_witness(self):
        with pytest.raises(NotClosedUnderUnionError) as exc:
            validate_topology(3, [0, 0b001, 0b010, 0b111])
        assert set(exc.value.witness) == {0b001, 0b010}

    def test_intersection_witness(self):
        with pytest.raises(NotClosedUnderIntersectionError) as exc:
            validate_topology(3, [0, 0b011, 0b110, 0b111])
        assert set(exc.value.witness) == {0b011, 0b110}

    def test_duplicates_dropped(self):
        top = validate_topology(2, [0, 0, 0b11, 0b11])
        assert top.opens == (0, 0b11)

    def test_empty_space(self):
        assert validate_topology(0, [0]).opens == (0,)


class TestOperators:
    def test_closure_kernel_interior_sierpinski(self):
        t = SIERPINSKI
        assert t.closure_bits(0b10) == 0b11
        assert t.closure_bits(0b01) == 0b01
        assert t.kernel_bits(0b01) == 0b11
        assert t.kernel_bits(0b10) == 0b10
        assert t.interior_bits(0b01) == 0
        assert t.interior_bits(0b10) == 0b10

    def test_interior_closure_duality(self):
        for top in all_topologies_brute(3):
            full = (1 << 3) - 1
            for a in range(1 << 3):
                assert top.interior_bits(a) == full & ~top.closure_bits(full & ~a)

    def test_closure_is_least_closed_superset(self):
        for top in all_topologies_brute(3):
            for a in range(1 << 3):
                honest = (1 << 3) - 1
                for c in top.closed:
                    if c & a == a:
                        honest &= c
                assert top.closure_bits(a) == honest

    def test_kernel_is_least_open_superset(self):
        for top in all_topologies_brute(3):
            for a in range(1 << 3):
                honest = (1 << 3) - 1
                for u in top.opens:
                    if u & a == a:
                        honest &= u
                assert top.kernel_bits(a) == honest

    def test_lambda_closure(self):
        for top in all_topologies_brute(3):
            for a in range(1 << 3):
                lam = top.lambda_closure_bits(a)
                assert lam == top.kernel_bits(a) & top.closure_bits(a)
                assert top.is_lambda_closed(a) == (lam == a)

    def test_shell(self):
        t = SIERPINSKI
        assert t.shell_bits(0b10) == 0b01
        assert t.shell_bits(0b01) == 0


class TestSpecialization:
    def test_sierpinski_order(self):
        pre = SIERPINSKI.specialization()
        # 0 lies in every closed set containing 1, so 0 <= 1
        assert pre.up[0] == 0b11
        assert pre.up[1] == 0b10

    def test_roundtrip_all_small(self):
        for n in range(4):
            for top in all_topologies_brute(n):
                assert alexandrov(top.specialization()) == top

    def test_galois_other_direction(self):
        rows = [
            (0b01, 0b10),
            (0b11, 0b10),
            (0b01, 0b11),
        ]
        for up in rows:
            pre = Preorder(2, up)
            assert alexandrov(pre).specialization() == pre


class TestPreorder:
    def test_rejects_irreflexive(self):
        with pytest.raises(ValueError):
            Preorder(2, (0b10, 0b10))

    def test_rejects_intransitive(self):
        with pytest.raises(ValueError):
            Preorder(3, (0b011, 0b110, 0b100))

    def test_from_pairs_closes(self):
        pre = Preorder.from_pairs(3, [(0, 1), (1, 2)])
        assert pre.up[0] == 0b111
        assert pre.up[1] == 0b110
        assert pre.down[2] == 0b111

    def test_from_pairs_range_check(self):
        with pytest.raises(ValueError):
            Preorder.from_pairs(2, [(0, 2)])

    def test_cls(self):
        pre = Preorder.from_pairs(3, [(0, 1), (1, 0)])
        assert pre.cls[0] == 0b011
        assert pre.cls[2] == 0b100


class TestClassSpace:
    def test_indiscrete_collapses(self):
        qtop, mapping = INDISCRETE2.class_space()
        assert qtop.n == 1
        assert mapping == (0, 0)
        assert qtop.opens == (0, 1)

    def test_t0_space_unchanged(self):
        qtop, mapping = SIERPINSKI.class_space()
        assert qtop.n == 2
        assert mapping == (0, 1)

    def test_mapping_preserves_opens(self):
        for top in all_topologies_brute(3):
            qtop, mapping = top.class_space()
            for u in top.opens:
                image = 0
                for x in bit_indices(u):
                    image |= 1 << mapping[x]
                assert image in qtop.opens_set

    def test_class_poset_blocks(self):
        pre = Preorder.from_pairs(3, [(0, 1), (1, 0), (0, 2)])
        cp = class_poset(pre)
        assert cp.blocks == (0b011, 0b100)
        assert cp.leq == (0b11, 0b10)
        assert cp.as_preorder().n == 2


class TestDisjointUnion:
    def test_two_sierpinski(self):
        u = disjoint_union([SIERPINSKI, SIERPINSKI])
        assert u.n == 4
        assert 0b1010 in u.opens_set
        assert 0b0010 in u.opens_set
        assert 0b0001 not in u.opens_set

    def test_open_count_multiplies(self):
        u = disjoint_union([SIERPINSKI, DISCRETE2])
        assert len(u.opens) == len(SIERPINSKI.opens) * len(DISCRETE2.opens)

    def test_empty_summand_is_identity(self):
        empty = FiniteTopology(0, (0,))
        u = disjoint_union([SIERPINSKI, empty])
        assert u == SIERPINSKI
