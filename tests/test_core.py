from __future__ import annotations

from functools import reduce
from operator import and_, or_

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finitetop.core import (
    FiniteTopology,
    MissingEmptyOrFullError,
    NotClosedUnderIntersectionError,
    NotClosedUnderUnionError,
    Preorder,
    TopologyError,
    alexandrov,
    bit_indices,
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


def _reference_validate(n: int, opens) -> FiniteTopology:
    """validate_topology as a literal pairwise scan: the oracle for its fast accept."""
    if n < 0:
        raise ValueError("point count must be nonnegative")
    full = (1 << n) - 1
    fam: set[int] = set()
    for u in opens:
        if not 0 <= u <= full:
            raise TopologyError(f"bitmap {u:#x} outside universe of size {n}")
        fam.add(u)
    if 0 not in fam or full not in fam:
        raise MissingEmptyOrFullError("family must contain the empty set and the whole space")
    ordered = sorted(fam)
    for i, u in enumerate(ordered):
        for v in ordered[i + 1:]:
            if u | v not in fam:
                raise NotClosedUnderUnionError((u, v))
            if u & v not in fam:
                raise NotClosedUnderIntersectionError((u, v))
    return FiniteTopology(n, tuple(ordered))


def _outcome(validate, n: int, fam) -> object:
    """The accepted topology, or the rejection's class, witness and message."""
    try:
        return validate(n, fam)
    except TopologyError as exc:
        return type(exc), getattr(exc, "witness", None), str(exc)


def _assert_same_as_reference(n: int, fam) -> object:
    got = _outcome(validate_topology, n, fam)
    assert got == _outcome(_reference_validate, n, fam), (n, sorted(fam))
    return got


@st.composite
def _families(draw):
    """Families over at most 7 points: topologies, topologies with one set
    removed that breaks union or intersection closure or with the empty set
    dropped, and arbitrary families holding the empty and the full set."""
    kind = draw(st.sampled_from(["valid", "union", "intersection", "no-empty", "any"]))
    if kind == "any":
        n = draw(st.integers(4, 7))
        full = (1 << n) - 1
        return kind, n, draw(st.sets(st.integers(0, full), max_size=40)) | {0, full}
    n = draw(st.integers(1, 7))
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=2 * n))
    top = alexandrov(Preorder.from_pairs(n, pairs))
    fam = set(top.opens)
    if kind == "no-empty":
        fam.discard(0)
    elif kind != "valid":
        def reducible(w: int) -> bool:
            if kind == "union":
                return w == reduce(or_, (u for u in fam if u != w and u & ~w == 0), 0)
            return w == reduce(and_, (u for u in fam if u != w and w & ~u == 0), top.full_bits)
        candidates = sorted(w for w in fam if w not in (0, top.full_bits) and reducible(w))
        if not candidates:
            return "valid", n, fam
        fam.discard(draw(st.sampled_from(candidates)))
    return kind, n, fam


class TestValidateOracle:
    def test_every_family_up_to_3_points(self):
        for n in range(4):
            for pick in range(1 << (1 << n)):
                _assert_same_as_reference(n, [s for s in range(1 << n) if pick >> s & 1])

    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(_families())
    def test_random_families_up_to_7_points(self, case):
        kind, n, fam = case
        got = _assert_same_as_reference(n, fam)
        if kind != "any":
            assert isinstance(got, FiniteTopology) == (kind == "valid"), (kind, got)
        if kind == "no-empty":
            assert got[0] is MissingEmptyOrFullError


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
        q, mapping = pre.class_space()
        # classes {0,1} and {2}, by least member
        assert mapping == (0, 0, 1)
        assert q.up == (0b11, 0b10)
        assert q.n == 2


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
