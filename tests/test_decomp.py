from __future__ import annotations

from typing import Iterable

import pytest

from finitetop import decomp
from finitetop.core import FiniteTopology, bit_indices
from finitetop.decomp import (
    Decomposition,
    TauFResult,
    iter_partitions,
    lemma001_check,
    quotient,
    tau_F,
)
from finitetop.enumerate import _REGISTRY

from test_core import all_topologies_brute


def from_blocks(n: int, blocks: Iterable[Iterable[int]]) -> Decomposition:
    """A decomposition from blocks given as lists of points."""
    masks = []
    for block in blocks:
        m = 0
        for p in block:
            m |= 1 << p
        masks.append(m)
    return Decomposition(n, tuple(masks))


def class_partition(top: FiniteTopology) -> Decomposition:
    """The partition into closure-equality classes."""
    return Decomposition(top.n, tuple(set(top.point_classes)))


def tau_f_contained(top: FiniteTopology, dec: Decomposition) -> bool:
    return all(s in top.opens_set for s in tau_F(top, dec).family)


def closures_saturated(top: FiniteTopology, dec: Decomposition) -> bool:
    """The closure of every union of blocks is a union of blocks."""
    saturated = (a for a in range(1 << top.n) if dec.saturate_bits(a) == a)
    return all(dec.saturate_bits(cl) == cl for cl in map(top.closure_bits, saturated))


FIVE = FiniteTopology(5, (0, 0b00011, 0b01100, 0b01111, 0b11111))
CROSSING = from_blocks(5, [[0, 2], [1, 4], [3]])
DISCRETE5 = from_blocks(5, [[i] for i in range(5)])


class TestDecomposition:
    def test_sorted_by_least_member(self):
        dec = from_blocks(3, [[2], [0, 1]])
        assert dec.blocks == (0b011, 0b100)

    def test_rejects_overlap(self):
        with pytest.raises(ValueError):
            from_blocks(3, [[0, 1], [1, 2]])

    def test_rejects_gap(self):
        with pytest.raises(ValueError):
            from_blocks(3, [[0, 1]])

    def test_rejects_empty_block(self):
        with pytest.raises(ValueError):
            from_blocks(3, [[0, 1, 2], []])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            from_blocks(2, [[0, 1, 2]])

    def test_saturate(self):
        assert CROSSING.saturate_bits(0b00001) == 0b00101
        assert CROSSING.saturate_bits(0b00010) == 0b10010
        assert CROSSING.saturate_bits(0b01000) == 0b01000


class TestTauF:
    def test_crossing_witness(self):
        r = tau_F(FIVE, CROSSING)
        fam = {frozenset(bit_indices(u)) for u in r.family}
        assert fam == {frozenset(), frozenset({0, 2, 3}), frozenset({0, 1, 2, 4}),
                       frozenset({0, 1, 2, 3, 4})}
        assert not r.is_topology
        assert sorted(r.witness["intersection"]) == [0, 2]

    def test_class_partition_always_topology(self):
        for top in all_topologies_brute(3):
            r = tau_F(top, class_partition(top))
            assert r.is_topology

    def test_trivial_partition(self):
        dec = from_blocks(5, [[0, 1, 2, 3, 4]])
        r = tau_F(FIVE, dec)
        assert r.is_topology
        assert set(r.family) == {0, 0b11111}

    def test_discrete_partition_saturates_nothing(self):
        r = tau_F(FIVE, DISCRETE5)
        assert set(r.family) == set(FIVE.opens)
        assert r.is_topology


class TestLemma001:
    def test_equivalence_small(self):
        for n in range(4):
            for top in all_topologies_brute(n):
                for dec in iter_partitions(n):
                    assert lemma001_check(top, dec) is None, (top.opens, dec.blocks)
                    contained = tau_f_contained(top, dec)
                    assert contained == closures_saturated(top, dec), (top.opens, dec.blocks)
                    assert not contained or tau_F(top, dec).is_topology

    def test_crossing_not_contained(self):
        assert not tau_f_contained(FIVE, CROSSING)
        assert not closures_saturated(FIVE, CROSSING)
        assert lemma001_check(FIVE, CROSSING) is None


class TestLemma001Witnesses:
    """The containment law's witness where a patched tau_F makes it fail.

    No real (space, partition) refutes the law, so these dicts never reach
    a verify report; the registered row must hand them on unchanged.
    """

    def test_contained_but_not_a_topology(self, monkeypatch):
        real = decomp.tau_F
        monkeypatch.setattr(decomp, "tau_F", lambda top, dec: TauFResult(
            real(top, dec).family, False, {"opens": [[0], [1]]}))
        want = {"tau_f_contained": True, "intersection_witness": {"opens": [[0], [1]]}}
        assert lemma001_check(FIVE, DISCRETE5) == want
        assert _REGISTRY["tau_f_containment"].check(FIVE, DISCRETE5) == want

    def test_not_contained_with_saturated_closures(self, monkeypatch):
        real = decomp.tau_F
        # {0} is saturated by the discrete partition but not open
        monkeypatch.setattr(decomp, "tau_F", lambda top, dec: TauFResult(
            real(top, dec).family + (0b00001,), True, None))
        assert lemma001_check(FIVE, DISCRETE5) == {
            "tau_f_contained": False, "closures_saturated": True, "closure_witness": None}

    def test_contained_with_an_unsaturated_closure(self, monkeypatch):
        monkeypatch.setattr(decomp, "tau_F", lambda top, dec: TauFResult((0, 0b11111), True, None))
        assert lemma001_check(FIVE, CROSSING) == {
            "tau_f_contained": True, "closures_saturated": False,
            "closure_witness": {"saturated_set": [1, 4], "closure": [0, 1, 4]}}


class TestQuotient:
    def test_matches_class_space(self):
        for top in all_topologies_brute(3):
            qtop, _ = top.class_space()
            assert quotient(top, class_partition(top)) == qtop

    def test_quotient_is_topology(self):
        for top in all_topologies_brute(3):
            for dec in iter_partitions(top.n):
                q = quotient(top, dec)
                assert q.n == len(dec.blocks)
                assert 0 in q.opens_set and (1 << q.n) - 1 in q.opens_set

    def test_crossing_quotient(self):
        q = quotient(FIVE, CROSSING)
        # only the trivial opens survive the crossing blocks
        assert q.opens == (0, 0b111)


class TestIterPartitions:
    def test_bell_numbers(self):
        for n, bell in enumerate((1, 1, 2, 5, 15, 52)):
            assert sum(1 for _ in iter_partitions(n)) == bell

    def test_all_distinct_and_valid(self):
        seen = set()
        for dec in iter_partitions(4):
            assert dec.n == 4
            seen.add(dec.blocks)
        assert len(seen) == 15

    def test_empty_carrier(self):
        decs = list(iter_partitions(0))
        assert len(decs) == 1
        assert decs[0].blocks == ()
