from __future__ import annotations

import pytest

from finitetop.core import FiniteTopology, bit_indices
from finitetop.decomp import (
    Decomposition,
    class_partition,
    iter_partitions,
    lemma001_check,
    quotient,
    tau_F,
)

from test_core import all_topologies_brute

FIVE = FiniteTopology(5, (0, 0b00011, 0b01100, 0b01111, 0b11111))
CROSSING = Decomposition.from_blocks(5, [[0, 2], [1, 4], [3]])


class TestDecomposition:
    def test_sorted_by_least_member(self):
        dec = Decomposition.from_blocks(3, [[2], [0, 1]])
        assert dec.blocks == (0b011, 0b100)

    def test_block_of(self):
        assert CROSSING.block_of == (0, 1, 0, 2, 1)

    def test_rejects_overlap(self):
        with pytest.raises(ValueError):
            Decomposition.from_blocks(3, [[0, 1], [1, 2]])

    def test_rejects_gap(self):
        with pytest.raises(ValueError):
            Decomposition.from_blocks(3, [[0, 1]])

    def test_rejects_empty_block(self):
        with pytest.raises(ValueError):
            Decomposition.from_blocks(3, [[0, 1, 2], []])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            Decomposition.from_blocks(2, [[0, 1, 2]])

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
        dec = Decomposition.from_blocks(5, [[0, 1, 2, 3, 4]])
        r = tau_F(FIVE, dec)
        assert r.is_topology
        assert set(r.family) == {0, 0b11111}

    def test_discrete_partition_saturates_nothing(self):
        dec = Decomposition.from_blocks(5, [[i] for i in range(5)])
        r = tau_F(FIVE, dec)
        assert set(r.family) == set(FIVE.opens)
        assert r.is_topology


class TestLemma001:
    def test_equivalence_small(self):
        for n in range(4):
            for top in all_topologies_brute(n):
                for dec in iter_partitions(n):
                    r = lemma001_check(top, dec)
                    assert r.equivalence_ok, (top.opens, dec.blocks)
                    assert r.tau_f_contained == r.closures_saturated
                    assert r.topology_when_contained_ok
                    assert r.ok

    def test_crossing_not_contained(self):
        r = lemma001_check(FIVE, CROSSING)
        assert not r.tau_f_contained
        assert not r.closures_saturated
        assert r.ok


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
