"""Decompositions (partitions) of a finite space and their saturated families.

A decomposition F partitions the carrier into nonempty blocks.  The family
tau_F collects the saturations of the open sets; it always contains the
empty set and the carrier and is closed under unions (saturation commutes
with union), so only pairwise intersections can disqualify it from being a
topology.  The module decides that, verifies the containment criterion
(tau_F sits inside the topology iff the closure of every saturated set is
saturated, and containment forces tau_F to be a topology), and builds the
quotient space on the blocks.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator

from .core import FiniteTopology, bit_indices


@dataclass(frozen=True)
class Decomposition:
    """Partition of range(n) into nonempty blocks, stored as bitmasks.

    Blocks are kept sorted by least member, which fixes the block indexing
    used by quotient spaces.
    """

    n: int
    blocks: tuple[int, ...]

    def __post_init__(self):
        full = (1 << self.n) - 1
        seen = 0
        for b in self.blocks:
            if b == 0:
                raise ValueError("empty block")
            if b & ~full:
                raise ValueError("block outside universe")
            if b & seen:
                raise ValueError("blocks overlap")
            seen |= b
        if seen != full:
            raise ValueError("blocks do not cover the universe")
        ordered = tuple(sorted(self.blocks, key=lambda b: b & -b))
        object.__setattr__(self, "blocks", ordered)

    @classmethod
    def from_blocks(cls, n: int, blocks: Iterable[Iterable[int]]) -> Decomposition:
        masks = []
        for block in blocks:
            m = 0
            for p in block:
                m |= 1 << p
            masks.append(m)
        return cls(n, tuple(masks))

    @cached_property
    def block_of(self) -> tuple[int, ...]:
        out = [0] * self.n
        for i, b in enumerate(self.blocks):
            for p in bit_indices(b):
                out[p] = i
        return tuple(out)

    def saturate_bits(self, bits: int) -> int:
        out = 0
        for b in self.blocks:
            if b & bits:
                out |= b
        return out


def class_partition(top: FiniteTopology) -> Decomposition:
    """The partition into closure-equality classes."""
    return Decomposition(top.n, tuple(sorted(set(top.point_classes), key=lambda b: b & -b)))


@dataclass(frozen=True, eq=False)
class TauFResult:
    family: tuple[int, ...]
    is_topology: bool
    witness: dict | None


def tau_F(top: FiniteTopology, dec: Decomposition) -> TauFResult:
    """Saturations of the opens, plus whether they form a topology.

    Unions of saturations are saturations of unions, so the family is
    union-closed for free and only pairwise intersections are tested.  The
    witness names the least pair of opens whose saturations' intersection
    escapes the family.
    """
    if dec.n != top.n:
        raise ValueError("universe size mismatch")
    generator: dict[int, int] = {}
    for u in top.opens:
        s = dec.saturate_bits(u)
        if s not in generator:
            generator[s] = u
    family = tuple(sorted(generator))
    fam_set = set(family)
    for i, a in enumerate(family):
        for b in family[i + 1:]:
            meet = a & b
            if meet not in fam_set:
                return TauFResult(family, False, {
                    "opens": [sorted(bit_indices(generator[a])), sorted(bit_indices(generator[b]))],
                    "saturations": [sorted(bit_indices(a)), sorted(bit_indices(b))],
                    "intersection": sorted(bit_indices(meet)),
                })
    return TauFResult(family, True, None)


@dataclass(frozen=True, eq=False)
class ContainmentResult:
    """Outcome of the containment criterion for tau_F."""
    tau_f_contained: bool
    closures_saturated: bool
    equivalence_ok: bool
    topology_when_contained_ok: bool
    ok: bool
    witness: dict | None


def lemma001_check(top: FiniteTopology, dec: Decomposition) -> ContainmentResult:
    """Verify tau_F containment iff saturated closures, on one (space, partition).

    Two facts are replayed: tau_F is contained in the topology exactly when
    the closure of every saturated subset is saturated, and containment
    forces tau_F to be a topology.
    """
    result = tau_F(top, dec)
    contained = all(s in top.opens_set for s in result.family)

    closures_ok = True
    closure_witness = None
    k = len(dec.blocks)
    for combo in range(1 << k):
        sat = 0
        for i in range(k):
            if combo >> i & 1:
                sat |= dec.blocks[i]
        cl = top.closure_bits(sat)
        if dec.saturate_bits(cl) != cl:
            closures_ok = False
            closure_witness = {"saturated_set": sorted(bit_indices(sat)),
                               "closure": sorted(bit_indices(cl))}
            break

    equivalence_ok = contained == closures_ok
    topology_ok = not contained or result.is_topology
    ok = equivalence_ok and topology_ok
    witness = None
    if not equivalence_ok:
        witness = {"tau_f_contained": contained, "closures_saturated": closures_ok,
                   "closure_witness": closure_witness}
    elif not topology_ok:
        witness = {"tau_f_contained": True, "intersection_witness": result.witness}
    return ContainmentResult(contained, closures_ok, equivalence_ok, topology_ok, ok, witness)


def quotient(top: FiniteTopology, dec: Decomposition) -> FiniteTopology:
    """Quotient topology on the blocks: open iff the preimage union is open."""
    if dec.n != top.n:
        raise ValueError("universe size mismatch")
    k = len(dec.blocks)
    opens = []
    for combo in range(1 << k):
        pre = 0
        for i in range(k):
            if combo >> i & 1:
                pre |= dec.blocks[i]
        if pre in top.opens_set:
            opens.append(combo)
    return FiniteTopology(k, tuple(sorted(opens)))


def iter_partitions(n: int) -> Iterator[Decomposition]:
    """All partitions of range(n) in restricted-growth-string order."""
    if n == 0:
        yield Decomposition(0, ())
        return

    code = [0] * n

    def rec(i: int, maxcode: int) -> Iterator[Decomposition]:
        if i == n:
            k = maxcode + 1
            masks = [0] * k
            for p, c in enumerate(code):
                masks[c] |= 1 << p
            yield Decomposition(n, tuple(masks))
            return
        for c in range(maxcode + 2):
            code[i] = c
            yield from rec(i + 1, max(maxcode, c))

    yield from rec(1, 0)
