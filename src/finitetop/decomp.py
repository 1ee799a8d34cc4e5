"""Decompositions (partitions) of a finite space and their saturated families.

A decomposition F partitions the carrier into nonempty blocks.  The family
tau_F collects the saturations of the open sets; it always contains the
empty set and the carrier and is closed under unions (saturation commutes
with union), so only pairwise intersections can disqualify it from being a
topology.  The module decides that, verifies the containment criterion
(tau_F sits inside the topology iff the closure of every saturated set is
saturated, and containment forces tau_F to be a topology), and builds the
quotient space on the blocks.  Every union of blocks is read from the
blocks' union table (``core.union_table``), indexed by the set of blocks,
and the quotient is ``FiniteTopology.quotient``, the construction the class
space uses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .core import FiniteTopology, bit_indices, union_table


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

    def saturate_bits(self, bits: int) -> int:
        out = 0
        for b in self.blocks:
            if b & bits:
                out |= b
        return out


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


def lemma001_check(top: FiniteTopology, dec: Decomposition) -> dict | None:
    """Verify tau_F containment iff saturated closures, on one (space, partition).

    Two facts are replayed: tau_F is contained in the topology exactly when
    the closure of every saturated subset is saturated, and containment
    forces tau_F to be a topology.  The saturated subsets are the entries
    of the blocks' union table, read in order of their set of blocks.
    Returns None when both hold, else the witness of the first that fails.
    """
    result = tau_F(top, dec)
    contained = all(s in top.opens_set for s in result.family)

    closure_witness = None
    for sat in union_table(dec.blocks):
        cl = top.closure_bits(sat)
        if dec.saturate_bits(cl) != cl:
            closure_witness = {"saturated_set": sorted(bit_indices(sat)),
                               "closure": sorted(bit_indices(cl))}
            break

    closures_ok = closure_witness is None
    if contained != closures_ok:
        return {"tau_f_contained": contained, "closures_saturated": closures_ok,
                "closure_witness": closure_witness}
    if contained and not result.is_topology:
        return {"tau_f_contained": True, "intersection_witness": result.witness}
    return None


def quotient(top: FiniteTopology, dec: Decomposition) -> FiniteTopology:
    """Quotient topology on the blocks: open iff the preimage union is open.

    This is ``FiniteTopology.quotient`` on the blocks, after the size check.
    """
    if dec.n != top.n:
        raise ValueError("universe size mismatch")
    return top.quotient(dec.blocks)


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
