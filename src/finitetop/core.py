"""Finite topological spaces stored as explicit open-set families.

Every finite topology is Alexandrov: the intersection of all opens containing
a point is itself open, and the open sets are exactly the upsets of the
specialization preorder (x <= y iff x lies in the closure of {y}).  That
correspondence makes topologies and preorders interconvertible without loss,
but the open family is always stored explicitly so that set-level operations
(closure, kernel, lambda-closure) are computed from the family itself and
never silently route through the order side.

Points are opaque ids 0..n-1; subsets are bitmaps over those ids.  Three
kernels do the bit arithmetic that both routes share, and encode no axiom:
``transpose`` turns up-rows into down-rows (and point closures into
up-rows), ``union_table`` gives the union of the rows over every subset,
and ``FiniteTopology.quotient`` reads the open entries of the blocks' union
table, which is both the class space and the quotient by a decomposition.

Each route has one class space, ``FiniteTopology.class_space`` and
``Preorder.class_space``, with the same conventions: class ids go by least
member, and a T0 space is its own class space.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Sequence

# the enumeration caps, kept here so the command line can state them
# without importing the enumerator: the labeled routes walk every labeled
# preorder (9,535,241 on 7 points); the class routes generate the
# relabeling classes (35,979 on 8 points)
MAX_LABELED_POINTS = 7
MAX_CLASS_POINTS = 8


class TopologyError(ValueError):
    """An open-set family violates the topology axioms."""


class MissingEmptyOrFullError(TopologyError):
    pass


def _braces(bits: int) -> str:
    return "{" + ",".join(map(str, bit_indices(bits))) + "}"


class NotClosedUnderUnionError(TopologyError):
    def __init__(self, witness: tuple[int, int]):
        self.witness = witness
        super().__init__(
            f"opens {_braces(witness[0])} and {_braces(witness[1])} have a union outside the family"
        )


class NotClosedUnderIntersectionError(TopologyError):
    def __init__(self, witness: tuple[int, int]):
        self.witness = witness
        super().__init__(
            f"opens {_braces(witness[0])} and {_braces(witness[1])} have an intersection outside the family"
        )


def bit_indices(bits: int) -> Iterator[int]:
    """Yield the set point ids of a bitmap in increasing order."""
    while bits:
        low = bits & -bits
        yield low.bit_length() - 1
        bits ^= low


def transpose(rows: Sequence[int]) -> tuple[int, ...]:
    """The transpose of a square bit matrix: bit x of out[y] is bit y of rows[x]."""
    out = [0] * len(rows)
    for x, row in enumerate(rows):
        bit = 1 << x
        while row:
            low = row & -row
            out[low.bit_length() - 1] |= bit
            row ^= low
    return tuple(out)


def union_table(rows: Iterable[int]) -> list[int]:
    """table[a] is the union of rows[x] over the points x of the bitmap a.

    Built by doubling: the table of the first x rows covers the bitmaps
    below 1 << x, and row x appends a copy of it with the row joined into
    each entry, so every entry costs one union.
    """
    table = [0]
    for row in rows:
        table += [t | row for t in table]
    return table


def validate_topology(n: int, opens: Iterable[int]) -> FiniteTopology:
    """Check a family of subsets and return the canonical topology value.

    The family must contain the empty set and the full set and be closed
    under union and intersection.  Duplicates are dropped and the family is
    stored sorted ascending by bitmap value.

    Acceptance costs O(|F|*n): with K_x the intersection of the members
    containing x, the family is a topology iff it holds u | K_x for every
    member u and point x (u = 0 puts each K_x in it).  That suffices since
    every member v, and every u & v, is the union of K_x over its points, so
    adding one K_x at a time stays in the family.  A family failing the test
    goes to the pairwise scan, which names the rejection's witness pair.
    """
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
    top = FiniteTopology(n, tuple(ordered))
    if all(u | k in fam for k in top.point_kernels for u in ordered):
        return top
    for i, u in enumerate(ordered):
        for v in ordered[i + 1:]:
            if u | v not in fam:
                raise NotClosedUnderUnionError((u, v))
            if u & v not in fam:
                raise NotClosedUnderIntersectionError((u, v))
    return top


@dataclass(frozen=True)
class FiniteTopology:
    """A topology on points 0..n-1 as its sorted, deduplicated open family.

    Construct through validate_topology / alexandrov / disjoint_union unless
    the family is already known to be valid and canonically ordered.
    """

    n: int
    opens: tuple[int, ...]

    @cached_property
    def full_bits(self) -> int:
        return (1 << self.n) - 1

    @cached_property
    def opens_set(self) -> frozenset[int]:
        return frozenset(self.opens)

    @cached_property
    def closed(self) -> tuple[int, ...]:
        """Closed sets: complements of opens, sorted ascending."""
        full = self.full_bits
        return tuple(sorted(full ^ u for u in self.opens))

    @cached_property
    def closed_set(self) -> frozenset[int]:
        return frozenset(self.closed)

    def closure_bits(self, a: int) -> int:
        """Smallest closed superset: intersection of all closed sets containing a."""
        acc = self.full_bits
        for c in self.closed:
            if a & ~c == 0:
                acc &= c
        return acc

    def kernel_bits(self, a: int) -> int:
        """Intersection of all opens containing a (itself open on a finite carrier)."""
        acc = self.full_bits
        for u in self.opens:
            if a & ~u == 0:
                acc &= u
        return acc

    def interior_bits(self, a: int) -> int:
        """Largest open subset: union of all opens inside a."""
        acc = 0
        for u in self.opens:
            if u & ~a == 0:
                acc |= u
        return acc

    @cached_property
    def point_closures(self) -> tuple[int, ...]:
        return tuple(self.closure_bits(1 << x) for x in range(self.n))

    @cached_property
    def point_kernels(self) -> tuple[int, ...]:
        return tuple(self.kernel_bits(1 << x) for x in range(self.n))

    def specialization(self) -> Preorder:
        """x <= y iff x lies in the closure of {y}; upsets of this preorder are the opens.

        The up-rows are the transpose of the point closures.
        """
        return Preorder(self.n, transpose(self.point_closures))

    @cached_property
    def point_classes(self) -> tuple[int, ...]:
        """point_classes[x] is the bitmap of points sharing the closure of {x}."""
        cl = self.point_closures
        out = [0] * self.n
        for x in range(self.n):
            cx = cl[x]
            m = 0
            for y in range(self.n):
                if cl[y] == cx:
                    m |= 1 << y
            out[x] = m
        return tuple(out)

    def quotient(self, blocks: Sequence[int]) -> FiniteTopology:
        """The quotient topology on a partition of the points into blocks.

        Bit i of a quotient set stands for blocks[i], and a set of blocks is
        open iff the union of its blocks is.  The union table of the blocks
        lists those unions by quotient set in ascending order, so the open
        entries come out sorted.
        """
        opens = self.opens_set
        return FiniteTopology(len(blocks), tuple(
            i for i, u in enumerate(union_table(blocks)) if u in opens))

    def class_space(self) -> tuple[FiniteTopology, tuple[int, ...]]:
        """Identify points with equal singleton closures.

        Returns the quotient topology on the classes together with the
        point -> class id mapping.  Class ids are assigned in order of the
        least member, so the result is canonical.  The quotient of the
        quotient is discrete-classed: the construction is idempotent, and a
        T0 space is its own class space.
        """
        classes = self.point_classes
        if all(m == 1 << x for x, m in enumerate(classes)):
            return self, tuple(range(self.n))
        blocks = list(dict.fromkeys(classes))
        return self.quotient(blocks), tuple(map(blocks.index, classes))


@dataclass(frozen=True)
class Preorder:
    """A reflexive transitive relation; up[x] is the bitmap {y : x <= y}."""

    n: int
    up: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.up) != self.n:
            raise ValueError("row count does not match point count")
        full = (1 << self.n) - 1
        for x, row in enumerate(self.up):
            if not 0 <= row <= full:
                raise ValueError(f"row {x} outside universe")
            if row >> x & 1 == 0:
                raise ValueError(f"relation not reflexive at {x}")
        for x, row in enumerate(self.up):
            r = row
            while r:
                low = r & -r
                y = low.bit_length() - 1
                r ^= low
                if self.up[y] & ~row:
                    raise ValueError(f"relation not transitive through {x} <= {y}")

    @classmethod
    def from_pairs(cls, n: int, pairs: Iterable[tuple[int, int]]) -> Preorder:
        """Reflexive-transitive closure of the given x <= y pairs."""
        up = [1 << x for x in range(n)]
        for x, y in pairs:
            if not (0 <= x < n and 0 <= y < n):
                raise ValueError(f"pair ({x},{y}) outside universe of size {n}")
            up[x] |= 1 << y
        changed = True
        while changed:
            changed = False
            for x in range(n):
                row = up[x]
                acc = row
                r = row
                while r:
                    low = r & -r
                    acc |= up[low.bit_length() - 1]
                    r ^= low
                if acc != row:
                    up[x] = acc
                    changed = True
        return cls(n, tuple(up))

    @cached_property
    def down(self) -> tuple[int, ...]:
        """down[y] is the bitmap {x : x <= y}, the transpose of the up-rows."""
        return transpose(self.up)

    @cached_property
    def cls(self) -> tuple[int, ...]:
        """cls[x] is the bitmap of the equivalence class x^ = up(x) & down(x)."""
        down = self.down
        return tuple(self.up[x] & down[x] for x in range(self.n))

    def class_space(self) -> tuple[Preorder, tuple[int, ...]]:
        """The partial order on the equivalence classes and the point -> class map.

        As in FiniteTopology.class_space, class ids go by least member and a
        partial order is its own class space.  Row i of the quotient holds
        the classes that meet the up-row of class i's least member.  Built
        once per preorder and cached, so its callers share one build.
        """
        q, mapping = self._quotient
        return (self if q is None else q), mapping

    @cached_property
    def _quotient(self) -> tuple[Preorder | None, tuple[int, ...]]:
        # a partial order stores None, not itself, so that no preorder
        # refers to itself and each is freed by reference counting alone
        blocks = list(dict.fromkeys(self.cls))
        if len(blocks) == self.n:
            return None, tuple(range(self.n))
        up = [self.up[(b & -b).bit_length() - 1] for b in blocks]
        rows = tuple(sum(1 << j for j, c in enumerate(blocks) if c & u) for u in up)
        return Preorder(len(blocks), rows), tuple(map(blocks.index, self.cls))


def alexandrov(pre: Preorder) -> FiniteTopology:
    """The topology whose opens are exactly the upsets of the preorder."""
    # s is an upset iff the union of up[x] over its points adds nothing to it
    return FiniteTopology(pre.n, tuple(s for s, u in enumerate(union_table(pre.up)) if u == s))


def disjoint_union(tops: Iterable[FiniteTopology]) -> FiniteTopology:
    """Topological sum: points are renumbered by summand offset.

    Opens are all unions of one open per summand, so the family size is the
    product of the summand family sizes.
    """
    tops = list(tops)
    fam = [0]
    offset = 0
    for t in tops:
        fam = [u | (v << offset) for u in fam for v in t.opens]
        offset += t.n
    return FiniteTopology(offset, tuple(sorted(fam)))
