"""Finite topological spaces stored as explicit open-set families.

Every finite topology is Alexandrov: the intersection of all opens containing
a point is itself open, and the open sets are exactly the upsets of the
specialization preorder (x <= y iff x lies in the closure of {y}).  That
correspondence makes topologies and preorders interconvertible without loss,
but the open family is always stored explicitly so that set-level operations
(closure, kernel, lambda-closure) are computed from the family itself and
never silently route through the order side.

Points are opaque ids 0..n-1; subsets are bitmaps over those ids.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator


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


def validate_topology(n: int, opens: Iterable[int]) -> FiniteTopology:
    """Check a family of subsets and return the canonical topology value.

    The family must contain the empty set and the full set and be closed
    under pairwise union and intersection (which on a finite carrier is
    closure under arbitrary unions and intersections).  Duplicates are
    dropped and the family is stored sorted ascending by bitmap value.
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
    for i, u in enumerate(ordered):
        for v in ordered[i + 1:]:
            if u | v not in fam:
                raise NotClosedUnderUnionError((u, v))
            if u & v not in fam:
                raise NotClosedUnderIntersectionError((u, v))
    return FiniteTopology(n, tuple(ordered))


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

    def lambda_closure_bits(self, a: int) -> int:
        """kernel(A) intersected with closure(A); fixed points are the lambda-closed sets."""
        return self.kernel_bits(a) & self.closure_bits(a)

    def is_lambda_closed(self, a: int) -> bool:
        return self.lambda_closure_bits(a) == a

    def shell_bits(self, a: int) -> int:
        """closure(A) minus A."""
        return self.closure_bits(a) & ~a

    @cached_property
    def point_closures(self) -> tuple[int, ...]:
        return tuple(self.closure_bits(1 << x) for x in range(self.n))

    @cached_property
    def point_kernels(self) -> tuple[int, ...]:
        return tuple(self.kernel_bits(1 << x) for x in range(self.n))

    def specialization(self) -> Preorder:
        """x <= y iff x lies in the closure of {y}; upsets of this preorder are the opens."""
        cl = self.point_closures
        up = [0] * self.n
        for y in range(self.n):
            cy = cl[y]
            for x in bit_indices(cy):
                up[x] |= 1 << y
        return Preorder(self.n, tuple(up))

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

    def class_space(self) -> tuple[FiniteTopology, tuple[int, ...]]:
        """Identify points with equal singleton closures.

        Returns the quotient topology on the classes together with the
        point -> class id mapping.  Class ids are assigned in order of the
        least member, so the result is canonical.  The quotient of the
        quotient is discrete-classed: the construction is idempotent.
        """
        classes = self.point_classes
        blocks: list[int] = []
        seen: set[int] = set()
        for x in range(self.n):
            m = classes[x]
            if m not in seen:
                seen.add(m)
                blocks.append(m)
        mapping = tuple(blocks.index(classes[x]) for x in range(self.n))
        q_opens: set[int] = set()
        for u in self.opens:
            mask = 0
            for i, b in enumerate(blocks):
                if b & u:
                    mask |= 1 << i
            q_opens.add(mask)
        return FiniteTopology(len(blocks), tuple(sorted(q_opens))), mapping


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

    def leq(self, x: int, y: int) -> bool:
        return self.up[x] >> y & 1 == 1

    @cached_property
    def down(self) -> tuple[int, ...]:
        """down[y] is the bitmap {x : x <= y}."""
        out = [0] * self.n
        for x, row in enumerate(self.up):
            r = row
            while r:
                low = r & -r
                out[low.bit_length() - 1] |= 1 << x
                r ^= low
        return tuple(out)

    @cached_property
    def cls(self) -> tuple[int, ...]:
        """cls[x] is the bitmap of the equivalence class x^ = up(x) & down(x)."""
        down = self.down
        return tuple(self.up[x] & down[x] for x in range(self.n))

    @cached_property
    def class_poset(self) -> ClassPoset:
        """The partial order induced on the equivalence classes."""
        cls = self.cls
        blocks: list[int] = []
        seen: set[int] = set()
        for x in range(self.n):
            m = cls[x]
            if m not in seen:
                seen.add(m)
                blocks.append(m)
        reps = [b & -b for b in blocks]
        leq = []
        for b in reps:
            row = 0
            up_x = self.up[b.bit_length() - 1]
            for j, c in enumerate(reps):
                if up_x >> (c.bit_length() - 1) & 1:
                    row |= 1 << j
            leq.append(row)
        return ClassPoset(self.n, tuple(blocks), tuple(leq))


def alexandrov(pre: Preorder) -> FiniteTopology:
    """The topology whose opens are exactly the upsets of the preorder."""
    n = pre.n
    up = pre.up
    opens = []
    for s in range(1 << n):
        r = s
        ok = True
        while r:
            low = r & -r
            if up[low.bit_length() - 1] & ~s:
                ok = False
                break
            r ^= low
        if ok:
            opens.append(s)
    return FiniteTopology(n, tuple(opens))


@dataclass(frozen=True)
class ClassPoset:
    """The partial order induced on closure-equality classes.

    blocks are bitmaps over the source points, ordered by least member;
    leq rows are bitmaps over block ids.
    """

    n_source: int
    blocks: tuple[int, ...]
    leq: tuple[int, ...]

    @cached_property
    def n(self) -> int:
        return len(self.blocks)

    @cached_property
    def block_of(self) -> tuple[int, ...]:
        out = [0] * self.n_source
        for i, b in enumerate(self.blocks):
            for x in bit_indices(b):
                out[x] = i
        return tuple(out)

    def as_preorder(self) -> Preorder:
        return Preorder(self.n, self.leq)


def class_poset(pre: Preorder) -> ClassPoset:
    """Collapse a preorder to the partial order on its equivalence classes.

    The result is cached on the preorder, so every caller holding the same
    preorder shares one build.
    """
    return pre.class_poset


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
