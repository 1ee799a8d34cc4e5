"""Order analytics on preorders: heights, forests, patterns.

Strictness is class-strict throughout: x < y means x <= y and not y <= x,
so points inside one equivalence class are never strictly comparable.
Heights count classes, not points: the height of x is the longest strictly
descending chain of classes below x^.
"""

from __future__ import annotations

from .core import Preorder, bit_indices


def minimal_mask(pre: Preorder) -> int:
    m = 0
    for x in range(pre.n):
        if pre.down[x] == pre.cls[x]:
            m |= 1 << x
    return m


def _full_rows(rows: tuple[int, ...]) -> int:
    """The points whose row is the whole carrier."""
    full = (1 << len(rows)) - 1
    m = 0
    for x, row in enumerate(rows):
        if row == full:
            m |= 1 << x
    return m


def tops_mask(pre: Preorder) -> int:
    """Points above everything: down(x) is the whole carrier."""
    return _full_rows(pre.down)


def bottoms_mask(pre: Preorder) -> int:
    """Points below everything: up(x) is the whole carrier."""
    return _full_rows(pre.up)


def heights(pre: Preorder) -> tuple[tuple[int, ...], int]:
    """Per-point heights and the space height.

    height(x) = length of the longest strictly descending class chain from
    x^ downward; the space height is the maximum (0 for the empty carrier).
    Classes are visited by fewest classes below in the quotient partial
    order, so each comes after every class strictly below it, and a point
    takes its class's height.
    """
    q, mapping = pre.class_space()
    down = q.down
    per_class = [0] * q.n
    for i in sorted(range(q.n), key=lambda i: down[i].bit_count()):
        below = down[i] & ~(1 << i)
        if below:
            per_class[i] = 1 + max(per_class[j] for j in bit_indices(below))
    return tuple(per_class[c] for c in mapping), max(per_class, default=0)


def is_pre_chain(pre: Preorder, bits: int) -> bool:
    """Every pair of points in bits is comparable."""
    pts = list(bit_indices(bits))
    for i, a in enumerate(pts):
        ua = pre.up[a]
        da = pre.down[a]
        for b in pts[i + 1:]:
            if not (ua >> b & 1 or da >> b & 1):
                return False
    return True


def is_downward_forest(pre: Preorder) -> bool:
    """The upset of every point is a pre-chain."""
    return all(is_pre_chain(pre, pre.up[x]) for x in range(pre.n))


def is_upward_forest(pre: Preorder) -> bool:
    """The downset of every point is a pre-chain."""
    return all(is_pre_chain(pre, pre.down[x]) for x in range(pre.n))


def is_down_directed(pre: Preorder, bits: int) -> bool:
    """Every pair of points in bits has a common lower bound (anywhere in the carrier)."""
    pts = list(bit_indices(bits))
    for i, a in enumerate(pts):
        da = pre.down[a]
        for b in pts[i + 1:]:
            if da & pre.down[b] == 0:
                return False
    return True


def is_down_discrete(pre: Preorder) -> bool:
    """For every non-minimal x some y < x has down(x) & up(y) == x^ | y^."""
    for x in range(pre.n):
        clsx = pre.cls[x]
        if pre.down[x] == clsx:
            continue
        found = False
        for y in bit_indices(pre.down[x] & ~clsx):
            if pre.down[x] & pre.up[y] == clsx | pre.cls[y]:
                found = True
                break
        if not found:
            return False
    return True


def min_s1_witness(pre: Preorder) -> tuple[int, int, int, int] | None:
    """Find four classes a,b < c,d forming the minimal circle pattern.

    The induced sub-poset on the four classes must consist of exactly the
    strict relations a<c, a<d, b<c, b<d, with a,b mutually incomparable and
    c,d mutually incomparable.  Returns least class representatives
    (a, b, c, d) with a < b and c < d as ids, or None.
    """
    q, mapping = pre.class_space()
    k = q.n
    leq = q.up

    def lt(i: int, j: int) -> bool:
        return bool(leq[i] >> j & 1) and not leq[j] >> i & 1

    def incomp(i: int, j: int) -> bool:
        return not leq[i] >> j & 1 and not leq[j] >> i & 1

    for a in range(k):
        for b in range(a + 1, k):
            if not incomp(a, b):
                continue
            for c in range(k):
                if not (lt(a, c) and lt(b, c)):
                    continue
                for d in range(c + 1, k):
                    if lt(a, d) and lt(b, d) and incomp(c, d):
                        return tuple(map(mapping.index, (a, b, c, d)))
    return None


def _delete_class(pre: Preorder, block: int) -> Preorder:
    keep = [x for x in range(pre.n) if not block >> x & 1]
    index = {x: i for i, x in enumerate(keep)}
    rows = []
    for x in keep:
        row = 0
        for y in bit_indices(pre.up[x]):
            if y in index:
                row |= 1 << index[y]
        rows.append(row)
    return Preorder(len(keep), tuple(rows))


def bouquet_root(pre: Preorder) -> int | None:
    """A minimal class whose deletion leaves a downward forest.

    Returns the least representative point of the first such class, or None.
    The empty carrier has no classes and returns None.
    """
    for x, block in enumerate(pre.cls):
        # x is its class's least member, and minimal
        if block & -block == 1 << x and pre.down[x] == block:
            if is_downward_forest(_delete_class(pre, block)):
                return x
    return None


def comparability_components(pre: Preorder) -> tuple[int, ...]:
    """Connected components of the comparability graph, as bitmaps."""
    n = pre.n
    seen = 0
    comps = []
    for x in range(n):
        if seen >> x & 1:
            continue
        comp = 1 << x
        frontier = 1 << x
        while frontier:
            nxt = 0
            for y in bit_indices(frontier):
                nxt |= pre.up[y] | pre.down[y]
            nxt &= ~comp
            comp |= nxt
            frontier = nxt
        comps.append(comp)
        seen |= comp
    return tuple(comps)
