"""Relabeling classes of preorders by isomorph-free generation.

The T0 posets come level by level, each class on n points as a class on
n - 1 points with a new maximal point above one of its order ideals
(B. D. McKay, "Isomorph-free exhaustive generation", J. Algorithms 26
(1998); G. Brinkmann and B. D. McKay, "Posets on up to 16 points", Order
19 (2002)), and a preorder class is a poset class with a positive class
size on each point.  A pruned search puts every candidate in its least
encoding and counts its automorphisms, which merges duplicates and gives
each least-encoded representative its orbit size n!/|Aut|.  The classes
of each size come out ascending by encoding, the order in which the
labeled stream meets their least members.
"""

from __future__ import annotations

from itertools import combinations
from math import factorial
from typing import Sequence

from .core import bit_indices


def _least_encoding(up: Sequence[int]) -> tuple[int, tuple[int, ...], int]:
    """(encoding, up-rows, |Aut|) of the least-encoded relabeling of the preorder ``up``.

    A relabeling lists the points as p_0, ..., p_{n-1}, and row k of its
    encoding holds [p_k <= p_j] for each j.  The search places the points
    one row at a time.  The points not yet placed sit in an ordered list of
    cells, and a branch stands for the relabelings that list them cell by
    cell.  Placing p_k, taken from the first cell, fixes row k: the bits at
    the placed points, the diagonal, then each cell with its points not
    above p_k before those above it, which splits the cell in two.  Only the
    branches whose row k is least go on, so the branches left after the
    last row are the relabelings of least encoding, one per automorphism.
    Twins, points whose transposition is an automorphism, are placed in
    label order only: of the t! orders of a twin class of t points one
    branch is kept, and the t! goes back into |Aut| as a factor.
    """
    n = len(up)
    down = [0] * n
    for x, row in enumerate(up):
        for y in bit_indices(row):
            down[y] |= 1 << x
    # older[x]: the twins of x with a smaller label, all placed before x
    older = [0] * n
    twin_orders = 1
    for x in range(n):
        for y in range(x):
            other = ~(1 << x | 1 << y)
            if (up[x] & other == up[y] & other and down[x] & other == down[y] & other
                    and (up[x] >> y & 1) == (up[y] >> x & 1)):
                older[x] |= 1 << y
        twin_orders *= older[x].bit_count() + 1
    code = 0
    branches = [((), ((1 << n) - 1,) if n else ())]
    for _ in range(n):
        least, survivors = -1, []
        for placed, cells in branches:
            first = cells[0]
            for x in bit_indices(first):
                if older[x] & first:
                    continue
                above = up[x]
                row = 0
                for p in placed:
                    row = row << 1 | (above >> p & 1)
                row = row << 1 | 1
                split = []
                for cell in (first ^ 1 << x, *cells[1:]):
                    upper = cell & above
                    row = row << cell.bit_count() | ((1 << upper.bit_count()) - 1)
                    if upper != cell:
                        split.append(cell ^ upper)
                    if upper:
                        split.append(upper)
                if row < least or least < 0:
                    least, survivors = row, []
                if row == least:
                    survivors.append((placed + (x,), tuple(split)))
        code = code << n | least
        branches = survivors
    order = branches[0][0]
    label = {x: i for i, x in enumerate(order)}
    rows = tuple(sum(1 << label[y] for y in bit_indices(up[x])) for x in order)
    return code, rows, len(branches) * twin_orders


def _order_ideals(up: Sequence[int]) -> list[int]:
    """Every down-closed subset of the poset with up-rows ``up``."""
    n = len(up)
    below = [0] * n
    for x, row in enumerate(up):
        for y in bit_indices(row & ~(1 << x)):
            below[y] |= 1 << x
    ideals = [0]
    # fewest points below first, so each point comes after all points below it
    for x in sorted(range(n), key=lambda x: below[x].bit_count()):
        ideals += [ideal | 1 << x for ideal in ideals if not below[x] & ~ideal]
    return ideals


def _poset_levels(cap: int) -> list[list[tuple[int, tuple[int, ...], int]]]:
    """The T0 posets on 0..cap points up to relabeling, by size.

    Each level lists (encoding, up-rows, |Aut|) per class, least-encoded and
    ascending.  Removing a maximal point from a poset on n points leaves a
    poset on n - 1 points and the order ideal below the removed point, so
    every class on n points arises as a class on n - 1 points with a new
    maximal point above one of its order ideals.  Removing a maximal point
    with the most points below it is enough, so an extension whose new
    point has fewer below it than another maximal point is skipped before
    its search, and the least encodings merge the duplicates left.
    """
    levels = [[(0, (), 1)]]
    for n in range(1, cap + 1):
        new = 1 << n - 1
        found = {}
        for _, up, _ in levels[-1]:
            # the maximal points, each with the number of points below it
            tops = [(x, sum(r >> x & 1 for r in up) - 1) for x, row in enumerate(up) if row == 1 << x]
            for ideal in _order_ideals(up):
                # the maximal points outside the ideal stay maximal; the new
                # point must have the most points below it among them all
                if any(below > ideal.bit_count() for x, below in tops if not ideal >> x & 1):
                    continue
                rows = [row | new if ideal >> x & 1 else row for x, row in enumerate(up)]
                entry = _least_encoding(rows + [new])
                found.setdefault(entry[0], entry)
        levels.append([found[code] for code in sorted(found)])
    return levels


def _size_classes(n: int, posets: list[list[tuple[int, tuple[int, ...], int]]]
                  ) -> list[tuple[tuple[int, ...], int]]:
    """The relabeling classes of preorders on n points, ascending by least encoding.

    A preorder is its class poset with a positive class size at each point:
    each poset class on k < n points is blown up by every composition of n
    into k parts, each result is least-encoded, and the duplicates, which
    come from compositions that an automorphism of the poset exchanges, are
    merged.  The classes with every class size 1 are the posets on n points
    themselves.  A class's orbit size is n!/|Aut|.
    """
    found = {entry[0]: entry for entry in posets[n]}
    for k in range(1, n):
        for _, up, _ in posets[k]:
            for cuts in combinations(range(1, n), k - 1):
                bounds = (0, *cuts, n)
                blocks = [(1 << b) - (1 << a) for a, b in zip(bounds, bounds[1:])]
                rows = []
                for row, block in zip(up, blocks):
                    wide = sum(blocks[y] for y in bit_indices(row))
                    rows += [wide] * block.bit_count()
                entry = _least_encoding(rows)
                found.setdefault(entry[0], entry)
    labelings = factorial(n)
    return [(rows, labelings // aut) for _, rows, aut in (found[code] for code in sorted(found))]


def _preorder_classes(cap: int) -> list[list[tuple[tuple[int, ...], int]]]:
    """(up-rows, orbit size) per relabeling class, for every size 0..cap, from one poset build."""
    posets = _poset_levels(cap)
    return [_size_classes(n, posets) for n in range(cap + 1)]
