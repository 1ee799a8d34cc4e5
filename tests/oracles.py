"""Test oracles that live outside the package.

``enumerate_open_families`` is the open-family route to every labeled
topology, independent of the preorder backtracker in
``finitetop.enumerate``; the tests require the two streams to agree.

``preorder_classes_by_marking`` is the reference route to the relabeling
classes, independent of their generation in ``finitetop.enumerate``: it
walks every labeled preorder and marks orbits, and the tests require the
same rows, order and orbit sizes.
"""
from __future__ import annotations

from itertools import permutations
from typing import Iterator

from finitetop.core import FiniteTopology
from finitetop.enumerate import _check_size, _preorder_rows

_UNDECIDED, _IN, _OUT = 0, 1, 2


def enumerate_open_families(n: int) -> Iterator[FiniteTopology]:
    """Every labeled topology by direct search over open-set families.

    Independent of the preorder route: subsets are decided in numeric order,
    out branch first, and every in decision propagates closure under pairwise
    union and intersection through a worklist.
    """
    _check_size(n)
    size = 1 << n
    full = size - 1
    if n == 0:
        yield FiniteTopology(0, (0,))
        return
    status = [_UNDECIDED] * size
    status[0] = _IN
    status[full] = _IN
    members = [0, full] if full else [0]

    def close_with(s: int) -> tuple[list[int], bool]:
        added = []
        queue = [s]
        while queue:
            t = queue.pop()
            for m2 in members:
                for u in (t | m2, t & m2):
                    st = status[u]
                    if st == _OUT:
                        return added, False
                    if st == _UNDECIDED:
                        status[u] = _IN
                        members.append(u)
                        added.append(u)
                        queue.append(u)
        return added, True

    def rec(s: int) -> Iterator[FiniteTopology]:
        while s < size and status[s] != _UNDECIDED:
            s += 1
        if s == size:
            yield FiniteTopology(n, tuple(sorted(members)))
            return
        status[s] = _OUT
        yield from rec(s + 1)
        status[s] = _UNDECIDED

        status[s] = _IN
        members.append(s)
        added, ok = close_with(s)
        if ok:
            yield from rec(s + 1)
        for u in added:
            status[u] = _UNDECIDED
            members.pop()
        status[s] = _UNDECIDED
        members.pop()

    yield from rec(1)


def count_open_families(n: int) -> int:
    return sum(1 for _ in enumerate_open_families(n))


def preorder_classes_by_marking(n: int) -> list[tuple[tuple[int, ...], int]]:
    """(up-rows, orbit size) per relabeling class of preorders on n points.

    Each class appears once, as its least-encoded member, in ascending
    encoding order.  Orbit marking: the labeled preorders come in ascending
    order, and the first member of an orbit met is its least; the rest of
    its orbit is put in ``pending`` and dropped from it, unlisted, when the
    walk reaches it.
    """
    _check_size(n)
    # per permutation p of range(n), identity first: p and its row table,
    # which maps a row mask to the relabeled row as it sits in an encoding,
    # MSB first: bit n-1-j of table[mask] is bit p[j] of mask
    tables = []
    for perm in permutations(range(n)):
        table = []
        for mask in range(1 << n):
            bits = 0
            for j in perm:
                bits = bits << 1 | (mask >> j & 1)
            table.append(bits)
        tables.append((perm, table))
    identity = tables[0][1]
    pending: set[int] = set()
    classes = []
    for rows in _preorder_rows(n):
        code = 0
        for row in rows:
            code = code << n | identity[row]
        if code in pending:
            pending.remove(code)
            continue
        orbit = set()
        for perm, table in tables:
            image = 0
            for x in perm:
                image = image << n | table[rows[x]]
            orbit.add(image)
        orbit.remove(code)
        pending |= orbit
        classes.append((rows, len(orbit) + 1))
    return classes
