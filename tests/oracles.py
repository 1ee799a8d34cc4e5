"""Test oracles that live outside the package.

``enumerate_open_families`` is the open-family route to every labeled
topology, independent of the preorder backtracker in
``finitetop.enumerate``; the tests require the two streams to agree.
"""
from __future__ import annotations

from typing import Iterator

from finitetop.core import FiniteTopology
from finitetop.enumerate import _check_size

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
