"""Test oracles that live outside the package.

``enumerate_open_families`` is the open-family route to every labeled
topology, independent of the preorder backtracker in
``finitetop.enumerate``; the tests require the two streams to agree.

``preorder_classes_by_marking`` is the reference route to the relabeling
classes, independent of their generation in ``finitetop.enumerate``: it
walks every labeled preorder and marks orbits, and the tests require the
same rows, order and orbit sizes.

The remaining functions are the loops that the subset tables replaced, kept
as references: a table filled one bit at a time, the upset scan behind
``alexandrov``, the two characterized subset scans that read the preorder's
rows point by point, and the class space built from its blocks on every
space.  The tests require the table-driven code to give the same tables,
opens, witnesses and quotients.

The last group is the hand-written verdict-relation checks that the
registry now states as verdict laws, shell readings and whole-space chains:
each reads its verdicts or point masks one by one.  The tests require each
registry row to return what its reference returns on every case.
"""
from __future__ import annotations

from itertools import permutations
from typing import Callable, Iterator

from finitetop.axioms import DEFINITIONAL, SpaceContext, check_space, point_mask
from finitetop.core import FiniteTopology, Preorder, bit_indices
from finitetop.enumerate import _check_size, _preorder_rows
from finitetop.order import _down_closure

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


def union_table_by_bits(rows: tuple[int, ...]) -> list[int]:
    """table[a] is the union of rows[x] over x in a, each entry from the one without a's lowest bit."""
    table = [0] * (1 << len(rows))
    for a in range(1, len(table)):
        low = a & -a
        table[a] = table[a ^ low] | rows[low.bit_length() - 1]
    return table


def alexandrov_by_scan(pre: Preorder) -> FiniteTopology:
    """The upsets of the preorder, each subset tested point by point."""
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


def fd_form_holds_by_scan(down: tuple[int, ...], n: int) -> int | None:
    """First subset (by bitmap) not of the form closed-minus-downset, else None."""
    for a in range(1 << n):
        d = _down_closure(down, a) & ~a
        # d is a downset iff no element of d sits above a point of a
        if any(down[y] & a for y in bit_indices(d)):
            return a
    return None


def c_lambda_space_by_scan(ctx: SpaceContext) -> dict | None:
    """The characterized lambda check with each subset's up and down sets from the rows."""
    minimal = ctx.minimal
    up, down = ctx.up, ctx.down
    for a in range(1 << ctx.n):
        up_a = 0
        down_a = 0
        for x in bit_indices(a):
            up_a |= up[x]
            down_a |= down[x]
        if up_a & down_a != a:
            continue
        shell = down_a & ~a
        if shell & ~minimal:
            return {
                "set": sorted(bit_indices(a)),
                "shell": sorted(bit_indices(shell)),
            }
    return None


def class_space_by_blocks(top: FiniteTopology) -> tuple[FiniteTopology, tuple[int, ...]]:
    """The quotient on closure-equality classes, built from the blocks on every space."""
    classes = top.point_classes
    blocks: list[int] = []
    seen: set[int] = set()
    for x in range(top.n):
        m = classes[x]
        if m not in seen:
            seen.add(m)
            blocks.append(m)
    mapping = tuple(blocks.index(classes[x]) for x in range(top.n))
    q_opens: set[int] = set()
    for u in top.opens:
        mask = 0
        for i, b in enumerate(blocks):
            if b & u:
                mask |= 1 << i
        q_opens.add(mask)
    return FiniteTopology(len(blocks), tuple(sorted(q_opens))), mapping


def coincide_by_verdicts(*axioms: str) -> Callable:
    """A check that all of ``axioms`` hold together or fail together."""
    def run(ctx: SpaceContext) -> dict | None:
        verdicts = {axiom: check_space(ctx.top, axiom, DEFINITIONAL, ctx).verdict for axiom in axioms}
        if len(set(verdicts.values())) > 1:
            return verdicts
        return None
    return run


def sys_eq_by_verdicts(ctx: SpaceContext) -> dict | None:
    sys_v = check_space(ctx.top, "SYS", DEFINITIONAL, ctx).verdict
    s14_v = check_space(ctx.top, "S1/4", DEFINITIONAL, ctx).verdict
    sq_v = check_space(ctx.top, "SQ", DEFINITIONAL, ctx).verdict
    if sys_v != (s14_v and sq_v):
        return {"SYS": sys_v, "S1/4": s14_v, "SQ": sq_v}
    return None


def cr_nested_sq_by_verdicts(ctx: SpaceContext) -> dict | None:
    cr_v = check_space(ctx.top, "CR", DEFINITIONAL, ctx).verdict
    nested_v = check_space(ctx.top, "nested", DEFINITIONAL, ctx).verdict
    if not (cr_v or nested_v):
        return None
    sq_v = check_space(ctx.top, "SQ", DEFINITIONAL, ctx).verdict
    if not sq_v:
        return {"CR": cr_v, "nested": nested_v, "SQ": sq_v}
    return None


def sd_class_reading_by_points(ctx: SpaceContext) -> dict | None:
    sd = point_mask(ctx.top, "SD", DEFINITIONAL, ctx)
    for x in range(ctx.n):
        lhs = bool(sd >> x & 1)
        shell = ctx.top.closure_bits(ctx.closure1[x] & ~ctx.cls_def[x])
        rhs = ctx.down[x] == ctx.cls[x] or not shell >> x & 1
        if lhs != rhs:
            return {"point": x, "sd": lhs, "reading": rhs}
    return None


def sd_point_shell_by_points(ctx: SpaceContext) -> dict | None:
    for x in range(ctx.n):
        d = ctx.closure1[x] & ~(1 << x)
        lhs = d in ctx.top.closed_set
        rhs = ctx.down[x] == ctx.cls[x] or not ctx.top.closure_bits(d) >> x & 1
        if lhs != rhs:
            return {"point": x, "derived_closed": lhs, "reading": rhs}
    return None


def sd_mixed_by_points(ctx: SpaceContext) -> dict | None:
    sd = point_mask(ctx.top, "SD", DEFINITIONAL, ctx)
    for x in range(ctx.n):
        lhs = bool(sd >> x & 1)
        d = ctx.closure1[x] & ~(1 << x)
        rhs = ctx.down[x] == ctx.cls[x] or not ctx.top.closure_bits(d) >> x & 1
        if lhs != rhs:
            return {"point": x, "sd": lhs, "reading": rhs}
    return None


def space_chain_by_verdicts(ctx: SpaceContext, chain: tuple[str, ...]) -> dict | None:
    prev_id = None
    prev = None
    for axiom in chain:
        cur = check_space(ctx.top, axiom, DEFINITIONAL, ctx).verdict
        if prev is not None and prev and not cur:
            return {"holds": prev_id, "fails": axiom}
        prev_id, prev = axiom, cur
    return None
