"""Dynamical-system-like point classifiers for finite spaces.

The notions here (recurrent, proper, non-wandering, exceptional, the
non-indifferent and saddle-like families, Anosov type) mimic flow dynamics
on the class space of a topology.  All of them are decided from the
specialization preorder and the open family of a single finite space; no
actual group action is involved.

Strictness conventions, fixed once for the whole module: the shell of a
point drops only the point itself, as in down(x) - {x}, the shell of a
class drops the whole class x^, and intervals exclude endpoint classes except
that the half-open (x, y] keeps the class of y and the explicit "- {y}"
drops only the point y.
"""

from __future__ import annotations

from dataclasses import dataclass

from .axioms import CHARACTERIZED, SpaceContext, point_mask
from .core import FiniteTopology, bit_indices
from .order import _down_closure


@dataclass(frozen=True)
class DynClass:
    recurrent: bool
    proper: bool
    non_wandering: bool
    exceptional: bool
    weakly_non_indifferent: bool
    weakly_saddle_like: bool
    weakly_hyperbolic_like: bool
    non_indifferent: bool
    saddle_like: bool
    hyperbolic_like: bool


def _maximal(ctx: SpaceContext, x: int) -> bool:
    return ctx.up[x] & ~ctx.cls[x] == 0


def recurrent_mask(ctx: SpaceContext) -> int:
    return point_mask(ctx.top, "recurrent", CHARACTERIZED, ctx)


def _up_open(ctx: SpaceContext, x: int) -> bool:
    # true for every finite space since upsets are open; checked honestly
    return ctx.up[x] in ctx.top.opens_set


def _weakly_non_indifferent(ctx: SpaceContext, x: int, proper: int) -> bool:
    # the upset is open, holds another point, and is proper outside the class
    up = ctx.up[x]
    return _up_open(ctx, x) and up != 1 << x and up & ~ctx.cls[x] & ~proper == 0


def _weakly_saddle_like(ctx: SpaceContext, x: int) -> bool:
    if not _up_open(ctx, x):
        return True
    shell_cls = ctx.up[x] & ~ctx.cls[x]
    for y in bit_indices(shell_cls):
        half_open = shell_cls & ctx.down[y]
        probe = half_open & ~(1 << y)
        if _down_closure(ctx.down, probe) >> x & 1:
            return True
    return False


def _strong_tail(ctx: SpaceContext, x: int, proper: int) -> bool:
    shell_cls = ctx.up[x] & ~ctx.cls[x]
    return shell_cls != 0 and shell_cls & ~proper == 0


def _non_wandering_mask(ctx: SpaceContext) -> int:
    return ctx.top.interior_bits(_down_closure(ctx.down, recurrent_mask(ctx)))


def _class_sizes(ctx: SpaceContext) -> list[int]:
    """Number of points in each class, indexed by class-space point."""
    qctx, mapping = ctx.class_ctx
    sizes = [0] * qctx.n
    for b in mapping:
        sizes[b] += 1
    return sizes


def classify_space(top: FiniteTopology, ctx: SpaceContext | None = None) -> tuple[DynClass, ...]:
    """All dynamical flags for every point, in point order.

    The result is memoized on the context, so later calls with the same
    context return the same tuple.
    """
    if ctx is None:
        ctx = SpaceContext(top)
    if ctx.flags is None:
        ctx.flags = _classify(ctx)
    return ctx.flags


def _classify(ctx: SpaceContext) -> tuple[DynClass, ...]:
    nw = _non_wandering_mask(ctx)
    # a point is recurrent when its class is closed or its derived set is not,
    # and proper when its derived set is closed: the recurrent and TD order forms
    recurrent = recurrent_mask(ctx)
    proper = point_mask(ctx.top, "TD", CHARACTERIZED, ctx)
    out = []
    for x in range(ctx.n):
        rec = bool(recurrent >> x & 1)
        prop = bool(proper >> x & 1)
        exc = not _maximal(ctx, x) and not prop
        wni = _weakly_non_indifferent(ctx, x, proper)
        wsl = _weakly_saddle_like(ctx, x)
        tail = _strong_tail(ctx, x, proper)
        ni = wni and tail
        sl = wsl and tail
        out.append(DynClass(
            recurrent=rec,
            proper=prop,
            non_wandering=bool(nw >> x & 1),
            exceptional=exc,
            weakly_non_indifferent=wni,
            weakly_saddle_like=wsl,
            weakly_hyperbolic_like=wni or wsl,
            non_indifferent=ni,
            saddle_like=sl,
            hyperbolic_like=ni or sl,
        ))
    return tuple(out)


def is_anosov_type(top: FiniteTopology, ctx: SpaceContext | None = None) -> bool:
    """Minimal points form a proper dense subset and some point is dense."""
    if ctx is None:
        ctx = SpaceContext(top)
    minimal = ctx.minimal
    if minimal == ctx.full:
        return False
    if _down_closure(ctx.down, minimal) != ctx.full:
        return False
    return any(ctx.down[x] == ctx.full for x in range(ctx.n))


@dataclass(frozen=True, eq=False)
class TransferResult:
    """Outcome of the recurrence transfer laws between a space and its class space."""
    ok: bool
    set_equality_ok: bool
    space_equivalence_ok: bool
    witness: dict | None


def recurrence_transfer_check(top: FiniteTopology, ctx: SpaceContext | None = None) -> TransferResult:
    """Check both recurrence transfer laws against the class space.

    Set law: the preimage of (non-singleton classes union recurrent classes)
    is exactly the recurrent set of the space.  Space law: every point is
    recurrent iff the class of every singleton-class point is recurrent in
    the class space.
    """
    if ctx is None:
        ctx = SpaceContext(top)
    qctx, mapping = ctx.class_ctx
    r = recurrent_mask(ctx)
    qr = recurrent_mask(qctx)

    preimage = 0
    class_sizes = _class_sizes(ctx)
    for x in range(ctx.n):
        b = mapping[x]
        if class_sizes[b] > 1 or qr >> b & 1:
            preimage |= 1 << x
    set_ok = preimage == r
    set_witness = None
    if not set_ok:
        diff = preimage ^ r
        set_witness = {"point": (diff & -diff).bit_length() - 1,
                       "preimage": sorted(bit_indices(preimage)),
                       "recurrent": sorted(bit_indices(r))}

    space_recurrent = r == ctx.full
    t0_classes_recurrent = all(
        qr >> mapping[x] & 1
        for x in range(ctx.n)
        if class_sizes[mapping[x]] == 1
    )
    space_ok = space_recurrent == t0_classes_recurrent
    space_witness = None
    if not space_ok:
        space_witness = {"space_recurrent": space_recurrent,
                         "t0_classes_recurrent": t0_classes_recurrent}

    ok = set_ok and space_ok
    return TransferResult(ok, set_ok, space_ok, set_witness or space_witness)


@dataclass(frozen=True, eq=False)
class SaddleEquivalenceResult:
    """Outcome of the two three-way saddle-condition equivalence checks."""
    ok: bool
    witness: dict | None


def saddle_equivalences_check(top: FiniteTopology, ctx: SpaceContext | None = None) -> SaddleEquivalenceResult:
    """Verify both saddle-condition equivalence triples on every point/pair.

    First triple, for every point x: x lies in the closure of the complement
    of its upset iff that upset is not a neighbourhood of x iff it is not
    open.  Second triple, for x strictly below y: x lies in the closure of
    (x, y] - {y} iff that set is nonempty iff (x, y) is nonempty or the
    class of y is not a singleton.
    """
    if ctx is None:
        ctx = SpaceContext(top)
    for x in range(ctx.n):
        comp = ctx.full & ~ctx.up[x]
        c1 = bool(ctx.top.closure_bits(comp) >> x & 1)
        c2 = not bool(ctx.top.interior_bits(ctx.up[x]) >> x & 1)
        c3 = ctx.up[x] not in ctx.top.opens_set
        if not c1 == c2 == c3:
            return SaddleEquivalenceResult(False, {"lemma": "upset", "point": x,
                                                   "conditions": [c1, c2, c3]})
    for x in range(ctx.n):
        shell_cls = ctx.up[x] & ~ctx.cls[x]
        for y in bit_indices(shell_cls):
            half_open_minus = (shell_cls & ctx.down[y]) & ~(1 << y)
            open_interval = shell_cls & (ctx.down[y] & ~ctx.cls[y])
            c1 = bool(ctx.top.closure_bits(half_open_minus) >> x & 1)
            c2 = half_open_minus != 0
            c3 = open_interval != 0 or ctx.cls[y].bit_count() > 1
            if not c1 == c2 == c3:
                return SaddleEquivalenceResult(False, {"lemma": "interval", "pair": [x, y],
                                                       "conditions": [c1, c2, c3]})
    return SaddleEquivalenceResult(True, None)


@dataclass(frozen=True, eq=False)
class RecurrenceExclusionResult:
    """Outcome of: a recurrent space has no hyperbolic-like points."""
    space_recurrent: bool
    ok: bool
    witness: dict | None


def recurrent_vs_hyperbolic_check(top: FiniteTopology, ctx: SpaceContext | None = None) -> RecurrenceExclusionResult:
    if ctx is None:
        ctx = SpaceContext(top)
    flags = classify_space(top, ctx)
    space_recurrent = all(f.recurrent for f in flags)
    if not space_recurrent:
        return RecurrenceExclusionResult(False, True, None)
    for x, f in enumerate(flags):
        if f.hyperbolic_like:
            return RecurrenceExclusionResult(True, False, {"point": x})
    return RecurrenceExclusionResult(True, True, None)
