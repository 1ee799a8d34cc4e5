"""Separation-axiom catalog with two independent evaluation modes.

Every axiom has a definitional checker that consults only the open family
and data derived from it by set-level operations (closures, kernels, closed
sets), and a characterized checker that consults only the specialization
preorder (rows, classes, heights, forest structure).  On finite spaces the
two must agree; the theorem harness proves that exhaustively for small
carriers, so a disagreement is always a reportable bug or a genuine refutation
of a characterization.  A space checker returns None where the axiom holds
and its witness dict where it fails.

Naming: T-axioms are the classical point separation properties, C-axioms
constrain the derived set of a point, S-axioms are the T-axioms evaluated on
the space of closure-equality classes, and the remaining entries (nested,
wR0, wC0, lambda, SQ, recurrent, ...) are space-level properties used by the
implication matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable

from .core import FiniteTopology, Preorder, bit_indices, union_table
from .order import (
    bottoms_mask,
    bouquet_root,
    heights,
    is_down_directed,
    is_down_discrete,
    is_downward_forest,
    is_pre_chain,
    is_upward_forest,
    min_s1_witness,
    minimal_mask,
    tops_mask,
)


class NotPointLevelError(ValueError):
    """Raised when a space-only axiom is asked about a single point."""


DEFINITIONAL = "definitional"
CHARACTERIZED = "characterized"


class SpaceContext:
    """Per-space cache of derived data shared by axiom and theorem checks.

    The closure and kernel tables are built from the singleton closures and
    kernels (themselves computed directly from the family) using the finite
    identities closure(A) = union of closures of points of A and
    kernel(A) = union of kernels; tests cross-check the tables against the
    direct intersection-of-supersets definitions.  The up and down tables
    are the order side's counterparts, built from the preorder's rows: the
    least upset and the least downset holding each subset.

    The context also memoizes results for as long as it lives: ``masks``
    holds each ``point_mask`` by (axiom, mode), ``reports`` each
    ``check_space`` report by (axiom, mode), and ``flags`` the
    ``dynamics.classify_space`` result.  A memo only stores what the route's
    own checker returned, so the definitional and characterized verdicts stay
    independent.
    """

    def __init__(self, top: FiniteTopology, pre: Preorder | None = None):
        self.top = top
        self.n = top.n
        self.full = top.full_bits
        self.masks: dict[tuple[str, str], int] = {}
        self.reports: dict[tuple[str, str], AxiomReport] = {}
        self.flags: tuple | None = None
        if pre is not None:
            self.__dict__["pre"] = pre

    @cached_property
    def pre(self) -> Preorder:
        return self.top.specialization()

    @cached_property
    def up(self) -> tuple[int, ...]:
        return self.pre.up

    @cached_property
    def down(self) -> tuple[int, ...]:
        return self.pre.down

    @cached_property
    def up_t(self) -> list[int]:
        return union_table(self.up)

    @cached_property
    def down_t(self) -> list[int]:
        return union_table(self.down)

    @cached_property
    def cls(self) -> tuple[int, ...]:
        return self.pre.cls

    @cached_property
    def cls_def(self) -> tuple[int, ...]:
        """Closure-equality classes computed on the family side."""
        return self.top.point_classes

    @cached_property
    def closure1(self) -> tuple[int, ...]:
        return self.top.point_closures

    @cached_property
    def kernel1(self) -> tuple[int, ...]:
        return self.top.point_kernels

    @cached_property
    def closure_t(self) -> list[int]:
        return union_table(self.closure1)

    @cached_property
    def kernel_t(self) -> list[int]:
        return union_table(self.kernel1)

    @cached_property
    def minimal(self) -> int:
        return minimal_mask(self.pre)

    @cached_property
    def heights_pp(self) -> tuple[int, ...]:
        per_point, ht = heights(self.pre)
        self.__dict__["ht"] = ht
        return per_point

    @cached_property
    def ht(self) -> int:
        self.heights_pp
        return self.__dict__["ht"]

    @property
    def class_ctx(self) -> tuple[SpaceContext, tuple[int, ...]]:
        """The class space's context and the point -> class map.

        A T0 space is its own class space, and its class context is this
        context.  That is not stored: a context that refers to itself lives
        on after its last use until a full garbage collection.
        """
        qctx, mapping = self._quotient
        return (self if qctx is None else qctx), mapping

    @cached_property
    def _quotient(self) -> tuple[SpaceContext | None, tuple[int, ...]]:
        qtop, mapping = self.top.class_space()
        return (None if qtop is self.top else SpaceContext(qtop)), mapping


# ---------------------------------------------------------------------------
# definitional point checks (family side)

def _d_t0(ctx: SpaceContext, x: int) -> bool:
    kx = ctx.kernel1[x]
    for y in range(ctx.n):
        if y != x and kx >> y & 1 and ctx.kernel1[y] >> x & 1:
            return False
    return True


def _d_tm1(ctx: SpaceContext, x: int) -> bool:
    # closed, or some neighbourhood misses part of the closure of x
    return 1 << x in ctx.top.closed_set or ctx.closure1[x] & ~ctx.kernel1[x] != 0


def _d_td(ctx: SpaceContext, x: int) -> bool:
    return ctx.closure1[x] & ~(1 << x) in ctx.top.closed_set


def _d_t14(ctx: SpaceContext, x: int) -> bool:
    return 1 << x in ctx.top.closed_set or ctx.kernel1[x] == 1 << x


def _d_t12(ctx: SpaceContext, x: int) -> bool:
    return 1 << x in ctx.top.closed_set or 1 << x in ctx.top.opens_set


def _d_t1(ctx: SpaceContext, x: int) -> bool:
    return 1 << x in ctx.top.closed_set


def _d_t2(ctx: SpaceContext, x: int) -> bool:
    # kernels are the least open neighbourhoods, so disjoint opens exist iff
    # the kernels are disjoint
    kx = ctx.kernel1[x]
    for y in range(ctx.n):
        if y != x and kx & ctx.kernel1[y]:
            return False
    return True


def _d_tys(ctx: SpaceContext, x: int) -> bool:
    cx = ctx.closure1[x]
    for y in range(ctx.n):
        if y == x:
            continue
        meet = cx & ctx.closure1[y]
        if meet not in (0, 1 << x, 1 << y):
            return False
    return True


def _d_c0(ctx: SpaceContext, x: int) -> bool:
    # fails iff the derived set is nonempty and a union of nonempty closed sets
    d = ctx.closure1[x] & ~(1 << x)
    if d == 0:
        return True
    covered = 0
    for f in ctx.top.closed:
        if f and f & ~d == 0:
            covered |= f
    return covered != d


def _d_cd(ctx: SpaceContext, x: int) -> bool:
    d = ctx.closure1[x] & ~(1 << x)
    return d == 0 or d not in ctx.top.closed_set


def _d_cr(ctx: SpaceContext, x: int) -> bool:
    d = ctx.closure1[x] & ~(1 << x)
    for f in ctx.top.closed:
        if f and f & ~d == 0:
            return False
    return True


def _d_cn(ctx: SpaceContext, x: int) -> bool:
    d = ctx.closure1[x] & ~(1 << x)
    inside = [f for f in ctx.top.closed if f and f & ~d == 0]
    for i, f in enumerate(inside):
        for e in inside[i + 1:]:
            if f & e == 0:
                return False
    return True


def _d_sd(ctx: SpaceContext, x: int) -> bool:
    return ctx.closure1[x] & ~ctx.cls_def[x] in ctx.top.closed_set


def _d_recurrent(ctx: SpaceContext, x: int) -> bool:
    if ctx.cls_def[x] in ctx.top.closed_set:
        return True
    return ctx.closure1[x] & ~(1 << x) not in ctx.top.closed_set


def _d_sy(ctx: SpaceContext, x: int) -> bool:
    # the meet of two point closures is a union of classes; at most one allowed
    cx = ctx.closure1[x]
    clsx = ctx.cls_def[x]
    for y in range(ctx.n):
        if ctx.cls_def[y] == clsx:
            continue
        meet = cx & ctx.closure1[y]
        if meet and meet != ctx.cls_def[(meet & -meet).bit_length() - 1]:
            return False
    return True


def _d_ssd(ctx: SpaceContext, x: int) -> bool:
    if ctx.cls_def[x] in ctx.top.closed_set:
        return True
    d = ctx.closure1[x] & ~ctx.cls_def[x]
    if d not in ctx.top.closed_set or d == 0:
        return False
    return d == ctx.cls_def[(d & -d).bit_length() - 1]


def _d_sdelta(ctx: SpaceContext, x: int) -> bool:
    if ctx.cls_def[x] in ctx.top.closed_set:
        return True
    d = ctx.closure1[x] & ~ctx.cls_def[x]
    return any(d == ctx.closure1[w] for w in range(ctx.n))


def _d_qs2(ctx: SpaceContext, x: int) -> bool:
    clsx = ctx.cls_def[x]
    for y in range(ctx.n):
        if ctx.cls_def[y] == clsx:
            continue
        both_below = any(
            ctx.closure1[z] >> x & 1 and ctx.closure1[z] >> y & 1
            for z in range(ctx.n)
        )
        if not both_below and ctx.kernel1[x] & ctx.kernel1[y]:
            return False
    return True


# S-axioms with a point-level T counterpart: evaluate the T check on the
# class space at the class of the point.

def _via_classes(point_check: Callable[[SpaceContext, int], bool]):
    def run(ctx: SpaceContext, x: int) -> bool:
        qctx, mapping = ctx.class_ctx
        return point_check(qctx, mapping[x])
    return run


_d_s0 = _via_classes(_d_t0)
_d_s14 = _via_classes(_d_t14)
_d_s12 = _via_classes(_d_t12)
_d_s1 = _via_classes(_d_t1)
_d_s2 = _via_classes(_d_t2)
_d_sys = _via_classes(_d_tys)


# ---------------------------------------------------------------------------
# definitional space checks (family side)

def _d_t13_space(ctx: SpaceContext) -> dict | None:
    # every subset of a finite space is compact, so quantify over all of them
    kt, ct = ctx.kernel_t, ctx.closure_t
    for a in range(1 << ctx.n):
        if kt[a] & ct[a] != a:
            return {"subset": sorted(bit_indices(a))}
    return None


def _d_s13_space(ctx: SpaceContext) -> dict | None:
    wit = _d_t13_space(ctx.class_ctx[0])
    return None if wit is None else {"class_subset": wit["subset"]}


def _d_syy_space(ctx: SpaceContext) -> dict | None:
    # empty carrier convention: every axiom holds vacuously, so the missing
    # witness point is forgiven here
    if ctx.n == 0:
        return None
    reps = sorted((m & -m).bit_length() - 1 for m in set(ctx.cls_def))
    failures = []
    for p in reps:
        allowed_p = ctx.cls_def[p]
        bad = None
        for x in range(ctx.n):
            cx = ctx.closure1[x]
            clsx = ctx.cls_def[x]
            for y in range(x + 1, ctx.n):
                if ctx.cls_def[y] == clsx:
                    continue
                meet = cx & ctx.closure1[y]
                if meet not in (0, clsx, ctx.cls_def[y], allowed_p):
                    bad = {"p": p, "x": x, "y": y}
                    break
            if bad:
                break
        if bad is None:
            return None
        failures.append(bad)
    return {"candidates": failures}


def _d_sq_space(ctx: SpaceContext) -> dict | None:
    # x in U-V and y in V-U for some opens U, V iff neither kernel holds the
    # other point; the closures must then miss each other
    for x in range(ctx.n):
        kx, cx = ctx.kernel1[x], ctx.closure1[x]
        for y in range(x + 1, ctx.n):
            if kx >> y & 1 or ctx.kernel1[y] >> x & 1:
                continue
            if cx & ctx.closure1[y]:
                return {"x": x, "y": y}
    return None


def _d_nested_space(ctx: SpaceContext) -> dict | None:
    opens = ctx.top.opens
    for i, u in enumerate(opens):
        for v in opens[i + 1:]:
            if u & ~v and v & ~u:
                return {"opens": [sorted(bit_indices(u)), sorted(bit_indices(v))]}
    return None


def _meet_witness(rows: tuple[int, ...], full: int) -> dict | None:
    """None where the rows have empty intersection, else the points they share."""
    acc = full
    for row in rows:
        acc &= row
    return None if acc == 0 else {"points": sorted(bit_indices(acc))}


def _d_wr0_space(ctx: SpaceContext) -> dict | None:
    return _meet_witness(ctx.closure1, ctx.full)


def _d_wc0_space(ctx: SpaceContext) -> dict | None:
    return _meet_witness(ctx.kernel1, ctx.full)


def _d_lambda_space(ctx: SpaceContext) -> dict | None:
    kt, ct = ctx.kernel_t, ctx.closure_t
    lam = [a for a in range(1 << ctx.n) if kt[a] & ct[a] == a]
    # s_x = kernel & closure of {x} is the least lambda-closed set holding x, and every
    # lambda-closed b is the union of s_x over x in b: a | s_x closed for all a suffices
    least = [kt[1 << x] & ct[1 << x] for x in range(ctx.n)]
    lam_set = set(lam)
    if all(a | s in lam_set for s in least for a in lam):
        return None
    for i, a in enumerate(lam):
        for b in lam[i + 1:]:
            u = a | b
            if kt[u] & ct[u] != u:
                return {"sets": [sorted(bit_indices(a)), sorted(bit_indices(b))]}
    return None


def _d_true_space(ctx: SpaceContext) -> dict | None:
    # finite spaces satisfy the descending chain condition and have only
    # finite subsets, so the Artinian and anti-compact properties always hold
    return None


# ---------------------------------------------------------------------------
# characterized point checks (order side)

def _c_t0(ctx: SpaceContext, x: int) -> bool:
    return ctx.cls[x] == 1 << x


def _c_tm1(ctx: SpaceContext, x: int) -> bool:
    return ctx.down[x] == 1 << x or ctx.down[x] & ~ctx.up[x] != 0


def _c_td(ctx: SpaceContext, x: int) -> bool:
    shell = ctx.down[x] & ~(1 << x)
    return ctx.down_t[shell] == shell


def _c_t14(ctx: SpaceContext, x: int) -> bool:
    return ctx.down[x] == 1 << x or ctx.up[x] == 1 << x


_c_t12 = _c_t14


def _c_t1(ctx: SpaceContext, x: int) -> bool:
    return ctx.down[x] == 1 << x


def _c_t2(ctx: SpaceContext, x: int) -> bool:
    ux = ctx.up[x]
    for y in range(ctx.n):
        if y != x and ux & ctx.up[y]:
            return False
    return True


def _c_tys(ctx: SpaceContext, x: int) -> bool:
    dx = ctx.down[x]
    for y in range(ctx.n):
        if y == x:
            continue
        meet = dx & ctx.down[y]
        if meet not in (0, 1 << x, 1 << y):
            return False
    return True


def _c_c0(ctx: SpaceContext, x: int) -> bool:
    return ctx.down[x] == ctx.cls[x] or ctx.cls[x].bit_count() > 1


def _c_cd(ctx: SpaceContext, x: int) -> bool:
    if ctx.down[x] == ctx.cls[x]:
        return True
    return (ctx.down[x] & ~(1 << x)) & ctx.up[x] != 0


def _c_cr(ctx: SpaceContext, x: int) -> bool:
    return ctx.down[x] == ctx.cls[x]


def _c_cn(ctx: SpaceContext, x: int) -> bool:
    return is_down_directed(ctx.pre, ctx.down[x])


def _c_sd(ctx: SpaceContext, x: int) -> bool:
    if ctx.down[x] == ctx.cls[x]:
        return True
    return (ctx.down[x] & ~ctx.cls[x]) & ctx.up[x] == 0


def _c_recurrent(ctx: SpaceContext, x: int) -> bool:
    if ctx.down[x] == ctx.cls[x]:
        return True
    shell = ctx.down[x] & ~(1 << x)
    return ctx.down_t[shell] != shell


def _c_sy(ctx: SpaceContext, x: int) -> bool:
    dx = ctx.down[x]
    clsx = ctx.cls[x]
    for y in range(ctx.n):
        if ctx.cls[y] == clsx:
            continue
        meet = dx & ctx.down[y]
        if meet and meet != ctx.cls[(meet & -meet).bit_length() - 1]:
            return False
    return True


def _c_sys(ctx: SpaceContext, x: int) -> bool:
    dx = ctx.down[x]
    clsx = ctx.cls[x]
    for y in range(ctx.n):
        if ctx.cls[y] == clsx:
            continue
        meet = dx & ctx.down[y]
        if meet not in (0, clsx, ctx.cls[y]):
            return False
    return True


def _c_ssd(ctx: SpaceContext, x: int) -> bool:
    if ctx.down[x] == ctx.cls[x]:
        return True
    d = ctx.down[x] & ~ctx.cls[x]
    return d == ctx.cls[(d & -d).bit_length() - 1]


def _c_sdelta(ctx: SpaceContext, x: int) -> bool:
    if ctx.down[x] == ctx.cls[x]:
        return True
    d = ctx.down[x] & ~ctx.cls[x]
    return any(d == ctx.down[w] for w in range(ctx.n))


def _c_qs2(ctx: SpaceContext, x: int) -> bool:
    # a common upper bound gives a witness point, and if there is none the
    # kernels are disjoint open neighbourhoods; one of the two always holds
    return True


def _c_s0(ctx: SpaceContext, x: int) -> bool:
    # the class space identifies exactly the closure-equal points
    return True


def _c_s14(ctx: SpaceContext, x: int) -> bool:
    return ctx.down[x] == ctx.cls[x] or ctx.up[x] == ctx.cls[x]


_c_s12 = _c_s14


def _c_s1(ctx: SpaceContext, x: int) -> bool:
    return ctx.down[x] == ctx.cls[x]


def _c_s2(ctx: SpaceContext, x: int) -> bool:
    ux = ctx.up[x]
    clsx = ctx.cls[x]
    for y in range(ctx.n):
        if ctx.cls[y] != clsx and ux & ctx.up[y]:
            return False
    return True


# ---------------------------------------------------------------------------
# characterized space checks (order side)

def _first_failure(*conditions: Callable[[SpaceContext], dict | None]) -> Callable:
    """A space check: the witness of the first of ``conditions`` that fails, else None.

    Each condition returns None where it holds and its witness where it fails.
    """
    def run(ctx: SpaceContext) -> dict | None:
        for condition in conditions:
            wit = condition(ctx)
            if wit is not None:
                return wit
        return None
    return run


def _t0_order(ctx: SpaceContext) -> dict | None:
    if all(ctx.cls[x] == 1 << x for x in range(ctx.n)):
        return None
    return {"reason": "not T0"}


def _point_height(ctx: SpaceContext) -> dict | None:
    return {"reason": "height", "height": ctx.ht} if ctx.ht > 1 else None


def _class_height(ctx: SpaceContext) -> dict | None:
    return {"height": ctx.ht} if ctx.ht > 1 else None


def _height_one_open(reason: str) -> Callable:
    def condition(ctx: SpaceContext) -> dict | None:
        for x in range(ctx.n):
            if ctx.heights_pp[x] == 1 and ctx.up[x] != ctx.cls[x]:
                return {"reason": reason, "point": x}
        return None
    return condition


def _downward_forest(ctx: SpaceContext) -> dict | None:
    return None if is_downward_forest(ctx.pre) else {"reason": "not a downward forest"}


def _upward_forest(ctx: SpaceContext) -> dict | None:
    return None if is_upward_forest(ctx.pre) else {"reason": "not an upward forest"}


def _min_s1_free(ctx: SpaceContext) -> dict | None:
    wit = min_s1_witness(ctx.pre)
    return None if wit is None else {"pattern": list(wit)}


def _bouquet(ctx: SpaceContext) -> dict | None:
    # the empty carrier has no class to delete and holds vacuously
    if ctx.n == 0 or bouquet_root(ctx.pre) is not None:
        return None
    return {"reason": "no minimal class whose deletion leaves a downward forest"}


def _down_discrete(ctx: SpaceContext) -> dict | None:
    return None if is_down_discrete(ctx.pre) else {"reason": "not down-discrete"}


_c_t14_space = _first_failure(_t0_order, _point_height)
_c_t12_space = _first_failure(_t0_order, _point_height, _height_one_open("height-1 point not open"))
_c_tys_space = _first_failure(_t0_order, _point_height, _downward_forest)
_c_s14_space = _first_failure(_class_height)
_c_s12_space = _first_failure(_class_height, _height_one_open("height-1 class not open"))
_c_sy_space = _first_failure(_class_height, _min_s1_free)
_c_sys_space = _first_failure(_class_height, _downward_forest)
_c_syy_space = _first_failure(_class_height, _bouquet)
_c_ssd_space = _first_failure(_upward_forest, _class_height)
_c_sdelta_space = _first_failure(_upward_forest, _down_discrete)
_c_sq_space = _first_failure(_downward_forest)


def _fd_form_holds(down_t: list[int]) -> int | None:
    """First subset (by bitmap) not of the form closed-minus-downset, else None.

    down_t is the down table of the order.  C = F - D with F, D downsets
    forces F = down(C) and D = F - C, so it suffices to check that canonical
    choice: D is a downset iff its own down closure misses C.
    """
    for a, down_a in enumerate(down_t):
        if down_t[down_a & ~a] & a:
            return a
    return None


def _c_t13_space(ctx: SpaceContext) -> dict | None:
    bad = _fd_form_holds(ctx.down_t)
    if bad is None:
        return None
    return {"subset": sorted(bit_indices(bad))}


def _c_s13_space(ctx: SpaceContext) -> dict | None:
    bad = _fd_form_holds(union_table(ctx.pre.class_space()[0].down))
    if bad is None:
        return None
    return {"class_subset": sorted(bit_indices(bad))}


def _c_nested_space(ctx: SpaceContext) -> dict | None:
    if is_pre_chain(ctx.pre, ctx.full):
        return None
    return {"reason": "carrier is not a pre-chain"}


def _least_point_witness(mask: int, key: str) -> dict | None:
    """None where mask is empty, else its least point under key."""
    return None if mask == 0 else {key: (mask & -mask).bit_length() - 1}


def _c_wr0_space(ctx: SpaceContext) -> dict | None:
    return _least_point_witness(bottoms_mask(ctx.pre), "bottom")


def _c_wc0_space(ctx: SpaceContext) -> dict | None:
    return _least_point_witness(tops_mask(ctx.pre), "top")


def _c_true_space(ctx: SpaceContext) -> dict | None:
    # a finite preorder has finitely many downsets, so every strictly
    # descending chain of them is finite, and every set of points is finite
    return None


def _c_lambda_space(ctx: SpaceContext) -> dict | None:
    minimal = ctx.minimal
    for a, (up_a, down_a) in enumerate(zip(ctx.up_t, ctx.down_t)):
        if up_a & down_a != a:
            continue
        shell = down_a & ~a
        if shell & ~minimal:
            return {
                "set": sorted(bit_indices(a)),
                "shell": sorted(bit_indices(shell)),
            }
    return None


# ---------------------------------------------------------------------------
# catalog

@dataclass(frozen=True)
class AxiomSpec:
    id: str
    point_level: bool
    doc: str
    def_point: Callable | None = None
    char_point: Callable | None = None
    def_space: Callable | None = None
    char_space: Callable | None = None


_CATALOG = (
    AxiomSpec("T0", True, "distinct points are topologically distinguishable",
              _d_t0, _c_t0),
    AxiomSpec("T-1", True, "each point is closed or has a neighbourhood missing part of its closure",
              _d_tm1, _c_tm1),
    AxiomSpec("TD", True, "the derived set of each point is closed",
              _d_td, _c_td),
    AxiomSpec("T1/4", True, "each point is closed or kerneled",
              _d_t14, _c_t14, None, _c_t14_space),
    AxiomSpec("T1/3", False, "every compact (here: every) subset is lambda-closed",
              None, None, _d_t13_space, _c_t13_space),
    AxiomSpec("T1/2", True, "each point is closed or open",
              _d_t12, _c_t12, None, _c_t12_space),
    AxiomSpec("T1", True, "each point is closed",
              _d_t1, _c_t1),
    AxiomSpec("T2", True, "distinct points have disjoint neighbourhoods",
              _d_t2, _c_t2),
    AxiomSpec("TYS", True, "point closures meet in at most a shared endpoint",
              _d_tys, _c_tys, None, _c_tys_space),
    AxiomSpec("C0", True, "the derived set of a point is not a union of nonempty closed sets",
              _d_c0, _c_c0),
    AxiomSpec("CD", True, "the derived set of a point is empty or not closed",
              _d_cd, _c_cd),
    AxiomSpec("CR", True, "no nonempty closed set lies inside the derived set of a point",
              _d_cr, _c_cr),
    AxiomSpec("CN", True, "no two disjoint nonempty closed sets lie inside a derived set",
              _d_cn, _c_cn),
    AxiomSpec("SD", True, "the closure of a point minus its class is closed",
              _d_sd, _c_sd),
    AxiomSpec("S0", True, "the class of the point is T0 in the class space",
              _d_s0, _c_s0),
    AxiomSpec("S1/4", True, "the class is closed or kerneled in the class space",
              _d_s14, _c_s14, None, _c_s14_space),
    AxiomSpec("S1/3", False, "every subset of the class space is lambda-closed",
              None, None, _d_s13_space, _c_s13_space),
    AxiomSpec("S1/2", True, "the class is closed or open in the class space",
              _d_s12, _c_s12, None, _c_s12_space),
    AxiomSpec("S1", True, "the class is closed in the class space",
              _d_s1, _c_s1),
    AxiomSpec("S2", True, "distinct classes have disjoint neighbourhoods",
              _d_s2, _c_s2),
    AxiomSpec("SY", True, "two point closures meet in at most one class",
              _d_sy, _c_sy, None, _c_sy_space),
    AxiomSpec("SYS", True, "class closures meet in at most a shared class",
              _d_sys, _c_sys, None, _c_sys_space),
    AxiomSpec("SYY", False, "some point class absorbs all meets of point closures",
              None, None, _d_syy_space, _c_syy_space),
    AxiomSpec("SSD", True, "the class is closed, or its strict downset is closed and a single class",
              _d_ssd, _c_ssd, None, _c_ssd_space),
    AxiomSpec("Sdelta", True, "the class is closed, or its strict downset is the closure of a point",
              _d_sdelta, _c_sdelta, None, _c_sdelta_space),
    AxiomSpec("qS2", True, "distinct classes share a point closure or have disjoint neighbourhoods",
              _d_qs2, _c_qs2),
    AxiomSpec("SQ", False, "points separated by opens on both sides have disjoint closures",
              None, None, _d_sq_space, _c_sq_space),
    AxiomSpec("nested", False, "the open family is totally ordered by inclusion",
              None, None, _d_nested_space, _c_nested_space),
    AxiomSpec("wR0", False, "the point closures have empty intersection",
              None, None, _d_wr0_space, _c_wr0_space),
    AxiomSpec("wC0", False, "the point kernels have empty intersection",
              None, None, _d_wc0_space, _c_wc0_space),
    AxiomSpec("lambda", False, "pairwise unions of lambda-closed sets are lambda-closed",
              None, None, _d_lambda_space, _c_lambda_space),
    AxiomSpec("recurrent", True, "each point class is closed or has a non-closed derived set",
              _d_recurrent, _c_recurrent),
    AxiomSpec("artinian", False, "no strictly descending chain of closed sets (finite: always)",
              None, None, _d_true_space, _c_true_space),
    AxiomSpec("anticompact", False, "every compact subset is finite (finite: always)",
              None, None, _d_true_space, _c_true_space),
)

AXIOMS: dict[str, AxiomSpec] = {spec.id: spec for spec in _CATALOG}


@dataclass(frozen=True, eq=False)
class AxiomReport:
    axiom: str
    mode: str
    verdict: bool
    witness: dict | None


def _resolve(axiom: str, point_level: bool = False) -> AxiomSpec:
    spec = AXIOMS.get(axiom)
    if spec is None:
        raise KeyError(f"unknown axiom {axiom!r}")
    if point_level and not spec.point_level:
        raise NotPointLevelError(f"axiom {axiom} has no point-level form")
    return spec


def _checkers(spec: AxiomSpec, mode: str) -> tuple[Callable | None, Callable | None]:
    """The (space, point) checkers of one route."""
    if mode == DEFINITIONAL:
        return spec.def_space, spec.def_point
    if mode == CHARACTERIZED:
        return spec.char_space, spec.char_point
    raise ValueError(f"unknown mode {mode!r}")


def _space_eval(ctx: SpaceContext, spec: AxiomSpec, mode: str) -> dict | None:
    space = _checkers(spec, mode)[0]
    if space is not None:
        return space(ctx)
    missing = ctx.full & ~point_mask(ctx.top, spec.id, mode, ctx)
    if missing:
        return {"point": (missing & -missing).bit_length() - 1}
    return None


def check_space(top: FiniteTopology, axiom: str, mode: str = DEFINITIONAL,
                ctx: SpaceContext | None = None) -> AxiomReport:
    """Evaluate one axiom on the whole space; false verdicts carry a witness.

    With a context the report is memoized on it by (axiom, mode), so a
    repeated request returns the same report without re-evaluating.  A
    point-level axiom without a space checker holds iff its point mask is
    full, and its witness is the least point missing from the mask.
    """
    if ctx is None:
        ctx = SpaceContext(top)
    key = (axiom, mode)
    report = ctx.reports.get(key)
    if report is None:
        witness = _space_eval(ctx, _resolve(axiom), mode)
        report = ctx.reports[key] = AxiomReport(axiom, mode, witness is None, witness)
    return report


def point_mask(top: FiniteTopology, axiom: str, mode: str = DEFINITIONAL,
               ctx: SpaceContext | None = None) -> int:
    """Bitmask of the points where a point-level axiom holds.

    Bit x is check_point(top, axiom, x, mode), decided by the route's own
    point checker.  With a context the mask is memoized on it by (axiom,
    mode); this is the one place that runs a point checker over all points.
    """
    if ctx is None:
        ctx = SpaceContext(top)
    key = (axiom, mode)
    mask = ctx.masks.get(key)
    if mask is None:
        point = _checkers(_resolve(axiom, point_level=True), mode)[1]
        mask = 0
        for x in range(ctx.n):
            if point(ctx, x):
                mask |= 1 << x
        ctx.masks[key] = mask
    return mask


def check_point(top: FiniteTopology, axiom: str, point: int, mode: str = DEFINITIONAL,
                ctx: SpaceContext | None = None) -> bool:
    """Evaluate a point-level axiom at one point, uncached."""
    spec = _resolve(axiom, point_level=True)
    if not 0 <= point < top.n:
        raise ValueError(f"point {point} outside universe of size {top.n}")
    if ctx is None:
        ctx = SpaceContext(top)
    return _checkers(spec, mode)[1](ctx, point)


def axiom_vector(top: FiniteTopology, mode: str = DEFINITIONAL,
                 ctx: SpaceContext | None = None) -> dict[str, AxiomReport]:
    """All catalog axioms in catalog order, evaluated on one space."""
    if ctx is None:
        ctx = SpaceContext(top)
    return {spec.id: check_space(top, spec.id, mode, ctx) for spec in _CATALOG}
