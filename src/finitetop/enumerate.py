"""Exhaustive enumeration oracle and theorem-verification harness.

One enumerator produces every labeled topology on a small carrier: a
preorder backtracker that grows a reflexive-transitive relation matrix cell
by cell with incremental closure.  The tests check its stream against an
independent open-family backtracker kept with them.  Classes up to
relabeling are generated, not found in that stream (finitetop.generate),
one least-encoded representative per class with its orbit size; the tests
keep orbit marking over the labeled stream as the reference route.  The
labeled routes stop at MAX_LABELED_POINTS, the class routes at
MAX_CLASS_POINTS.

On top of the enumerator sits a registry of theorems: every order
characterization, implication chain, finite collapse, transfer law, and
decomposition criterion checked on all spaces (or pairs, or partitions) up
to a size cap.  A family of look-alike theorems (mode agreements, chains,
verdict laws such as the collapses, shell readings, disjoint-union
invariances) is one check factory and one registry row per theorem.  A check takes one case: a space case is its
SpaceContext, a pair case the contexts (left, right, union) of both
summands and their union, a partition case (space, decomposition).  It
returns None where the theorem holds and its witness dict where it fails.
The dynamics and decomposition laws follow the same contract, so their
rows call them directly.  A refuted theorem yields the minimal witness,
fewest points first and least preorder encoding second.  Probe theorems
carry asserted=False: their refutations are reportable findings, not
failures.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import partial
from typing import Callable, Iterable, Iterator, NamedTuple

from .axioms import (
    AXIOMS,
    CHARACTERIZED,
    DEFINITIONAL,
    SpaceContext,
    check_space,
    point_mask,
)
from .core import (
    MAX_CLASS_POINTS,
    MAX_LABELED_POINTS,
    FiniteTopology,
    Preorder,
    alexandrov,
    bit_indices,
    disjoint_union,
    union_table,
)
from .decomp import Decomposition, iter_partitions, lemma001_check, quotient, tau_F
from .dynamics import (
    _class_sizes,
    _non_wandering_mask,
    classify_space,
    is_anosov_type,
    recurrence_transfer_check,
    recurrent_mask,
    recurrent_vs_hyperbolic_check,
    saddle_equivalences_check,
)
from .order import comparability_components, is_pre_chain


class SizeError(ValueError):
    """Raised when an enumeration request names an unsupported carrier size."""


class SizeTooLargeError(SizeError):
    """Raised when an enumeration request exceeds the supported carrier size."""


def _check_size(n: int, cap: int = MAX_LABELED_POINTS) -> None:
    if n < 0:
        raise SizeError("carrier size must be nonnegative")
    if n > cap:
        raise SizeTooLargeError(f"carrier size {n} exceeds the supported maximum {cap}")


# ---------------------------------------------------------------------------
# encodings

def preorder_encoding(pre: Preorder) -> int:
    """Row-major n*n relation matrix as an unsigned integer, MSB first."""
    n = pre.n
    code = 0
    for i in range(n):
        for j in range(n):
            code = code << 1 | (pre.up[i] >> j & 1)
    return code


def decode_preorder(n: int, code: int) -> Preorder:
    up = [0] * n
    for i in range(n):
        for j in range(n):
            if code >> (n * n - 1 - (i * n + j)) & 1:
                up[i] |= 1 << j
    return Preorder(n, tuple(up))


# ---------------------------------------------------------------------------
# preorder enumeration

def _preorder_rows(n: int) -> Iterator[tuple[int, ...]]:
    """Yield the up-rows of every preorder on n labeled points.

    Cells are decided in row-major order, zero branch first, with the
    transitive closure maintained incrementally; the closure of a chosen
    edge may only force cells not yet scanned, so any forced earlier cell
    prunes the branch.  The zero-first discipline makes the row-major
    encodings come out in ascending order.

    The search runs in this one frame: ``trail`` holds, for every undecided
    cell on the current branch, its index and either None (zero branch) or
    the undo records (row table, index, old row) of its one branch.
    """
    if n == 0:
        yield ()
        return
    up = [1 << i for i in range(n)]
    down = [1 << i for i in range(n)]
    cells = [(i, j) for i in range(n) for j in range(n) if i != j]
    m = len(cells)
    trail: list[tuple[int, list | None]] = []
    k = 0
    while True:
        while k < m:
            i, j = cells[k]
            if not up[i] >> j & 1:
                trail.append((k, None))
            k += 1
        yield tuple(up)
        while trail:
            k, undo = trail.pop()
            if undo is not None:
                for rows, x, old in undo:
                    rows[x] = old
                continue
            i, j = cells[k]
            di, uj = down[i], up[j]
            undo = []
            a = di
            while a:
                low = a & -a
                ai = low.bit_length() - 1
                add = uj & ~up[ai]
                if add:
                    # every new cell (ai, b) must come after cell k
                    if ai < i or ai == i and add & ((1 << j) - 1):
                        break
                    undo.append((up, ai, up[ai]))
                a ^= low
            if a:
                continue
            for _, ai, _ in undo:
                up[ai] |= uj
            b = uj
            while b:
                low = b & -b
                bi = low.bit_length() - 1
                if di & ~down[bi]:
                    undo.append((down, bi, down[bi]))
                    down[bi] |= di
                b ^= low
            trail.append((k, undo))
            k += 1
            break
        else:
            return


def enumerate_preorders(n: int) -> Iterator[Preorder]:
    """Every preorder on n labeled points, ascending by encoding."""
    _check_size(n)
    for rows in _preorder_rows(n):
        yield Preorder(n, rows)


# ---------------------------------------------------------------------------
# relabeling classes
#
# The class routes import finitetop.generate where they first run, so that
# importing this module, which compiles its source where bytecode is not
# cached, does not compile the generator.

# the relabeling classes of one size: (up-rows, orbit size) per class
_Classes = list[tuple[tuple[int, ...], int]]


def enumerate_topologies(n: int, up_to_iso: bool = False) -> Iterator[FiniteTopology]:
    """Every labeled topology on n points via the preorder correspondence.

    With up_to_iso=True only canonical representatives (least encoding in
    each relabeling class) are yielded, ascending, by generation.
    """
    if up_to_iso:
        _check_size(n, MAX_CLASS_POINTS)
        from .generate import _poset_levels, _size_classes

        for rows, _ in _size_classes(n, _poset_levels(n)):
            yield alexandrov(Preorder(n, rows))
        return
    for pre in enumerate_preorders(n):
        yield alexandrov(pre)


def count_topologies(n: int, up_to_iso: bool = False) -> int:
    """Number of topologies (equivalently preorders) on n labeled points.

    The sum of the orbit sizes of the relabeling classes, or with
    up_to_iso=True the number of classes.
    """
    _check_size(n, MAX_CLASS_POINTS)
    from .generate import _poset_levels, _size_classes

    classes = _size_classes(n, _poset_levels(n))
    return len(classes) if up_to_iso else sum(size for _, size in classes)


# ---------------------------------------------------------------------------
# theorem registry

@dataclass(frozen=True)
class Theorem:
    id: str
    description: str
    scope: str  # a key of _SCOPES: "space" | "pair" | "partition"
    asserted: bool
    check: Callable


@dataclass(frozen=True, eq=False)
class Finding:
    theorem: str
    description: str
    scope: str
    asserted: bool
    status: str  # "verified" | "refuted"
    spaces_checked: int
    n_max: int
    witness: dict | None
    elapsed: float

    def to_json_dict(self, timings: bool = False) -> dict:
        doc = {
            "theorem": self.theorem,
            "description": self.description,
            "scope": self.scope,
            "asserted": self.asserted,
            "status": self.status,
            "spaces_checked": self.spaces_checked,
            "n_max": self.n_max,
            "witness": self.witness,
        }
        if timings:
            doc["elapsed"] = round(self.elapsed, 6)
        return doc


_REGISTRY: dict[str, Theorem] = {}


def _register(tid: str, description: str, scope: str, asserted: bool, check: Callable) -> None:
    if tid in _REGISTRY:
        raise ValueError(f"duplicate theorem id {tid!r}")
    _REGISTRY[tid] = Theorem(tid, description, scope, asserted, check)


def _theorem(tid: str, description: str, scope: str = "space", asserted: bool = True):
    def deco(fn):
        _register(tid, description, scope, asserted, fn)
        return fn
    return deco


def theorems() -> tuple[Theorem, ...]:
    return tuple(_REGISTRY.values())


def _first_difference(a: int, b: int, names: tuple[str, str]) -> dict | None:
    """The least point where point masks a and b differ, with each one's bit there."""
    diff = a ^ b
    if not diff:
        return None
    x = (diff & -diff).bit_length() - 1
    return {"point": x, names[0]: bool(a >> x & 1), names[1]: bool(b >> x & 1)}


def _verdicts(ctx: SpaceContext, axioms: Iterable[str]) -> list[bool]:
    """The definitional verdicts of ``axioms`` on the space, memoized on its context."""
    return [check_space(ctx.top, axiom, DEFINITIONAL, ctx).verdict for axiom in axioms]


def _verdict_law(axioms: tuple[str, ...], law: Callable[..., bool]) -> Callable:
    """A check that ``law`` holds of the verdicts of ``axioms``; the witness is every verdict."""
    def run(ctx: SpaceContext) -> dict | None:
        verdicts = _verdicts(ctx, axioms)
        return None if law(*verdicts) else dict(zip(axioms, verdicts))
    return run


def _all_equal(*verdicts: bool) -> bool:
    return len(set(verdicts)) < 2


# every axiom's definitional checker must agree with its order characterization

def _mode_agreement(axiom: str) -> Callable:
    point_level = AXIOMS[axiom].point_level

    def run(ctx: SpaceContext) -> dict | None:
        if point_level:
            diff = _first_difference(point_mask(ctx.top, axiom, DEFINITIONAL, ctx),
                                     point_mask(ctx.top, axiom, CHARACTERIZED, ctx),
                                     ("definitional", "characterized"))
            if diff is not None:
                return {"axiom": axiom, **diff}
        rd = check_space(ctx.top, axiom, DEFINITIONAL, ctx)
        rc = check_space(ctx.top, axiom, CHARACTERIZED, ctx)
        if rd.verdict != rc.verdict:
            return {"axiom": axiom, "definitional": rd.verdict,
                    "characterized": rc.verdict,
                    "definitional_witness": rd.witness,
                    "characterized_witness": rc.witness}
        return None

    return run


_MODE_THEOREMS = (
    ("t0_char", "T0", "a point is T0 iff its class is a singleton"),
    ("tm1_char", "T-1", "point closed, or some neighbourhood misses part of the closure, iff not class-minimal or the downset is a singleton"),
    ("td_char", "TD", "the derived set of a point is closed iff it is a downset"),
    ("t14_char", "T1/4", "closed-or-kerneled points iff T0 with height at most one"),
    ("t13_char", "T1/3", "all subsets lambda-closed iff all subsets are closed-minus-downset"),
    ("t12_char", "T1/2", "closed-or-open points iff T0, height at most one, height-1 points open"),
    ("t1_char", "T1", "a point is closed iff its downset is a singleton"),
    ("t2_char", "T2", "disjoint neighbourhoods iff disjoint upsets"),
    ("tys_char", "TYS", "closure meets are endpoints iff T0, height at most one, downward forest"),
    ("c0_char", "C0", "derived set escapes unions of closed sets iff class-minimal or a nontrivial class"),
    ("cd_char", "CD", "derived set empty or non-closed iff class-minimal or the point sits under its strict downset"),
    ("cr_char", "CR", "derived set holds no nonempty closed set iff the point is class-minimal"),
    ("cn_char", "CN", "no disjoint closed pair in the derived set iff the downset is down-directed"),
    ("sd_char", "SD", "closure minus class closed iff the class-strict downset avoids the upset"),
    ("s0_char", "S0", "class-space T0 holds at every class"),
    ("s14_char", "S1/4", "classes closed-or-kerneled iff height at most one"),
    ("s13_char", "S1/3", "class-space subsets lambda-closed iff closed-minus-downset on the class poset"),
    ("s12_char", "S1/2", "classes closed-or-open iff height at most one with height-1 classes open"),
    ("s1_char", "S1", "class closed iff downset equals class"),
    ("s2_char", "S2", "distinct classes have disjoint neighbourhoods iff disjoint upsets"),
    ("sy_char", "SY", "closure meets hold at most one class iff height at most one and min-S1-free"),
    ("sys_char", "SYS", "class closure meets are shared classes iff height at most one downward forest"),
    ("syy_char", "SYY", "some class absorbs all closure meets iff height at most one bouquet of downward forests"),
    ("ssd_char", "SSD", "class closed or strict downset a closed class iff upward forest of height at most one"),
    ("sdelta_char", "Sdelta", "class closed or strict downset a point closure iff down-discrete upward forest"),
    ("qs2_char", "qS2", "common closure point or disjoint neighbourhoods always holds on finite spaces"),
    ("sq_char", "SQ", "two-sided open separation forces disjoint closures iff downward forest"),
    ("nested_char", "nested", "opens totally ordered iff the carrier is a pre-chain"),
    ("wr0_char", "wR0", "point closures meet emptily iff there is no bottom"),
    ("wc0_char", "wC0", "point kernels meet emptily iff there is no top"),
    ("lambda_char", "lambda", "unions of lambda-closed sets lambda-closed iff convex shells stay minimal"),
    ("recurrent_char", "recurrent", "class closed or derived set non-closed iff class-minimal or the strict downset is not a downset"),
    ("artinian_char", "artinian", "descending chain condition holds on every finite space"),
    ("anticompact_char", "anticompact", "every compact subset of a finite space is finite"),
)

for _tid, _axiom, _desc in _MODE_THEOREMS:
    _register(_tid, _desc, "space", True, _mode_agreement(_axiom))


@_theorem("tm1_minimal_closed", "a space is T-1 iff every class-minimal point is a closed singleton")
def _check_tm1_minimal(ctx: SpaceContext) -> dict | None:
    rd = check_space(ctx.top, "T-1", DEFINITIONAL, ctx).verdict
    order_form = all(
        ctx.down[x] == 1 << x
        for x in range(ctx.n)
        if ctx.down[x] == ctx.cls[x]
    )
    if rd != order_form:
        return {"definitional": rd, "minimal_singletons": order_form}
    return None


@_theorem("sd_always_finite", "every finite space satisfies SD: closure minus class is always closed")
def _check_sd_always(ctx: SpaceContext) -> dict | None:
    r = check_space(ctx.top, "SD", DEFINITIONAL, ctx)
    if not r.verdict:
        return {"witness": r.witness}
    return None


def _shell_reading(axiom: str, key: str, shell: Callable[[SpaceContext, int], int]) -> Callable:
    """A check that ``axiom`` holds at x iff x is class-minimal or escapes the closure of its shell.

    ``shell(ctx, x)`` is the shell of x.  The witness is the least point where
    the two sides differ, with the side of ``axiom`` under ``key``.
    """
    def run(ctx: SpaceContext) -> dict | None:
        reading = 0
        for x in range(ctx.n):
            if ctx.down[x] == ctx.cls[x] or not ctx.top.closure_bits(shell(ctx, x)) >> x & 1:
                reading |= 1 << x
        return _first_difference(point_mask(ctx.top, axiom, DEFINITIONAL, ctx), reading, (key, "reading"))
    return run


# the class shell of x is its closure minus its class, the point shell its
# derived set; a point's derived set is closed exactly where it is TD
for _tid, _desc, _asserted, _axiom, _key, _shell in (
    ("sd_class_reading", "closure minus class is closed iff class-minimal or the point escapes its closure",
     True, "SD", "sd", lambda ctx, x: ctx.closure1[x] & ~ctx.cls_def[x]),
    ("sd_point_shell_probe",
     "probe: point derived set closed iff class-minimal or the point escapes the derived set closure",
     False, "TD", "derived_closed", lambda ctx, x: ctx.closure1[x] & ~(1 << x)),
    ("sd_mixed_probe", "probe: SD at a point iff class-minimal or the point escapes the point-shell closure",
     False, "SD", "sd", lambda ctx, x: ctx.closure1[x] & ~(1 << x)),
):
    _register(_tid, _desc, "space", _asserted, _shell_reading(_axiom, _key, _shell))


def _pointwise_chain(ctx: SpaceContext, chain: tuple[str, ...]) -> dict | None:
    masks = [point_mask(ctx.top, axiom, DEFINITIONAL, ctx) for axiom in chain]
    bad = [held & ~fails for held, fails in zip(masks, masks[1:])]
    # the least point that holds one axiom and fails the next, at its first such link
    broken = min(((b & -b, i) for i, b in enumerate(bad) if b), default=None)
    if broken is None:
        return None
    low, i = broken
    return {"point": low.bit_length() - 1, "holds": chain[i], "fails": chain[i + 1]}


def _space_chain(ctx: SpaceContext, chain: tuple[str, ...]) -> dict | None:
    verdicts = _verdicts(ctx, chain)
    for i in range(len(chain) - 1):
        if verdicts[i] and not verdicts[i + 1]:
            return {"holds": chain[i], "fails": chain[i + 1]}
    return None


for _tid, _chain, _axioms, _desc in (
    ("t1_cr_c0_cd_chain", _pointwise_chain, ("T1", "CR", "C0", "CD"),
     "pointwise T1 implies CR implies C0 implies CD"),
    ("cr_cn_implication", _pointwise_chain, ("CR", "CN"), "pointwise CR implies CN"),
    ("s1_c0_recurrent_chain", _pointwise_chain, ("S1", "C0", "recurrent"),
     "pointwise S1 implies C0 implies recurrent"),
    ("s12_lambda_s14_chain", _space_chain, ("S1/2", "lambda", "S1/4"),
     "S1/2 implies lambda-space implies S1/4"),
    ("s12_s13_s14_chain", _space_chain, ("S1/2", "S1/3", "S1/4"), "S1/2 implies S1/3 implies S1/4"),
    ("tys_implies_t14", _space_chain, ("TYS", "T1/4"), "TYS implies T1/4"),
):
    _register(_tid, _desc, "space", True, partial(_chain, chain=_axioms))


_register("sys_eq_s14_and_sq", "SYS equals S1/4 together with SQ", "space", True,
          _verdict_law(("SYS", "S1/4", "SQ"), lambda sys, s14, sq: sys == (s14 and sq)))


@_theorem("sq_sdelta_chain_union", "SQ and Sdelta force the class space to be a disjoint union of chains")
def _check_sq_sdelta(ctx: SpaceContext) -> dict | None:
    if not all(_verdicts(ctx, ("SQ", "Sdelta"))):
        return None
    for comp in comparability_components(ctx.pre):
        if not is_pre_chain(ctx.pre, comp):
            return {"component": sorted(bit_indices(comp))}
    return None


_register("cr_or_nested_implies_sq", "CR or nested implies SQ", "space", True,
          _verdict_law(("CR", "nested", "SQ"), lambda cr, nested, sq: sq or not (cr or nested)))


@_theorem("recurrent_eq_c0_finite", "recurrent and C0 coincide pointwise on finite spaces")
def _check_recurrent_c0(ctx: SpaceContext) -> dict | None:
    recurrent = point_mask(ctx.top, "recurrent", DEFINITIONAL, ctx)
    return _first_difference(recurrent, point_mask(ctx.top, "C0", DEFINITIONAL, ctx), ("recurrent", "C0"))


_register("t13_eq_t12_finite", "T1/4, T1/3 and T1/2 coincide on finite spaces", "space", True,
          _verdict_law(("T1/4", "T1/3", "T1/2"), _all_equal))


@_theorem("t1_eq_t2_discrete_finite", "T1, T2 and discreteness coincide on finite spaces")
def _check_t1_t2(ctx: SpaceContext) -> dict | None:
    v1, v2 = _verdicts(ctx, ("T1", "T2"))
    discrete = len(ctx.top.opens) == 1 << ctx.n
    if not v1 == v2 == discrete:
        return {"T1": v1, "T2": v2, "discrete": discrete}
    return None


_register("lambda_eq_s14_s12_finite", "lambda-space, S1/4 and S1/2 coincide on finite spaces",
          "space", True, _verdict_law(("lambda", "S1/4", "S1/2"), _all_equal))


@_theorem("class_space_t0_idempotent", "the class space is T0 and a fixed point of the construction")
def _check_class_space(ctx: SpaceContext) -> dict | None:
    qctx, _ = ctx.class_ctx
    qtop = qctx.top
    if not check_space(qtop, "T0", DEFINITIONAL, qctx).verdict:
        return {"reason": "class space not T0"}
    qq, _ = qtop.class_space()
    if qq.opens != qtop.opens:
        return {"reason": "class space not idempotent"}
    return None


@_theorem("class_space_height_preserved", "passing to the class space preserves heights")
def _check_heights(ctx: SpaceContext) -> dict | None:
    qctx, mapping = ctx.class_ctx
    if ctx.ht != qctx.ht:
        return {"space_height": ctx.ht, "class_height": qctx.ht}
    per_point = ctx.heights_pp
    qper = qctx.heights_pp
    for x in range(ctx.n):
        if per_point[x] != qper[mapping[x]]:
            return {"point": x, "height": per_point[x], "class_height": qper[mapping[x]]}
    return None


@_theorem("alexandrov_roundtrip", "opens of the upset topology of the specialization preorder reproduce the space")
def _check_roundtrip(ctx: SpaceContext) -> dict | None:
    rebuilt = alexandrov(ctx.top.specialization())
    if rebuilt.opens != ctx.top.opens:
        return {"rebuilt_opens": _opens_doc(rebuilt)}
    return None


# a law returns None or its witness dict, so it is a check as it stands; each
# row wraps it in a lambda so that the law is looked up at call time and
# instrumentation that replaces it sees the call
_register("recurrence_transfer", "recurrence transfers to the class space: preimage law and space law",
          "space", True, lambda ctx: recurrence_transfer_check(ctx.top, ctx))


@_theorem("nonwandering_density", "every point is non-wandering iff big classes and recurrent classes are dense in the class space")
def _check_nonwandering(ctx: SpaceContext) -> dict | None:
    qctx, _ = ctx.class_ctx
    all_nonwandering = _non_wandering_mask(ctx) == ctx.full
    dense_target = recurrent_mask(qctx)
    for b, size in enumerate(_class_sizes(ctx)):
        if size > 1:
            dense_target |= 1 << b
    dense = qctx.down_t[dense_target] == qctx.full
    if all_nonwandering != dense:
        return {"all_non_wandering": all_nonwandering, "class_union_dense": dense}
    return None


_register("saddle_equivalences", "both saddle-condition triples are equivalent on every point and pair",
          "space", True, lambda ctx: saddle_equivalences_check(ctx.top, ctx))
_register("recurrent_excludes_hyperbolic", "a recurrent space has no hyperbolic-like points",
          "space", True, lambda ctx: recurrent_vs_hyperbolic_check(ctx.top, ctx))


@_theorem("hyperbolic_converse_probe",
          "probe: a space without weakly hyperbolic-like points is recurrent",
          asserted=False)
def _check_converse(ctx: SpaceContext) -> dict | None:
    flags = classify_space(ctx.top, ctx)
    if any(f.weakly_hyperbolic_like for f in flags):
        return None
    for x, f in enumerate(flags):
        if not f.recurrent:
            return {"point": x}
    return None


@_theorem("open_point_exclusion", "weakly hyperbolic-like spaces have no open points; TD spaces without open points are weakly hyperbolic-like and not Anosov-type")
def _check_open_point(ctx: SpaceContext) -> dict | None:
    flags = classify_space(ctx.top, ctx)
    all_whl = ctx.n > 0 and all(f.weakly_hyperbolic_like for f in flags)
    open_points = [x for x in range(ctx.n) if 1 << x in ctx.top.opens_set]
    if all_whl and open_points:
        return {"open_point": open_points[0]}
    td = check_space(ctx.top, "TD", DEFINITIONAL, ctx).verdict
    if td and not open_points:
        if ctx.n > 0 and not all(f.weakly_hyperbolic_like for f in flags):
            bad = next(x for x, f in enumerate(flags) if not f.weakly_hyperbolic_like)
            return {"non_whl_point": bad}
        if is_anosov_type(ctx.top, ctx):
            return {"reason": "Anosov-type despite TD without open points"}
    return None


@_theorem("no_finite_anosov", "no finite space is of Anosov type: minimal points form a closed set")
def _check_no_anosov(ctx: SpaceContext) -> dict | None:
    if is_anosov_type(ctx.top, ctx):
        return {"reason": "Anosov-type finite space"}
    return None


@_theorem("proper_vs_recurrent", "proper means trivial class; improper points are recurrent; a proper point is recurrent iff closed")
def _check_proper(ctx: SpaceContext) -> dict | None:
    flags = classify_space(ctx.top, ctx)
    for x, f in enumerate(flags):
        if f.proper != (ctx.cls[x] == 1 << x):
            return {"point": x, "proper": f.proper, "trivial_class": ctx.cls[x] == 1 << x}
        if not f.proper and not f.recurrent:
            return {"point": x, "reason": "improper but not recurrent"}
        if f.proper and f.recurrent != (ctx.down[x] == 1 << x):
            return {"point": x, "recurrent": f.recurrent, "closed": ctx.down[x] == 1 << x}
    return None


@_theorem("exceptional_absent_in_td", "TD spaces have no exceptional points")
def _check_exceptional(ctx: SpaceContext) -> dict | None:
    if not check_space(ctx.top, "TD", DEFINITIONAL, ctx).verdict:
        return None
    flags = classify_space(ctx.top, ctx)
    for x, f in enumerate(flags):
        if f.exceptional:
            return {"point": x}
    return None


def _du_invariance(axiom: str) -> Callable:
    def run(left: SpaceContext, right: SpaceContext, union: SpaceContext) -> dict | None:
        for mode in (DEFINITIONAL, CHARACTERIZED):
            vu, vl, vr = (check_space(ctx.top, axiom, mode, ctx).verdict for ctx in (union, left, right))
            if vu != (vl and vr):
                return {"axiom": axiom, "mode": mode,
                        "union": vu, "left": vl, "right": vr}
        return None
    return run


for _tid, _axiom in (("du_tm1", "T-1"), ("du_t14", "T1/4"),
                     ("du_t13", "T1/3"), ("du_t12", "T1/2")):
    _register(_tid, f"a disjoint union is {_axiom} iff both summands are", "pair", True,
              _du_invariance(_axiom))


@_theorem("du_closure_restriction", "closures in a disjoint union restrict to summand closures", scope="pair")
def _check_du_closure(left: SpaceContext, right: SpaceContext, union: SpaceContext) -> dict | None:
    for side, summand, shift in (("left", left, 0), ("right", right, left.n)):
        for a, closure in enumerate(summand.closure_t):
            if union.top.closure_bits(a << shift) != closure << shift:
                return {"side": side, "subset": sorted(bit_indices(a))}
    return None


_register("tau_f_containment",
          "saturated opens sit inside the topology iff saturated closures; containment forces a topology",
          "partition", True, lambda top, dec: lemma001_check(top, dec))


@_theorem("tau_f_quotient_correspondence", "when contained, the saturated family equals the quotient topology on blocks", scope="partition")
def _check_tau_f_quotient(top: FiniteTopology, dec: Decomposition) -> dict | None:
    r = tau_F(top, dec)
    if not all(s in top.opens_set for s in r.family):
        return None
    # a saturation is a union of blocks: its set of blocks is its index in the union table
    index = {sat: combo for combo, sat in enumerate(union_table(dec.blocks))}
    combos = sorted(index[sat] for sat in r.family)
    q = quotient(top, dec)
    if tuple(combos) != q.opens:
        return {"family_blocks": combos, "quotient_opens": list(q.opens)}
    return None


# ---------------------------------------------------------------------------
# verification driver

def _sweep(ids: list[str], cases: Iterable[tuple[int, tuple]], payload: Callable) -> tuple[int, dict]:
    """Fold the theorems ``ids`` over ``cases``, each a pair (weight, args).

    ``args`` is the argument tuple of a check and ``weight`` the number of
    labeled cases it stands for (orbit sizes, see ``verify_all``).
    Returns the summed weights and, per theorem, [first witness, seconds]:
    the witness is ``{**payload(*args), **detail}`` for the first case whose
    check returns a detail, after which that theorem is not checked again;
    the seconds are the wall time spent in its checks.
    """
    slots = {tid: [None, 0.0] for tid in ids}
    # read at sweep time: instrumentation may replace a theorem's check
    checks = [(_REGISTRY[tid].check, slots[tid]) for tid in ids]
    clock = time.perf_counter
    count = 0
    for weight, case in cases:
        count += weight
        for check, slot in checks:
            if slot[0] is None:
                start = clock()
                detail = check(*case)
                slot[1] += clock() - start
                if detail is not None:
                    slot[0] = {**payload(*case), **detail}
    return count, slots


def _opens_doc(top: FiniteTopology) -> list[list[int]]:
    return [sorted(bit_indices(u)) for u in top.opens]


def _space_cases(n: int, reps: Iterable[tuple[tuple[int, ...], int]]
                 ) -> Iterator[tuple[int, tuple[SpaceContext]]]:
    for rows, size in reps:
        pre = Preorder(n, rows)
        yield size, (SpaceContext(alexandrov(pre), pre),)


def _space_payload(ctx: SpaceContext) -> dict:
    return {"n": ctx.n, "encoding": preorder_encoding(ctx.pre), "opens": _opens_doc(ctx.top)}


def _pair_cases(classes: list[_Classes]
                ) -> Iterator[tuple[int, tuple[SpaceContext, SpaceContext, SpaceContext]]]:
    """Ordered pairs of class representatives, classes[n] for each size n.

    Pairs come by combined size up to the last size given, then left size,
    then pool positions, and weigh orbit(left) * orbit(right).  Each
    representative's context and closure table are built once here, and
    each case's union and its context with the case, so that no theorem's
    time includes them.
    """
    pools = [list(_space_cases(n, reps)) for n, reps in enumerate(classes)]
    for pool in pools:
        for _, (ctx,) in pool:
            ctx.closure_t
    for total in range(len(classes)):
        for na in range(total + 1):
            for wa, (left,) in pools[na]:
                for wb, (right,) in pools[total - na]:
                    yield wa * wb, (left, right, SpaceContext(disjoint_union([left.top, right.top])))


def _pair_payload(left: SpaceContext, right: SpaceContext, union: SpaceContext) -> dict:
    return {"n_left": left.n, "left_opens": _opens_doc(left.top),
            "n_right": right.n, "right_opens": _opens_doc(right.top)}


def _partition_cases(n: int, reps: Iterable[tuple[tuple[int, ...], int]]
                     ) -> Iterator[tuple[int, tuple[FiniteTopology, Decomposition]]]:
    """Every partition of every class representative on n points, weighing its orbit size."""
    decs = list(iter_partitions(n))
    for rows, size in reps:
        top = alexandrov(Preorder(n, rows))
        for dec in decs:
            yield size, (top, dec)


def _partition_payload(top: FiniteTopology, dec: Decomposition) -> dict:
    return {"n": top.n, "opens": _opens_doc(top),
            "blocks": [sorted(bit_indices(b)) for b in dec.blocks]}


def _by_size(classes: list[_Classes], jobs: int) -> tuple[list[tuple], list[tuple]]:
    """Case-builder arguments (n, classes[n]), one per size, as (in process, pooled).

    With jobs > 1 a size with more than 256 classes is cut into small slices
    instead, which one pool hands out one at a time: a worker that runs ahead
    takes the next slice, and neither idles at the other's long tail.
    """
    here, pooled = [], []
    for n, reps in enumerate(classes):
        if jobs > 1 and len(reps) > 256:
            chunk = max(64, len(reps) // (jobs * 32))
            pooled.extend((n, reps[i:i + chunk]) for i in range(0, len(reps), chunk))
        else:
            here.append((n, reps))
    return here, pooled


class _Scope(NamedTuple):
    cap: Callable[[int], int]  # the largest size swept, given n_max
    parts: Callable  # (classes, jobs) -> (in-process, pooled) case-builder arguments
    cases: Callable  # case-builder arguments -> (weight, check arguments) cases
    payload: Callable  # check arguments -> the case's part of a witness


# one row per Theorem.scope; the pair scope is one in-process part, since it
# builds one context per representative and shares it among all its pairs
_SCOPES = {
    "space": _Scope(lambda n_max: n_max, _by_size, _space_cases, _space_payload),
    "pair": _Scope(lambda n_max: min(n_max, 5), lambda classes, jobs: ([(classes,)], []),
                   _pair_cases, _pair_payload),
    "partition": _Scope(lambda n_max: min(n_max, 4), _by_size, _partition_cases, _partition_payload),
}


def _run_slice(task: tuple[str, list[str], tuple]) -> tuple[int, dict]:
    scope, ids, args = task
    row = _SCOPES[scope]
    return _sweep(ids, row.cases(*args), row.payload)


def verify_all(ids: Iterable[str] | None = None, n_max: int = 5, jobs: int = 1) -> list[Finding]:
    """Run theorems over all spaces (pairs, partitions) up to the size caps.

    Each scope sweeps up to the cap that its ``_SCOPES`` row takes from
    n_max: space theorems all topologies, pair theorems all ordered pairs
    up to that combined size, and partition theorems all partitions of all
    spaces.  The relabeling classes of every size come from one build per
    call, and every scope sweeps them, one least-encoded representative per
    class, with weights that make the counts those of the labeled sweep: a
    space, and each of its partitions, weighs its orbit size, and a pair
    orbit(left) * orbit(right).  Every theorem is invariant under relabeling
    (a pair theorem under relabeling each summand on its own, a partition
    theorem under one permutation of the space and its blocks), so the
    least refuting labeled case is made of representatives and the
    witnesses are those of the labeled sweep.  The sweep always completes,
    so counts are cap-determined and witnesses are minimal; with jobs > 1
    the parts that the rows mark as pooled go to one worker pool, with a
    deterministic merge.  A finding's elapsed is the time spent in that
    theorem's checks, summed over workers.

    Each route's point checker runs once per space and axiom: a space's
    SpaceContext memoizes its point masks and verdicts while its theorems
    run, and the pair sweep builds one context per class representative,
    with its closure table, for this call and shares it as a summand by all
    pairs.  Nothing is cached across calls.
    """
    _check_size(n_max, MAX_CLASS_POINTS)
    chosen = list(_REGISTRY) if ids is None else list(ids)
    by_scope: dict[str, list[str]] = {}
    for tid in chosen:
        if tid not in _REGISTRY:
            raise KeyError(f"unknown theorem {tid!r}")
        scope = _REGISTRY[tid].scope
        if scope not in _SCOPES:
            raise KeyError(f"theorem {tid!r} has unknown scope {scope!r}")
        by_scope.setdefault(scope, []).append(tid)
    caps = {scope: _SCOPES[scope].cap(n_max) for scope in by_scope}
    from .generate import _preorder_classes

    classes = _preorder_classes(max(caps.values(), default=-1))
    results, pooled = [], []
    for scope, scope_ids in by_scope.items():
        here, there = _SCOPES[scope].parts(classes[:caps[scope] + 1], jobs)
        results += [_run_slice((scope, scope_ids, args)) for args in here]
        pooled += [(scope, scope_ids, args) for args in there]
    if pooled:
        from multiprocessing import Pool

        with Pool(min(jobs, len(pooled))) as pool:
            results += pool.imap(_run_slice, pooled)
    # a theorem's first witness here is its least: in each scope the in-process
    # parts (the smaller sizes) come first, and imap keeps the pooled ones in order
    totals = {tid: [0, None, 0.0] for tid in chosen}
    for count, slots in results:
        for tid, (witness, seconds) in slots.items():
            total = totals[tid]
            total[0] += count
            if total[1] is None:
                total[1] = witness
            total[2] += seconds

    findings = []
    for tid in chosen:
        theorem = _REGISTRY[tid]
        count, witness, seconds = totals[tid]
        findings.append(Finding(
            theorem=tid,
            description=theorem.description,
            scope=theorem.scope,
            asserted=theorem.asserted,
            status="verified" if witness is None else "refuted",
            spaces_checked=count,
            n_max=caps[theorem.scope],
            witness=witness,
            elapsed=seconds,
        ))
    return findings


# ---------------------------------------------------------------------------
# implication matrix

@dataclass(frozen=True, eq=False)
class ImplicationMatrix:
    axioms: tuple[str, ...]
    n_max: int
    spaces_checked: int
    counterexamples: dict

    def implies(self, a: str, b: str) -> bool:
        return (a, b) not in self.counterexamples

    def to_json_dict(self) -> dict:
        return {
            "axioms": list(self.axioms),
            "n_max": self.n_max,
            "spaces_checked": self.spaces_checked,
            "implications": {
                a: sorted(b for b in self.axioms if a != b and self.implies(a, b))
                for a in self.axioms
            },
            "counterexamples": {
                f"{a}=>{b}": w for (a, b), w in sorted(self.counterexamples.items())
            },
        }


def implication_matrix(n_max: int = 5, axioms: Iterable[str] | None = None) -> ImplicationMatrix:
    """Ordered implication survey: (a, b) holds when no space satisfies a but not b.

    Counterexamples are minimal, fewest points then least encoding, because
    the sweep is ascending.  It visits one least-encoded representative per
    relabeling class, which is where the least counterexample of any orbit
    sits, and counts each by its orbit size.
    """
    _check_size(n_max, MAX_CLASS_POINTS)
    chosen = tuple(axioms) if axioms is not None else tuple(AXIOMS)
    for a in chosen:
        if a not in AXIOMS:
            raise KeyError(f"unknown axiom {a!r}")
    from .generate import _preorder_classes

    counterexamples: dict = {}
    checked = 0
    for n, reps in enumerate(_preorder_classes(n_max)):
        for size, (ctx,) in _space_cases(n, reps):
            checked += size
            verdicts = _verdicts(ctx, chosen)
            held = [a for a, v in zip(chosen, verdicts) if v]
            failed = [b for b, v in zip(chosen, verdicts) if not v]
            new = [(a, b) for a in held for b in failed if (a, b) not in counterexamples]
            if new:
                counterexamples.update(dict.fromkeys(new, _space_payload(ctx)))
    return ImplicationMatrix(chosen, n_max, checked, counterexamples)
