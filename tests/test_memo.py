"""The memoized paths against the uncached ones.

A SpaceContext memoizes per-point verdict masks, check_space reports and
the dynamics flags, a Preorder caches its class space, and the pair sweep
keeps one context per summand for one verify_all call.  Each test here
recomputes the same values on fresh objects and requires identical
results; the theorems that read masks are compared with the point loops
they replaced, kept here as references.
"""

from __future__ import annotations

import dataclasses
import gc
import weakref

from finitetop.axioms import (
    AXIOMS,
    CHARACTERIZED,
    DEFINITIONAL,
    SpaceContext,
    _space_eval,
    axiom_vector,
    check_point,
    check_space,
    point_mask,
)
from finitetop.core import Preorder, alexandrov, disjoint_union
from finitetop.dynamics import _classify, classify_space
from finitetop.enumerate import (
    _MODE_THEOREMS,
    _REGISTRY,
    _pair_cases,
    _pointwise_chain,
    enumerate_preorders,
    theorems,
    verify_all,
)
from finitetop.generate import _preorder_classes

MODES = (DEFINITIONAL, CHARACTERIZED)
SPACE_THEOREMS = [t for t in theorems() if t.scope == "space"]
POINT_AXIOMS = [axiom for axiom, spec in AXIOMS.items() if spec.point_level]
MODE_THEOREM = {axiom: _REGISTRY[tid] for tid, axiom, _ in _MODE_THEOREMS}


def _labeled_spaces(n_max: int):
    for n in range(n_max + 1):
        for pre in enumerate_preorders(n):
            yield pre, alexandrov(pre)


def _shared_context(pre: Preorder, top) -> SpaceContext:
    """A context whose memos were filled by every space theorem, as in a sweep."""
    ctx = SpaceContext(top, pre)
    for theorem in SPACE_THEOREMS:
        theorem.check(ctx)
    return ctx


class TestSpaceMemo:
    def test_verdicts_match_fresh_evaluation(self):
        for pre, top in _labeled_spaces(4):
            shared = _shared_context(pre, top)
            for axiom, spec in AXIOMS.items():
                for mode in MODES:
                    got = check_space(top, axiom, mode, shared)
                    assert check_space(top, axiom, mode, shared) is got
                    want = _space_eval(SpaceContext(top), spec, mode)
                    assert (got.verdict, got.witness) == (want is None, want), (top, axiom, mode)
                    assert (got.axiom, got.mode) == (axiom, mode)

    def test_dynamics_flags_match_fresh_evaluation(self):
        for pre, top in _labeled_spaces(4):
            shared = _shared_context(pre, top)
            flags = classify_space(top, shared)
            assert classify_space(top, shared) is flags
            assert flags == _classify(SpaceContext(top))
            assert flags == classify_space(top)

    def test_class_poset_matches_fresh_build(self):
        for pre, top in _labeled_spaces(4):
            q, mapping = pre.class_space()
            assert all(a is b for a, b in zip(pre.class_space(), (q, mapping)))
            fresh = Preorder(pre.n, pre.up).class_space()
            assert fresh[0] is not q
            assert fresh == (q, mapping)
            assert top.specialization().class_space() == (q, mapping)

    def test_t0_space_is_its_own_class_context(self):
        seen = set()
        for n, reps in enumerate(_preorder_classes(6)):
            for rows, _ in reps:
                pre = Preorder(n, rows)
                top = alexandrov(pre)
                ctx = SpaceContext(top, pre)
                t0 = all(c == 1 << x for x, c in enumerate(pre.cls))
                assert (ctx.class_ctx[0] is ctx) == t0, pre
                seen.add(t0)
                if t0:
                    # sharing the memo gives the verdicts of a separate class context
                    apart = SpaceContext(top, pre)
                    apart._quotient = (SpaceContext(top), ctx.class_ctx[1])
                    assert apart.class_ctx[0] is not apart
                    shared, fresh = (axiom_vector(top, DEFINITIONAL, c) for c in (ctx, apart))
                    assert ([(r.verdict, r.witness) for r in shared.values()]
                            == [(r.verdict, r.witness) for r in fresh.values()]), pre
        assert seen == {True, False}

    def test_context_holds_no_reference_to_itself(self):
        # freed by reference counting alone, after every space theorem ran on it
        gc.disable()
        try:
            for n, reps in enumerate(_preorder_classes(5)):
                for rows, _ in reps:
                    pre = Preorder(n, rows)
                    ctx = _shared_context(pre, alexandrov(pre))
                    ref = weakref.ref(ctx)
                    del ctx
                    assert ref() is None, pre
        finally:
            gc.enable()


def _reference_mode_agreement(ctx: SpaceContext, axiom: str) -> dict | None:
    """A mode theorem as a loop over both routes' point checkers."""
    spec = AXIOMS[axiom]
    if spec.point_level:
        for x in range(ctx.n):
            d = spec.def_point(ctx, x)
            c = spec.char_point(ctx, x)
            if d != c:
                return {"axiom": axiom, "point": x,
                        "definitional": d, "characterized": c}
    rd = check_space(ctx.top, axiom, DEFINITIONAL, ctx)
    rc = check_space(ctx.top, axiom, CHARACTERIZED, ctx)
    if rd.verdict != rc.verdict:
        return {"axiom": axiom, "definitional": rd.verdict,
                "characterized": rc.verdict,
                "definitional_witness": rd.witness,
                "characterized_witness": rc.witness}
    return None


def _reference_chain(ctx: SpaceContext, chain: tuple[str, ...]) -> dict | None:
    """A pointwise chain as a loop of uncached check_point calls."""
    for x in range(ctx.n):
        prev = None
        for axiom in chain:
            cur = check_point(ctx.top, axiom, x, DEFINITIONAL, ctx)
            if prev is not None and prev and not cur:
                return {"point": x, "holds": chain[chain.index(axiom) - 1], "fails": axiom}
            prev = cur
    return None


class TestPointMasks:
    def test_mask_bits_match_fresh_check_point(self):
        for pre, top in _labeled_spaces(4):
            shared = _shared_context(pre, top)
            fresh = SpaceContext(top)
            for axiom in POINT_AXIOMS:
                for mode in MODES:
                    assert (axiom, mode) in shared.masks
                    mask = point_mask(top, axiom, mode, shared)
                    for x in range(top.n):
                        assert bool(mask >> x & 1) == check_point(top, axiom, x, mode, fresh), \
                            (top, axiom, mode, x)
                    assert mask >> top.n == 0

    def test_dynamics_reads_the_char_masks(self):
        for pre, top in _labeled_spaces(4):
            flags = classify_space(top, _shared_context(pre, top))
            for x, f in enumerate(flags):
                assert f.recurrent == check_point(top, "recurrent", x, CHARACTERIZED)
                assert f.proper == check_point(top, "TD", x, CHARACTERIZED)

    def _assert_mode_theorem_matches(self, axiom: str) -> int:
        refuted = 0
        for pre, top in _labeled_spaces(4):
            got = MODE_THEOREM[axiom].check(SpaceContext(top, pre))
            want = _reference_mode_agreement(SpaceContext(top, pre), axiom)
            assert got == want, (top, axiom)
            refuted += want is not None
        return refuted

    def test_mode_theorems_match_reference(self):
        for axiom in MODE_THEOREM:
            assert self._assert_mode_theorem_matches(axiom) == 0

    def test_injected_point_disagreement(self, monkeypatch):
        spec = AXIOMS["CD"]

        def flipped(ctx, x):
            # wrong at every point that lies above all points
            return spec.char_point(ctx, x) != (ctx.down[x] == ctx.full)

        monkeypatch.setitem(AXIOMS, "CD", dataclasses.replace(spec, char_point=flipped))
        assert self._assert_mode_theorem_matches("CD") > 0

    def test_injected_space_disagreement(self, monkeypatch):
        spec = AXIOMS["T1/4"]

        def flipped(ctx):
            witness = spec.char_space(ctx)
            if ctx.n != 3:
                return witness
            return {"injected": True} if witness is None else None

        monkeypatch.setitem(AXIOMS, "T1/4", dataclasses.replace(spec, char_space=flipped))
        assert self._assert_mode_theorem_matches("T1/4") == 29

    def test_pointwise_chains_match_reference(self):
        chains = (("T1", "CR", "C0", "CD"), ("CR", "CN"), ("S1", "C0", "recurrent"),
                  ("CD", "T1"), ("CD", "C0", "CR", "T1"), ("T0", "SD", "TD"))
        refuted = set()
        for pre, top in _labeled_spaces(4):
            ctx, ref = SpaceContext(top, pre), SpaceContext(top, pre)
            for chain in chains:
                want = _reference_chain(ref, chain)
                assert _pointwise_chain(ctx, chain) == want, (top, chain)
                if want is not None:
                    refuted.add(chain)
        assert refuted == set(chains[3:])


class TestPairMemo:
    def test_pair_verdicts_match_fresh_evaluation(self):
        """The sweep's pair cases, every labeled space its own class, against fresh spaces."""
        cap = 3
        classes = [[(pre.up, 1) for pre in enumerate_preorders(n)] for n in range(cap + 1)]
        cases = 0
        for _, (left_ctx, right_ctx, union_ctx) in _pair_cases(classes):
            cases += 1
            left, right = left_ctx.top, right_ctx.top
            union = disjoint_union([left, right])
            assert union_ctx.top == union
            for axiom in ("T-1", "T1/4", "T1/3", "T1/2"):
                for mode in MODES:
                    assert check_space(union, axiom, mode, union_ctx).verdict == \
                        check_space(union, axiom, mode).verdict
                    assert check_space(left, axiom, mode, left_ctx).verdict == \
                        check_space(left, axiom, mode).verdict
                    assert check_space(right, axiom, mode, right_ctx).verdict == \
                        check_space(right, axiom, mode).verdict
        assert cases == sum(len(classes[na]) * len(classes[nb])
                            for na in range(cap + 1) for nb in range(cap + 1 - na))

    def test_pair_findings_independent_of_other_scopes(self):
        pair_ids = [t.id for t in theorems() if t.scope == "pair"]
        alone = verify_all(pair_ids, n_max=4)
        full = {f.theorem: f for f in verify_all(None, n_max=4)}
        assert [f.theorem for f in alone] == pair_ids
        for f in alone:
            assert f.to_json_dict() == full[f.theorem].to_json_dict()
