from __future__ import annotations

import dataclasses

from finitetop import dynamics
from finitetop.axioms import CHARACTERIZED, DEFINITIONAL, SpaceContext, check_point
from finitetop.core import FiniteTopology, Preorder, alexandrov
from finitetop.dynamics import (
    DynClass,
    classify_space,
    is_anosov_type,
    recurrence_transfer_check,
    recurrent_mask,
    recurrent_vs_hyperbolic_check,
    saddle_equivalences_check,
)
from finitetop.enumerate import _REGISTRY

from test_core import all_topologies_brute

SIERPINSKI = FiniteTopology(2, (0, 0b10, 0b11))
INDISCRETE2 = FiniteTopology(2, (0, 0b11))
GOLDEN4 = FiniteTopology(4, (0, 0b0100, 0b0011, 0b0111, 0b1111))


class TestGolden4:
    """Four points a,b,c,d with opens {}, {c}, {a,b}, {a,b,c}, X."""

    def test_per_point_flags(self):
        a, b, c, d = classify_space(GOLDEN4)
        assert a == b
        assert a.recurrent and not a.proper and a.non_wandering
        assert a.weakly_non_indifferent and not a.weakly_saddle_like
        assert a.weakly_hyperbolic_like and not a.hyperbolic_like

        assert not c.recurrent and c.proper and not c.non_wandering
        assert not c.weakly_hyperbolic_like and not c.exceptional

        assert d.recurrent and d.proper and not d.non_wandering
        assert d.weakly_saddle_like and not d.saddle_like
        assert d.weakly_hyperbolic_like and not d.hyperbolic_like

    def test_no_hyperbolic_like(self):
        assert not any(f.hyperbolic_like for f in classify_space(GOLDEN4))

    def test_space_not_recurrent(self):
        assert not all(f.recurrent for f in classify_space(GOLDEN4))

    def test_nobody_exceptional(self):
        assert not any(f.exceptional for f in classify_space(GOLDEN4))


class TestIndiscretePair:
    def test_recurrent_with_weakly_non_indifferent(self):
        flags = classify_space(INDISCRETE2)
        assert all(f.recurrent for f in flags)
        assert all(f.weakly_non_indifferent for f in flags)
        assert not any(f.proper for f in flags)


class TestSierpinski:
    def test_flags(self):
        lo, hi = classify_space(SIERPINSKI)
        # the closed bottom sits under a proper open point: non-indifferent
        assert lo == DynClass(
            recurrent=True, proper=True, non_wandering=False, exceptional=False,
            weakly_non_indifferent=True, weakly_saddle_like=False,
            weakly_hyperbolic_like=True, non_indifferent=True,
            saddle_like=False, hyperbolic_like=True)
        # the open top has a closed shell and nothing above it
        assert hi == DynClass(
            recurrent=False, proper=True, non_wandering=False, exceptional=False,
            weakly_non_indifferent=False, weakly_saddle_like=False,
            weakly_hyperbolic_like=False, non_indifferent=False,
            saddle_like=False, hyperbolic_like=False)


class TestConsistency:
    def test_recurrent_agrees_with_axiom(self):
        for top in all_topologies_brute(3):
            ctx = SpaceContext(top)
            flags = classify_space(top, ctx)
            mask = recurrent_mask(ctx)
            for x in range(top.n):
                assert flags[x].recurrent == bool(mask >> x & 1)
                for mode in (DEFINITIONAL, CHARACTERIZED):
                    assert flags[x].recurrent == check_point(top, "recurrent", x, mode, ctx)

    def test_flag_implications(self):
        for top in all_topologies_brute(3):
            for f in classify_space(top):
                assert f.hyperbolic_like == (f.non_indifferent or f.saddle_like)
                assert f.weakly_hyperbolic_like == (
                    f.weakly_non_indifferent or f.weakly_saddle_like)
                assert not f.non_indifferent or f.weakly_non_indifferent
                assert not f.saddle_like or f.weakly_saddle_like

    def test_dynclass_is_frozen(self):
        f = classify_space(SIERPINSKI)[0]
        assert isinstance(f, DynClass)
        try:
            f.recurrent = False
        except AttributeError:
            pass
        else:
            raise AssertionError("DynClass must be immutable")


class TestLaws:
    def test_transfer_and_saddle_and_exclusion(self):
        for n in range(4):
            for top in all_topologies_brute(n):
                ctx = SpaceContext(top)
                assert recurrence_transfer_check(top, ctx) is None
                assert saddle_equivalences_check(top, ctx) is None
                assert recurrent_vs_hyperbolic_check(top, ctx) is None

    def test_transfer_space_law_follows_from_set_law(self, monkeypatch):
        # the space law is no separate check: wherever the set law holds on
        # patched recurrent masks, every point is recurrent iff every
        # singleton class is recurrent in the class space; the check reads
        # the space's mask and then the class space's, so the patch hands out
        # r and then qr (a T0 space's class context is the context itself)
        feed = iter(())
        monkeypatch.setattr(dynamics, "recurrent_mask", lambda ctx: next(feed))
        held = failed = 0
        for n in range(4):
            for top in all_topologies_brute(n):
                ctx = SpaceContext(top)
                qctx, mapping = ctx.class_ctx
                singletons = [b for b in range(qctx.n) if mapping.count(b) == 1]
                for r in range(1 << n):
                    for qr in range(1 << qctx.n):
                        feed = iter((r, qr))
                        violated = recurrence_transfer_check(top, ctx) is not None
                        assert next(feed, None) is None, "both masks are read"
                        if violated:
                            failed += 1
                            continue
                        held += 1
                        space_recurrent = r == ctx.full
                        assert space_recurrent == all(qr >> b & 1 for b in singletons), (top, r, qr)
        assert held and failed

    def test_no_anosov_small(self):
        for n in range(4):
            for top in all_topologies_brute(n):
                assert not is_anosov_type(top)

    def test_anosov_needs_dense_proper_minimum(self):
        # a chain has a dense bottom point but the bottom is proper and
        # closed, so the minimal set is never dense without being everything
        chain = alexandrov(Preorder.from_pairs(3, [(0, 1), (1, 2)]))
        assert not is_anosov_type(chain)


class TestLawWitnesses:
    """Each law's witness where a patched input makes it fail.

    No law fails on a real finite space, so these dicts never reach a
    verify report; the registered row must hand them on unchanged.
    """

    def test_transfer_set_law(self, monkeypatch):
        # no point recurrent, yet a and b share a class: the preimage keeps them
        monkeypatch.setattr(dynamics, "recurrent_mask", lambda ctx: 0)
        want = {"point": 0, "preimage": [0, 1], "recurrent": []}
        assert recurrence_transfer_check(GOLDEN4) == want
        assert _REGISTRY["recurrence_transfer"].check(SpaceContext(GOLDEN4)) == want

    def test_saddle_upset_lemma(self):
        # up(0) = {0, 2} under the stated order is not open, yet holds the open {0}
        top = FiniteTopology(3, (0, 0b001, 0b010, 0b011, 0b110, 0b111))
        ctx = SpaceContext(top, Preorder(3, (0b101, 0b010, 0b100)))
        want = {"lemma": "upset", "point": 0, "conditions": [False, False, True]}
        assert saddle_equivalences_check(top, ctx) == want
        assert _REGISTRY["saddle_equivalences"].check(ctx) == want

    def test_saddle_interval_lemma(self):
        top = FiniteTopology(3, tuple(range(8)))
        ctx = SpaceContext(top, Preorder(3, (0b001, 0b011, 0b111)))
        assert saddle_equivalences_check(top, ctx) == {
            "lemma": "interval", "pair": [2, 0], "conditions": [False, True, True]}

    def test_recurrent_space_with_hyperbolic_point(self, monkeypatch):
        real = dynamics.classify_space

        def flagged(top, ctx=None):
            return tuple(dataclasses.replace(f, hyperbolic_like=x == 1)
                         for x, f in enumerate(real(top, ctx)))

        monkeypatch.setattr(dynamics, "classify_space", flagged)
        assert recurrent_vs_hyperbolic_check(INDISCRETE2) == {"point": 1}
        assert _REGISTRY["recurrent_excludes_hyperbolic"].check(SpaceContext(INDISCRETE2)) == {"point": 1}
        # the law says nothing about a space that is not recurrent
        assert recurrent_vs_hyperbolic_check(GOLDEN4) is None
