"""The memoized paths against the uncached ones.

A SpaceContext memoizes check_space reports and the dynamics flags, a
Preorder caches its class poset, and the pair sweep keeps summand verdicts
for one verify_all call.  Each test here recomputes the same values on
fresh objects and requires identical results.
"""

from __future__ import annotations

from finitetop.axioms import (
    AXIOMS,
    CHARACTERIZED,
    DEFINITIONAL,
    SpaceContext,
    _space_eval,
    check_space,
)
from finitetop.core import Preorder, alexandrov, class_poset, disjoint_union
from finitetop.dynamics import _classify, classify_space
from finitetop.enumerate import (
    PairCase,
    _SummandVerdicts,
    enumerate_preorders,
    enumerate_topologies,
    theorems,
    verify_all,
)

MODES = (DEFINITIONAL, CHARACTERIZED)
SPACE_THEOREMS = [t for t in theorems() if t.scope == "space"]


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
                    assert (got.verdict, got.witness) == want, (top, axiom, mode)
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
            cached = class_poset(pre)
            assert class_poset(pre) is cached
            fresh = Preorder(pre.n, pre.up).class_poset
            assert fresh is not cached
            assert (cached.blocks, cached.leq) == (fresh.blocks, fresh.leq)
            assert cached == class_poset(top.specialization())


class TestPairMemo:
    def test_pair_verdicts_match_fresh_evaluation(self):
        cap = 3
        pools = [list(enumerate_topologies(n)) for n in range(cap + 1)]
        memo = _SummandVerdicts(pools)
        for na in range(cap + 1):
            for nb in range(cap + 1 - na):
                for ia, left in enumerate(pools[na]):
                    for ib, right in enumerate(pools[nb]):
                        pair = PairCase(memo, (na, ia), (nb, ib))
                        union = disjoint_union([left, right])
                        assert pair.union == union
                        for axiom in ("T-1", "T1/4", "T1/3", "T1/2"):
                            for mode in MODES:
                                assert pair.union_verdict(axiom, mode) == \
                                    check_space(union, axiom, mode).verdict
                                assert pair.summand_verdict(0, axiom, mode) == \
                                    check_space(left, axiom, mode).verdict
                                assert pair.summand_verdict(1, axiom, mode) == \
                                    check_space(right, axiom, mode).verdict

    def test_pair_findings_independent_of_other_scopes(self):
        pair_ids = [t.id for t in theorems() if t.scope == "pair"]
        alone = verify_all(pair_ids, n_max=4)
        full = {f.theorem: f for f in verify_all(None, n_max=4)}
        assert [f.theorem for f in alone] == pair_ids
        for f in alone:
            assert f.to_json_dict() == full[f.theorem].to_json_dict()
