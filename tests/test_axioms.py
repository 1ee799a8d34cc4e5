from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finitetop.axioms import (
    AXIOMS,
    CHARACTERIZED,
    DEFINITIONAL,
    NotPointLevelError,
    SpaceContext,
    axiom_vector,
    check_point,
    check_space,
)
from finitetop.core import FiniteTopology, Preorder, alexandrov, bit_indices
from finitetop.enumerate import enumerate_topologies

from test_core import all_topologies_brute

SIERPINSKI = FiniteTopology(2, (0, 0b10, 0b11))
INDISCRETE2 = FiniteTopology(2, (0, 0b11))
DISCRETE2 = FiniteTopology(2, (0, 0b01, 0b10, 0b11))
SINGLETON = FiniteTopology(1, (0, 1))
EMPTY = FiniteTopology(0, (0,))
GOLDEN4 = FiniteTopology(4, (0, 0b0100, 0b0011, 0b0111, 0b1111))
MIN_S1 = alexandrov(Preorder.from_pairs(4, [(0, 2), (0, 3), (1, 2), (1, 3)]))

SPACE_ONLY = {"T1/3", "S1/3", "SYY", "SQ", "nested", "wR0", "wC0", "lambda",
              "artinian", "anticompact"}


class TestCatalog:
    def test_size_and_order(self):
        assert len(AXIOMS) == 34
        ids = list(AXIOMS)
        assert ids[0] == "T0"
        assert set(SPACE_ONLY) <= set(ids)

    def test_point_level_flags(self):
        for axiom, spec in AXIOMS.items():
            assert spec.point_level == (axiom not in SPACE_ONLY)

    def test_every_axiom_documented(self):
        for spec in AXIOMS.values():
            assert spec.doc


class TestModes:
    def test_agreement_all_small_spaces(self):
        for n in range(4):
            for top in all_topologies_brute(n):
                ctx = SpaceContext(top)
                for axiom, spec in AXIOMS.items():
                    rd = check_space(top, axiom, DEFINITIONAL, ctx)
                    rc = check_space(top, axiom, CHARACTERIZED, ctx)
                    assert rd.verdict == rc.verdict, (n, axiom, top.opens)
                    if spec.point_level:
                        for x in range(n):
                            assert (check_point(top, axiom, x, DEFINITIONAL, ctx)
                                    == check_point(top, axiom, x, CHARACTERIZED, ctx))

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            check_space(SIERPINSKI, "T0", "hopeful")

    def test_unknown_axiom(self):
        with pytest.raises(KeyError):
            check_space(SIERPINSKI, "T9")

    def test_point_level_guard(self):
        with pytest.raises(NotPointLevelError):
            check_point(SIERPINSKI, "nested", 0)

    def test_point_bounds(self):
        with pytest.raises(ValueError):
            check_point(SIERPINSKI, "T0", 2)


def _verdicts(top, mode=DEFINITIONAL):
    return {a: r.verdict for a, r in axiom_vector(top, mode).items()}


def _reference_d_lambda_space(ctx: SpaceContext) -> dict | None:
    """The definitional lambda check as a literal pairwise scan: the oracle for its fast accept."""
    kt, ct = ctx.kernel_t, ctx.closure_t
    lam = [a for a in range(1 << ctx.n) if kt[a] & ct[a] == a]
    for i, a in enumerate(lam):
        for b in lam[i + 1:]:
            u = a | b
            if kt[u] & ct[u] != u:
                return {"sets": [sorted(bit_indices(a)), sorted(bit_indices(b))]}
    return None


def _lambda_witness(top: FiniteTopology) -> dict | None:
    ctx = SpaceContext(top)
    got = AXIOMS["lambda"].def_space(ctx)
    assert got == _reference_d_lambda_space(ctx), top
    return got


@st.composite
def _lambda_cases(draw):
    """Spaces on 7-10 points: height at most one (always lambda), a partial
    order holding the chain 0 < 1 < 2 (never lambda), or any preorder."""
    n = draw(st.integers(7, 10))
    kind = draw(st.sampled_from(["height-1", "chain", "any"]))
    point = st.integers(0, n - 1)
    pairs = draw(st.lists(st.tuples(point, point), max_size=n + 4))
    if kind == "height-1":
        lower = draw(st.sets(point))
        pairs = [(x, y) for x, y in pairs if x in lower and y not in lower]
    elif kind == "chain":
        pairs = [(0, 1), (1, 2)] + [(x, y) for x, y in pairs if x < y]
    return kind, alexandrov(Preorder.from_pairs(n, pairs))


class TestLambdaOracle:
    def test_small_spaces_match_reference(self):
        spaces = [*(top for n in range(5) for top in enumerate_topologies(n)),
                  *(top for n in (5, 6) for top in enumerate_topologies(n, up_to_iso=True))]
        assert len(spaces) == 390 + 139 + 718
        verdicts = {_lambda_witness(top) is None for top in spaces}
        assert verdicts == {True, False}

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(_lambda_cases())
    def test_random_spaces_match_reference(self, case):
        kind, top = case
        witness = _lambda_witness(top)
        if kind != "any":
            assert (witness is None) == (kind == "height-1"), (kind, top)


class TestGoldenVectors:
    def test_sierpinski(self):
        v = _verdicts(SIERPINSKI)
        assert v["T0"] and v["TD"] and v["T1/2"] and v["T1/4"] and v["T1/3"]
        assert not v["T1"] and not v["T2"]
        assert v["nested"] and v["lambda"] and v["SQ"]
        assert v["artinian"] and v["anticompact"]

    def test_indiscrete_pair(self):
        v = _verdicts(INDISCRETE2)
        assert not v["T0"] and not v["T-1"] and not v["TD"]
        # the class space is a single point, so the class-level axioms hold
        assert v["S0"] and v["S1"] and v["S2"] and v["S1/2"]
        assert v["recurrent"] and v["C0"] and v["CD"] and v["CR"] and v["CN"]
        assert not v["wR0"] and not v["wC0"]

    def test_discrete_pair(self):
        v = _verdicts(DISCRETE2)
        assert v["T1"] and v["T2"] and v["T1/2"] and v["TYS"]
        assert v["wR0"] and v["wC0"]
        assert not v["nested"]

    def test_singleton_kernel_and_closure_meet(self):
        v = _verdicts(SINGLETON)
        assert v["T0"] and v["T1"] and v["T2"]
        # the one closure and the one kernel are both nonempty meets
        assert not v["wR0"] and not v["wC0"]

    def test_empty_space_vacuous(self):
        for mode in (DEFINITIONAL, CHARACTERIZED):
            assert all(r.verdict for r in axiom_vector(EMPTY, mode).values())

    def test_golden4(self):
        v = _verdicts(GOLDEN4)
        assert not v["T0"]
        assert not v["TD"]
        assert v["S1/4"]
        assert v["recurrent"] is False  # the once-reachable middle point spoils it
        assert v["artinian"] and v["anticompact"]

    def test_min_s1(self):
        v = _verdicts(MIN_S1)
        assert not v["SY"]
        assert v["S1/4"]
        assert v["T0"]
        assert not v["SQ"] and not v["SYY"] and not v["SYS"]


class TestReports:
    def test_witness_replays(self):
        report = check_space(INDISCRETE2, "T0", DEFINITIONAL)
        assert not report.verdict
        x = report.witness["point"]
        assert not check_point(INDISCRETE2, "T0", x, DEFINITIONAL)

    def test_verdict_matches_pointwise_conjunction(self):
        for top in all_topologies_brute(3):
            ctx = SpaceContext(top)
            for axiom, spec in AXIOMS.items():
                if not spec.point_level:
                    continue
                want = all(check_point(top, axiom, x, DEFINITIONAL, ctx)
                           for x in range(top.n))
                assert check_space(top, axiom, DEFINITIONAL, ctx).verdict == want

    def test_vector_order_is_catalog_order(self):
        vec = axiom_vector(SIERPINSKI)
        assert list(vec) == list(AXIOMS)

    def test_report_fields(self):
        r = check_space(SIERPINSKI, "T0", CHARACTERIZED)
        assert r.axiom == "T0" and r.mode == CHARACTERIZED
        assert r.verdict is True and r.witness is None


class TestSpaceContext:
    def test_tables_match_operators(self):
        """The tables against the operators: brute-force spaces on 3 points,
        every labeled space on at most 4, every class representative on 5."""
        spaces = [*all_topologies_brute(3),
                  *(top for n in range(5) for top in enumerate_topologies(n)),
                  *enumerate_topologies(5, up_to_iso=True)]
        assert len(spaces) == 29 + 390 + 139
        for top in spaces:
            ctx = SpaceContext(top)
            for a in range(1 << top.n):
                assert ctx.closure_t[a] == top.closure_bits(a), (top, a)
                assert ctx.kernel_t[a] == top.kernel_bits(a), (top, a)

    def test_accepts_precomputed_preorder(self):
        pre = SIERPINSKI.specialization()
        ctx = SpaceContext(SIERPINSKI, pre)
        assert ctx.pre is pre
        assert ctx.up == pre.up

    def test_class_ctx(self):
        ctx = SpaceContext(INDISCRETE2)
        qctx, mapping = ctx.class_ctx
        assert qctx.n == 1
        assert mapping == (0, 0)
