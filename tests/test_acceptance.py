"""End-to-end acceptance criteria.

One test per criterion, in order.  Each prints a single
``criterion N (label): PASS`` or ``FAIL`` line, visible under ``pytest -s``,
and enforces its own wall-clock budget where one applies.
"""
from __future__ import annotations

import functools
import json
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

from finitetop.axioms import CHARACTERIZED, DEFINITIONAL, SpaceContext, check_space
from finitetop.core import (
    FiniteTopology,
    Preorder,
    TopologyError,
    alexandrov,
    disjoint_union,
    validate_topology,
)
from finitetop.decomp import iter_partitions, lemma001_check, tau_F
from finitetop.dynamics import classify_space
from finitetop.enumerate import (
    _REGISTRY,
    count_topologies,
    decode_preorder,
    enumerate_preorders,
    enumerate_topologies,
    implication_matrix,
    theorems,
    verify_all,
)

from oracles import count_open_families

ROOT = Path(__file__).resolve().parent.parent

LABELED_COUNTS = (1, 1, 4, 29, 355, 6942)

INDISCRETE2 = FiniteTopology(2, (0, 0b11))
GOLDEN4 = FiniteTopology(4, (0, 0b0100, 0b0011, 0b0111, 0b1111))
MIN_S1 = alexandrov(Preorder.from_pairs(4, [(0, 2), (0, 3), (1, 2), (1, 3)]))

BOTH_MODES = (DEFINITIONAL, CHARACTERIZED)


def criterion(num: int, label: str):
    """Print one PASS/FAIL line per criterion, then let pytest see the failure."""
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"criterion {num} ({label}): FAIL")
                raise
            print(f"criterion {num} ({label}): PASS")
        return wrapper
    return deco


@pytest.fixture(scope="module")
def full_findings():
    """The complete registry at n_max=5, shared by criteria 3, 5 and 6."""
    t0 = time.perf_counter()
    findings = verify_all(n_max=5)
    elapsed = time.perf_counter() - t0
    return {f.theorem: f for f in findings}, elapsed


@criterion(1, "dual-method enumeration counts, n <= 5, under 10s")
def test_criterion_1_enumeration_counts():
    t0 = time.perf_counter()
    for n, expect in enumerate(LABELED_COUNTS):
        assert count_topologies(n) == expect, f"preorder count off at n={n}"
        assert count_open_families(n) == expect, f"open-family count off at n={n}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0, f"count sweep took {elapsed:.1f}s"


@criterion(2, "order/topology round-trip on all 390 labeled spaces, n <= 4")
def test_criterion_2_roundtrip():
    total = 0
    for n in range(5):
        seen = 0
        for top in enumerate_topologies(n):
            back = alexandrov(top.specialization())
            assert back == top
            seen += 1
        for pre in enumerate_preorders(n):
            assert alexandrov(pre).specialization() == pre
        assert seen == LABELED_COUNTS[n]
        total += seen
    assert total == 390


@criterion(3, "theorem harness: full registry, n_max = 5, under 5 min")
def test_criterion_3_harness(full_findings):
    findings, elapsed = full_findings
    registry = theorems()
    assert len(registry) >= 20
    assert len(findings) == len(registry)
    for f in findings.values():
        if f.asserted:
            assert f.status == "verified", f"{f.theorem} refuted: {f.witness}"
        elif f.status == "refuted":
            # probes: the minimal counterexample must replay through the API
            assert f.scope == "space" and f.witness is not None
            pre = decode_preorder(f.witness["n"], f.witness["encoding"])
            top = alexandrov(pre)
            again = _REGISTRY[f.theorem].check(SpaceContext(top, pre))
            assert again is not None, f"{f.theorem} witness does not replay"
    assert elapsed < 300.0, f"harness took {elapsed:.1f}s"


@criterion(4, "golden example classifications, both routes")
def test_criterion_4_goldens():
    # four-point space: compact for free (finite), not recurrent, and
    # without hyperbolic-like points
    for mode in BOTH_MODES:
        assert not check_space(GOLDEN4, "recurrent", mode).verdict
    assert not any(d.hyperbolic_like for d in classify_space(GOLDEN4))
    assert [x for x, d in enumerate(classify_space(GOLDEN4)) if d.non_wandering] == [0, 1]

    # two-point indiscrete space: recurrent, every point weakly non-indifferent
    for mode in BOTH_MODES:
        assert check_space(INDISCRETE2, "recurrent", mode).verdict
    assert all(d.recurrent and d.weakly_non_indifferent for d in classify_space(INDISCRETE2))

    # minimal circle order: fails SY, satisfies S1/4
    for mode in BOTH_MODES:
        assert not check_space(MIN_S1, "SY", mode).verdict
        assert check_space(MIN_S1, "S1/4", mode).verdict


CHAIN_EDGES = (
    ("T1", "CR"), ("CR", "C0"), ("C0", "CD"),
    ("CR", "CN"),
    ("S1", "C0"), ("C0", "recurrent"),
    ("S1/2", "lambda"), ("lambda", "S1/4"),
    ("S1/2", "S1/3"), ("S1/3", "S1/4"),
    ("TYS", "T1/4"),
    ("SYS", "S1/4"), ("SYS", "SQ"),
    # disjunction hypothesis: each disjunct alone must imply the conclusion
    ("CR", "SQ"), ("nested", "SQ"),
)


@criterion(5, "implication matrix reproduces every asserted chain, n <= 5")
def test_criterion_5_implications(full_findings):
    axioms = sorted({a for edge in CHAIN_EDGES for a in edge})
    matrix = implication_matrix(n_max=5, axioms=axioms)
    assert matrix.spaces_checked == sum(LABELED_COUNTS)
    for a, b in CHAIN_EDGES:
        assert matrix.implies(a, b), f"{a} => {b} has counterexample {matrix.counterexamples.get((a, b))}"
    # the conjunction direction of SYS = S1/4 and SQ is a registry theorem
    findings, _ = full_findings
    f = findings["sys_eq_s14_and_sq"]
    assert f.asserted and f.status == "verified"


@criterion(6, "finite collapses verified and boundary documented")
def test_criterion_6_collapses(full_findings):
    findings, _ = full_findings
    for tid in ("recurrent_eq_c0_finite", "t13_eq_t12_finite"):
        f = findings[tid]
        assert f.asserted and f.status == "verified" and f.n_max == 5, tid
    readme = (ROOT / "README.md").read_text()
    assert "## Finite collapses" in readme
    flat = " ".join(readme.split())
    # the documented infinite spaces separating the collapsed axioms
    assert "a set is closed iff it is a finite subset of the positive numbers or everything" in flat
    assert "so 0 is recurrent" in flat and "the space is not `C0`" in flat
    assert "infinite spaces that are `T1/3` but not `T1/2`" in flat
    assert "every subset of a cofinite space is compact" in flat


@criterion(7, "saturation family: 5-point non-topology witness and containment sweep")
def test_criterion_7_saturation():
    t0 = time.perf_counter()
    hit = None
    for top in enumerate_topologies(5):
        for dec in iter_partitions(5):
            res = tau_F(top, dec)
            if not res.is_topology:
                hit = (top, dec, res)
                break
        if hit is not None:
            break
    assert hit is not None, "no 5-point saturation failure found"
    top, dec, res = hit
    w = res.witness
    # replay: both saturations belong to the family, their meet escapes it
    def mask(points):
        out = 0
        for p in points:
            out |= 1 << p
        return out
    sat_a, sat_b = mask(w["saturations"][0]), mask(w["saturations"][1])
    assert dec.saturate_bits(mask(w["opens"][0])) == sat_a
    assert dec.saturate_bits(mask(w["opens"][1])) == sat_b
    assert sat_a in res.family and sat_b in res.family
    assert sat_a & sat_b == mask(w["intersection"])
    assert sat_a & sat_b not in set(res.family)
    with pytest.raises(TopologyError):
        validate_topology(top.n, res.family)

    # containment criterion on every partition of every space, n <= 4
    for n in range(5):
        for t in enumerate_topologies(n):
            for d in iter_partitions(n):
                witness = lemma001_check(t, d)
                assert witness is None, (n, t.opens, d.blocks, witness)
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0, f"saturation suite took {elapsed:.1f}s"


DU_AXIOMS = ("T-1", "T1/4", "T1/3", "T1/2")


def _random_topology(rng: random.Random) -> FiniteTopology:
    n = rng.randint(0, 5)
    pairs = [(i, j) for i in range(n) for j in range(n)
             if i != j and rng.random() < 0.3]
    return alexandrov(Preorder.from_pairs(n, pairs))


@criterion(8, "disjoint-union invariance on 1000 seeded random pairs")
def test_criterion_8_disjoint_union():
    rng = random.Random(20260818)
    for _ in range(1000):
        left = _random_topology(rng)
        right = _random_topology(rng)
        union = disjoint_union([left, right])
        ctxs = {id(t): SpaceContext(t) for t in (left, right, union)}
        for axiom in DU_AXIOMS:
            for mode in BOTH_MODES:
                # equality checks both directions of the invariance at once
                want = (check_space(left, axiom, mode, ctxs[id(left)]).verdict
                        and check_space(right, axiom, mode, ctxs[id(right)]).verdict)
                got = check_space(union, axiom, mode, ctxs[id(union)]).verdict
                assert got == want, (axiom, mode, left.opens, right.opens)


def _run_cli(args: list[str], stdin: str | None = None) -> bytes:
    proc = subprocess.run(
        [sys.executable, "-m", "finitetop.cli", *args],
        input=None if stdin is None else stdin.encode(),
        capture_output=True,
        cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    return proc.stdout


@criterion(9, "byte-identical CLI output across runs and job counts")
def test_criterion_9_determinism():
    doc = json.dumps({"points": 4, "opens": [[], [2], [0, 1], [0, 1, 2], [0, 1, 2, 3]]})
    first, second, third = (_run_cli(["classify", "-"], doc) for _ in range(3))
    assert first == second == third

    jobs1 = _run_cli(["verify", "all", "--n-max", "3", "--jobs", "1"])
    jobs2 = _run_cli(["verify", "all", "--n-max", "3", "--jobs", "2"])
    assert jobs1 == jobs2
