"""The verdict-relation rows against the checks they replaced.

The registry states its verdict laws, shell readings and whole-space chains
through three factories in ``finitetop.enumerate``.  The hand-written
checks they replaced are kept in ``oracles`` as references, and every row
must return what its reference returns (None or an equal witness dict) on
every case: each labeled space on at most 4 points and each class
representative on 5 and 6.  A sweep keeps only a theorem's first witness,
so this is what pins the rows past it, the refuted probes above all.
"""

from __future__ import annotations

from functools import partial

from finitetop.axioms import SpaceContext
from finitetop.core import Preorder, alexandrov
from finitetop.enumerate import _REGISTRY, _space_chain, enumerate_preorders
from finitetop.generate import _preorder_classes

from oracles import (
    coincide_by_verdicts,
    cr_nested_sq_by_verdicts,
    sd_class_reading_by_points,
    sd_mixed_by_points,
    sd_point_shell_by_points,
    space_chain_by_verdicts,
    sys_eq_by_verdicts,
)

REFERENCES = {
    "sd_class_reading": sd_class_reading_by_points,
    "sd_point_shell_probe": sd_point_shell_by_points,
    "sd_mixed_probe": sd_mixed_by_points,
    "s12_lambda_s14_chain": partial(space_chain_by_verdicts, chain=("S1/2", "lambda", "S1/4")),
    "s12_s13_s14_chain": partial(space_chain_by_verdicts, chain=("S1/2", "S1/3", "S1/4")),
    "tys_implies_t14": partial(space_chain_by_verdicts, chain=("TYS", "T1/4")),
    "sys_eq_s14_and_sq": sys_eq_by_verdicts,
    "cr_or_nested_implies_sq": cr_nested_sq_by_verdicts,
    "t13_eq_t12_finite": coincide_by_verdicts("T1/4", "T1/3", "T1/2"),
    "lambda_eq_s14_s12_finite": coincide_by_verdicts("lambda", "S1/4", "S1/2"),
}

# whole-space chains with a refuted link, at the first link or a later one
REFUTED_CHAINS = (("TD", "T1/2", "T1"), ("T0", "T1/4", "T1"), ("SD", "S1/4", "S1"))


def _cases():
    for n in range(5):
        for pre in enumerate_preorders(n):
            yield pre
    classes = _preorder_classes(6)
    for n in (5, 6):
        for rows, _ in classes[n]:
            yield Preorder(n, rows)


def _contexts(pre: Preorder) -> tuple[SpaceContext, SpaceContext]:
    """Two fresh contexts of one space, so that row and reference share no memo."""
    top = alexandrov(pre)
    return SpaceContext(top, pre), SpaceContext(top, pre)


def test_rows_match_references_on_every_case():
    refuted = set()
    cases = 0
    for pre in _cases():
        cases += 1
        ctx, ref = _contexts(pre)
        for tid, reference in REFERENCES.items():
            want = reference(ref)
            assert _REGISTRY[tid].check(ctx) == want, (tid, pre)
            if want is not None:
                refuted.add(tid)
    assert cases == 390 + 139 + 718
    # the two probes are refuted on many cases, every asserted row on none
    assert refuted == {"sd_point_shell_probe", "sd_mixed_probe"}


def test_refuted_space_chains_match_reference():
    links = set()
    for pre in _cases():
        ctx, ref = _contexts(pre)
        for chain in REFUTED_CHAINS:
            want = space_chain_by_verdicts(ref, chain)
            assert _space_chain(ctx, chain) == want, (chain, pre)
            if want is not None:
                links.add((chain, want["holds"]))
    # every link of every chain is the first broken one somewhere
    assert links == {(chain, a) for chain in REFUTED_CHAINS for a in chain[:-1]}
