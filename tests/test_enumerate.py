from __future__ import annotations

import multiprocessing
import random
import time
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finitetop import cli
from finitetop.axioms import AXIOMS, CHARACTERIZED, DEFINITIONAL, SpaceContext, check_space
from finitetop.core import Preorder, alexandrov, bit_indices, disjoint_union
from finitetop.decomp import Decomposition, iter_partitions, tau_F
from finitetop.enumerate import (
    _REGISTRY,
    _SCOPES,
    MAX_CLASS_POINTS,
    MAX_LABELED_POINTS,
    ImplicationMatrix,
    SizeTooLargeError,
    Theorem,
    _by_size,
    _pair_payload,
    _partition_payload,
    _space_payload,
    _sweep,
    count_topologies,
    decode_preorder,
    enumerate_preorders,
    enumerate_topologies,
    implication_matrix,
    preorder_encoding,
    theorems,
    verify_all,
)
from finitetop.generate import _least_encoding, _poset_levels, _preorder_classes, _size_classes

from oracles import count_open_families, enumerate_open_families, preorder_classes_by_marking

# OEIS A000798: topologies (preorders) on n labeled points, n = 0..8
LABELED = (1, 1, 4, 29, 355, 6942, 209527, 9535241, 642779354)
# OEIS A001930: topologies up to relabeling
UNLABELED = (1, 1, 3, 9, 33, 139, 718, 4535, 35979)
# OEIS A000112: T0 posets up to relabeling
POSETS = (1, 1, 2, 5, 16, 63, 318, 2045, 16999)


def topology_encoding(top) -> int:
    """Bitmap over subset indices: bit s is set iff subset s is open."""
    code = 0
    for u in top.opens:
        code |= 1 << u
    return code


def _relabeled_encodings(pre: Preorder) -> list[int]:
    """The encoding of every relabeling of the points, identity first, by brute force."""
    n = pre.n
    codes = []
    for perm in permutations(range(n)):
        code = 0
        for i in range(n):
            row = pre.up[perm[i]]
            for j in range(n):
                code = code << 1 | (row >> perm[j] & 1)
        codes.append(code)
    return codes


def canonical_preorder_key(pre: Preorder) -> int:
    """Least preorder encoding over all relabelings of the points, by brute force."""
    return min(_relabeled_encodings(pre))


def _pairs(n: int, max_size: int):
    return st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=max_size)


@st.composite
def _preorders(draw) -> Preorder:
    """A preorder on 5-7 points, relabeled at random.

    Its base is chains, an antichain, layers (every point of a level below
    every point of the next) or random relations; a few random relations
    and merged classes go on top.  Equal chains and layers have many
    automorphisms, and merged classes and layers many twins.
    """
    n = draw(st.integers(5, 7))
    shape = draw(st.sampled_from(["chains", "antichain", "layers", "random"]))
    pairs = []
    if shape == "chains":
        cuts = draw(st.sets(st.integers(1, n - 1)))
        pairs = [(x, x + 1) for x in range(n - 1) if x + 1 not in cuts]
    elif shape == "layers":
        level = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
        pairs = [(x, y) for x in range(n) for y in range(n) if level[y] == level[x] + 1]
    elif shape == "random":
        pairs = draw(_pairs(n, 2 * n))
    pairs += draw(_pairs(n, 2))
    merged = draw(_pairs(n, 2))
    pairs += merged + [(y, x) for x, y in merged]
    perm = draw(st.permutations(range(n)))
    return Preorder.from_pairs(n, [(perm[x], perm[y]) for x, y in pairs])


class TestEncodings:
    def test_roundtrip(self):
        for n in range(4):
            for pre in enumerate_preorders(n):
                assert decode_preorder(n, preorder_encoding(pre)) == pre

    def test_diagonal_always_set(self):
        pre = Preorder.from_pairs(3, [(0, 2)])
        code = preorder_encoding(pre)
        for i in range(3):
            assert code >> (9 - 1 - (i * 3 + i)) & 1

    def test_topology_encoding_distinct(self):
        for n in range(4):
            codes = [topology_encoding(t) for t in enumerate_topologies(n)]
            assert len(set(codes)) == len(codes)

    def test_canonical_key_is_orbit_invariant(self):
        for pre in enumerate_preorders(3):
            key = canonical_preorder_key(pre)
            for perm in permutations(range(3)):
                rows = [0] * 3
                for i in range(3):
                    for j in range(3):
                        if pre.up[i] >> j & 1:
                            rows[perm[i]] |= 1 << perm[j]
                assert canonical_preorder_key(Preorder(3, tuple(rows))) == key


class TestLeastEncoding:
    """The pruned least-encoding search against brute force over all n! relabelings."""

    @staticmethod
    def _assert_matches_brute_force(pre: Preorder) -> None:
        codes = _relabeled_encodings(pre)
        code, rows, aut = _least_encoding(pre.up)
        assert code == min(codes) == preorder_encoding(Preorder(pre.n, rows)), pre
        # |Aut|: the relabelings that give the preorder back
        assert aut == codes.count(codes[0]), pre

    def test_every_preorder_up_to_4_points(self):
        for n in range(5):
            for pre in enumerate_preorders(n):
                self._assert_matches_brute_force(pre)

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(_preorders())
    def test_random_preorders_on_5_to_7_points(self, pre):
        self._assert_matches_brute_force(pre)


class TestEnumeration:
    def test_labeled_counts_both_routes(self):
        for n in range(5):
            assert sum(1 for _ in enumerate_preorders(n)) == LABELED[n]
            assert count_open_families(n) == LABELED[n]
            assert count_topologies(n) == LABELED[n]

    def test_routes_agree_as_sets(self):
        for n in range(4):
            a = sorted(topology_encoding(t) for t in enumerate_topologies(n))
            b = sorted(topology_encoding(t) for t in enumerate_open_families(n))
            assert a == b

    def test_encodings_ascend(self):
        for n in range(5):
            codes = [preorder_encoding(p) for p in enumerate_preorders(n)]
            assert codes == sorted(codes)
            assert len(set(codes)) == len(codes)

    def test_unlabeled_counts(self):
        for n in range(5):
            got = sum(1 for _ in enumerate_topologies(n, up_to_iso=True))
            assert got == count_topologies(n, up_to_iso=True) == UNLABELED[n]

    def test_iso_representatives_are_canonical(self):
        for pre in enumerate_preorders(3):
            code = preorder_encoding(pre)
            if code == canonical_preorder_key(pre):
                assert alexandrov(pre) in list(enumerate_topologies(3, up_to_iso=True))
                break

    def test_size_cap(self):
        # the labeled routes walk every labeled preorder; the class routes generate
        assert (MAX_LABELED_POINTS, MAX_CLASS_POINTS) == (7, 8)
        labeled = (count_open_families, lambda n: next(enumerate_preorders(n)),
                   lambda n: next(enumerate_topologies(n)))
        by_class = (count_topologies, lambda n: count_topologies(n, up_to_iso=True),
                    lambda n: next(enumerate_topologies(n, up_to_iso=True)),
                    lambda n: verify_all(["t0_char"], n_max=n), implication_matrix)
        for fn, cap in [*((fn, 7) for fn in labeled), *((fn, 8) for fn in by_class)]:
            with pytest.raises(SizeTooLargeError):
                fn(cap + 1)
        with pytest.raises(ValueError):
            count_topologies(-1)


class TestRegistry:
    def test_enough_theorems(self):
        ids = [t.id for t in theorems()]
        assert len(ids) >= 20
        assert len(set(ids)) == len(ids)

    def test_scopes_and_descriptions(self):
        for t in theorems():
            assert t.scope in ("space", "pair", "partition")
            assert t.description

    def test_unknown_id(self):
        with pytest.raises(KeyError):
            verify_all(["no_such_theorem"], n_max=2)

    def test_unknown_scope_fails_before_class_build(self, monkeypatch):
        import finitetop.generate

        def no_build(cap):
            raise AssertionError("classes built before the scope was checked")

        odd = Theorem("odd_scope_probe", "probe with a misspelled scope", "pairs", False, _neither_t1)
        monkeypatch.setitem(_REGISTRY, odd.id, odd)
        monkeypatch.setattr(finitetop.generate, "_preorder_classes", no_build)
        with pytest.raises(KeyError, match="'odd_scope_probe' has unknown scope 'pairs'"):
            verify_all(n_max=2)


class TestVerify:
    def test_single_verified(self):
        f = verify_all(["t0_char"], n_max=3)[0]
        assert f.status == "verified"
        assert f.spaces_checked == 35
        assert f.witness is None
        assert f.asserted

    def test_probe_witness_replays(self):
        f = verify_all(["sd_mixed_probe"], n_max=3)[0]
        assert f.status == "refuted" and not f.asserted
        w = f.witness
        pre = decode_preorder(w["n"], w["encoding"])
        top = alexandrov(pre)
        assert [sorted(bit_indices(u)) for u in top.opens] == w["opens"]
        from finitetop.enumerate import _REGISTRY
        again = _REGISTRY["sd_mixed_probe"].check(SpaceContext(top, pre))
        assert again is not None and again["point"] == w["point"]

    def test_point_shell_probe_minimal_witness(self):
        f = verify_all(["sd_point_shell_probe"], n_max=3)[0]
        assert f.status == "refuted"
        assert f.witness["n"] == 2
        assert f.witness["opens"] == [[], [0, 1]]

    def test_all_small_cap(self):
        findings = verify_all(n_max=2)
        assert len(findings) == len(theorems())
        assert not any(f.asserted and f.status == "refuted" for f in findings)

    def test_jobs_do_not_change_findings(self):
        # only sizes with more than 256 classes are pooled: the 718 classes
        # on 6 points go out as slices that finish in any order
        ids = [t.id for t in theorems() if t.scope == "space"]
        strip = lambda fs: [(f.theorem, f.status, f.spaces_checked, f.witness) for f in fs]
        base = strip(verify_all(ids, n_max=6, jobs=1))
        assert any(status == "refuted" for _, status, _, _ in base)
        for jobs in (2, 3):
            assert strip(verify_all(ids, n_max=6, jobs=jobs)) == base

    def test_pool_no_larger_than_its_slices(self, monkeypatch):
        sizes = []

        class InProcessPool:
            """Records the size asked for and runs every task here."""

            def __init__(self, processes):
                sizes.append(processes)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def imap(self, fn, tasks):
                return map(fn, tasks)

            imap_unordered = imap

        ids = ["t0_char", "sd_mixed_probe"]
        want = [f.to_json_dict() for f in verify_all(ids, n_max=6)]
        assert any(f["status"] == "refuted" for f in want)
        monkeypatch.setattr(multiprocessing, "Pool", InProcessPool)
        got = [f.to_json_dict() for f in verify_all(ids, n_max=6, jobs=50)]
        # only the 718 classes on 6 points are sliced: twelve slices of up to 64
        assert sizes == [12]
        assert got == want

    def test_slices_cover_each_size_once_in_order(self):
        classes = _preorder_classes(7)
        flat = [(n, rep) for n, reps in enumerate(classes) for rep in reps]
        for jobs in (1, 2, 3):
            here, pooled = _by_size(classes, jobs)
            assert [(n, rep) for n, reps in here + pooled for rep in reps] == flat, jobs
            sums = [0] * len(classes)
            for n, reps in here + pooled:
                sums[n] += sum(size for _, size in reps)
            assert sums == list(LABELED[:8]), jobs
            assert all(n > 5 for n, _ in pooled), jobs
            assert bool(pooled) == (jobs > 1), jobs
        # so `verify all --n-max 5` starts no pool, whatever --jobs says
        for scope in _SCOPES.values():
            assert scope.parts(classes[:scope.cap(5) + 1], 2)[1] == []

    @pytest.mark.slow
    def test_raised_caps_jobs_do_not_change_findings(self, monkeypatch):
        # partitions at cap 6 are the first to be pooled: 718 classes on 6 points
        for name in ("pair", "partition"):
            monkeypatch.setitem(_SCOPES, name, _SCOPES[name]._replace(cap=lambda n_max: min(n_max, 6)))
        for probe in (_PAIR_PROBE, _PARTITION_PROBE):
            monkeypatch.setitem(_REGISTRY, probe.id, probe)
        ids = [t.id for t in theorems() if t.scope in ("pair", "partition")]
        strip = lambda fs: [(f.theorem, f.status, f.spaces_checked, f.n_max, f.witness) for f in fs]
        base = strip(verify_all(ids, n_max=6, jobs=1))
        bell = (1, 1, 2, 5, 15, 52, 203)  # OEIS A000110: partitions of n points
        pairs = sum(LABELED[a] * LABELED[b] for a in range(7) for b in range(7 - a))
        partitions = sum(labeled * b for labeled, b in zip(LABELED, bell))
        want = {"pair": pairs, "partition": partitions}
        assert (pairs, partitions) == (452307, 42900445)
        for tid, status, count, cap, _ in base:
            assert (count, cap) == (want[_REGISTRY[tid].scope], 6), tid
            assert status == ("refuted" if tid in (_PAIR_PROBE.id, _PARTITION_PROBE.id) else "verified"), tid
        assert strip(verify_all(ids, n_max=6, jobs=2)) == base

    def test_elapsed_is_time_spent_in_checks(self):
        start = time.perf_counter()
        findings = verify_all(n_max=3, jobs=1)
        wall = time.perf_counter() - start
        assert all(f.elapsed > 0 for f in findings)
        assert sum(f.elapsed for f in findings) <= wall

    def test_json_dict_shape(self):
        f = verify_all(["t0_char"], n_max=2)[0]
        doc = f.to_json_dict()
        assert "elapsed" not in doc
        assert doc["theorem"] == "t0_char"
        timed = f.to_json_dict(timings=True)
        assert timed["elapsed"] >= 0


def _relabel(pre: Preorder, perm: list[int]) -> Preorder:
    """The same preorder with point x renamed perm[x]."""
    up = [0] * pre.n
    for x in range(pre.n):
        for y in bit_indices(pre.up[x]):
            up[perm[x]] |= 1 << perm[y]
    return Preorder(pre.n, tuple(up))


def _shuffled(rng: random.Random, n: int) -> list[int]:
    perm = list(range(n))
    rng.shuffle(perm)
    return perm


def _lone_pair(left, right) -> tuple[SpaceContext, SpaceContext, SpaceContext]:
    """A pair case (left, right, union) outside any sweep, on contexts of its own."""
    return SpaceContext(left), SpaceContext(right), SpaceContext(disjoint_union([left, right]))


def _labeled_pair_cases(cap: int):
    """Every ordered labeled pair of combined size at most cap, each weighing 1."""
    pools = [[SpaceContext(top) for top in enumerate_topologies(n)] for n in range(cap + 1)]
    for total in range(cap + 1):
        for na in range(total + 1):
            nb = total - na
            for left in pools[na]:
                for right in pools[nb]:
                    yield 1, (left, right, SpaceContext(disjoint_union([left.top, right.top])))


def _labeled_partition_cases(cap: int):
    """Every partition of every labeled space on at most cap points, each weighing 1."""
    for n in range(cap + 1):
        for top in enumerate_topologies(n):
            for dec in iter_partitions(n):
                yield 1, (top, dec)


# relabeling-invariant probes, so that the labeled oracles compare witnesses:
# every real pair and partition theorem is verified at cap 4.  Each refutes
# more than one case of its least size, so the sweep order decides its witness.

def _neither_t1(left: SpaceContext, right: SpaceContext, union: SpaceContext) -> dict | None:
    if not check_space(left.top, "T1", DEFINITIONAL, left).verdict and \
            not check_space(right.top, "T1", DEFINITIONAL, right).verdict:
        return {"probe": "neither summand is T1"}
    return None


def _proper_block_open(top, dec: Decomposition) -> dict | None:
    if len(top.opens) == 1 << top.n:
        return None
    for i, block in enumerate(dec.blocks):
        if block & (block - 1) and block != top.full_bits and block in top.opens_set:
            return {"block": i}
    return None


_PAIR_PROBE = Theorem("pair_oracle_probe", "probe: some summand is T1",
                      "pair", False, _neither_t1)
_PARTITION_PROBE = Theorem("partition_oracle_probe",
                           "probe: no block of two or more points, not all, is open in a non-discrete space",
                           "partition", False, _proper_block_open)


class TestRelabeling:
    def test_pair_outcomes_invariant(self):
        """Relabeling each summand on its own keeps every pair theorem's result.

        The union and summand verdicts the disjoint-union laws compare are
        required to stay too, so that the test is not only about verified
        theorems returning None.
        """
        pair_theorems = [t for t in theorems() if t.scope == "pair"]
        axioms = ("T-1", "T1/4", "T1/3", "T1/2")

        def outcome(left: Preorder, right: Preorder):
            lctx, rctx, uctx = pair = _lone_pair(alexandrov(left), alexandrov(right))
            verdicts = [tuple(check_space(ctx.top, axiom, mode, ctx).verdict for ctx in (uctx, lctx, rctx))
                        for axiom in axioms for mode in (DEFINITIONAL, CHARACTERIZED)]
            return verdicts, [t.check(*pair) is None for t in pair_theorems]

        rng = random.Random(2017)
        pres = [list(enumerate_preorders(n)) for n in range(5)]
        for total in range(5):
            for na in range(total + 1):
                nb = total - na
                for left in pres[na]:
                    for right in pres[nb]:
                        want = outcome(left, right)
                        for _ in range(2):
                            pa, pb = _shuffled(rng, na), _shuffled(rng, nb)
                            got = outcome(_relabel(left, pa), _relabel(right, pb))
                            assert got == want, (preorder_encoding(left), pa,
                                                 preorder_encoding(right), pb)

    def test_partition_outcomes_invariant(self):
        """One permutation of a space and its blocks keeps every partition theorem's result.

        Whether the saturated family sits inside the topology, which decides
        the quotient theorem's branch, is required to stay too.
        """
        partition_theorems = [t for t in theorems() if t.scope == "partition"]

        def outcome(top, dec: Decomposition):
            contained = all(s in top.opens_set for s in tau_F(top, dec).family)
            return contained, [t.check(top, dec) is None for t in partition_theorems]

        rng = random.Random(2017)
        for n in range(5):
            decs = list(iter_partitions(n))
            for pre in enumerate_preorders(n):
                top = alexandrov(pre)
                for dec in decs:
                    perm = _shuffled(rng, n)
                    blocks = tuple(sum(1 << perm[x] for x in bit_indices(b)) for b in dec.blocks)
                    got = outcome(alexandrov(_relabel(pre, perm)), Decomposition(n, blocks))
                    assert got == outcome(top, dec), (preorder_encoding(pre), dec.blocks, perm)

    def test_verdicts_and_outcomes_invariant(self):
        space_theorems = [t for t in theorems() if t.scope == "space"]

        def outcome(pre: Preorder):
            ctx = SpaceContext(alexandrov(pre), pre)
            verdicts = [check_space(ctx.top, axiom, mode, ctx).verdict
                        for axiom in AXIOMS for mode in (DEFINITIONAL, CHARACTERIZED)]
            return verdicts, [t.check(ctx) is None for t in space_theorems]

        rng = random.Random(2017)
        for n in range(5):
            for pre in enumerate_preorders(n):
                want = outcome(pre)
                for _ in range(2):
                    perm = _shuffled(rng, n)
                    assert outcome(_relabel(pre, perm)) == want, (n, preorder_encoding(pre), perm)


def _assert_generated_counts(cap: int) -> None:
    """Poset levels, class counts and orbit sums against OEIS through cap points."""
    posets = _poset_levels(cap)
    assert [len(level) for level in posets] == list(POSETS[:cap + 1])
    classes = [_size_classes(n, posets) for n in range(cap + 1)]
    assert [len(reps) for reps in classes] == list(UNLABELED[:cap + 1])
    assert [sum(size for _, size in reps) for reps in classes] == list(LABELED[:cap + 1])


class TestClasses:
    """The class sweep against labeled sweeps and the brute-force canonical key."""

    def test_counts_and_orbit_sums(self):
        _assert_generated_counts(7)

    @pytest.mark.slow
    def test_counts_and_orbit_sums_at_8(self):
        _assert_generated_counts(8)

    def test_generation_matches_orbit_marking(self):
        """Same rows, same order and same orbit sizes as the reference route."""
        for n, reps in enumerate(_preorder_classes(6)):
            assert reps == preorder_classes_by_marking(n), n

    @pytest.mark.slow
    def test_generation_matches_orbit_marking_at_7(self):
        assert _preorder_classes(7)[7] == preorder_classes_by_marking(7)

    def test_representatives_are_canonical_keys(self):
        for n, classes in enumerate(_preorder_classes(4)):
            want = [pre.up for pre in enumerate_preorders(n)
                    if preorder_encoding(pre) == canonical_preorder_key(pre)]
            assert [rows for rows, _ in classes] == want
            for rows, size in classes:
                pre = Preorder(n, rows)
                orbit = {preorder_encoding(_relabel(pre, list(perm)))
                         for perm in permutations(range(n))}
                assert size == len(orbit)

    @staticmethod
    def _assert_matches(ids, count, slots):
        got = verify_all(ids, n_max=4)
        assert [f.theorem for f in got] == ids
        assert any(f.status == "refuted" for f in got)
        for f in got:
            witness = slots[f.theorem][0]
            assert (f.status, f.spaces_checked, f.witness) == \
                ("verified" if witness is None else "refuted", count, witness), f.theorem

    def test_space_theorems_match_labeled_sweep(self):
        ids = [t.id for t in theorems() if t.scope == "space"]
        cases = ((1, (SpaceContext(alexandrov(pre), pre),))
                 for n in range(5) for pre in enumerate_preorders(n))
        count, slots = _sweep(ids, cases, _space_payload)
        assert count == sum(LABELED[:5])
        self._assert_matches(ids, count, slots)

    def test_pair_theorems_match_labeled_sweep(self, monkeypatch):
        probe = _PAIR_PROBE
        monkeypatch.setitem(_REGISTRY, probe.id, probe)
        ids = [t.id for t in theorems() if t.scope == "pair"]
        count, slots = _sweep(ids, _labeled_pair_cases(4), _pair_payload)
        assert count == 862
        assert slots[probe.id][0] is not None
        self._assert_matches(ids, count, slots)

    def test_partition_theorems_match_labeled_sweep(self, monkeypatch):
        probe = _PARTITION_PROBE
        monkeypatch.setitem(_REGISTRY, probe.id, probe)
        ids = [t.id for t in theorems() if t.scope == "partition"]
        count, slots = _sweep(ids, _labeled_partition_cases(4), _partition_payload)
        assert count == 5480
        assert slots[probe.id][0] is not None
        self._assert_matches(ids, count, slots)

    def test_implication_matrix_matches_labeled_sweep(self):
        counterexamples = {}
        checked = 0
        for n in range(6):
            for pre in enumerate_preorders(n):
                ctx = SpaceContext(alexandrov(pre), pre)
                checked += 1
                holds = {a: check_space(ctx.top, a, DEFINITIONAL, ctx).verdict for a in AXIOMS}
                new = [(a, b) for a in AXIOMS if holds[a] for b in AXIOMS
                       if not holds[b] and (a, b) not in counterexamples]
                for key in new:
                    counterexamples[key] = _space_payload(ctx)
        labeled = ImplicationMatrix(tuple(AXIOMS), 5, checked, counterexamples)
        assert implication_matrix(5).to_json_dict() == labeled.to_json_dict()

    def test_emit_up_to_iso_filters_labeled_stream(self, capsys):
        assert cli.main(["enumerate", "4", "--emit"]) == 0
        labeled = capsys.readouterr().out.splitlines()
        assert cli.main(["enumerate", "4", "--emit", "--up-to-iso"]) == 0
        iso = capsys.readouterr().out.splitlines()
        pres = list(enumerate_preorders(4))
        assert len(labeled) == len(pres)
        assert iso == [line for line, pre in zip(labeled, pres)
                       if preorder_encoding(pre) == canonical_preorder_key(pre)]


class TestImplicationMatrix:
    def test_known_chain_holds(self):
        m = implication_matrix(3, ["T1", "CR", "C0", "CD"])
        assert m.implies("T1", "CR")
        assert m.implies("CR", "C0")
        assert m.implies("C0", "CD")
        assert m.spaces_checked == 35

    def test_counterexample_replays(self):
        m = implication_matrix(3, ["C0", "CR"])
        assert not m.implies("C0", "CR")
        w = m.counterexamples.get(("C0", "CR"))
        top = alexandrov(decode_preorder(w["n"], w["encoding"]))
        ctx = SpaceContext(top)
        assert check_space(top, "C0", DEFINITIONAL, ctx).verdict
        assert not check_space(top, "CR", DEFINITIONAL, ctx).verdict

    def test_witness_is_minimal(self):
        m = implication_matrix(4, ["C0", "CR"])
        w = m.counterexamples.get(("C0", "CR"))
        # exhaustively confirm nothing smaller violates the pair
        for n in range(w["n"] + 1):
            for pre in enumerate_preorders(n):
                if (n, preorder_encoding(pre)) >= (w["n"], w["encoding"]):
                    break
                top = alexandrov(pre)
                ctx = SpaceContext(top, pre)
                assert not (check_space(top, "C0", DEFINITIONAL, ctx).verdict
                            and not check_space(top, "CR", DEFINITIONAL, ctx).verdict)

    def test_reordered_subset_is_the_full_matrix_restricted(self):
        rng = random.Random(21)
        named = ["T1/4", "T1/3", "S1/4"]
        chosen = rng.sample([a for a in AXIOMS if a not in named], 9) + named
        rng.shuffle(chosen)
        catalog = list(AXIOMS)
        assert sorted(chosen, key=catalog.index) != chosen
        full = implication_matrix(5)
        m = implication_matrix(5, axioms=chosen)
        assert m.axioms == tuple(chosen)
        assert m.spaces_checked == full.spaces_checked
        assert m.counterexamples == {(a, b): w for (a, b), w in full.counterexamples.items()
                                     if a in chosen and b in chosen}
        assert m.counterexamples

    def test_unknown_axiom(self):
        with pytest.raises(KeyError):
            implication_matrix(2, ["T0", "T9"])

    def test_json_dict(self):
        m = implication_matrix(2, ["T0", "T1"])
        doc = m.to_json_dict()
        assert doc["axioms"] == ["T0", "T1"]
        assert "T1" in doc["implications"]
