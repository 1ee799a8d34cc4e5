from __future__ import annotations

import contextlib
import copy
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finitetop.cli import (
    EXIT_BROKEN_PIPE,
    EXIT_OK,
    EXIT_REFUTED,
    MAX_DOC_POINTS,
    DocumentError,
    _dumps,
    main,
    parse_space_doc,
)
from finitetop.core import TopologyError, bit_indices
from finitetop.enumerate import enumerate_topologies

DOCS = Path(__file__).resolve().parent.parent / "docs"
SPACE_SCHEMA = json.loads((DOCS / "spacedoc.schema.json").read_text())
REPORT_SCHEMA = json.loads((DOCS / "report.schema.json").read_text())

_SPACE_VALIDATOR = jsonschema.Draft202012Validator(SPACE_SCHEMA)
# a defect writes one of these where a value was, or n, one past the last point
_ODD = (-1, 1.0, 1.5, True, "a", None, [], [0, 1, 2], {})


def _paths(value, path=()):
    yield path
    items = value.items() if isinstance(value, dict) else \
        enumerate(value) if isinstance(value, list) else ()
    for key, child in items:
        yield from _paths(child, path + (key,))


@st.composite
def _space_docs(draw):
    """A well-formed space document with up to two random defects.

    A defect picks a place in the document: at the top it adds a key, below
    it replaces, deletes or repeats the value there.
    """
    n = draw(st.one_of(st.integers(0, 4), st.just(MAX_DOC_POINTS)))
    point = st.integers(0, max(n - 1, 0))
    doc = {"points": n}
    if n and draw(st.booleans()):
        doc["leq"] = draw(st.lists(st.lists(point, min_size=2, max_size=2), max_size=3))
        doc["closure"] = "reflexive-transitive"
    else:
        doc["opens"] = draw(st.lists(st.lists(point, max_size=min(n, 3), unique=True), max_size=4))
    if draw(st.booleans()):
        doc["labels"] = [chr(97 + x) for x in range(n)]
    odd = st.sampled_from(_ODD + (n,)).map(copy.deepcopy)
    for _ in range(draw(st.integers(0, 2))):
        *up, key = draw(st.sampled_from(list(_paths(doc)))) or (None,)
        if key is None:
            doc[draw(st.sampled_from(["opens", "leq", "closure", "labels", "bogus"]))] = draw(odd)
            continue
        parent = doc
        for k in up:
            parent = parent[k]
        how = draw(st.sampled_from(["replace", "delete", "repeat"]))
        if how == "delete":
            del parent[key]
        elif how == "repeat" and isinstance(parent, list):
            parent.append(copy.deepcopy(parent[key]))
        else:
            parent[key] = draw(odd)
    return doc


# sha256 of `verify all --n-max 5` stdout, the same at every commit since the seed
SEED_VERIFY_N5_SHA256 = "f187d1f5f563a0545b921c3eecf5d06064ce1d9e5b5e765e7e747a73d54863fc"
# sha256 of `verify all --n-max 6 --jobs 2` stdout; n = 6 is the first size the worker pool runs
VERIFY_N6_SHA256 = "bca8868f24d5e53968daadea173c37835a70d87d24e809c04353d0671608fb9a"
# sha256 of `verify all --n-max 7 --jobs 2` stdout, first recorded from the orbit-marking sweep
VERIFY_N7_SHA256 = "c0b74392cade5c003890df56d2a260b0c0c59960d33d8638282911e6f72e427e"
# sha256 of `classify` then `hasse` stdout on each class representative on at most 5
# points, fed as an opens document; first recorded from the ClassPoset build
CLASS_REPS_N5_SHA256 = "11b10db61a423bc929037bb797c50a4bfcb22809e0796ca7480a75449f60c0ec"

SIERPINSKI_DOC = {"points": 2, "opens": [[], [1], [0, 1]]}
GOLDEN4_DOC = {"points": 4, "opens": [[], [2], [0, 1], [0, 1, 2], [0, 1, 2, 3]],
               "labels": ["a", "b", "c", "d"]}
MIN_S1_DOC = {"points": 4, "leq": [[0, 2], [0, 3], [1, 2], [1, 3]],
              "closure": "reflexive-transitive"}


def run_cli(*args: str, stdin: str | None = None):
    proc = subprocess.run(
        [sys.executable, "-m", "finitetop.cli", *args],
        input=stdin, capture_output=True, text=True,
    )
    if args[0] in ("classify", "verify") and proc.returncode in (EXIT_OK, EXIT_REFUTED):
        # every report the tests produce is the text json.dumps gives for it
        assert proc.stdout == json.dumps(json.loads(proc.stdout), sort_keys=True, indent=2) + "\n"
    return proc.returncode, proc.stdout, proc.stderr


class TestClassify:
    def test_sierpinski_goldens(self):
        rc, out, _ = run_cli("classify", stdin=json.dumps(SIERPINSKI_DOC))
        assert rc == 0
        doc = json.loads(out)
        jsonschema.validate(doc, REPORT_SCHEMA)
        assert doc["axioms"]["T1/2"] == {"def": True, "char": True}
        assert doc["axioms"]["lambda"] == {"def": True, "char": True}
        assert doc["axioms"]["nested"] == {"def": True, "char": True}

    def test_golden4_dynamics(self):
        rc, out, _ = run_cli("classify", stdin=json.dumps(GOLDEN4_DOC))
        doc = json.loads(out)
        jsonschema.validate(doc, REPORT_SCHEMA)
        assert doc["dynamics"]["recurrent_space"] is False
        assert not any(p["dynamics"]["hyperbolic_like"] for p in doc["dynamics"]["points"])
        assert doc["labels"] == ["a", "b", "c", "d"]
        assert doc["class_space"]["classes"] == [[0, 1], [2], [3]]

    def test_single_mode_and_filter(self):
        rc, out, _ = run_cli("classify", "--mode", "char", "--axioms", "T0,SY",
                             stdin=json.dumps(MIN_S1_DOC))
        doc = json.loads(out)
        jsonschema.validate(doc, REPORT_SCHEMA)
        assert set(doc["axioms"]) == {"T0", "SY"}
        assert doc["axioms"]["SY"]["char"] is False
        assert "def" not in doc["axioms"]["SY"]

    def test_leq_route_matches_opens_route(self):
        sier_leq = {"points": 2, "leq": [[0, 1]], "closure": "reflexive-transitive"}
        _, a, _ = run_cli("classify", stdin=json.dumps(SIERPINSKI_DOC))
        _, b, _ = run_cli("classify", stdin=json.dumps(sier_leq))
        assert json.loads(a)["axioms"] == json.loads(b)["axioms"]

    def test_invalid_topology_exit3(self):
        bad = {"points": 2, "opens": [[], [0]]}
        rc, out, err = run_cli("classify", stdin=json.dumps(bad))
        assert rc == 3
        assert "MissingEmptyOrFull" in err

    def test_union_witness_on_stderr(self):
        bad = '{"points":3,"opens":[[],[0],[1],[0,1,2]]}'
        rc, out, err = run_cli("classify", "-", stdin=bad)
        assert (rc, out) == (3, "")
        assert err == ('{"error": "NotClosedUnderUnionError", "message": "opens {0} and {1} '
                       'have a union outside the family", "witness": [[0], [1]]}\n')

    def test_intersection_witness_on_stderr(self):
        bad = '{"points":3,"opens":[[],[0,1],[1,2],[0,1,2]]}'
        rc, out, err = run_cli("classify", "-", stdin=bad)
        assert (rc, out) == (3, "")
        assert err == ('{"error": "NotClosedUnderIntersectionError", "message": "opens {0,1} and '
                       '{1,2} have an intersection outside the family", "witness": [[0, 1], [1, 2]]}\n')

    def test_parse_error_exit2(self):
        rc, _, _ = run_cli("classify", stdin="{not json")
        assert rc == 2

    def test_shape_errors_exit2(self):
        for bad in (
            {"points": 2},
            {"points": 2, "opens": [[]], "leq": [], "closure": "reflexive-transitive"},
            {"points": 2, "leq": [[0, 1]]},
            {"points": 2, "opens": [[], [0, 1]], "labels": ["x", "x"]},
            {"points": -1, "opens": [[]]},
            {"points": 2, "opens": [[], [5], [0, 1]]},
        ):
            rc, _, _ = run_cli("classify", stdin=json.dumps(bad))
            assert rc == 2, bad

    def test_parser_accepts_what_the_schema_accepts(self):
        validator = jsonschema.Draft202012Validator(SPACE_SCHEMA)
        docs = [
            SIERPINSKI_DOC,
            GOLDEN4_DOC,
            MIN_S1_DOC,
            {"points": 2, "opens": [[], [0], [0, 1]], "closure": "reflexive-transitive"},
            {"points": 2, "opens": [[], [0], [0, 1]], "bogus": 1},
            {"points": 2, "leq": [], "closure": "reflexive-transitive", "extra": None},
            {"points": 2, "opens": [[], [0], [0, 1]], "closure": "transitive"},
            {"points": 2, "opens": [[], [0], [0, 1]], "labels": None},
            {"points": 2, "opens": [[], [0], [0, 1]], "labels": ["a", "a"]},
            {"points": 2, "opens": [[], [0, 1]], "labels": ["a"]},
            {"points": 2, "opens": [[], [0, 1]], "labels": ["a", "b", "c"]},
            {"points": 2.0, "opens": [[], [0, 1]], "labels": ["a"]},
            {"points": 0, "opens": [[]], "labels": ["a"]},
            {"points": 0, "opens": [[]], "labels": []},
            {"points": 2, "opens": [[], [2], [0, 1]]},
            {"points": 2, "leq": [[0, 2]], "closure": "reflexive-transitive"},
            {"points": 2.0, "opens": [[], [0, 1]]},
            {"points": 2, "opens": [[], [0.0], [0, 1]]},
            {"points": 2, "leq": [[0.0, 1]], "closure": "reflexive-transitive"},
            {"points": 2.5, "opens": [[], [0, 1]]},
            {"points": 2, "opens": [[], [True], [0, 1]]},
            {"points": 2, "leq": [[0, 1]]},
            {"points": 2},
            {"opens": [[]]},
            [],
        ]
        for doc in docs:
            try:
                parse_space_doc(doc)
                accepted = True
            except DocumentError:
                accepted = False
            assert accepted == validator.is_valid(doc), doc
            rc, _, _ = run_cli("classify", stdin=json.dumps(doc))
            assert (rc == 0) == accepted and rc in (0, 2), doc

    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(_space_docs())
    def test_parser_accepts_what_the_schema_accepts_random(self, doc):
        # a topology error is a shape the parser accepted; sizes over the
        # document cap are not drawn, since the schema has no cap
        try:
            parse_space_doc(doc)
            accepted = True
        except TopologyError:
            accepted = True
        except DocumentError:
            accepted = False
        assert accepted == _SPACE_VALIDATOR.is_valid(doc), doc

    def test_unknown_axiom_filter_exit2(self):
        rc, _, _ = run_cli("classify", "--axioms", "T9",
                           stdin=json.dumps(SIERPINSKI_DOC))
        assert rc == 2

    def test_undecodable_file_exit2(self, tmp_path):
        p = tmp_path / "space.json"
        p.write_bytes(b"\xff\xfe{}")
        for command in ("classify", "hasse"):
            rc, out, err = run_cli(command, str(p))
            assert (rc, out) == (2, ""), command
            assert len(err.splitlines()) == 1 and "Traceback" not in err, command
        # valid JSON but for one byte that is not UTF-8: stdin is decoded like a file
        labels_doc = b'{"points":1,"opens":[[],[0]],"labels":["\xff"]}'
        p.write_bytes(labels_doc)
        for command in ("classify", "hasse"):
            for source, data in ((str(p), None), ("-", labels_doc)):
                proc = subprocess.run([sys.executable, "-m", "finitetop.cli", command, source],
                                      input=data, capture_output=True)
                assert (proc.returncode, proc.stdout) == (2, b""), (command, source)
                err = proc.stderr.decode()
                assert len(err.splitlines()) == 1 and "Traceback" not in err, (command, source)

    def test_deeply_nested_json_exit2(self):
        for command in ("classify", "hasse"):
            rc, out, err = run_cli(command, stdin="[" * 100000)
            assert (rc, out) == (2, ""), command
            assert len(err.splitlines()) == 1 and "Traceback" not in err, command

    def test_reads_file(self, tmp_path):
        p = tmp_path / "space.json"
        p.write_text(json.dumps(SIERPINSKI_DOC))
        rc, out, _ = run_cli("classify", str(p))
        assert rc == 0 and json.loads(out)["points"] == 2


def _discrete_doc(n: int, drop: tuple[int, ...] = ()) -> dict:
    """Every subset of n points as an opens document, less the bitmaps in drop."""
    return {"points": n, "opens": [[x for x in range(n) if u >> x & 1]
                                   for u in range(1 << n) if u not in drop]}


def _upsets_doc(n: int, pairs: list[tuple[int, int]], labels: list[str]) -> dict:
    """The upsets of the relation pairs on n points as a labeled opens document."""
    return {"points": n, "labels": labels,
            "opens": [[x for x in range(n) if u >> x & 1] for u in range(1 << n)
                      if all(u >> y & 1 for x, y in pairs if u >> x & 1)]}


_NO_STDOUT = hashlib.sha256(b"").hexdigest()
# exit code, stdout sha256 and stderr of `classify` on the largest documents: the
# first six recorded when validation and the definitional lambda check were pairwise
# scans, the last two when subset tables were filled one bit at a time and the
# report went through json.dumps
LARGE_CLASSIFY_PINS = [
    (_discrete_doc(12), 0,
     "11cecf23da3a22051a8434b4bd91c30725d3c21726e44c8bf0b7fc073f4a31df", ""),
    ({"points": 12, "leq": [], "closure": "reflexive-transitive"}, 0,
     "11cecf23da3a22051a8434b4bd91c30725d3c21726e44c8bf0b7fc073f4a31df", ""),
    # not a lambda-space: the definitional witness comes from the pairwise scan
    ({"points": 12, "leq": [[0, 1], [1, 2]], "closure": "reflexive-transitive"}, 0,
     "bb53f6dee2ab6eb0db65b1f7939f338d573eec61f7a7886bc24f149fa03e524c", ""),
    (_discrete_doc(12, drop=(0x7FF,)), 3, _NO_STDOUT,
     '{"error": "NotClosedUnderUnionError", "message": "opens {0} and {1,2,3,4,5,6,7,8,9,10} '
     'have a union outside the family", "witness": [[0], [1, 2, 3, 4, 5, 6, 7, 8, 9, 10]]}\n'),
    (_discrete_doc(11, drop=(0b1,)), 3, _NO_STDOUT,
     '{"error": "NotClosedUnderIntersectionError", "message": "opens {0,1} and {0,2} have an '
     'intersection outside the family", "witness": [[0, 1], [0, 2]]}\n'),
    (_discrete_doc(11, drop=(0,)), 3, _NO_STDOUT,
     '{"error": "MissingEmptyOrFullError", "message": "family must contain the empty set and '
     'the whole space"}\n'),
    # not T0: eight classes, four of them merged, on a class poset of height 2
    ({"points": 12, "leq": [[0, 1], [1, 0], [1, 2], [2, 3], [3, 4], [4, 3], [5, 3], [6, 7],
                            [7, 6], [7, 8], [9, 8], [10, 11], [11, 10], [11, 2]],
      "closure": "reflexive-transitive"}, 0,
     "49714522c2c15825bc5d1b516efe4ea0596f371f95be9a5c8d83b789758202b8", ""),
    # labels that the writer escapes: non-ASCII, astral, control, quote and backslash
    (_upsets_doc(12, [(0, 1), (1, 2), (3, 2), (4, 5), (6, 5), (6, 7), (8, 9), (10, 11)],
                 ["\u00e9", "\u03b1", "\u65e5\u672c", "\U0001f600", "tab\t", 'quote"',
                  "back\\slash", "nl\n", "\u0007bell", "ascii", "\u2028", "\x7f"]), 0,
     "b906dd04a236c89e3fb67986262d9b61fb027972407f9b14835396f1b3bd5c2d", ""),
]


class TestLargeClassify:
    @pytest.mark.parametrize("doc, code, stdout_sha256, stderr", LARGE_CLASSIFY_PINS,
                             ids=["discrete12", "discrete12-leq", "chain3-12-leq",
                                  "union12", "intersection11", "no-empty11",
                                  "classes8-12-leq", "labels12-opens"])
    def test_pinned_outcome(self, doc, code, stdout_sha256, stderr):
        rc, out, err = run_cli("classify", stdin=json.dumps(doc))
        assert (rc, hashlib.sha256(out.encode()).hexdigest(), err) == (code, stdout_sha256, stderr)


_JSON_SCALARS = st.none() | st.booleans() | st.integers() | st.floats() | st.text()


class TestWriter:
    """The report writer gives the text of json.dumps(x, sort_keys=True, indent=2)."""

    @staticmethod
    def _same(value):
        assert _dumps(value) == json.dumps(value, sort_keys=True, indent=2), value

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(st.recursive(_JSON_SCALARS, lambda inner: (
        st.lists(inner) | st.lists(inner).map(tuple) | st.dictionaries(st.text(), inner)),
        max_leaves=30))
    def test_random_values(self, value):
        self._same(value)

    def test_edge_values(self):
        deep = 0
        for depth in range(60):
            deep = [deep] if depth % 2 else {"k\u00e9": deep, "": []}
        for value in ([True, 1, 1.0, False, 0, 0.0, None], {}, [], (), [{}, [], ()], deep,
                      "\x00\x1f\x7f\u2028\ud800\U0001f600", -(10 ** 40), float("nan"),
                      {"b": 1, "a": [-0.0, float("inf")], "\u00e9": {"": None}}):
            self._same(value)

    def test_verify_timings_report(self):
        # run_cli compares the report with json.dumps; the timings are floats
        rc, out, _ = run_cli("verify", "all", "--n-max", "4", "--timings")
        assert rc == 0
        assert all(isinstance(f["elapsed"], float) for f in json.loads(out)["findings"])


class TestVerifyCommand:
    def test_single_theorem_case_insensitive(self):
        rc, out, _ = run_cli("verify", "T14_char", "--n-max", "3")
        assert rc == 0
        doc = json.loads(out)
        jsonschema.validate(doc, REPORT_SCHEMA)
        assert doc["findings"][0]["theorem"] == "t14_char"
        assert doc["findings"][0]["status"] == "verified"

    def test_unknown_theorem_exit2(self):
        rc, _, err = run_cli("verify", "bogus_id")
        assert rc == 2
        assert "unknown theorem" in err

    def test_probe_refutation_keeps_exit0(self):
        rc, out, _ = run_cli("verify", "sd_mixed_probe", "--n-max", "3")
        assert rc == 0
        doc = json.loads(out)
        assert doc["findings"][0]["status"] == "refuted"
        assert doc["refuted_asserted"] == 0

    def test_timings_flag(self):
        _, out, _ = run_cli("verify", "t0_char", "--n-max", "2", "--timings")
        doc = json.loads(out)
        jsonschema.validate(doc, REPORT_SCHEMA)
        assert "elapsed" in doc["findings"][0]

    def test_oversize_exit2(self):
        rc, _, err = run_cli("verify", "t0_char", "--n-max", "9")
        assert rc == 2
        assert err.splitlines() == ["carrier size 9 exceeds the supported maximum 8"]

    def test_negative_size_exit2(self):
        rc, out, err = run_cli("verify", "all", "--n-max", "-1")
        assert rc == 2 and out == ""
        assert err.splitlines() == ["carrier size must be nonnegative"]

    def test_jobs_below_one_exit2(self):
        for jobs in ("0", "-3"):
            rc, out, err = run_cli("verify", "all", "--n-max", "2", "--jobs", jobs)
            assert rc == 2 and out == ""
            assert err.splitlines() == [f"--jobs must be at least 1, got {jobs}"]


class TestHasse:
    def test_sierpinski(self):
        rc, out, _ = run_cli("hasse", stdin=json.dumps(SIERPINSKI_DOC))
        assert rc == 0
        assert out.count("label=") == 2
        assert out.count("->") == 1
        assert "rankdir=BT" in out

    def test_min_s1(self):
        _, out, _ = run_cli("hasse", stdin=json.dumps(MIN_S1_DOC))
        assert out.count("label=") == 4
        assert out.count("->") == 4

    def test_indiscrete_single_node(self):
        doc = {"points": 2, "opens": [[], [0, 1]]}
        _, out, _ = run_cli("hasse", stdin=json.dumps(doc))
        assert out.count("label=") == 1
        assert '"{0,1}"' in out
        assert "->" not in out

    def test_covering_edges_only(self):
        chain = {"points": 3, "leq": [[0, 1], [1, 2]], "closure": "reflexive-transitive"}
        _, out, _ = run_cli("hasse", stdin=json.dumps(chain))
        assert out.count("->") == 2  # transitive edge 0->2 omitted

    def test_labels_used(self):
        doc = dict(SIERPINSKI_DOC, labels=["low", "high"])
        _, out, _ = run_cli("hasse", stdin=json.dumps(doc))
        assert '"{low}"' in out and '"{high}"' in out


class TestEnumerateCommand:
    def test_counts(self):
        for n, want in ((0, "1"), (3, "29"), (4, "355")):
            rc, out, _ = run_cli("enumerate", str(n), "--count-only")
            assert rc == 0 and out.strip() == want

    def test_count_is_default(self):
        rc, out, _ = run_cli("enumerate", "2")
        assert rc == 0 and out.strip() == "4"

    def test_emit_stream(self):
        rc, out, _ = run_cli("enumerate", "2", "--emit")
        lines = out.splitlines()
        assert len(lines) == 4
        for line in lines:
            doc = json.loads(line)
            jsonschema.validate(doc, SPACE_SCHEMA)
            assert doc["points"] == 2

    def test_emit_up_to_iso(self):
        rc, out, _ = run_cli("enumerate", "3", "--emit", "--up-to-iso")
        assert len(out.splitlines()) == 9

    def test_oversize_exit2(self):
        # counts and classes go to 8 points, the labeled stream to 7
        for args, cap in ((("9",), 8), (("9", "--up-to-iso"), 8), (("8", "--emit"), 7)):
            rc, out, err = run_cli("enumerate", *args)
            assert rc == 2 and out == "", args
            assert err.splitlines() == [f"carrier size {args[0]} exceeds the supported maximum {cap}"], args

    def test_negative_size_exit2(self):
        for flags in ((), ("--emit",), ("--up-to-iso",)):
            rc, out, err = run_cli("enumerate", "-1", *flags)
            assert rc == 2 and out == "", flags
            assert err.splitlines() == ["carrier size must be nonnegative"], flags

    def test_flags_mutually_exclusive(self):
        rc, _, _ = run_cli("enumerate", "2", "--emit", "--count-only")
        assert rc == 2


class TestBrokenPipe:
    # stdout block-buffered, as it is on a pipe by default
    ENV = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}

    def test_reader_closes_after_first_line(self):
        proc = subprocess.Popen([sys.executable, "-m", "finitetop.cli", "enumerate", "6", "--emit"],
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=self.ENV)
        first = proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) == EXIT_BROKEN_PIPE
        assert json.loads(first)["points"] == 6
        assert err == b""

    @pytest.mark.parametrize("args", [("hasse", "-"), ("verify", "all", "--n-max", "2"), ("--help",)])
    def test_reader_gone_before_the_output(self, args):
        # output small enough to sit in the buffer surfaces at the final flush
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run([sys.executable, "-m", "finitetop.cli", *args],
                                  input=json.dumps(SIERPINSKI_DOC).encode(),
                                  stdout=write_end, stderr=subprocess.PIPE, env=self.ENV,
                                  timeout=60)
        finally:
            os.close(write_end)
        assert (proc.returncode, proc.stderr) == (EXIT_BROKEN_PIPE, b""), args


class TestDeterminism:
    def test_classify_byte_identical(self):
        payload = json.dumps(GOLDEN4_DOC)
        outs = {run_cli("classify", stdin=payload)[1] for _ in range(3)}
        assert len(outs) == 1

    def test_classify_and_hasse_on_class_representatives(self, tmp_path):
        # in process: 372 interpreter starts would dominate the suite
        path = tmp_path / "space.json"
        digest = hashlib.sha256()
        spaces = 0
        for n in range(6):
            for top in enumerate_topologies(n, up_to_iso=True):
                doc = {"points": n, "opens": [list(bit_indices(u)) for u in top.opens]}
                path.write_text(json.dumps(doc))
                for command in ("classify", "hasse"):
                    out = io.StringIO()
                    with contextlib.redirect_stdout(out):
                        assert main([command, str(path)]) == EXIT_OK, (command, doc)
                    digest.update(out.getvalue().encode())
                spaces += 1
        assert spaces == 186
        assert digest.hexdigest() == CLASS_REPS_N5_SHA256

    def test_verify_n5_matches_seed_reference(self):
        for jobs in ("1", "2"):
            rc, out, _ = run_cli("verify", "all", "--n-max", "5", "--jobs", jobs)
            assert rc == 0
            assert hashlib.sha256(out.encode()).hexdigest() == SEED_VERIFY_N5_SHA256, jobs
        counts = {f["scope"]: f["spaces_checked"] for f in json.loads(out)["findings"]}
        assert counts == {"space": 7332, "pair": 15688, "partition": 5480}

    def test_verify_n6_matches_reference(self):
        rc, out, _ = run_cli("verify", "all", "--n-max", "6", "--jobs", "2")
        assert rc == 0
        assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_N6_SHA256

    @pytest.mark.slow
    def test_verify_n7_matches_reference(self):
        rc, out, _ = run_cli("verify", "all", "--n-max", "7", "--jobs", "2")
        assert rc == 0
        assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_N7_SHA256

    def test_verify_byte_identical_across_jobs(self):
        runs = [run_cli("verify", "all", "--n-max", "3", *jobs) for jobs in ((), ("--jobs", "2"), ())]
        for rc, _, err in runs:
            assert rc == 0, err
        outs = [out for _, out, _ in runs]
        assert outs[0] == outs[1] == outs[2], [err for _, _, err in runs]
