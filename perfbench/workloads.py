"""The three benchmark workloads and their checks against the seed references.

Each workload is a closed loop with one client in one process.  A *pass* is
one fixed unit of work (one request for verify-n5 and survey-n5, the whole
corpus for classify-docs) made of operations; every operation's output is
compared with ``reference/`` and a mismatch or an exception counts as a
failed operation.  The package is driven only through its public functions
and ``finitetop.cli.main``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import shutil
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = HERE / "reference"
WORK = HERE / "_work"

VERIFY_ARGV = ["verify", "all", "--n-max", "5", "--jobs", "2"]


def sha256(data: str | bytes) -> str:
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()


def load_reference(name: str) -> dict:
    with open(REFERENCE / f"{name}.json", encoding="utf-8") as fh:
        return json.load(fh)


def call_cli(argv: list[str]) -> tuple[int, str, str]:
    """Run ``finitetop.cli.main`` in this process, capturing its streams."""
    from finitetop import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def error_class(stderr: str) -> str | None:
    """The error class the CLI reports for an invalid document, if any."""
    for line in stderr.splitlines():
        try:
            doc = json.loads(line)
        except json.JSONDecodeError:
            continue
        if isinstance(doc, dict) and "error" in doc:
            return doc["error"]
    return None


@dataclass
class Op:
    """Outcome of one operation: its latency, whether it matched, its cases."""
    latency_s: float
    ok: bool
    cases: int


@dataclass
class Workload:
    name: str
    seed: int
    tracer: object = None

    # latency samples are single operations (else whole passes)
    per_op_latency = False

    def prepare(self) -> None:
        """Build inputs; runs before any timing."""

    def run_pass(self, traced: bool = False) -> list[Op]:
        """One pass; ``traced`` selects the procedure of the traced run."""
        raise NotImplementedError

    def close(self) -> None:
        """Remove what ``prepare`` wrote."""

    def _timed(self, fn, check) -> Op:
        """Time ``fn()`` and judge its result with ``check`` -> (ok, cases)."""
        t0 = time.perf_counter()
        try:
            result = fn()
        except Exception:
            latency = time.perf_counter() - t0
            traceback.print_exc()
            return Op(latency, False, 0)
        latency = time.perf_counter() - t0
        ok, cases = check(result)
        return Op(latency, ok, cases)

    def fail(self, message: str) -> bool:
        sys.stderr.write(f"[{self.name}] mismatch: {message}\n")
        return False


# ---------------------------------------------------------------------------

def _verify_stdout(findings, n_max: int) -> str:
    """The ``verify`` report as the CLI prints it (sorted keys, indent 2)."""
    refuted = sum(1 for f in findings if f.asserted and f.status == "refuted")
    doc = {"n_max": n_max, "theorems": len(findings), "refuted_asserted": refuted,
           "findings": [f.to_json_dict() for f in findings]}
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


class VerifyN5(Workload):
    """``finitetop verify all --n-max 5 --jobs 2``, one request per pass.

    The traced pass runs ``verify_all`` once per scope with ``jobs=1`` so every
    span is recorded in this process, and rebuilds the CLI report from the
    three finding lists to check it against the same reference digest.
    """

    def prepare(self) -> None:
        self.ref = load_reference("verify")

    def _check_stdout(self, stdout: str, code: int) -> tuple[bool, int]:
        if code != self.ref["exit"]:
            return self.fail(f"exit {code}, want {self.ref['exit']}"), 0
        if sha256(stdout) != self.ref["stdout_sha256"]:
            return self.fail("verify stdout digest differs"), 0
        cases = sum(f["spaces_checked"] for f in json.loads(stdout)["findings"])
        return True, cases

    def run_pass(self, traced: bool = False) -> list[Op]:
        if not traced:
            return [self._timed(lambda: call_cli(VERIFY_ARGV),
                                lambda r: self._check_stdout(r[1], r[0]))]
        return [self._timed(self._by_scope, lambda r: self._check_stdout(r[1], r[0]))]

    def _by_scope(self) -> tuple[int, str, str]:
        from finitetop import enumerate as fe

        tracer = self.tracer
        registry = fe.theorems()
        findings = {}
        for scope in ("space", "pair", "partition"):
            ids = [t.id for t in registry if t.scope == scope]
            ctx = tracer.span(f"enumerate.scope_{scope}") if tracer else contextlib.nullcontext()
            with ctx:
                for f in fe.verify_all(ids, n_max=5, jobs=1):
                    findings[f.theorem] = f
        ordered = [findings[t.id] for t in registry]
        refuted = any(f.asserted and f.status == "refuted" for f in ordered)
        return int(refuted), _verify_stdout(ordered, 5), ""


class ClassifyDocs(Workload):
    """Classify each corpus document once per pass through ``cli.main``."""

    per_op_latency = True

    def prepare(self) -> None:
        import corpus

        self.ref = load_reference("classify")
        if self.ref["variants"] != corpus.VARIANTS or self.ref["slots"] != len(corpus.slots()):
            raise SystemExit("reference/classify.json does not match the corpus layout")
        self.dir = WORK / f"classify-{self.seed}"
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self.docs = []
        for i, (key, doc, _meta) in enumerate(corpus.corpus(self.seed)):
            data = corpus.encode(doc)
            path = self.dir / f"{i:03d}.json"
            path.write_bytes(data)
            self.docs.append((key, str(path), sha256(data)))

    def _check(self, key: str, doc_sha: str, result) -> tuple[bool, int]:
        code, stdout, stderr = result
        want = self.ref["docs"].get(key)
        if want is None or want["doc_sha256"] != doc_sha:
            return self.fail(f"document {key} has no reference"), 0
        got = {"exit": code, "stdout_sha256": sha256(stdout), "error": error_class(stderr)}
        for k, v in got.items():
            if want[k] != v:
                return self.fail(f"document {key}: {k} {v!r}, want {want[k]!r}"), 0
        return True, 1

    def run_pass(self, traced: bool = False) -> list[Op]:
        return [self._timed(lambda p=path: call_cli(["classify", p]),
                            lambda r, k=key, s=doc_sha: self._check(k, s, r))
                for key, path, doc_sha in self.docs]

    def close(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)


class SurveyN5(Workload):
    """implication_matrix(5), then ``enumerate 5 --up-to-iso``, then
    ``enumerate 6 --count-only``, in one process; one request per pass.

    A case is one labeled space the request covers: the matrix's
    ``spaces_checked``, the labeled spaces on 5 points behind the iso
    classes, and the 209,527 labeled spaces counted on 6 points.
    """

    def prepare(self) -> None:
        self.ref = load_reference("survey")

    def _matrix(self) -> str:
        from finitetop.enumerate import implication_matrix

        return json.dumps(implication_matrix(5).to_json_dict(), sort_keys=True)

    def _check_matrix(self, text: str) -> tuple[bool, int]:
        if sha256(text) != self.ref["implication_matrix_sha256"]:
            return self.fail("implication matrix digest differs"), 0
        return True, json.loads(text)["spaces_checked"]

    def _check_cli(self, key: str, result) -> tuple[bool, int]:
        code, stdout, _stderr = result
        want = self.ref[key]
        if code != 0 or stdout != want["stdout"]:
            return self.fail(f"{key}: exit {code}, stdout {stdout!r}"), 0
        return True, want["cases"]

    def run_pass(self, traced: bool = False) -> list[Op]:
        return [
            self._timed(self._matrix, self._check_matrix),
            self._timed(lambda: call_cli(["enumerate", "5", "--up-to-iso"]),
                        lambda r: self._check_cli("iso_5", r)),
            self._timed(lambda: call_cli(["enumerate", "6", "--count-only"]),
                        lambda r: self._check_cli("count_6", r)),
        ]


WORKLOADS = {"verify-n5": VerifyN5, "classify-docs": ClassifyDocs, "survey-n5": SurveyN5}
