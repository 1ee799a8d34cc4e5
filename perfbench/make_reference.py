"""Record the reference outputs every benchmark run is checked against.

Run once at the commit whose findings are the reference (the seed):

    python3 perfbench/make_reference.py

It writes ``perfbench/reference/verify.json`` (the ``verify all --n-max 5``
stdout digest), ``survey.json`` (the implication-matrix digest and the two
enumeration outputs) and ``classify.json`` (stdout digest, exit code and
error class of every document the corpus can draw, all slots times all
variants).  A later commit is correct only if it reproduces these exactly.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import corpus  # noqa: E402
from workloads import REFERENCE, SRC, VERIFY_ARGV, WORK, call_cli, error_class, sha256  # noqa: E402

sys.path.insert(0, str(SRC))

EXPECTED_ERROR = {
    "union": "NotClosedUnderUnionError",
    "intersection": "NotClosedUnderIntersectionError",
    "missing-empty": "MissingEmptyOrFullError",
}


def _write(name: str, doc: dict) -> None:
    REFERENCE.mkdir(exist_ok=True)
    with open(REFERENCE / f"{name}.json", "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True, indent=1)
        fh.write("\n")


def verify_reference() -> dict:
    code, stdout, _ = call_cli(VERIFY_ARGV)
    return {"argv": VERIFY_ARGV, "exit": code, "stdout_sha256": sha256(stdout)}


def survey_reference() -> dict:
    from finitetop.enumerate import count_topologies, implication_matrix

    matrix = json.dumps(implication_matrix(5).to_json_dict(), sort_keys=True)
    out = {"implication_matrix_sha256": sha256(matrix)}
    for key, argv, cases in (("iso_5", ["enumerate", "5", "--up-to-iso"], count_topologies(5)),
                             ("count_6", ["enumerate", "6", "--count-only"], count_topologies(6))):
        code, stdout, _ = call_cli(argv)
        if code != 0:
            raise SystemExit(f"{argv} exited {code}")
        out[key] = {"argv": argv, "stdout": stdout, "cases": cases}
    return out


def classify_reference() -> dict:
    WORK.mkdir(exist_ok=True)
    path = WORK / "reference-doc.json"
    docs = {}
    for slot, (kind, n, density, shape) in enumerate(corpus.slots()):
        for variant in range(corpus.VARIANTS):
            doc, _meta = corpus.make_document(slot, variant)
            data = corpus.encode(doc)
            path.write_bytes(data)
            t0 = time.perf_counter()
            code, stdout, stderr = call_cli(["classify", str(path)])
            elapsed = time.perf_counter() - t0
            err = error_class(stderr)
            want = (3, EXPECTED_ERROR[kind]) if kind != "valid" else (0, None)
            if (code, err) != want:
                raise SystemExit(f"slot {slot}:{variant} ({kind}) gave {(code, err)}, want {want}")
            docs[f"{slot}:{variant}"] = {"doc_sha256": sha256(data), "exit": code,
                                         "stdout_sha256": sha256(stdout), "error": err}
            print(f"{slot:4d}:{variant} {kind:13s} n={n:2d} {density:8s} {shape:5s} {elapsed:8.4f}s")
    path.unlink()
    return {"slots": len(corpus.slots()), "variants": corpus.VARIANTS, "docs": docs}


def main() -> None:
    _write("verify", verify_reference())
    _write("survey", survey_reference())
    _write("classify", classify_reference())


if __name__ == "__main__":
    main()
