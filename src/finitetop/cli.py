"""Command-line front end.

Subcommands: classify (axiom vector, dynamics, heights for one space),
verify (theorem harness findings), hasse (DOT diagram of the class poset),
enumerate (counts or a stream of space documents).

A space document is JSON with either an explicit open-set family

    {"points": 3, "opens": [[], [0], [0, 1, 2]]}

or relation pairs closed reflexively and transitively, declared by the
mandatory closure field so covering relations can be typed directly

    {"points": 2, "leq": [[0, 1]], "closure": "reflexive-transitive"}

plus an optional unique "labels" list.  Reports are emitted on stdout as
UTF-8 JSON with sorted keys; classify and verify output is byte-identical
across runs and --jobs settings.  Exit codes: 0 success, 1 an asserted
theorem was refuted, 2 usage or parse errors, 3 mathematically invalid
input (the witness goes to stderr).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from functools import cache
from typing import Any

from .axioms import AXIOMS, CHARACTERIZED, DEFINITIONAL, SpaceContext, check_space
from .core import (
    FiniteTopology,
    Preorder,
    TopologyError,
    alexandrov,
    bit_indices,
    class_poset,
    validate_topology,
)
from .dynamics import classify_space, is_anosov_type
from .enumerate import (
    MAX_CLASS_POINTS,
    MAX_LABELED_POINTS,
    SizeError,
    _REGISTRY,
    count_topologies,
    enumerate_topologies,
    verify_all,
)

EXIT_OK = 0
EXIT_REFUTED = 1
EXIT_USAGE = 2
EXIT_INVALID = 3

# classify and hasse build full subset tables, so cap document size
MAX_DOC_POINTS = 12

# the properties of docs/spacedoc.schema.json, which allows no others
_DOC_KEYS = frozenset({"points", "opens", "leq", "closure", "labels"})

_MODE_KEYS = {DEFINITIONAL: "def", CHARACTERIZED: "char"}


class DocumentError(ValueError):
    """A space document is malformed (shape, indices, labels, closure field)."""


def _load_json(path: str) -> Any:
    try:
        if path == "-":
            text = sys.stdin.buffer.read().decode("utf-8")
        else:
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise DocumentError(f"cannot read {path}: {exc}") from exc
    try:
        return json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise DocumentError(f"invalid JSON: {exc}") from exc


def _index(value: Any) -> int | None:
    """A JSON integer as an int, else None.

    As in JSON Schema, a float with no fractional part such as 2.0 is an
    integer, and a boolean is not.
    """
    if isinstance(value, bool):
        return None
    if isinstance(value, int):
        return value
    if isinstance(value, float) and value.is_integer():
        return int(value)
    return None


def _point_list(doc: Any, what: str, n: int) -> int:
    points = [_index(p) for p in doc] if isinstance(doc, list) else None
    if points is None or None in points:
        raise DocumentError(f"{what} must be a list of point indices")
    bits = 0
    for p in points:
        if not 0 <= p < n:
            raise DocumentError(f"{what} contains point {p} outside 0..{n - 1}")
        bits |= 1 << p
    return bits


def parse_space_doc(doc: Any) -> tuple[FiniteTopology, list[str] | None]:
    """Turn a space document into a validated topology plus optional labels.

    Shape problems, keys outside docs/spacedoc.schema.json included, raise
    DocumentError; a well-formed opens family that violates the topology
    axioms raises TopologyError.
    """
    if not isinstance(doc, dict):
        raise DocumentError("space document must be a JSON object")
    unknown = sorted(set(doc) - _DOC_KEYS)
    if unknown:
        raise DocumentError(f"unknown document keys: {', '.join(unknown)}")
    n = _index(doc.get("points"))
    if n is None or n < 0:
        raise DocumentError("points must be a nonnegative integer")
    if n > MAX_DOC_POINTS:
        raise DocumentError(f"points {n} exceeds the document cap {MAX_DOC_POINTS}")
    has_opens = "opens" in doc
    has_leq = "leq" in doc
    if has_opens == has_leq:
        raise DocumentError("exactly one of opens or leq is required")

    labels = doc.get("labels")
    if "labels" in doc:
        if (not isinstance(labels, list) or len(labels) != n
                or not all(isinstance(s, str) for s in labels)):
            raise DocumentError(f"labels must be {n} strings")
        if len(set(labels)) != n:
            raise DocumentError("labels must be unique")

    if has_opens:
        if doc.get("closure", "reflexive-transitive") != "reflexive-transitive":
            raise DocumentError('closure must be "reflexive-transitive"')
        raw = doc["opens"]
        if not isinstance(raw, list):
            raise DocumentError("opens must be a list of subsets")
        fam = [_point_list(u, "open set", n) for u in raw]
        return validate_topology(n, fam), labels

    if doc.get("closure") != "reflexive-transitive":
        raise DocumentError('leq documents require closure: "reflexive-transitive"')
    raw = doc["leq"]
    if not isinstance(raw, list):
        raise DocumentError("leq must be a list of [lower, upper] pairs")
    pairs = []
    for item in raw:
        pair = [_index(v) for v in item] if isinstance(item, list) else []
        if len(pair) != 2 or None in pair:
            raise DocumentError("leq entries must be [lower, upper] index pairs")
        x, y = pair
        if not (0 <= x < n and 0 <= y < n):
            raise DocumentError(f"leq pair [{x}, {y}] outside 0..{n - 1}")
        pairs.append((x, y))
    return alexandrov(Preorder.from_pairs(n, pairs)), labels


def _emit(doc: Any) -> None:
    sys.stdout.write(json.dumps(doc, sort_keys=True, indent=2) + "\n")


def _set_list(bits: int) -> list[int]:
    return sorted(bit_indices(bits))


# ---------------------------------------------------------------------------
# classify

def _cmd_classify(args: argparse.Namespace) -> int:
    top, labels = parse_space_doc(_load_json(args.file))
    modes = {
        "def": (DEFINITIONAL,),
        "char": (CHARACTERIZED,),
        "both": (DEFINITIONAL, CHARACTERIZED),
    }[args.mode]
    if args.axioms is None:
        chosen = list(AXIOMS)
    else:
        chosen = [a.strip() for a in args.axioms.split(",") if a.strip()]
        unknown = [a for a in chosen if a not in AXIOMS]
        if unknown:
            raise DocumentError(f"unknown axioms: {', '.join(unknown)}")

    ctx = SpaceContext(top)
    axioms_doc = {}
    for axiom in chosen:
        entry: dict[str, Any] = {}
        for mode in modes:
            report = check_space(top, axiom, mode, ctx)
            key = _MODE_KEYS[mode]
            entry[key] = report.verdict
            if report.witness is not None:
                entry[key + "_witness"] = report.witness
        axioms_doc[axiom] = entry

    flags = classify_space(top, ctx)
    points_doc = []
    for x in range(top.n):
        points_doc.append({
            "point": x,
            "label": labels[x] if labels else None,
            "height": ctx.heights_pp[x],
            "class": _set_list(ctx.cls[x]),
            "dynamics": dataclasses.asdict(flags[x]),
        })

    report_doc = {
        "points": top.n,
        "labels": labels,
        "mode": args.mode,
        "opens": [_set_list(u) for u in top.opens],
        "axioms": axioms_doc,
        "heights": {"per_point": list(ctx.heights_pp), "space": ctx.ht},
        "class_space": {
            "count": ctx.class_ctx[0].n,
            "classes": [_set_list(b) for b in class_poset(ctx.pre).blocks],
        },
        "dynamics": {
            "points": points_doc,
            "recurrent_space": all(f.recurrent for f in flags),
            "anosov_type": is_anosov_type(top, ctx),
        },
    }
    _emit(report_doc)
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify

def _resolve_theorem(tid: str) -> str:
    if tid in _REGISTRY:
        return tid
    folded = tid.lower()
    matches = [t for t in _REGISTRY if t.lower() == folded]
    if len(matches) == 1:
        return matches[0]
    raise KeyError(tid)


def _cmd_verify(args: argparse.Namespace) -> int:
    if args.jobs < 1:
        sys.stderr.write(f"--jobs must be at least 1, got {args.jobs}\n")
        return EXIT_USAGE
    if args.theorem == "all":
        ids = None
    else:
        try:
            ids = [_resolve_theorem(args.theorem)]
        except KeyError:
            sys.stderr.write(f"unknown theorem {args.theorem!r}; "
                             f"known ids: {', '.join(sorted(_REGISTRY))}\n")
            return EXIT_USAGE
    try:
        findings = verify_all(ids, n_max=args.n_max, jobs=args.jobs)
    except SizeError as exc:
        sys.stderr.write(f"{exc}\n")
        return EXIT_USAGE
    refuted = sum(1 for f in findings if f.asserted and f.status == "refuted")
    _emit({
        "n_max": args.n_max,
        "theorems": len(findings),
        "refuted_asserted": refuted,
        "findings": [f.to_json_dict(timings=args.timings) for f in findings],
    })
    return EXIT_REFUTED if refuted else EXIT_OK


# ---------------------------------------------------------------------------
# hasse

def _dot_escape(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"', '\\"')


def _cmd_hasse(args: argparse.Namespace) -> int:
    top, labels = parse_space_doc(_load_json(args.file))
    cp = class_poset(top.specialization())
    k = cp.n
    lines = ["digraph hasse {", "  rankdir=BT;"]
    for i, block in enumerate(cp.blocks):
        members = ",".join(labels[x] if labels else str(x) for x in bit_indices(block))
        lines.append(f'  c{i} [label="{{{_dot_escape(members)}}}"];')
    for i in range(k):
        for j in bit_indices(cp.leq[i] & ~(1 << i)):
            covering = all(
                not (cp.leq[i] >> m & 1 and cp.leq[m] >> j & 1)
                for m in range(k) if m != i and m != j
            )
            if covering:
                lines.append(f"  c{i} -> c{j};")
    lines.append("}")
    sys.stdout.write("\n".join(lines) + "\n")
    return EXIT_OK


# ---------------------------------------------------------------------------
# enumerate

def _cmd_enumerate(args: argparse.Namespace) -> int:
    try:
        if args.emit:
            for top in enumerate_topologies(args.n, up_to_iso=args.up_to_iso):
                doc = {"points": top.n, "opens": [_set_list(u) for u in top.opens]}
                sys.stdout.write(json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n")
        else:
            sys.stdout.write(f"{count_topologies(args.n, up_to_iso=args.up_to_iso)}\n")
    except SizeError as exc:
        sys.stderr.write(f"{exc}\n")
        return EXIT_USAGE
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser

@cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared by every call of main."""
    parser = argparse.ArgumentParser(
        prog="finitetop",
        description="Classify finite topological spaces and verify their order-theoretic laws.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_classify = sub.add_parser("classify", help="axiom vector, dynamics and heights for one space")
    p_classify.add_argument("file", nargs="?", default="-", help="space document path, - for stdin")
    p_classify.add_argument("--mode", choices=("def", "char", "both"), default="both",
                            help="definitional route, order characterization, or both")
    p_classify.add_argument("--axioms", default=None,
                            help="comma-separated axiom subset (default: all)")
    p_classify.set_defaults(handler=_cmd_classify)

    p_verify = sub.add_parser("verify", help="run the theorem harness")
    p_verify.add_argument("theorem", help='theorem id or "all"')
    p_verify.add_argument("--n-max", type=int, default=5, dest="n_max",
                          help=f"carrier-size cap for the sweep, at most {MAX_CLASS_POINTS} (default 5)")
    p_verify.add_argument("--jobs", type=int, default=1,
                          help="worker processes for the space sweep, at least 1 (default 1)")
    p_verify.add_argument("--timings", action="store_true",
                          help="include elapsed seconds in findings (non-reproducible)")
    p_verify.set_defaults(handler=_cmd_verify)

    p_hasse = sub.add_parser("hasse", help="DOT diagram of the class poset")
    p_hasse.add_argument("file", nargs="?", default="-", help="space document path, - for stdin")
    p_hasse.set_defaults(handler=_cmd_hasse)

    p_enum = sub.add_parser("enumerate", help="count or stream all labeled topologies")
    p_enum.add_argument("n", type=int,
                        help=f"carrier size: at most {MAX_CLASS_POINTS} for counts and with "
                             f"--up-to-iso, at most {MAX_LABELED_POINTS} for the labeled --emit stream")
    group = p_enum.add_mutually_exclusive_group()
    group.add_argument("--count-only", action="store_true", dest="count_only",
                       help="print the count (default)")
    group.add_argument("--emit", action="store_true",
                       help="stream newline-delimited space documents")
    p_enum.add_argument("--up-to-iso", action="store_true", dest="up_to_iso",
                        help="restrict to canonical representatives of relabeling orbits")
    p_enum.set_defaults(handler=_cmd_enumerate)

    return parser


def _invalid_witness(exc: TopologyError) -> dict:
    witness = getattr(exc, "witness", None)
    doc: dict[str, Any] = {"error": type(exc).__name__, "message": str(exc)}
    if witness is not None:
        doc["witness"] = [_set_list(part) for part in witness]
    return doc


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.handler(args)
    except DocumentError as exc:
        sys.stderr.write(f"{exc}\n")
        return EXIT_USAGE
    except TopologyError as exc:
        sys.stderr.write(json.dumps(_invalid_witness(exc), sort_keys=True) + "\n")
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
