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
input (the witness goes to stderr), 141 stdout was closed before the
output was written.

Each subcommand imports the package modules it runs where it starts, so
importing this module loads none of them: hasse loads only core, and
classify never loads the enumerator.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import cache
from json.encoder import encode_basestring_ascii as _quote
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:
    from .core import FiniteTopology, TopologyError

EXIT_OK = 0
EXIT_REFUTED = 1
EXIT_USAGE = 2
EXIT_INVALID = 3
# what a shell reports for a process that SIGPIPE ended (128 + 13)
EXIT_BROKEN_PIPE = 141

# classify and hasse build full subset tables, so cap document size
MAX_DOC_POINTS = 12

# the properties of docs/spacedoc.schema.json, which allows no others
_DOC_KEYS = frozenset({"points", "opens", "leq", "closure", "labels"})


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
    from .core import Preorder, alexandrov, validate_topology

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


def _dumps(obj: Any, newline: str = "\n") -> str:
    """The text of ``json.dumps(obj, sort_keys=True, indent=2)``.

    With an indent the standard library runs its pure-Python encoder; this
    builds the same text with str.join and the C string escaper.  Dict keys
    must be strings.  newline is the line break plus the indent of the
    value's own line.
    """
    if type(obj) is int:
        return int.__repr__(obj)
    if isinstance(obj, str):
        return _quote(obj)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        inner = newline + "  "
        # type, not isinstance: True is an int but renders as true
        if all(type(v) is int for v in obj):
            items = map(int.__repr__, obj)
        else:
            items = [_dumps(v, inner) for v in obj]
        return "[" + inner + ("," + inner).join(items) + newline + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        inner = newline + "  "
        return "{" + inner + ("," + inner).join(
            [_quote(k) + ": " + _dumps(obj[k], inner) for k in sorted(obj)]) + newline + "}"
    return json.dumps(obj)


def _emit(doc: Any) -> None:
    sys.stdout.write(_dumps(doc) + "\n")


# ---------------------------------------------------------------------------
# classify

def _cmd_classify(args: argparse.Namespace) -> int:
    from .axioms import AXIOMS, CHARACTERIZED, DEFINITIONAL, SpaceContext, check_space
    from .core import bit_indices, class_poset
    from .dynamics import classify_space, is_anosov_type

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

    mode_keys = {DEFINITIONAL: "def", CHARACTERIZED: "char"}
    ctx = SpaceContext(top)
    axioms_doc = {}
    for axiom in chosen:
        entry: dict[str, Any] = {}
        for mode in modes:
            report = check_space(top, axiom, mode, ctx)
            key = mode_keys[mode]
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
            "class": list(bit_indices(ctx.cls[x])),
            "dynamics": dict(vars(flags[x])),
        })

    report_doc = {
        "points": top.n,
        "labels": labels,
        "mode": args.mode,
        "opens": [list(bit_indices(u)) for u in top.opens],
        "axioms": axioms_doc,
        "heights": {"per_point": list(ctx.heights_pp), "space": ctx.ht},
        "class_space": {
            "count": ctx.class_ctx[0].n,
            "classes": [list(bit_indices(b)) for b in class_poset(ctx.pre).blocks],
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

def _resolve_theorem(tid: str, registry: dict) -> str:
    if tid in registry:
        return tid
    folded = tid.lower()
    matches = [t for t in registry if t.lower() == folded]
    if len(matches) == 1:
        return matches[0]
    raise KeyError(tid)


def _cmd_verify(args: argparse.Namespace) -> int:
    from .enumerate import _REGISTRY, SizeError, verify_all

    if args.jobs < 1:
        sys.stderr.write(f"--jobs must be at least 1, got {args.jobs}\n")
        return EXIT_USAGE
    if args.theorem == "all":
        ids = None
    else:
        try:
            ids = [_resolve_theorem(args.theorem, _REGISTRY)]
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
    from .core import bit_indices, class_poset

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
    from .core import bit_indices
    from .enumerate import SizeError, count_topologies, enumerate_topologies

    try:
        if args.emit:
            for top in enumerate_topologies(args.n, up_to_iso=args.up_to_iso):
                doc = {"points": top.n, "opens": [list(bit_indices(u)) for u in top.opens]}
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
    from .core import MAX_CLASS_POINTS, MAX_LABELED_POINTS

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
    from .core import bit_indices

    witness = getattr(exc, "witness", None)
    doc: dict[str, Any] = {"error": type(exc).__name__, "message": str(exc)}
    if witness is not None:
        doc["witness"] = [list(bit_indices(part)) for part in witness]
    return doc


def _dispatch(argv: list[str] | None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    from .core import TopologyError

    try:
        return args.handler(args)
    except DocumentError as exc:
        sys.stderr.write(f"{exc}\n")
        return EXIT_USAGE
    except TopologyError as exc:
        sys.stderr.write(json.dumps(_invalid_witness(exc), sort_keys=True) + "\n")
        return EXIT_INVALID


def main(argv: list[str] | None = None) -> int:
    try:
        code = _dispatch(argv)
        # write out what stdout buffers while a closed pipe can still be reported
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader is gone; send what stdout still buffers to devnull so the
        # interpreter's flush at exit does not raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    return code


if __name__ == "__main__":
    sys.exit(main())
