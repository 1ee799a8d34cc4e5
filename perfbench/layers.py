"""finitetop-specific instrumentation and the per-layer metrics it yields.

``instrument`` installs a ``Tracer`` over the seven package modules and adds
what a plain function span cannot see: the route of each ``check_space``
call, the distinct (space, axiom, route) triples it was asked for,
``SpaceContext`` constructions, and one span per theorem check.
``metrics`` reduces the spans to the per-layer metrics in ``PER_LAYER``.

Time metrics are self times (span duration minus child spans), except the
``scope_*`` and ``implication_matrix`` entries, which are the whole
request they name.  A metric reads 0 on a workload that never enters it.
"""

from __future__ import annotations

import functools

from tracer import Tracer

# name -> unit; the order is the order of the report
PER_LAYER = {
    "enumerate.scope_space_s": "s",
    "enumerate.scope_pair_s": "s",
    "enumerate.scope_partition_s": "s",
    "enumerate.theorem_checks": "count",
    "enumerate.preorders_s": "s",
    "enumerate.canonical_key_calls": "count",
    "enumerate.canonical_key_s": "s",
    "enumerate.implication_matrix_s": "s",
    "axioms.check_space_calls": "count",
    "axioms.check_space_def_s": "s",
    "axioms.check_space_char_s": "s",
    "axioms.context_builds": "count",
    "axioms.verdict_reuse": "ratio",
    "core.validate_topology_calls": "count",
    "core.validate_topology_s": "s",
    "core.alexandrov_calls": "count",
    "core.alexandrov_s": "s",
    "core.class_poset_calls": "count",
    "core.disjoint_union_s": "s",
    "order.heights_calls": "count",
    "order.heights_s": "s",
    "order.bouquet_root_calls": "count",
    "order.min_s1_witness_calls": "count",
    "dynamics.classify_space_calls": "count",
    "dynamics.classify_space_s": "s",
    "decomp.tau_F_s": "s",
    "decomp.quotient_s": "s",
    "decomp.partitions": "count",
    "cli.parse_s": "s",
    "cli.self_s": "s",
    "trace.spans": "count",
    "trace.overhead_s": "s",
}

DEF_SPAN = "axioms.check_space[definitional]"
CHAR_SPAN = "axioms.check_space[characterized]"


def instrument(tracer: Tracer) -> None:
    """Trace every public function of the package, plus the extras above."""
    from finitetop import axioms
    from finitetop import enumerate as fe

    original = axioms.check_space
    keys = tracer.verdict_keys

    @functools.wraps(original)
    def check_space(top, axiom, mode=axioms.DEFINITIONAL, ctx=None):
        keys.add((top.n, top.opens, axiom, mode))
        idx = tracer.open(tracer.name_id(f"axioms.check_space[{mode}]"))
        try:
            return original(top, axiom, mode, ctx)
        finally:
            tracer.close(idx)

    tracer.install(extra={"axioms.check_space": check_space})

    init = axioms.SpaceContext.__init__

    @functools.wraps(init)
    def counted_init(self, *args, **kwargs):
        tracer.count("axioms.context_builds")
        init(self, *args, **kwargs)

    tracer.patch(axioms.SpaceContext, "__init__", counted_init)

    for theorem in fe.theorems():
        # Theorem is a frozen dataclass; the registry holds these same objects
        tracer.patch(theorem, "check", tracer.wrap(f"theorem.{theorem.id}", theorem.check))


def metrics(tracer: Tracer, rows: dict[str, dict], overhead_s: float) -> dict[str, float]:
    """The ``PER_LAYER`` values from ``rows = tracer.summary()``."""

    def get(name: str, field: str) -> float:
        return rows.get(name, {}).get(field, 0)

    calls = get(DEF_SPAN, "calls") + get(CHAR_SPAN, "calls")
    return {
        "enumerate.scope_space_s": get("enumerate.scope_space", "total_s"),
        "enumerate.scope_pair_s": get("enumerate.scope_pair", "total_s"),
        "enumerate.scope_partition_s": get("enumerate.scope_partition", "total_s"),
        "enumerate.theorem_checks": sum(r["calls"] for n, r in rows.items() if n.startswith("theorem.")),
        "enumerate.preorders_s": get("enumerate.enumerate_preorders", "self_s"),
        "enumerate.canonical_key_calls": get("enumerate.canonical_preorder_key", "calls"),
        "enumerate.canonical_key_s": get("enumerate.canonical_preorder_key", "self_s"),
        "enumerate.implication_matrix_s": get("enumerate.implication_matrix", "total_s"),
        "axioms.check_space_calls": calls,
        "axioms.check_space_def_s": get(DEF_SPAN, "self_s"),
        "axioms.check_space_char_s": get(CHAR_SPAN, "self_s"),
        "axioms.context_builds": tracer.counts.get("axioms.context_builds", 0),
        "axioms.verdict_reuse": len(tracer.verdict_keys) / calls if calls else 0.0,
        "core.validate_topology_calls": get("core.validate_topology", "calls"),
        "core.validate_topology_s": get("core.validate_topology", "self_s"),
        "core.alexandrov_calls": get("core.alexandrov", "calls"),
        "core.alexandrov_s": get("core.alexandrov", "self_s"),
        "core.class_poset_calls": get("core.class_poset", "calls"),
        "core.disjoint_union_s": get("core.disjoint_union", "self_s"),
        "order.heights_calls": get("order.heights", "calls"),
        "order.heights_s": get("order.heights", "self_s"),
        "order.bouquet_root_calls": get("order.bouquet_root", "calls"),
        "order.min_s1_witness_calls": get("order.min_s1_witness", "calls"),
        "dynamics.classify_space_calls": get("dynamics.classify_space", "calls"),
        "dynamics.classify_space_s": get("dynamics.classify_space", "self_s"),
        "decomp.tau_F_s": get("decomp.tau_F", "self_s"),
        "decomp.quotient_s": get("decomp.quotient", "self_s"),
        "decomp.partitions": tracer.counts.get("decomp.iter_partitions.items", 0),
        "cli.parse_s": get("cli.parse_space_doc", "self_s"),
        "cli.self_s": get("cli.main", "self_s"),
        "trace.spans": len(tracer.start),
        "trace.overhead_s": overhead_s,
    }
