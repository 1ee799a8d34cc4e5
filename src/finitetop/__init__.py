"""Finite topological spaces as preorders: axioms, dynamics, enumeration.

The package stores finite topologies as explicit open-set families over
bitmask subsets of range(n) and exploits the bijection between finite
topologies and preorders (opens = upsets of the specialization preorder).
Every separation axiom ships with two independent checkers, one reading the
open family and one reading the preorder, and an exhaustive enumerator plus
theorem harness verifies their agreement and the catalog of implications on
all small spaces.
"""

from __future__ import annotations

from .axioms import (
    AXIOMS,
    CHARACTERIZED,
    DEFINITIONAL,
    AxiomReport,
    AxiomSpec,
    NotPointLevelError,
    SpaceContext,
    axiom_vector,
    check_point,
    check_space,
)
from .core import (
    ClassPoset,
    FiniteTopology,
    MissingEmptyOrFullError,
    NotClosedUnderIntersectionError,
    NotClosedUnderUnionError,
    Preorder,
    TopologyError,
    alexandrov,
    class_poset,
    disjoint_union,
    validate_topology,
)

__all__ = [
    "AXIOMS",
    "CHARACTERIZED",
    "DEFINITIONAL",
    "AxiomReport",
    "AxiomSpec",
    "ClassPoset",
    "FiniteTopology",
    "MissingEmptyOrFullError",
    "NotClosedUnderIntersectionError",
    "NotClosedUnderUnionError",
    "NotPointLevelError",
    "Preorder",
    "SpaceContext",
    "TopologyError",
    "alexandrov",
    "axiom_vector",
    "check_point",
    "check_space",
    "class_poset",
    "disjoint_union",
    "validate_topology",
]

__version__ = "0.1.0"
