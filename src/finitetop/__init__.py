"""Finite topological spaces as preorders: axioms, dynamics, enumeration.

The package stores finite topologies as explicit open-set families over
bitmask subsets of range(n) and exploits the bijection between finite
topologies and preorders (opens = upsets of the specialization preorder).
Every separation axiom ships with two independent checkers, one reading the
open family and one reading the preorder, and an exhaustive enumerator plus
theorem harness verifies their agreement and the catalog of implications on
all small spaces.

Importing the package loads none of its modules: each exported name and
each submodule is imported where it is first used.
"""

from __future__ import annotations

import importlib

# the module that defines each exported name
_HOMES = {
    **dict.fromkeys((
        "AXIOMS", "CHARACTERIZED", "DEFINITIONAL", "AxiomReport", "AxiomSpec",
        "NotPointLevelError", "SpaceContext", "axiom_vector", "check_point", "check_space",
    ), "axioms"),
    **dict.fromkeys((
        "FiniteTopology", "MissingEmptyOrFullError", "NotClosedUnderIntersectionError",
        "NotClosedUnderUnionError", "Preorder", "TopologyError", "alexandrov",
        "disjoint_union", "validate_topology",
    ), "core"),
}

_SUBMODULES = ("axioms", "cli", "core", "decomp", "dynamics", "enumerate", "generate", "order")

__all__ = sorted(_HOMES)

__version__ = "0.1.0"


def __getattr__(name: str):
    """An exported name or a submodule, imported on first use (PEP 562).

    Exported names are read from their home module on every access and never
    stored here, so a rebinding in the home module is what the package
    returns, and undoing it there undoes it here.
    """
    home = _HOMES.get(name)
    if home is not None:
        return getattr(importlib.import_module(f"{__name__}.{home}"), name)
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_SUBMODULES})
