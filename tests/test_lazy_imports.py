"""Importing the package or the CLI loads only what a command runs.

The package resolves its exports and submodules on first access, and each
CLI subcommand imports its modules where it starts.  The footprint test
counts modules in a fresh interpreter, not time, so it does not depend on
the machine.
"""
from __future__ import annotations

import importlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

import finitetop

PACKAGE = Path(finitetop.__file__).resolve().parent

FOOTPRINT = r"""
import contextlib, io, json, sys

def loaded():
    return sorted(m for m in sys.modules if m.split(".")[0] == "finitetop")

stages = {}
import finitetop
stages["package"] = loaded()
import finitetop.cli
stages["cli"] = loaded()
from finitetop import cli
with contextlib.redirect_stdout(io.StringIO()):
    for argv in (["hasse", sys.argv[1]], ["classify", sys.argv[1]],
                 ["verify", "all", "--n-max", "3"]):
        assert cli.main(argv) == 0, argv
        stages[argv[0]] = loaded()
print(json.dumps(stages))
"""


def test_import_footprint_per_command(tmp_path):
    doc = tmp_path / "space.json"
    doc.write_text(json.dumps({"points": 2, "opens": [[], [1], [0, 1]]}))
    proc = subprocess.run([sys.executable, "-c", FOOTPRINT, str(doc)],
                          capture_output=True, text=True, check=True)
    stages = {k: set(v) for k, v in json.loads(proc.stdout).items()}
    assert stages["package"] == {"finitetop"}
    assert stages["cli"] == {"finitetop", "finitetop.cli"}
    assert stages["hasse"] == {"finitetop", "finitetop.cli", "finitetop.core"}
    heavy = {"finitetop.enumerate", "finitetop.decomp", "finitetop.generate"}
    assert not stages["classify"] & heavy
    # verify --jobs forks its pool from this process, so by then it must hold
    # every module a worker runs: all of them
    every = {f"finitetop.{p.stem}" for p in PACKAGE.glob("*.py") if p.stem != "__init__"}
    assert every <= stages["verify"]


def test_submodule_table_matches_the_package():
    on_disk = {p.stem for p in PACKAGE.glob("*.py") if p.stem != "__init__"}
    assert set(finitetop._SUBMODULES) == on_disk
    assert set(finitetop._HOMES) == set(finitetop.__all__)


@pytest.mark.parametrize("name", finitetop.__all__)
def test_export_is_the_home_object(name):
    home = importlib.import_module(f"finitetop.{finitetop._HOMES[name]}")
    value = getattr(finitetop, name)
    assert value is getattr(home, name)
    if callable(value):
        assert value.__module__ == home.__name__
    # looked up on every access, never stored in the package
    assert name not in vars(finitetop)


def test_star_import_binds_every_name():
    namespace: dict = {}
    exec("from finitetop import *", namespace)
    assert set(finitetop.__all__) <= set(namespace)
    for name in finitetop.__all__:
        assert namespace[name] is getattr(finitetop, name)


def test_unknown_attribute():
    with pytest.raises(AttributeError, match="no_such_name"):
        finitetop.no_such_name
    assert not hasattr(finitetop, "no_such_name")


def test_dir_covers_exports_and_submodules():
    listed = set(dir(finitetop))
    assert set(finitetop.__all__) <= listed
    assert set(finitetop._SUBMODULES) <= listed


def test_submodules_resolve():
    assert finitetop.__getattr__("enumerate") is importlib.import_module("finitetop.enumerate")
    assert callable(finitetop.enumerate.verify_all)


def test_rebinding_in_the_home_module_is_seen_and_undone(monkeypatch):
    original = finitetop.core.validate_topology

    def patched(n, opens):
        return original(n, opens)

    monkeypatch.setattr(finitetop.core, "validate_topology", patched)
    assert finitetop.validate_topology is patched
    monkeypatch.undo()
    assert finitetop.validate_topology is original
