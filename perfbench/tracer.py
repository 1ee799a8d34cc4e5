"""Span tracing of the finitetop layers, installed from outside the package.

``Tracer.install`` rebinds every public function of the traced modules, in
every package module that imported it, to a wrapper that records a span:
name, start, end and parent.  Generators get one span per resumption, so
time spent producing each item is charged to the generator and nothing is
charged while the consumer holds it.  Spans are kept in flat arrays and
reduced when the run ends; a span's self time is its duration minus the
part its child spans cover.  ``uninstall`` restores the original bindings.

Nothing under ``src/`` knows about the tracer.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import importlib
import inspect
import time
from array import array

LAYERS = ("cli", "core", "order", "axioms", "dynamics", "decomp", "enumerate")

# called inside almost every layer function; a span per bit would measure
# the tracer, not the program
UNTRACED = {"core.bit_indices"}


def _set(owner, attr: str, value) -> None:
    try:
        setattr(owner, attr, value)
    except dataclasses.FrozenInstanceError:
        object.__setattr__(owner, attr, value)


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("H")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = [-1]
        self.counts: dict[str, int] = {}
        self.verdict_keys: set = set()
        self._restore: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def name_id(self, name: str) -> int:
        got = self._name_ids.get(name)
        if got is None:
            got = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return got

    def open(self, nid: int) -> int:
        """Start a span of name id ``nid`` under the current one; returns its index."""
        idx = len(self.start)
        self.span_name.append(nid)
        self.parent.append(self._stack[-1])
        self.start.append(time.perf_counter())
        self.end.append(0.0)
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        """A span recorded around code of the benchmark itself."""
        idx = self.open(self.name_id(name))
        try:
            yield
        finally:
            self.close(idx)

    def count(self, name: str, by: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + by

    def wrap(self, name: str, fn):
        """``fn`` with a span named ``name`` around each call (each resumption
        for a generator function)."""
        nid = self.name_id(name)
        tracer = self
        if inspect.isgeneratorfunction(fn):
            items = name + ".items"

            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    idx = tracer.open(nid)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        tracer.close(idx)
                    tracer.count(items)
                    yield item
            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = tracer.open(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(idx)
        return wrapper

    # -- installation ------------------------------------------------------

    def patch(self, owner, attr: str, value) -> None:
        """Replace one attribute until ``uninstall``."""
        self._restore.append((owner, attr, getattr(owner, attr)))
        _set(owner, attr, value)

    def install(self, extra: dict | None = None) -> None:
        """Wrap every public function of the layer modules.

        ``extra`` maps a span name such as ``"axioms.check_space"`` to a
        wrapper the caller built itself, used in place of the plain one.
        """
        modules = {m: importlib.import_module(f"finitetop.{m}") for m in LAYERS}
        wrapped: dict[int, object] = {}
        for layer, mod in modules.items():
            for attr, fn in list(vars(mod).items()):
                name = f"{layer}.{attr}"
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__ or name in UNTRACED):
                    continue
                wrapped[id(fn)] = (extra or {}).get(name) or self.wrap(name, fn)
        # rebind in every module that holds the function, so calls made
        # through a `from .x import f` binding are traced too
        for mod in modules.values():
            for attr, fn in list(vars(mod).items()):
                if id(fn) in wrapped:
                    self.patch(mod, attr, wrapped[id(fn)])
        pkg = importlib.import_module("finitetop")
        for attr, fn in list(vars(pkg).items()):
            if id(fn) in wrapped:
                self.patch(pkg, attr, wrapped[id(fn)])

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            _set(owner, attr, value)

    # -- reduction ---------------------------------------------------------

    def summary(self) -> dict[str, dict]:
        """Per span name: calls, total (inclusive) seconds and self seconds.

        A recursive span's total counts the outermost call only.
        """
        n = len(self.start)
        start, end, parent = self.start, self.end, self.parent
        dur = array("d", (end[i] - start[i] for i in range(n)))
        child = array("d", bytes(8 * n))
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += dur[i]
        out = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for name in self.names}
        name_id = self.span_name
        names = self.names
        for i in range(n):
            nid = name_id[i]
            row = out[names[nid]]
            row["calls"] += 1
            row["self_s"] += dur[i] - child[i]
            p = parent[i]
            while p >= 0 and name_id[p] != nid:
                p = parent[p]
            if p < 0:
                row["total_s"] += dur[i]
        return out
