"""Outside-in tracing of the zxfactor layers.

The tracer changes no program file.  ``install`` replaces every public
function, and every public method, property and constructor of a public
class, that a layer module defines with a wrapper that records one span per call, in every zxfactor
module namespace that binds the function (a name imported into another
module is patched there too, so the call is seen whichever way it is
reached).  ``uninstall`` puts the originals back.

A span is (id, name, start_ns, end_ns, parent id, answer id).  Spans stay
in memory and are written out once, after the traced passes.  A layer's
self time is the time of its spans minus the time of their child spans;
the benchmark opens a root span around each answer (or each CLI batch
call), and the root's self time is the traced time no wrapped call
covers.
"""

from __future__ import annotations

import enum
import importlib
import inspect
import itertools
import json
import sys
import time
from array import array
from collections import defaultdict

LAYERS = ("padics", "series", "classify", "factor", "oracle", "cli")
ROOT = "answer"
FIELDS = ("id", "name", "start_ns", "end_ns", "parent", "answer")
_MISSING = object()


class TraceCoverageError(RuntimeError):
    """A public name could not be wrapped, or a layer went unseen."""


class Tracer:
    """Span recorder; see the module docstring."""

    def __init__(self) -> None:
        self.names: list[str] = [ROOT]
        self.spans = array("q")
        self.stack = [-1]
        self.answer = -1
        self._ids = itertools.count()
        self._patches: list[tuple[object, str, object]] = []

    # -- installing ------------------------------------------------------

    def install(self) -> None:
        """Wrap the layers' public callables; raise TraceCoverageError for
        a name in a module's ``__all__`` that cannot be found or wrapped."""
        wrappers: dict[int, object] = {}
        for layer in LAYERS:
            module = importlib.import_module(f"zxfactor.{layer}")
            for name in getattr(module, "__all__", ()):
                obj = getattr(module, name, _MISSING)
                if obj is _MISSING:
                    raise TraceCoverageError(f"zxfactor.{layer}.__all__ names {name!r}, which does not exist")
                if callable(obj) and not (inspect.isfunction(obj) or inspect.isclass(obj)):
                    raise TraceCoverageError(f"cannot wrap zxfactor.{layer}.{name} ({type(obj).__name__})")
            for name, obj in list(vars(module).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrappers[id(obj)] = self._wrap(obj, f"{layer}.{name}")
                elif inspect.isclass(obj):
                    self._wrap_methods(obj, f"{layer}.{name}")
        for modname, module in list(sys.modules.items()):
            if modname != "zxfactor" and not modname.startswith("zxfactor."):
                continue
            for name, obj in list(vars(module).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None:
                    self._patch(module, name, wrapper)

    def _wrap_methods(self, cls: type, prefix: str) -> None:
        if issubclass(cls, (enum.Enum, BaseException)):
            return
        for name, attr in list(vars(cls).items()):
            if name.startswith("_") and name != "__init__":
                continue
            if inspect.isfunction(attr):
                self._patch(cls, name, self._wrap(attr, f"{prefix}.{name}"))
            elif isinstance(attr, property) and attr.fget is not None:
                wrapped = property(self._wrap(attr.fget, f"{prefix}.{name}"), attr.fset, attr.fdel, attr.__doc__)
                self._patch(cls, name, wrapped)

    def _patch(self, owner, name: str, value) -> None:
        self._patches.append((owner, name, vars(owner)[name]))
        setattr(owner, name, value)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    def _wrap(self, fn, span_name: str):
        name_id = len(self.names)
        self.names.append(span_name)
        spans, stack, ids, clock = self.spans, self.stack, self._ids, time.perf_counter_ns
        tracer = self

        def wrapper(*args, **kwargs):
            sid = next(ids)
            parent = stack[-1]
            stack.append(sid)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans.extend((sid, name_id, t0, t1, parent, tracer.answer))

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        wrapper.__qualname__ = fn.__qualname__
        wrapper.__doc__ = fn.__doc__
        return wrapper

    # -- root spans ------------------------------------------------------

    def open_root(self) -> tuple[int, int]:
        sid = next(self._ids)
        del self.stack[:]
        self.stack.append(sid)
        return sid, time.perf_counter_ns()

    def close_root(self, root: tuple[int, int]) -> None:
        t1 = time.perf_counter_ns()
        sid, t0 = root
        self.stack[:] = [-1]
        self.spans.extend((sid, 0, t0, t1, -1, self.answer))

    # -- results ---------------------------------------------------------

    def span_count(self) -> int:
        return len(self.spans) // len(FIELDS)

    def totals(self) -> tuple[dict[str, list[int]], int]:
        """Per span name: [calls, total ns, self ns]; plus the traced wall
        time (the sum of the root spans) in ns."""
        s = self.spans
        k = len(FIELDS)
        child_ns: dict[int, int] = defaultdict(int)
        for i in range(0, len(s), k):
            if s[i + 4] >= 0:
                child_ns[s[i + 4]] += s[i + 3] - s[i + 2]
        out: dict[str, list[int]] = {}
        wall = 0
        for i in range(0, len(s), k):
            dur = s[i + 3] - s[i + 2]
            row = out.setdefault(self.names[s[i + 1]], [0, 0, 0])
            row[0] += 1
            row[1] += dur
            row[2] += dur - child_ns.get(s[i], 0)
            if s[i + 4] < 0:
                wall += dur
        return out, wall

    def write(self, path) -> None:
        """JSON lines: a header naming the fields and the span names, then
        one array per span in the order spans ended."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"fields": FIELDS, "names": self.names}) + "\n")
            s = self.spans
            k = len(FIELDS)
            for i in range(0, len(s), k):
                fh.write(json.dumps(s[i : i + k].tolist()) + "\n")


def layer_of(span_name: str) -> str:
    return span_name.split(".", 1)[0]
