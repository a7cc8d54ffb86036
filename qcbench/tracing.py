"""In-memory span tracer installed from outside the program.

``Tracer.install`` wraps the public functions and methods of every layer
module of ``quantcert`` and rebinds each wrapper at every place the
original is bound: the defining module, every other layer module that
imported the name (``certify.minus_q_order``, ``roots.level_colors``),
module-level dispatch dicts (``cli._COMMANDS``) and class attributes
(``RootOfUnity.__mul__``).  The program itself is not edited.

A span is one call of a wrapped function: name id, start, end, parent span
and request id, kept in flat arrays and written out once at the end.  Self
time of a span is its duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import json
import types
from array import array
from time import perf_counter

import numpy as np

#: The program's layers, in the order of the package docstring.
LAYERS = ("roots", "blocks", "hermitian", "burau", "certify", "veech", "orbits", "cli")


def _is_public(attr: str) -> bool:
    return not attr.startswith("_") or (attr.startswith("__") and attr.endswith("__"))


def _source_function(obj, path: str):
    """The plain function behind ``obj`` when its code lives in ``path``."""
    fn = getattr(obj, "__wrapped__", obj)  # see through functools.lru_cache
    if isinstance(fn, types.FunctionType) and fn.__code__.co_filename == path:
        return fn
    return None


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name = array("i")
        self.parent = array("l")
        self.request = array("l")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.current_request = [-1]
        #: counts recorded at span boundaries, keyed by span name
        self.counters: dict[str, int] = {}

    def _wrap(self, qualname: str, fn, count=None):
        nid = len(self.names)
        self.names.append(qualname)
        names, parents, requests = self.name, self.parent, self.request
        starts, ends, stack, current = self.start, self.end, self.stack, self.current_request
        counters = self.counters
        if count is not None:
            counters[qualname] = 0

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            requests.append(current[0])
            ends.append(0.0)
            stack.append(idx)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                stack.pop()
            if count is not None:
                counters[qualname] += count(result)
            return result

        return traced

    def install(self, counts: dict | None = None) -> None:
        """Wrap every public function of every layer at all of its bindings.

        ``counts`` maps a span name to a function of the call's return value
        whose sum over calls is kept in ``self.counters``.
        """
        counts = counts or {}
        modules = {name: importlib.import_module(f"quantcert.{name}") for name in LAYERS}
        replaced: dict[int, object] = {}
        for layer, mod in modules.items():
            path = mod.__file__
            for attr, obj in list(vars(mod).items()):
                if isinstance(obj, type) and obj.__module__ == mod.__name__:
                    self._wrap_class(layer, obj, path, counts)
                elif _is_public(attr) and _source_function(obj, path) is not None:
                    qualname = f"{layer}.{attr}"
                    replaced[id(obj)] = self._wrap(qualname, obj, counts.get(qualname))
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                if id(obj) in replaced:
                    setattr(mod, attr, replaced[id(obj)])
                elif isinstance(obj, dict):
                    for key, value in list(obj.items()):
                        if id(value) in replaced:
                            obj[key] = replaced[id(value)]

    def _wrap_class(self, layer: str, cls: type, path: str, counts: dict) -> None:
        for attr, member in list(vars(cls).items()):
            if not _is_public(attr):
                continue
            qualname = f"{layer}.{cls.__name__}.{attr}"
            if isinstance(member, (classmethod, staticmethod)):
                inner = member.__func__
                if _source_function(inner, path) is not None:
                    setattr(cls, attr, type(member)(self._wrap(qualname, inner)))
            elif _source_function(member, path) is not None:
                setattr(cls, attr, self._wrap(qualname, member, counts.get(qualname)))

    # -- results -----------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32),
            "parent": np.frombuffer(self.parent, dtype=np.int64),
            "request": np.frombuffer(self.request, dtype=np.int64),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
        }

    def self_times(self) -> np.ndarray:
        a = self.arrays()
        duration = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        covered = np.bincount(
            a["parent"][has_parent], weights=duration[has_parent], minlength=len(duration)
        )
        return duration - covered

    def summary(self) -> dict[str, dict[str, float]]:
        """Calls and self seconds per span name."""
        a = self.arrays()
        self_s = self.self_times()
        calls = np.bincount(a["name"], minlength=len(self.names))
        per_name = np.bincount(a["name"], weights=self_s, minlength=len(self.names))
        return {
            qualname: {"calls": int(calls[i]), "self_s": float(per_name[i])}
            for i, qualname in enumerate(self.names)
        }

    def write(self, path) -> None:
        """Write every span, plus the name table, to ``path`` (.npz)."""
        np.savez(path, names=np.array(json.dumps(self.names)), **self.arrays())
