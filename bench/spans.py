"""Span recorder and the wrappers that put it around the toolkit's layers.

The benchmark observes the program from outside: ``install`` replaces every
public function of each layer module, and the methods of ``FermiFock`` and
``BoseFock``, with a wrapper that records one span per call.  Because modules
import names from each other directly (``from .selfdual import hs_norm``),
every ``quasifree.*`` module attribute bound to the same function object is
replaced, so no call path escapes the wrapper.  ``uninstall`` restores the
originals; timed passes run with no wrapper installed at all.

Spans live in memory (parallel arrays) until ``save`` writes them out, and
``layer_stats`` derives busy time, self time, call counts, output bytes and
escaped errors from the saved spans alone.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import inspect
import json
import sys
import threading
import time
from array import array

import numpy as np

LAYERS = ("selfdual", "car", "ccr", "fock", "sectors", "dirac", "report",
          "cli")
TRACED_CLASSES = {"fock": ("FermiFock", "BoseFock")}


def _out_bytes(result) -> int:
    """Bytes of the arrays (or text) a call returned."""
    if isinstance(result, np.ndarray):
        return result.nbytes
    if isinstance(result, str):
        return len(result.encode("utf-8"))
    if isinstance(result, (tuple, list)):
        return sum(x.nbytes for x in result if isinstance(x, np.ndarray))
    if dataclasses.is_dataclass(result):
        return sum(x.nbytes for x in vars(result).values()
                   if isinstance(x, np.ndarray))
    return 0


class SpanRecorder:
    """In-memory spans: name, start, end, parent span, output bytes, error."""

    def __init__(self):
        self.names: list[str] = []
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.out_bytes = array("q")
        self.error = array("b")
        self._local = threading.local()

    def name_id(self, name: str) -> int:
        self.names.append(name)
        return len(self.names) - 1

    def call(self, nid: int, fn, args, kwargs):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(stack[-1] if stack else -1)
        self.out_bytes.append(0)
        self.error.append(0)
        self.end.append(0.0)
        stack.append(idx)
        self.start.append(time.perf_counter())
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            self.error[idx] = 1
            raise
        finally:
            self.end[idx] = time.perf_counter()
            stack.pop()
        self.out_bytes[idx] = _out_bytes(result)
        return result

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"names": self.names, "name": self.name.tolist(),
                       "start": self.start.tolist(), "end": self.end.tolist(),
                       "parent": self.parent.tolist(),
                       "out_bytes": self.out_bytes.tolist(),
                       "error": self.error.tolist()}, handle)


def _wrapper(recorder: SpanRecorder, nid: int, fn):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        return recorder.call(nid, fn, args, kwargs)
    return traced


def _targets():
    """(span name, owner, attribute, function) for everything to wrap."""
    out = []
    for layer in LAYERS:
        module = importlib.import_module(f"quasifree.{layer}")
        for attr, obj in sorted(vars(module).items()):
            if (inspect.isfunction(obj) and not attr.startswith("_")
                    and obj.__module__ == module.__name__):
                out.append((f"{layer}.{attr}", module, attr, obj))
        for cls_name in TRACED_CLASSES.get(layer, ()):
            cls = getattr(module, cls_name)
            for attr, obj in sorted(vars(cls).items()):
                if inspect.isfunction(obj) and (attr == "__init__"
                                                or not attr.startswith("_")):
                    name = f"{layer}.{cls_name}.{attr.strip('_')}"
                    out.append((name, cls, attr, obj))
    return out


def install(recorder: SpanRecorder) -> list:
    """Wrap every layer function; return what ``uninstall`` must restore."""
    targets = _targets()
    modules = [module for name, module in sorted(sys.modules.items())
               if name == "quasifree" or name.startswith("quasifree.")]
    saved = []
    for name, owner, attr, fn in targets:
        traced = _wrapper(recorder, recorder.name_id(name), fn)
        if inspect.isclass(owner):
            saved.append((owner, attr, fn))
            setattr(owner, attr, traced)
            continue
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is fn:
                    saved.append((module, key, fn))
                    setattr(module, key, traced)
    return saved


def uninstall(saved: list) -> None:
    for owner, attr, fn in reversed(saved):
        setattr(owner, attr, fn)


def layer_stats(spans: dict) -> dict:
    """Per-name and per-layer totals derived from saved spans.

    ``<name>.s`` is busy time: the summed duration of the name's outermost
    spans, so recursion is not counted twice.  ``<layer>.self_s`` is each
    span's duration minus that of its direct children, summed over the
    layer.  ``<layer>.errors`` counts exceptions escaping the layer: error
    spans whose parent is not an error span of the same layer.
    """
    names, name = spans["names"], spans["name"]
    start, end, parent = spans["start"], spans["end"], spans["parent"]
    n = len(name)
    dur = [end[i] - start[i] for i in range(n)]
    child = [0.0] * n
    for i in range(n):
        if parent[i] >= 0:
            child[parent[i]] += dur[i]
    layers = [names[k].split(".", 1)[0] for k in name]
    out: dict[str, float] = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = 0.0
        out[f"{layer}.errors"] = 0
    for i in range(n):
        key = names[name[i]]
        out[f"{layers[i]}.self_s"] += dur[i] - child[i]
        out[f"{key}.calls"] = out.get(f"{key}.calls", 0) + 1
        out[f"{key}.out_bytes"] = (out.get(f"{key}.out_bytes", 0)
                                   + spans["out_bytes"][i])
        j = parent[i]
        while j >= 0 and name[j] != name[i]:
            j = parent[j]
        if j < 0:
            out[f"{key}.s"] = out.get(f"{key}.s", 0.0) + dur[i]
        if spans["error"][i]:
            p = parent[i]
            if p < 0 or not spans["error"][p] or layers[p] != layers[i]:
                out[f"{layers[i]}.errors"] += 1
    return out
