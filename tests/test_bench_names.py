"""Every per-layer metric of BENCHMARK.json names code that still exists.

The traced benchmark pass wraps each public function of a layer module and
the ``__init__`` and public methods of the traced classes; a metric whose
function or method is gone names no span, and the traced pass fails.  Layer
totals (``self_s``, ``errors``) and the harness's own counters name no
function.
"""

import importlib
import inspect
import json
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parents[1] / "BENCHMARK.json"


def traced_names() -> list[list[str]]:
    """[layer, function] or [layer, class, method] of each traced metric."""
    metrics = json.loads(BENCHMARK.read_text(encoding="utf-8"))["per_layer"]
    out = []
    for metric in metrics:
        parts = metric["name"].split(".")
        if parts[0] in ("trace", "known_defects"):
            continue
        if parts[-1] in ("self_s", "errors"):
            continue
        out.append(parts[:-1])
    return out


def test_benchmark_names_some_traced_code():
    assert len(traced_names()) > 20


def test_traced_names_exist():
    for parts in traced_names():
        module = importlib.import_module(f"quasifree.{parts[0]}")
        if len(parts) == 3:
            cls = getattr(module, parts[1])
            assert inspect.isclass(cls), parts
            attr = "__init__" if parts[2] == "init" else parts[2]
            assert inspect.isfunction(vars(cls).get(attr)), parts
        else:
            fn = getattr(module, parts[1], None)
            assert inspect.isfunction(fn), parts
            assert not parts[1].startswith("_"), parts
            assert fn.__module__ == module.__name__, parts
