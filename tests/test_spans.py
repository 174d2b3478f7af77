"""The benchmark's span names still name the program's entry points.

`perfbench/spans.py` picks its counted spans by name, and its
`layer_metrics` skips a span that never ran, so a renamed function would
report a count of 0 instead of failing.  This reads the names from that
file, without changing it, and resolves each one in `intforms`.
"""
from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _resolve(name):
    layer, *path = name.split(".")
    obj = importlib.import_module(f"intforms.{layer}")
    for part in path:
        obj = getattr(obj, part)
    return obj


def test_span_names_resolve_in_intforms():
    spans = _load_spans()
    names = set(spans.UNTRACED) | set(spans.SCALAR_PRODUCTS)
    names |= {spans.ELEMENT, spans.LOAD}
    for keys in spans.COUNTS.values():
        names.update(keys)
    assert names
    missing = []
    for name in sorted(names):
        assert name.split(".", 1)[0] in spans.LAYERS, name
        try:
            target = _resolve(name)
        except AttributeError:
            missing.append(name)
            continue
        assert callable(target), name
    assert missing == []
