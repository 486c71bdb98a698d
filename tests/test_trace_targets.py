"""Every span target of the benchmark's tracer still exists in the package.

bench/spans.py patches each entry of its TARGETS list when a run is traced
(`--trace 1`): "Class.method" entries through the class __dict__, plain names
as module attributes.  A method that moves off its class, or a renamed
function, would only show when the traced benchmark runs.  TARGETS is read
here with ast, so no benchmark code is imported or run.
"""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def trace_targets():
    for node in ast.parse(SPANS.read_text()).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no TARGETS list in {SPANS}")


def test_trace_targets_exist_in_package():
    targets = trace_targets()
    assert targets
    for mod_name, attr, _, _ in targets:
        mod = importlib.import_module(f"k3series.{mod_name}")
        if "." in attr:
            cls_name, meth = attr.split(".")
            assert meth in vars(getattr(mod, cls_name)), f"{mod_name}.{attr}"
        else:
            assert callable(getattr(mod, attr, None)), f"{mod_name}.{attr}"
