"""Every function the benchmark's tracer wraps still exists.

perfbench/tracer.py wraps (module, attribute) pairs of the package by
monkeypatching, so renaming one of them would break only traced
benchmark runs.  The pairs are read from the tracer's source, which is
neither imported nor changed.
"""

import ast
import importlib
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _traced_pairs():
    for node in ast.parse(TRACER.read_text()).body:
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["TRACED"]:
            return ast.literal_eval(node.value)
    raise AssertionError(f"no TRACED assignment in {TRACER.name}")


def test_every_traced_name_resolves():
    pairs = _traced_pairs()
    assert pairs
    missing = []
    for module_name, path in pairs:
        module = importlib.import_module(f"morsl.{module_name}")
        if "." in path:
            # the tracer reads methods from the class's own namespace
            cls_name, attr = path.split(".")
            found = attr in vars(getattr(module, cls_name, object))
        else:
            found = callable(getattr(module, path, None))
        if not found:
            missing.append(f"{module_name}.{path}")
    assert missing == []
